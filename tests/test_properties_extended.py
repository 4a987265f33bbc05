"""Second battery of property-based tests: Ewald invariances, I/O model
monotonicity and occupation-derivative consistency."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.collective_io import CollectiveIOModel
from tests.builders import ewald_energy

COMMON = dict(max_examples=20, deadline=None)


# ---- Ewald -------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 1000),
    shift=st.tuples(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
    ),
)
def test_ewald_translation_invariance_property(seed, shift):
    rng = np.random.default_rng(seed)
    cell = np.array([7.0, 8.0, 9.0])
    pos = rng.uniform(0, 7, size=(4, 3))
    q = rng.uniform(-1, 1, size=4)
    q -= q.mean()
    e0 = ewald_energy(pos, q, cell)
    e1 = ewald_energy(np.mod(pos + np.array(shift), cell), q, cell)
    assert e1 == pytest.approx(e0, abs=1e-8)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000), scale=st.floats(1.5, 3.0))
def test_ewald_exact_scaling_law(seed, scale):
    """Coulomb scaling: shrinking all lengths by λ multiplies E by λ."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(1, 9, size=(3, 3))
    q = rng.uniform(-1, 1, size=3)
    big = ewald_energy(pos, q, np.array([10.0] * 3))
    small = ewald_energy(pos / scale, q, np.array([10.0 / scale] * 3))
    assert small == pytest.approx(scale * big, rel=1e-7, abs=1e-9)


# ---- I/O model -------------------------------------------------------------------

@settings(**COMMON)
@given(
    factor=st.floats(1.5, 10.0),
    group=st.sampled_from([16, 64, 192, 1024]),
)
def test_io_time_monotone_in_bytes(factor, group):
    model = CollectiveIOModel()
    t1 = model.io_time(1e10, 100_000, group)
    t2 = model.io_time(1e10 * factor, 100_000, group)
    assert t2 > t1


# ---- occupations -------------------------------------------------------------------

@settings(**COMMON)
@given(
    mu=st.floats(-1.0, 1.0),
    kt=st.floats(1e-3, 0.2),
    eig=st.floats(-2.0, 2.0),
)
def test_occupation_derivative_consistency(mu, kt, eig):
    from repro.dft.occupations import fermi_occupations, occupation_derivative

    h = 1e-6
    fd = (
        fermi_occupations(np.array([eig]), mu + h, kt)
        - fermi_occupations(np.array([eig]), mu - h, kt)
    ) / (2 * h)
    d = occupation_derivative(np.array([eig]), mu, kt)
    assert d[0] == pytest.approx(fd[0], abs=1e-4, rel=1e-3)
