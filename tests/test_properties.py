"""Property-based tests (hypothesis) on the core data structures and
invariants: partition of unity, FFT round-trips, conservation laws,
occupation solver, complexity-model optima, and velocity
initialisation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.complexity import optimal_core_length, total_cost
from repro.core.domains import DomainDecomposition
from repro.core.support import supports
from repro.dft.basis import PlaneWaveBasis
from repro.dft.grid import RealSpaceGrid
from repro.dft.occupations import fermi_occupations, find_chemical_potential
from repro.dft.xc import lda_xc
from repro.util.linalg import cholesky_orthonormalize
from tests.builders import partition_residual
from tests.oracles.reference import grid_fft, grid_ifft

# keep hypothesis fast and deterministic
COMMON = dict(max_examples=25, deadline=None)


# ---- partition of unity -----------------------------------------------------

@settings(**COMMON)
@given(
    nd=st.tuples(st.sampled_from([1, 2, 4]), st.integers(1, 2), st.integers(1, 2)),
    buffer_=st.floats(0.0, 5.0),
)
def test_partition_of_unity_always_holds(nd, buffer_):
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [16, 16, 16])
    decomp = DomainDecomposition(grid, nd, buffer_)
    w = supports(decomp)
    assert partition_residual(decomp, w) <= 1e-12


# ---- grids and bases ---------------------------------------------------------

@settings(**COMMON)
@given(seed=st.integers(0, 10_000))
def test_fft_roundtrip_property(seed):
    grid = RealSpaceGrid([7.0, 9.0, 11.0], [10, 12, 8])
    f = np.random.default_rng(seed).normal(size=grid.shape)
    np.testing.assert_allclose(grid_ifft(grid, grid_fft(grid, f)).real, f, atol=1e-12)


@settings(**COMMON)
@given(seed=st.integers(0, 10_000), nband=st.integers(1, 6))
def test_basis_roundtrip_property(seed, nband):
    grid = RealSpaceGrid([9.0, 9.0, 9.0], [12, 12, 12])
    basis = PlaneWaveBasis(grid, 4.0)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(basis.npw, nband)) + 1j * rng.normal(size=(basis.npw, nband))
    np.testing.assert_allclose(basis.from_grid(basis.to_grid(c)), c, atol=1e-10)


@settings(**COMMON)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
def test_cholesky_orthonormalize_property(seed, n):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n))
    q = cholesky_orthonormalize(psi)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(n), atol=1e-8)


# ---- XC ------------------------------------------------------------------------

@settings(**COMMON)
@given(rho=st.floats(1e-8, 100.0))
def test_xc_energy_negative_and_potential_below(rho):
    eps, v = lda_xc(np.array([rho]))
    assert eps[0] < 0
    assert v[0] < 0
    # v = d(ρε)/dρ < ε for LDA (both exchange and correlation deepen)
    assert v[0] <= eps[0] + 1e-12


# ---- occupations ------------------------------------------------------------------

@settings(**COMMON)
@given(
    seed=st.integers(0, 10_000),
    kt=st.floats(1e-4, 0.2),
    fill=st.floats(0.05, 0.95),
)
def test_chemical_potential_property(seed, kt, fill):
    rng = np.random.default_rng(seed)
    eigs = np.sort(rng.normal(size=30))
    ne = fill * 60.0
    mu = find_chemical_potential(eigs, ne, kt)
    total = fermi_occupations(eigs, mu, kt).sum()
    assert total == pytest.approx(ne, abs=1e-8)


# ---- complexity model ----------------------------------------------------------------

@settings(**COMMON)
@given(
    b=st.floats(0.5, 10.0),
    nu=st.floats(1.5, 3.5),
    scale=st.floats(0.5, 2.0),
)
def test_lstar_is_global_minimum(b, nu, scale):
    l_star = optimal_core_length(b, nu)
    t_star = total_cost(l_star, 100.0, b, nu)
    assert total_cost(l_star * (1 + 0.3 * scale), 100.0, b, nu) >= t_star
    assert total_cost(l_star / (1 + 0.3 * scale), 100.0, b, nu) >= t_star


# ---- velocity initialisation ---------------------------------------------------------

@settings(**COMMON)
@given(seed=st.integers(0, 1000), temp=st.floats(50.0, 2000.0))
def test_velocity_init_temperature_property(seed, temp):
    from repro.md.integrator import initialize_velocities, temperature
    from tests.builders import random_gas

    c = random_gas(["Al"] * 10, 25.0, seed=seed % 7)
    initialize_velocities(c, temp, seed=seed)
    assert temperature(c) == pytest.approx(temp, rel=1e-9)
