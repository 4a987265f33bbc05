"""A non-finite potential is named where the Hamiltonian is built.

Every eigensolve of ``run_ldc`` (and of ``run_scf``, its whole-cell
case) builds a :class:`~repro.dft.hamiltonian.BatchedHamiltonian` (a
``Hamiltonian`` builds its stack of one), and that constructor rejects a
NaN or Inf in ``v_eff``, ``b`` or ``d`` with a
:class:`~repro.dft.hamiltonian.NonFiniteFieldError`.  Here a NaN is seeded
into the output of each producer of a potential — the FFT Hartree solve,
the multigrid Hartree solve, LDA exchange-correlation, the local
pseudopotential — and every driver and Poisson solver must end in that
error before any ``eigh`` runs.  A non-finite density (a NaN
atom position, a NaN starting density) stays the density's own error.  Two more
places name what they are handed: the LDC seam a domain whose band
densities come out non-finite, before the global μ search, and
:meth:`MultigridPoisson.solve` a non-finite source, before its first
V-cycle.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.core.ldc as ldc
from repro.core.ldc import LDCOptions, make_global_grid, run_ldc
from repro.dft.basis import PlaneWaveBasis
from repro.dft.hamiltonian import BatchedHamiltonian, NonFiniteFieldError
from repro.dft.mixing import DensityError
from repro.dft.occupations import find_chemical_potential
from repro.dft.scf import SCFOptions, run_scf
from repro.multigrid.poisson import MultigridPoisson
from repro.systems import dimer
from tests.builders import projector_stack, start_density

#: (driver, Poisson solver): run_scf, the whole cell, has the FFT Hartree
#: solve only
DRIVERS = (("scf", "fft"), ("ldc", "fft"), ("ldc", "multigrid"))
#: producer -> (where it is bound, the attribute, which output is a potential)
PRODUCERS = {
    "hartree_potential": ((ldc,), "hartree_potential", None),
    "lda_xc": ((ldc,), "lda_xc", 1),
    "local_potential": ((ldc,), "local_potential", None),
    "MultigridPoisson.solve": ((MultigridPoisson,), "solve", None),
}
#: every case ends its id in the one eigensolver's name, ``all_band``
CASES = [
    pytest.param(producer, driver, poisson,
                 id=f"{producer}-{driver}-{poisson}-all_band")
    for producer in PRODUCERS
    for driver, poisson in DRIVERS
    # each Hartree solver runs on its own Poisson path only
    if not (producer == "hartree_potential" and poisson == "multigrid")
    and not (producer == "MultigridPoisson.solve" and poisson == "fft")
]


@pytest.fixture(scope="module")
def h2():
    """The configuration (copied per use) and the LDC global grid."""
    config = dimer("H", "H", 1.5, 12.0)
    return config, make_global_grid(config, _ldc_options("fft"))


def _ldc_options(poisson):
    return LDCOptions(
        ecut=4.0, tol=1e-3, max_iter=3, domains=(2, 1, 1), poisson=poisson,
    )


def _solve(config, driver, poisson, **kwargs):
    if driver == "scf":
        return run_scf(
            config, SCFOptions(ecut=4.0, tol=1e-3, max_iter=3), **kwargs,
        )
    return run_ldc(config, _ldc_options(poisson), **kwargs)


@pytest.fixture()
def eigh_calls(monkeypatch):
    """Every ``np.linalg.eigh`` call of the test, counted."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("producer, driver, poisson", CASES)
def test_a_nan_potential_is_named_before_any_eigensolve(
    h2, eigh_calls, monkeypatch, producer, driver, poisson
):
    owners, attr, index = PRODUCERS[producer]
    seeded = []

    def poisoned(original):
        def produce(*args, **kwargs):
            out = original(*args, **kwargs)
            potential = out if index is None else out[index]
            potential[(0,) * potential.ndim] = np.nan
            seeded.append(producer)
            return out
        return produce

    for owner in owners:
        monkeypatch.setattr(owner, attr, poisoned(getattr(owner, attr)))
    config, _ = h2
    with pytest.raises(
        NonFiniteFieldError, match=r"^v_eff of stack slot 0: 1 of \d+ entries are NaN/Inf$"
    ):
        _solve(config.copy(), driver, poisson)
    assert seeded and eigh_calls == []


@pytest.mark.parametrize("driver, poisson", DRIVERS[:2], ids=["scf", "ldc"])
@pytest.mark.parametrize("fault", ["position", "rho0"])
def test_a_nan_density_stays_a_density_error(
    h2, eigh_calls, driver, poisson, fault, monkeypatch
):
    config, grid = h2
    config = config.copy()
    if fault == "position":
        config.positions[0, 0] = np.nan
    else:
        rho0 = np.full(grid.shape, 0.01)
        rho0[0, 0, 0] = np.nan
        start_density(monkeypatch, rho0)
    with pytest.raises(DensityError, match="finite positive"):
        _solve(config, driver, poisson)
    assert eigh_calls == []


@pytest.mark.parametrize("name", ["v_eff", "b", "d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_error_names_the_field_the_count_and_the_slot(h2, name, bad):
    """Any non-finite entry of any of the three fields, in any slot; an
    all-finite stack passes."""
    _, grid = h2
    basis = PlaneWaveBasis(grid, 4.0)
    rng = np.random.default_rng(3)
    fields = {
        "v_eff": rng.random((3, *grid.shape)),
        "b": rng.random((3, basis.npw, 2)) + 1j * rng.random((3, basis.npw, 2)),
        "d": rng.random((3, 2)),
    }

    def stack():
        return BatchedHamiltonian(
            basis, fields["v_eff"], projector_stack(fields["b"], fields["d"])
        )

    stack()
    fields[name].reshape(3, -1)[2, :2] = bad
    with pytest.raises(NonFiniteFieldError) as caught:
        stack()
    size = fields[name][2].size
    assert str(caught.value) == (
        f"{name} of stack slot 2: 2 of {size} entries are NaN/Inf"
    )
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize("wide", [False, True], ids=["width1", "widthn"])
def test_a_nan_band_density_is_named_by_its_domain(h2, monkeypatch, wide):
    """A NaN in one domain's per-band |ψ|² ends in the error naming that
    domain and the count of its non-finite band weights, not in the μ
    search, at either stack width."""
    densities = PlaneWaveBasis.densities
    calls, mu_searches = [], []

    def poisoned(self, orbitals, out, occupations=None):
        result = densities(self, orbitals, out, occupations)
        if len(calls) == 1:  # the second domain of the first pass
            result[0, 0, 0, 0] = np.nan
        calls.append(1)
        return result

    def mu_search(*args, **kwargs):
        mu_searches.append(1)
        return find_chemical_potential(*args, **kwargs)

    monkeypatch.setattr(PlaneWaveBasis, "densities", poisoned)
    monkeypatch.setattr(ldc, "find_chemical_potential", mu_search)
    config, _ = h2
    options = replace(_ldc_options("fft"), batch_domains=wide)
    with pytest.raises(
        NonFiniteFieldError,
        match=r"^band densities of domain 1: 1 of \d+ band weights are NaN/Inf$",
    ):
        run_ldc(config.copy(), options)
    assert len(calls) == 2 and mu_searches == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_nonfinite_source_is_refused_before_the_first_cycle(
    h2, monkeypatch, bad
):
    """A direct call with a non-finite source names it and the count; no
    V-cycle runs, and a finite source still solves."""
    _, grid = h2
    poisson = MultigridPoisson(grid)
    cycles = []
    vcycle = MultigridPoisson._vcycle

    def counted(self, *args):
        cycles.append(1)
        return vcycle(self, *args)

    monkeypatch.setattr(MultigridPoisson, "_vcycle", counted)
    rho = np.full(grid.shape, 0.01)
    rho[1, 2, 3] = rho[0, 0, 0] = bad
    with pytest.raises(NonFiniteFieldError) as caught:
        poisson.solve(rho)
    assert str(caught.value) == (
        f"source: 2 of {grid.npoints} entries are NaN/Inf"
    )
    assert cycles == []
    rho[1, 2, 3] = rho[0, 0, 0] = 0.01
    assert np.isfinite(poisson.solve(rho)).all() and cycles
