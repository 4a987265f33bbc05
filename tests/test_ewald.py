"""Tests for the Ewald summation: known Madelung constants, η-invariance,
translation invariance, and force consistency."""

import numpy as np
import pytest
import scipy.special

from repro.dft import ewald as ewald_module
from repro.dft.ewald import erfc, ewald
from repro.systems.lialloy import lial_nanoparticle
from repro.systems.water import water_molecule
from tests.builders import ewald_energy


def _nacl(a=1.0):
    """Rocksalt with ±1 charges; conventional cell, 8 ions."""
    cat = np.array(
        [[0, 0, 0], [0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]], dtype=float
    )
    an = cat + np.array([0.5, 0.0, 0.0])
    pos = np.vstack([cat, an]) * a
    charges = np.array([1.0] * 4 + [-1.0] * 4)
    return pos, charges, np.array([a, a, a])


def test_nacl_madelung_constant():
    """E/ion-pair = -M/r_nn with M(NaCl) = 1.7475646."""
    a = 2.0
    pos, q, cell = _nacl(a)
    e = ewald_energy(pos, q, cell)
    r_nn = a / 2
    madelung = -e / 4.0 * r_nn  # 4 ion pairs per cell
    assert madelung == pytest.approx(1.747564594633, rel=1e-8)


def test_cscl_madelung_constant():
    """M(CsCl) = 1.762675 (referred to the nn distance a√3/2)."""
    a = 2.0
    pos = np.array([[0.0, 0.0, 0.0], [0.5 * a, 0.5 * a, 0.5 * a]])
    q = np.array([1.0, -1.0])
    cell = np.array([a, a, a])
    e = ewald_energy(pos, q, cell)
    r_nn = a * np.sqrt(3) / 2
    madelung = -e * r_nn
    assert madelung == pytest.approx(1.76267477307, rel=1e-8)


def test_eta_independence():
    pos, q, cell = _nacl(3.0)
    energies = [ewald_energy(pos, q, cell, eta=eta) for eta in (0.5, 1.0, 2.0)]
    assert max(energies) - min(energies) < 1e-8


def test_translation_invariance():
    pos, q, cell = _nacl(3.0)
    e0 = ewald_energy(pos, q, cell)
    shift = np.array([0.37, -1.2, 0.81])
    e1 = ewald_energy(np.mod(pos + shift, cell), q, cell)
    assert e1 == pytest.approx(e0, abs=1e-9)


def test_charged_system_background():
    """A charged system must still give a finite, η-independent energy."""
    pos = np.array([[1.0, 1.0, 1.0]])
    q = np.array([2.0])
    cell = np.array([5.0, 5.0, 5.0])
    e1 = ewald_energy(pos, q, cell, eta=0.8)
    e2 = ewald_energy(pos, q, cell, eta=1.6)
    assert np.isfinite(e1)
    assert e1 == pytest.approx(e2, abs=1e-8)


def test_point_charge_self_energy_scales_inverse_length():
    """Wigner-like scaling: E ∝ 1/L for one charge + background."""
    q = np.array([1.0])
    e_small = ewald_energy(np.array([[0.0, 0.0, 0.0]]), q, np.array([4.0] * 3))
    e_large = ewald_energy(np.array([[0.0, 0.0, 0.0]]), q, np.array([8.0] * 3))
    assert e_small == pytest.approx(2.0 * e_large, rel=1e-8)


def test_forces_zero_at_symmetric_configuration():
    pos, q, cell = _nacl(3.0)
    _, f = ewald(pos, q, cell)
    np.testing.assert_allclose(f, 0.0, atol=1e-9)


def test_forces_match_finite_difference():
    rng = np.random.default_rng(0)
    cell = np.array([6.0, 7.0, 8.0])
    pos = rng.uniform(0, 6, size=(5, 3))
    q = np.array([1.0, -2.0, 0.5, 0.5, 0.0])
    _, f = ewald(pos, q, cell)
    h = 1e-5
    for atom in (0, 1):
        for axis in range(3):
            p = pos.copy()
            p[atom, axis] += h
            ep = ewald_energy(p, q, cell)
            p[atom, axis] -= 2 * h
            em = ewald_energy(p, q, cell)
            fd = -(ep - em) / (2 * h)
            assert f[atom, axis] == pytest.approx(fd, abs=1e-7)


def test_newton_third_law():
    rng = np.random.default_rng(1)
    cell = np.array([7.0, 7.0, 7.0])
    pos = rng.uniform(0, 7, size=(6, 3))
    q = rng.uniform(-1, 1, size=6)
    q -= q.mean()  # neutral
    _, f = ewald(pos, q, cell)
    np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-9)


def test_opposite_charges_attract():
    cell = np.array([20.0, 20.0, 20.0])
    pos = np.array([[8.0, 10.0, 10.0], [12.0, 10.0, 10.0]])
    q = np.array([1.0, -1.0])
    _, f = ewald(pos, q, cell)
    assert f[0, 0] > 0  # pulled toward +x (toward the other atom)
    assert f[1, 0] < 0


def test_charge_count_validation():
    with pytest.raises(ValueError):
        ewald(np.zeros((2, 3)), np.array([1.0]), np.array([5.0, 5.0, 5.0]))


# -- the standard-library erfc (SciPy is the oracle, not a dependency) --------


def test_erfc_matches_scipy_over_the_range_ewald_uses():
    """``ewald()`` keeps pairs with ``η r ≤ x + 1``, ``x = √(-ln tol)``:
    0 … 5.8 at the default tolerance, 0 … 7.1 at 1e-16."""
    x = np.linspace(0.0, np.sqrt(-np.log(1e-16)) + 1.0, 20001)
    ours, ref = erfc(x), scipy.special.erfc(x)
    assert ours.dtype == float and ours.shape == x.shape
    assert np.max(np.abs(ours - ref) / ref) <= 1e-14
    assert erfc(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("config", [
    lial_nanoparticle(4, cell=[16.0, 16.0, 16.0]),
    water_molecule(center=(6.0, 6.0, 6.0), cell=[12.0, 12.0, 12.0]),
], ids=["Li4Al4", "H2O"])
def test_benchmark_geometries_match_the_scipy_erfc_evaluation(
    config, monkeypatch
):
    """Energy and forces on the two e2e benchmark geometries, against the
    same sum with ``scipy.special.erfc`` (what the code called before)."""
    args = (config.positions, config.zvals, config.cell)
    energy, forces = ewald(*args)
    monkeypatch.setattr(ewald_module, "erfc", scipy.special.erfc)
    ref_energy, ref_forces = ewald(*args)
    assert abs(energy - ref_energy) <= 1e-13 * abs(ref_energy)
    assert np.abs(forces - ref_forces).max() <= 1e-13 * np.abs(ref_forces).max()
