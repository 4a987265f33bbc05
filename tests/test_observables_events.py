"""Tests for trajectory observables."""

import numpy as np
import pytest

from repro.md.observables import (
    coordination_number,
    diffusion_constant,
    mean_square_displacement,
    radial_distribution,
    velocity_autocorrelation,
)
from repro.systems import Configuration
from tests.sic import sic_crystal


# ---- RDF ---------------------------------------------------------------------

def test_rdf_crystal_first_peak():
    c = sic_crystal((3, 3, 3))
    from tests.sic import SIC_LATTICE_CONSTANT

    r, g = radial_distribution(c, "Si", "C", nbins=200)
    nn = SIC_LATTICE_CONSTANT * np.sqrt(3) / 4
    peak_r = r[int(np.argmax(g))]
    assert peak_r == pytest.approx(nn, abs=0.2)


def test_rdf_ideal_gas_is_flat():
    rng = np.random.default_rng(0)
    cfg = Configuration(
        ["H"] * 400, rng.uniform(0, 30, size=(400, 3)), [30.0, 30.0, 30.0]
    )
    r, g = radial_distribution(cfg, nbins=30)
    # away from r=0 the RDF of an ideal gas is ~1
    tail = g[len(g) // 3 :]
    assert abs(tail.mean() - 1.0) < 0.1


def test_rdf_validation():
    c = sic_crystal((1, 1, 1))
    with pytest.raises(ValueError):
        radial_distribution(c, "Si", "C", nbins=1)
    with pytest.raises(ValueError):
        radial_distribution(c, "Xx", "C")


# ---- MSD / diffusion --------------------------------------------------------------

def test_msd_static_trajectory_zero():
    c = sic_crystal((1, 1, 1))
    frames = [c.positions.copy() for _ in range(5)]
    msd = mean_square_displacement(frames, c.cell)
    np.testing.assert_allclose(msd, 0.0, atol=1e-14)


def test_msd_ballistic_quadratic():
    cell = np.array([50.0, 50.0, 50.0])
    v = np.array([[0.1, 0.0, 0.0]])
    frames = [np.array([[25.0, 25.0, 25.0]]) + v * t for t in range(10)]
    msd = mean_square_displacement([np.mod(f, cell) for f in frames], cell)
    expected = (0.1 * np.arange(10)) ** 2
    np.testing.assert_allclose(msd, expected, atol=1e-10)


def test_msd_unwraps_periodic_crossing():
    """An atom drifting through the boundary must not show an MSD jump."""
    cell = np.array([10.0, 10.0, 10.0])
    frames = [np.mod(np.array([[9.5 + 0.3 * t, 5.0, 5.0]]), cell) for t in range(8)]
    msd = mean_square_displacement(frames, cell)
    expected = (0.3 * np.arange(8)) ** 2
    np.testing.assert_allclose(msd, expected, atol=1e-10)


def test_diffusion_constant_from_linear_msd():
    timestep = 2.0
    msd = 6.0 * 0.05 * np.arange(20) * timestep  # D = 0.05
    assert diffusion_constant(msd, timestep) == pytest.approx(0.05)


def test_diffusion_validation():
    with pytest.raises(ValueError):
        diffusion_constant(np.array([0.0]), 1.0)


def test_msd_validation():
    with pytest.raises(ValueError):
        mean_square_displacement([np.zeros((1, 3))], [10, 10, 10])


# ---- VACF -----------------------------------------------------------------------

def test_vacf_starts_at_one():
    rng = np.random.default_rng(1)
    frames = [rng.normal(size=(20, 3)) for _ in range(5)]
    vacf = velocity_autocorrelation(frames)
    assert vacf[0] == pytest.approx(1.0)


def test_vacf_uncorrelated_decays():
    rng = np.random.default_rng(2)
    v0 = rng.normal(size=(500, 3))
    frames = [v0] + [rng.normal(size=(500, 3)) for _ in range(4)]
    vacf = velocity_autocorrelation(frames)
    assert np.all(np.abs(vacf[1:]) < 0.2)


def test_vacf_validation():
    with pytest.raises(ValueError):
        velocity_autocorrelation([np.zeros((3, 3))])


# ---- coordination ----------------------------------------------------------------

def test_coordination_number_sic():
    c = sic_crystal((2, 2, 2))
    cn = coordination_number(c, "Si", "C", cutoff=4.0)
    assert cn == pytest.approx(4.0)  # zincblende: 4 unlike neighbors


def test_coordination_missing_species():
    c = sic_crystal((1, 1, 1))
    assert coordination_number(c, "Al", "O", 4.0) == 0.0
