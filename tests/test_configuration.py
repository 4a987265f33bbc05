"""Tests for the Configuration container."""

import numpy as np
import pytest

from repro.systems import Configuration, dimer
from tests.builders import (
    combined,
    distance,
    distance_matrix,
    select,
    species_counts,
    translated,
)


def test_basic_construction():
    c = Configuration(["H", "O"], [[0, 0, 0], [1, 1, 1]], [10, 10, 10])
    assert len(c) == 2


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        Configuration(["H"], [[0, 0, 0], [1, 1, 1]], [10, 10, 10])


def test_negative_cell_raises():
    with pytest.raises(ValueError):
        Configuration(["H"], [[0, 0, 0]], [10, -1, 10])


def test_velocity_shape_check():
    with pytest.raises(ValueError):
        Configuration(["H"], [[0, 0, 0]], [10, 10, 10], velocities=[[1, 2]])


def test_n_electrons():
    c = Configuration(["O", "H", "H"], np.zeros((3, 3)), [10, 10, 10])
    assert c.n_electrons() == pytest.approx(8.0)


def test_wrap():
    c = Configuration(["H"], [[11.0, -1.0, 5.0]], [10, 10, 10])
    w = c.wrapped_positions()
    np.testing.assert_allclose(w, [[1.0, 9.0, 5.0]])


def test_minimum_image_distance():
    c = Configuration(["H", "H"], [[0.5, 0, 0], [9.5, 0, 0]], [10, 10, 10])
    assert distance(c, 0, 1) == pytest.approx(1.0)


def test_distance_matrix_symmetric():
    c = dimer("H", "O", 2.0)
    d = distance_matrix(c)
    assert d[0, 1] == pytest.approx(2.0)
    assert d[1, 0] == pytest.approx(2.0)
    assert d[0, 0] == pytest.approx(0.0)


def test_translation_preserves_distances():
    c = dimer("H", "O", 2.0)
    t = translated(c, [3.7, -2.2, 15.9])
    assert distance(t, 0, 1) == pytest.approx(distance(c, 0, 1))


def test_select():
    c = Configuration(["H", "O", "Li"], np.arange(9.0).reshape(3, 3), [20, 20, 20])
    s = select(c, [2, 0])
    assert s.symbols == ["Li", "H"]
    np.testing.assert_allclose(s.positions[0], c.positions[2])


def test_extend():
    a = Configuration(["H"], [[1, 1, 1]], [10, 10, 10])
    b = Configuration(["O"], [[2, 2, 2]], [10, 10, 10])
    c = combined(a, b)
    assert c.symbols == ["H", "O"]
    assert len(c) == 2


def test_extend_cell_mismatch_raises():
    a = Configuration(["H"], [[1, 1, 1]], [10, 10, 10])
    b = Configuration(["O"], [[2, 2, 2]], [11, 10, 10])
    with pytest.raises(ValueError):
        combined(a, b)


def test_counts():
    c = Configuration(["H", "H", "O"], np.zeros((3, 3)), [5, 5, 5])
    assert species_counts(c) == {"H": 2, "O": 1}


def test_copy_is_independent():
    c = dimer("H", "H", 1.0)
    c2 = c.copy()
    c2.positions[0, 0] += 1.0
    assert c.positions[0, 0] != c2.positions[0, 0]


def test_masses_positive():
    c = dimer("Li", "Al", 3.0)
    assert np.all(c.masses > 0)
    # Al heavier than Li
    assert c.masses[1] > c.masses[0]
