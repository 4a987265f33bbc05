"""Tests for space-filling curves and the coordinate codec."""

import numpy as np
import pytest

from repro.compression.codec import (
    compress_frame,
    decompress_frame,
    quantization_error_bound,
)
from repro.compression.sfc import hilbert_index, morton_index, sfc_sort
from repro.systems import lial_nanoparticle
from tests.sic import sic_crystal


def _full_grid(bits):
    n = 1 << bits
    return np.array([(x, y, z) for x in range(n) for y in range(n) for z in range(n)])


@pytest.mark.parametrize("curve_fn", [morton_index, hilbert_index])
def test_curve_bijective(curve_fn):
    g = _full_grid(2)
    idx = curve_fn(g, 2)
    assert sorted(idx.tolist()) == list(range(64))


def test_hilbert_unit_steps():
    """Every consecutive pair on the Hilbert curve is grid-adjacent —
    the defining locality property Morton lacks."""
    g = _full_grid(3)
    order = np.argsort(hilbert_index(g, 3))
    steps = np.abs(np.diff(g[order], axis=0)).sum(axis=1)
    assert np.all(steps == 1)


def test_morton_has_jumps():
    g = _full_grid(3)
    order = np.argsort(morton_index(g, 3))
    steps = np.abs(np.diff(g[order], axis=0)).sum(axis=1)
    assert steps.max() > 1  # Z-order jumps across octants


def test_hilbert_locality_beats_morton():
    """Mean curve-neighbor distance: Hilbert strictly better."""
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 16, size=(400, 3))
    d_h = _mean_step(pts, hilbert_index)
    d_m = _mean_step(pts, morton_index)
    assert d_h < d_m


def _mean_step(pts, curve_fn):
    order = np.argsort(curve_fn(pts, 4))
    return float(np.mean(np.linalg.norm(np.diff(pts[order], axis=0), axis=1)))


def test_curve_input_validation():
    with pytest.raises(ValueError):
        morton_index(np.array([[1, 2]]), 4)
    with pytest.raises(ValueError):
        morton_index(np.array([[1, 2, 100]]), 4)
    with pytest.raises(ValueError):
        hilbert_index(np.array([[1, 2, 3]]), 0)


def test_sfc_sort_is_permutation():
    c = sic_crystal((2, 2, 2))
    for curve in ("morton", "hilbert"):
        perm = sfc_sort(c.positions, c.cell, curve=curve)
        assert sorted(perm.tolist()) == list(range(len(c)))


def test_sfc_sort_unknown_curve():
    c = sic_crystal((1, 1, 1))
    with pytest.raises(ValueError):
        sfc_sort(c.positions, c.cell, curve="peano")


# ---- codec ----------------------------------------------------------------------

def test_roundtrip_within_quantization_bound():
    c = lial_nanoparticle(30)
    frame = compress_frame(c.positions, c.cell, bits=12)
    rec = decompress_frame(frame)
    bound = quantization_error_bound(c.cell, 12)
    wrapped = np.mod(c.positions, c.cell)
    err = np.abs(rec - wrapped)
    err = np.minimum(err, c.cell - err)  # periodic wrap
    assert np.all(err <= bound + 1e-12)


def test_more_bits_more_accuracy():
    c = lial_nanoparticle(30)
    errs = []
    for bits in (8, 12, 16):
        rec = decompress_frame(compress_frame(c.positions, c.cell, bits=bits))
        wrapped = np.mod(c.positions, c.cell)
        e = np.abs(rec - wrapped)
        errs.append(np.minimum(e, c.cell - e).max())
    assert errs[0] > errs[1] > errs[2]


def test_compression_beats_raw():
    c = sic_crystal((4, 4, 4))  # 512 ordered atoms compress well
    frame = compress_frame(c.positions, c.cell, bits=12)
    assert frame.compression_ratio() > 1.5


def test_hilbert_compresses_better_than_morton():
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 50, size=(2000, 3))
    cell = np.array([50.0, 50.0, 50.0])
    size_h = len(compress_frame(pos, cell, bits=12, curve="hilbert").payload)
    size_m = len(compress_frame(pos, cell, bits=12, curve="morton").payload)
    assert size_h <= size_m


def test_codec_deterministic():
    c = lial_nanoparticle(8)
    f1 = compress_frame(c.positions, c.cell)
    f2 = compress_frame(c.positions, c.cell)
    assert f1.payload == f2.payload


def test_single_atom_frame():
    pos = np.array([[1.0, 2.0, 3.0]])
    frame = compress_frame(pos, np.array([10.0, 10.0, 10.0]), bits=10)
    rec = decompress_frame(frame)
    np.testing.assert_allclose(rec, pos, atol=10 / 2**10)
