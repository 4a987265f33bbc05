"""Benchmark fixtures shared across the per-figure/table benches."""

import sys
import pathlib

import pytest

# the benches' own helpers (``_harness``, ``_schemas``), and the repo root
# for the references under ``tests/oracles/`` — under bare ``pytest`` as
# well as ``python -m pytest``
HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent)]


@pytest.fixture(scope="session")
def cdse16_amorphous():
    """The amorphous CdSe workload of Fig. 7 (downscaled to 16 atoms)."""
    from repro.systems import amorphous_cdse

    return amorphous_cdse((2, 1, 1), displacement=0.3, seed=3)


@pytest.fixture(scope="session")
def cdse16_reference(cdse16_amorphous):
    """Session-cached O(N³) reference for the LDC physics benches."""
    from repro.dft.scf import SCFOptions, run_scf

    return run_scf(
        cdse16_amorphous,
        SCFOptions(ecut=3.0, tol=1e-7, extra_bands=8, kt=0.02, eig_tol=1e-8),
    )
