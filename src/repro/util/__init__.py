"""Shared utilities: the wall clock, the BLAS2 projector reference and
the one Cholesky and one Löwdin orthonormalization."""

from repro.util.timer import WallClock
from repro.util.linalg import (
    apply_projectors_blas2,
    cholesky_orthonormalize,
    lowdin_orthonormalize,
)

__all__ = [
    "WallClock",
    "apply_projectors_blas2",
    "cholesky_orthonormalize",
    "lowdin_orthonormalize",
]
