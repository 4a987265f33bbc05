"""Shared utilities: the wall clock and linear-algebra wrappers."""

from repro.util.timer import WallClock
from repro.util.linalg import (
    apply_projectors_blas2,
    apply_projectors_blas3,
    blocked_gram,
    cholesky_orthonormalize,
    lowdin_orthonormalize,
)

__all__ = [
    "WallClock",
    "apply_projectors_blas2",
    "apply_projectors_blas3",
    "blocked_gram",
    "cholesky_orthonormalize",
    "lowdin_orthonormalize",
]
