"""Shared utilities: the wall clock and the one Cholesky and one Löwdin
orthonormalization."""

from repro.util.timer import WallClock
from repro.util.linalg import cholesky_orthonormalize, lowdin_orthonormalize

__all__ = [
    "WallClock",
    "cholesky_orthonormalize",
    "lowdin_orthonormalize",
]
