"""Numerics sanitizer: NaN/Inf and silent-precision tripwires on hot paths.

A NaN born in one domain's eigensolve is *legal* all the way through
density assembly, mixing, the Hartree solve, and an ``allreduce`` — by
the time the energy prints ``nan`` the trail is cold.  The sanitizer
turns the first non-finite value (or a silent dtype demotion, e.g. a
complex wavefunction collapsing to float or ``float64`` state downcast to
``float32``) into an immediate :class:`NumericsError` naming the array
and the checkpoint that caught it.

Checks are explicit calls placed at the SCF/LDC/multigrid checkpoints by
the drivers (``ins.check("rho_new", rho)`` on their observability handle,
which forwards here only when a sanitizer is armed), so the disabled path
executes zero sanitizer code.
"""

from __future__ import annotations

from typing import Any

import numpy as np


class NumericsError(RuntimeError):
    """A checked array carried NaN/Inf or silently lost precision."""


#: dtype kind+size floors: demotion = same kind, smaller itemsize, or a
#: complex array arriving where the reference was complex (kind change).
def _is_demotion(ref: np.dtype, got: np.dtype) -> bool:
    if ref == got:
        return False
    if ref.kind == "c" and got.kind in ("f", "i"):
        return True  # complex data silently collapsed to real
    if ref.kind == got.kind and got.itemsize < ref.itemsize:
        return True  # f64 → f32, c128 → c64
    if ref.kind == "f" and got.kind == "i":
        return True  # float state truncated to integer
    return False


class NumericsSanitizer:
    """NaN/Inf and dtype-demotion tripwires.

    Parameters
    ----------
    mode:
        ``"raise"`` (default) raises :class:`NumericsError` at the first
        bad checkpoint; ``"collect"`` records every event in
        :attr:`events` and keeps going (for surveying a long run).
    """

    def __init__(self, mode: str = "raise") -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.checks = 0
        self.events: list[str] = []

    def _report(self, message: str) -> None:
        if self.mode == "raise":
            raise NumericsError(message)
        self.events.append(message)

    def check(
        self,
        name: str,
        value: Any,
        where: str = "",
        expect_dtype: np.dtype | type | str | None = None,
    ) -> Any:
        """Validate one checkpoint; returns ``value`` for inline use."""
        self.checks += 1
        at = f" at {where}" if where else ""
        arr = np.asarray(value)
        if arr.dtype.kind in ("f", "c"):
            if not np.all(np.isfinite(arr)):
                bad = int(np.count_nonzero(~np.isfinite(arr)))
                self._report(
                    f"non-finite values in {name!r}{at}: {bad} of "
                    f"{arr.size} entries are NaN/Inf (dtype {arr.dtype}) "
                    f"— first poisoned checkpoint on this path"
                )
        if expect_dtype is not None:
            ref = np.dtype(expect_dtype)
            if _is_demotion(ref, arr.dtype):
                self._report(
                    f"silent dtype demotion in {name!r}{at}: expected "
                    f"{ref} but got {arr.dtype} — precision (or the "
                    f"imaginary part) was dropped without an explicit cast"
                )
        return value
