"""Runtime sanitizers: deadlock and numerics tripwires.

Two sanitizers behind one facade (DESIGN.md §13), with the same
zero-overhead contract as :class:`repro.observability.Instrumentation`:
``None`` means *off*, and off costs nothing — drivers hold the handle in
a local and guard every checkpoint with an ``is not None`` test, so the
disabled hot path executes **zero** sanitizer code (the overhead
benchmark pins ``sys.setprofile`` to prove it).

* :class:`~repro.sanitize.collective.CollectiveScheduleSanitizer` —
  collective-schedule verification on :class:`~repro.parallel.comm.
  VirtualComm` plus true SPMD emulation (:func:`~repro.sanitize.
  collective.run_spmd`) that converts rank-divergent collectives from
  silent hangs into diagnostics naming ranks and call sites.
* :class:`~repro.sanitize.numerics.NumericsSanitizer` — NaN/Inf and
  silent-dtype-demotion tripwires at SCF/LDC/multigrid checkpoints.

Enable in code (``Sanitizers.all()`` or a custom mix) or from the
environment: ``REPRO_SANITIZE=1`` (everything) or a comma list like
``REPRO_SANITIZE=collective,numerics``.  :data:`ENV_SANITIZERS` holds the
environment-derived bundle (``None`` when the variable is unset/off) —
drivers read it as a module attribute, not through a call, keeping the
disabled path call-free.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.sanitize.collective import (  # noqa: F401  (public surface)
    CollectiveMismatchError,
    CollectiveScheduleSanitizer,
    DeadlockError,
    RankComm,
    SanitizerError,
    SpmdAborted,
    run_spmd,
)
from repro.sanitize.numerics import NumericsError, NumericsSanitizer  # noqa: F401

_NAMES = ("collective", "numerics")


@dataclass
class Sanitizers:
    """The bundle a driver threads through its call tree.

    Any slot may be ``None`` — each checkpoint guards on its own slot, so
    e.g. a numerics-only run pays nothing for the collective ledger.
    """

    collective: CollectiveScheduleSanitizer | None = None
    numerics: NumericsSanitizer | None = None

    @classmethod
    def all(cls, numerics_mode: str = "raise") -> "Sanitizers":
        return cls(
            collective=CollectiveScheduleSanitizer(),
            numerics=NumericsSanitizer(mode=numerics_mode),
        )

    @classmethod
    def from_spec(cls, spec: str) -> "Sanitizers | None":
        """Parse a ``REPRO_SANITIZE``-style spec; ``None`` when off."""
        spec = spec.strip().lower()
        if spec in ("", "0", "off", "none", "false"):
            return None
        if spec in ("1", "all", "on", "true"):
            return cls.all()
        chosen = {part.strip() for part in spec.split(",") if part.strip()}
        unknown = chosen - set(_NAMES)
        if unknown:
            raise ValueError(
                f"unknown sanitizer(s) {sorted(unknown)} in "
                f"REPRO_SANITIZE; valid names: {', '.join(_NAMES)}"
            )
        return cls(
            collective=(
                CollectiveScheduleSanitizer() if "collective" in chosen
                else None
            ),
            numerics=NumericsSanitizer() if "numerics" in chosen else None,
        )

    def wrap_comm(self, comm):
        """Attach the collective sanitizer as ``comm``'s observer."""
        if self.collective is not None:
            comm.sanitizer = self.collective
        return comm


#: Environment-derived bundle, built once at import: drivers resolve
#: ``sanitize if sanitize is not None else ENV_SANITIZERS`` — an attribute
#: read, never a call, so the disabled path stays call-free.
ENV_SANITIZERS: Sanitizers | None = Sanitizers.from_spec(
    os.environ.get("REPRO_SANITIZE", "")
)
