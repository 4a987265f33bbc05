"""Runtime sanitizers: deadlock and numerics tripwires (DESIGN.md §13).

Off by default, and an engine process that leaves them off never imports
this package: the drivers' numerics checkpoints are calls on their one
observability handle (``ins.check(...)``, :mod:`repro.observe`), which do
nothing on the off observer (the overhead benchmark pins, with
``sys.setprofile``, that no frame of ``repro/sanitize`` is entered).

* :class:`~repro.sanitize.collective.CollectiveScheduleSanitizer` —
  collective-schedule verification on :class:`~repro.parallel.comm.
  VirtualComm` plus true SPMD emulation (:func:`~repro.sanitize.
  collective.run_spmd`) that converts rank-divergent collectives from
  silent hangs into diagnostics naming ranks and call sites.
* :class:`~repro.sanitize.numerics.NumericsSanitizer` — NaN/Inf and
  silent-dtype-demotion tripwires at SCF/LDC/multigrid checkpoints.

Arm the numerics tripwires in code with
``instrumentation=Instrumentation(numerics=NumericsSanitizer())`` on any
driver, or from the environment: ``REPRO_SANITIZE=1`` (everything) or a
comma list like ``REPRO_SANITIZE=collective,numerics``.  The variable is
read in one place, :func:`repro.observe.env_numerics`, once per process,
when a driver is called with ``instrumentation=None`` or an
``Instrumentation`` is built without ``numerics=``;
``instrumentation=repro.observe.OFF`` is off whatever it says.  The
collective sanitizer is attached to a communicator explicitly
(``VirtualComm(sanitizer=...)``, :meth:`Sanitizers.wrap_comm`,
:func:`run_spmd`).
"""

from __future__ import annotations

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
    """What a ``REPRO_SANITIZE`` spec selects; either slot may be ``None``."""

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
