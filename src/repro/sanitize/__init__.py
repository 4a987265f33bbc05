"""Runtime sanitizers: the numerics tripwires (DESIGN.md §13).

Off by default, and an engine process that leaves them off never imports
this package: the drivers' numerics checkpoints are calls on their one
observability handle (``ins.check(...)``, :mod:`repro.observe`), which do
nothing on the off observer (the overhead benchmark pins, with
``sys.setprofile``, that no frame of ``repro/sanitize`` is entered).

:class:`~repro.sanitize.numerics.NumericsSanitizer` turns NaN/Inf and
silent dtype demotion at SCF/LDC/multigrid checkpoints into a
:class:`~repro.sanitize.numerics.NumericsError`.  Arm it in code with
``instrumentation=Instrumentation(numerics=NumericsSanitizer())`` on any
driver, or from the environment: ``REPRO_SANITIZE=1`` (or ``numerics``).
The variable is read in one place, :func:`repro.observe.env_numerics`,
once per process, when a driver is called with ``instrumentation=None`` or
an ``Instrumentation`` is built without ``numerics=``;
``instrumentation=repro.observe.OFF`` is off whatever it says.
"""

from __future__ import annotations

from repro.sanitize.numerics import NumericsError, NumericsSanitizer  # noqa: F401

_NAMES = ("numerics",)


def from_spec(spec: str) -> NumericsSanitizer | None:
    """Parse a ``REPRO_SANITIZE``-style spec; ``None`` when off."""
    spec = spec.strip().lower()
    if spec in ("", "0", "off", "none", "false"):
        return None
    if spec not in ("1", "all", "on", "true"):
        unknown = {part.strip() for part in spec.split(",")} - {"", *_NAMES}
        if unknown:
            raise ValueError(
                f"unknown sanitizer(s) {sorted(unknown)} in "
                f"REPRO_SANITIZE; valid names: {', '.join(_NAMES)}"
            )
    return NumericsSanitizer()
