"""Structured logging under the ``repro.*`` namespace.

Silent by default: the root ``repro`` logger gets a ``NullHandler`` so
importing the package never prints anything.  Call
:func:`configure_logging`, or set the ``REPRO_LOG`` environment variable
(read once, by the process's first :func:`get_logger`), to attach a real
handler to stderr:

* ``REPRO_LOG=info`` — human-readable lines at INFO;
* ``REPRO_LOG=debug`` + ``REPRO_LOG_FORMAT=json`` — one JSON object per
  line (machine-parseable, includes any ``extra={...}`` fields).

``REPRO_LOG`` takes a stdlib level name (``debug``, ``info``, ``warning``,
``error``, ``critical``; any case) and ``REPRO_LOG_FORMAT`` ``json`` or
``text``; any other value raises ``ValueError`` naming the variable.

Drivers log through :func:`get_logger`, e.g. ``get_logger("dft.scf")`` →
the stdlib logger ``repro.dft.scf``, so standard ``logging`` configuration
(filters, per-module levels) applies unchanged.
"""

from __future__ import annotations

import functools
import json
import logging
import os
from typing import IO, Any

ROOT_LOGGER = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}
_FORMATS = {"json": True, "text": False}

#: logging.LogRecord attributes that are not user-supplied extras
_RESERVED = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


class JSONFormatter(logging.Formatter):
    """Formats each record as a single-line JSON object."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "msg": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key not in _RESERVED and not key.startswith("_"):
                payload[key] = _coerce(value)
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload)


def _coerce(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def get_logger(name: str = "") -> logging.Logger:
    """Logger in the ``repro.*`` namespace (``get_logger("dft.scf")``)."""
    _ensure_null_handler()
    _configure_from_env()
    return logging.getLogger(f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER)


def configure_logging(
    level: int | str | None = None,
    json_format: bool | None = None,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Attach a stream handler to the ``repro`` root logger.

    Arguments override the environment (``REPRO_LOG`` for the level,
    ``REPRO_LOG_FORMAT=json|text``).  With no argument and no environment,
    the level defaults to WARNING.  Calling again replaces the previously
    configured handler rather than stacking duplicates.  A level or format
    name outside the allowed ones raises ``ValueError``.
    """
    if level is None:
        level = _choice("REPRO_LOG", os.environ.get("REPRO_LOG", "warning"),
                        _LEVELS)
    elif isinstance(level, str):
        level = _choice("level", level, _LEVELS)
    if json_format is None:
        json_format = _choice(
            "REPRO_LOG_FORMAT", os.environ.get("REPRO_LOG_FORMAT", "text"),
            _FORMATS,
        )

    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(level)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_configured", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler._repro_configured = True
    if json_format:
        handler.setFormatter(JSONFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
    root.addHandler(handler)
    return root


def _choice(name: str, value: str, allowed: dict[str, Any]) -> Any:
    try:
        return allowed[value.lower()]
    except KeyError:
        raise ValueError(
            f"{name}={value!r}: expected one of {', '.join(allowed)}"
        ) from None


def _ensure_null_handler() -> None:
    root = logging.getLogger(ROOT_LOGGER)
    if not any(isinstance(h, logging.NullHandler) for h in root.handlers):
        root.addHandler(logging.NullHandler())


@functools.cache
def _configure_from_env() -> None:
    """Attach the ``REPRO_LOG`` handler, once per process, unless
    :func:`configure_logging` already attached one."""
    root = logging.getLogger(ROOT_LOGGER)
    if "REPRO_LOG" in os.environ and not any(
        getattr(h, "_repro_configured", False) for h in root.handlers
    ):
        configure_logging()
