"""Pluggable array-module backend for the domain-batched BLAS3 kernels.

The batched shape-class kernels of :mod:`repro.core.batched` (stacked
FFT-backed ``Hamiltonian.apply``, batched nonlocal projections, batched
subspace diagonalisation) never call ``numpy`` directly — they fetch an
array namespace from this module::

    from repro import backend
    xp = backend.get()          # numpy today
    hpsi = xp.matmul(b_stack, overlaps)

``get()`` resolves, in order: the explicit ``name`` argument, the process
default set by :func:`set_default`, the ``REPRO_BACKEND`` environment
variable, and finally ``"auto"`` (scipy-accelerated transforms over the
NumPy namespace when SciPy is present, plain NumPy otherwise).  The returned object is an
*array-module namespace*: anything exposing the NumPy-compatible subset in
:data:`REQUIRED_ATTRS` qualifies.  That is the whole seam — a CuPy or
array-api-compatible torch namespace drops in without touching the kernel
code, which is why the batched refactor is the prerequisite for a GPU
path (cf. GPAW's ``gpu/`` + ``cuda.py`` layering).

Backends register a zero-argument *loader* so that optional dependencies
are imported lazily and absence degrades to a clear error instead of an
import-time crash.  ``"cupy"`` is pre-registered behind such a gate; a
torch backend would register an adapter namespace here once
``torch.compat`` exposes the required subset (documented, not shipped —
this container has no GPU stack and nothing may be pip-installed).

The seam is enforced statically: analysis rule RP009 flags any direct
``numpy`` call inside a module that adopts this backend contract.
"""

from __future__ import annotations

import os
from typing import Any, Callable

#: The NumPy-compatible subset the batched kernels rely on.  A namespace
#: advertising these attributes (with ``fft.fftn``/``fft.ifftn`` and
#: ``linalg.eigh`` on the nested namespaces) is a valid backend.
REQUIRED_ATTRS: tuple[str, ...] = (
    "asarray",
    "empty",
    "zeros",
    "stack",
    "matmul",
    "einsum",
    "conjugate",
    "absolute",
    "maximum",
    "reshape",
    "fft",
    "linalg",
)

#: Environment variable naming the default backend for a process.
ENV_VAR = "REPRO_BACKEND"

_LOADERS: dict[str, Callable[[], Any]] = {}
_CACHE: dict[str, Any] = {}
_DEFAULT: str | None = None


class BackendError(RuntimeError):
    """Unknown backend name, failed optional import, or contract violation."""


def register_backend(
    name: str, loader: Callable[[], Any], replace: bool = False
) -> None:
    """Register ``loader`` (→ array namespace) under ``name``.

    ``loader`` runs at most once per process (the namespace is cached).
    Re-registration requires ``replace=True`` so a test double cannot
    silently shadow a real backend.
    """
    key = name.lower()
    if key in _LOADERS and not replace:
        raise BackendError(f"backend {name!r} is already registered")
    _LOADERS[key] = loader
    _CACHE.pop(key, None)


def available() -> list[str]:
    """Registered backend names (loadability is checked on first use)."""
    return sorted(_LOADERS)


def set_default(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide default backend."""
    global _DEFAULT
    if name is not None and name.lower() not in _LOADERS:
        raise BackendError(
            f"unknown backend {name!r}; available: {', '.join(available())}"
        )
    _DEFAULT = None if name is None else name.lower()


def validate_namespace(xp: Any) -> list[str]:
    """Names from :data:`REQUIRED_ATTRS` that ``xp`` is missing."""
    missing = [a for a in REQUIRED_ATTRS if not hasattr(xp, a)]
    for nested, attrs in (("fft", ("fftn", "ifftn")), ("linalg", ("eigh",))):
        sub = getattr(xp, nested, None)
        missing.extend(
            f"{nested}.{a}" for a in attrs
            if sub is None or not hasattr(sub, a)
        )
    return missing


def get(name: str | None = None) -> Any:
    """The active array-module namespace (NumPy-compatible).

    Resolution order: explicit ``name`` → :func:`set_default` →
    ``$REPRO_BACKEND`` → ``"auto"`` (the fastest CPU namespace available:
    NumPy with ``scipy.fft`` transforms when SciPy is importable — same
    pocketfft algorithm, faster C++ build — plain NumPy otherwise).
    """
    key = (
        name
        or _DEFAULT
        or os.environ.get(ENV_VAR, "").strip()
        or "auto"
    ).lower()
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    loader = _LOADERS.get(key)
    if loader is None:
        raise BackendError(
            f"unknown backend {key!r}; available: {', '.join(available())}"
        )
    xp = loader()
    missing = validate_namespace(xp)
    if missing:
        raise BackendError(
            f"backend {key!r} does not satisfy the array-module contract; "
            f"missing: {', '.join(missing)}"
        )
    _CACHE[key] = xp
    return xp


def resolved_name(name: str | None = None) -> str:
    """The backend name :func:`get` would resolve to, without loading it.

    Provenance stamping (the run ledger's manifest) wants the *name* of the
    active backend even when no kernel has touched it yet; ``"auto"`` is
    reported as-is since its concrete choice depends on importability at
    first use.
    """
    return (
        name
        or _DEFAULT
        or os.environ.get(ENV_VAR, "").strip()
        or "auto"
    ).lower()


def _load_numpy() -> Any:
    import numpy

    return numpy


class _ScipyFFTNamespace:
    """NumPy namespace with the transforms swapped for ``scipy.fft``.

    Single-threaded on purpose: the kernels transform cache-sized row
    blocks one 1-D stage at a time (DESIGN.md §18), and a ``workers=``
    fork-join per stage costs more than such a call returns.
    """

    def __init__(self, numpy_mod: Any, fft: Any) -> None:
        self._np = numpy_mod
        self.fft = fft

    def __getattr__(self, name: str) -> Any:
        return getattr(self._np, name)


def _load_scipy() -> Any:
    try:
        import scipy.fft
    except ImportError as exc:
        raise BackendError(
            "backend 'scipy' requested but scipy is not installed; "
            "use the plain 'numpy' backend"
        ) from exc
    import numpy

    return _ScipyFFTNamespace(numpy, scipy.fft)


def _load_auto() -> Any:
    try:
        return get("scipy")
    except BackendError:
        return get("numpy")


def _load_cupy() -> Any:  # pragma: no cover - optional dependency
    try:
        import cupy
    except ImportError as exc:
        raise BackendError(
            "backend 'cupy' requested but cupy is not installed; "
            "the batched kernels fall back to numpy (unset REPRO_BACKEND)"
        ) from exc
    return cupy


register_backend("numpy", _load_numpy)
register_backend("scipy", _load_scipy)
register_backend("auto", _load_auto)
register_backend("cupy", _load_cupy)

__all__ = [
    "BackendError",
    "ENV_VAR",
    "REQUIRED_ATTRS",
    "available",
    "get",
    "register_backend",
    "resolved_name",
    "set_default",
    "validate_namespace",
]
