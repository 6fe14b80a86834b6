"""Pluggable GF(2^8) kernel-backend registry.

The GF layer (:mod:`repro.gf.field`, :mod:`repro.gf.packed`, the XOR
schedules behind :mod:`repro.gf.bitmatrix`) dispatches its bulk kernels
through exactly one *active backend*, selected lazily on first use:

1. ``cffi`` -- compiled C with SIMD tiers (GFNI/AVX-512 down to plain
   scalar), built lazily and cached per machine;
2. ``numpy`` -- the original chunked-gather kernels, always available
   and the *oracle* the cffi backend is property-tested against.

Auto-selection walks that order and takes the first tier whose probe
succeeds.  ``REPRO_GF_BACKEND`` overrides it, following the
``REPRO_PARALLEL`` convention of :mod:`repro.cluster.sweep`: the
accepted values are exactly ``numpy``, ``cffi`` and ``auto`` (unset /
empty mean auto), anything else raises
:class:`~repro.errors.ConfigError` loudly, and naming a backend whose
dependencies are missing is also a loud :class:`ConfigError` -- an
explicitly requested backend must never silently degrade.  Silent
degradation is reserved for auto mode, where it is the whole point.

Probe results (constructed backends *and* failure reasons) are cached
for the life of the process; :func:`backend_statuses` reports both so
``repro bench`` and the CI backend-matrix job can show exactly which
tiers this host can run and why the others cannot.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

from repro.errors import BackendUnavailable, ConfigError
from repro.gf.backends.base import KernelBackend
from repro.observability import metrics

__all__ = [
    "BACKEND_ENV",
    "AUTO_ORDER",
    "KernelBackend",
    "BackendUnavailable",
    "active_backend",
    "backend_env_choice",
    "backend_statuses",
    "native_backend",
    "reset_backend_state",
    "select_backend",
    "use_backend",
]

#: Environment variable naming the backend to use.
BACKEND_ENV = "REPRO_GF_BACKEND"

#: Auto-selection order: fastest tier first, oracle last.
AUTO_ORDER = ("cffi", "numpy")

#: Names accepted by the env var / :func:`select_backend`.
VALID_BACKENDS = ("numpy", "cffi")

_instances: Dict[str, KernelBackend] = {}
_failures: Dict[str, str] = {}
_active: Optional[KernelBackend] = None


def backend_env_choice(
    env: Optional[Mapping[str, str]] = None,
) -> Optional[str]:
    """The backend ``REPRO_GF_BACKEND`` names, or None for auto.

    Unset, empty and ``"auto"`` all mean auto-selection.  Any value
    outside :data:`VALID_BACKENDS` raises :class:`ConfigError` instead
    of being silently read as auto -- a pin that only *looks* engaged is
    worse than no pin (same rationale as ``REPRO_PARALLEL``).
    """
    raw = (env if env is not None else os.environ).get(BACKEND_ENV)
    if raw is None or raw == "" or raw == "auto":
        return None
    if raw in VALID_BACKENDS:
        return raw
    raise ConfigError(
        f"{BACKEND_ENV}={raw!r} is not a valid value; use one of "
        f"{', '.join(VALID_BACKENDS)} or 'auto'"
    )


def _probe(name: str) -> KernelBackend:
    """Construct (once) the named backend or raise BackendUnavailable."""
    backend = _instances.get(name)
    if backend is not None:
        return backend
    if name in _failures:
        raise BackendUnavailable(_failures[name])
    try:
        if name == "numpy":
            from repro.gf.backends.numpy_backend import NumpyBackend as cls
        elif name == "cffi":
            from repro.gf.backends.cffi_backend import CffiBackend as cls
        else:
            raise ConfigError(f"unknown GF backend {name!r}")
        backend = cls()
    except BackendUnavailable as exc:
        _failures[name] = str(exc)
        raise
    except ConfigError:
        raise
    except Exception as exc:
        # A probe bug must degrade like a missing dependency, never
        # break import of the GF layer.
        _failures[name] = f"{type(exc).__name__}: {exc}"
        raise BackendUnavailable(_failures[name]) from exc
    _instances[name] = backend
    return backend


def select_backend(
    name: Optional[str] = None,
    env: Optional[Mapping[str, str]] = None,
) -> KernelBackend:
    """Resolve a backend: explicit ``name`` > env var > auto order.

    Explicit requests (by argument or env var) raise
    :class:`ConfigError` when the backend is unavailable; auto mode
    falls through :data:`AUTO_ORDER` and always terminates at numpy.
    """
    requested = name if name is not None else backend_env_choice(env)
    if requested is not None:
        if requested == "auto":
            requested = None
        elif requested not in VALID_BACKENDS:
            raise ConfigError(
                f"unknown GF backend {requested!r}; use one of "
                f"{', '.join(VALID_BACKENDS)} or 'auto'"
            )
    if requested is not None:
        try:
            return _probe(requested)
        except BackendUnavailable as exc:
            raise ConfigError(
                f"GF backend {requested!r} was requested explicitly "
                f"(argument or {BACKEND_ENV}) but is unavailable: {exc}"
            ) from exc
    for candidate in AUTO_ORDER:
        try:
            return _probe(candidate)
        except BackendUnavailable:
            continue
    raise AssertionError("the numpy backend must always be constructible")


def active_backend() -> KernelBackend:
    """The process-wide backend, selecting (and logging) on first call."""
    global _active
    if _active is None:
        _active = select_backend()
        m = metrics()
        if m is not None:
            m.inc(f"gf.backend.selected.{_active.name}")
    return _active


def native_backend() -> Optional[KernelBackend]:
    """The active backend when it is native, else None.

    The GF layer's dispatch guard: numpy's kernels *are* the fallback
    code paths, so diverting to the numpy backend object would only add
    a hop.
    """
    backend = active_backend()
    return backend if backend.is_native else None


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily pin the active backend (tests, bench comparisons).

    Raises :class:`ConfigError` if the named backend is unavailable on
    this host.
    """
    global _active
    previous = _active
    _active = select_backend(name)
    try:
        yield _active
    finally:
        _active = previous


def reset_backend_state(forget_probes: bool = False) -> None:
    """Clear the selection (and optionally probe results).

    Test hook: ``forget_probes=True`` also drops cached instances and
    failure records so monkeypatched probes / env vars take effect.
    """
    global _active
    _active = None
    if forget_probes:
        _instances.clear()
        _failures.clear()


def backend_statuses() -> Dict[str, str]:
    """Probe every tier and report availability with reasons."""
    statuses: Dict[str, str] = {}
    for name in AUTO_ORDER:
        try:
            backend = _probe(name)
            statuses[name] = f"available ({backend.tier_description})"
        except BackendUnavailable as exc:
            statuses[name] = f"unavailable: {exc}"
    return statuses
