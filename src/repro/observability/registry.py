"""Process-wide metrics registry: counters, gauges, histograms, spans.

The paper's argument is quantitative -- Fig. 3b's cross-rack byte
series, the 98.08% single-failure skew, the ~30% Piggybacked-RS savings
-- so the meters and timers backing those numbers must themselves be
trustworthy and inspectable.  This registry is the one place every
instrumented subsystem (GF memo caches, the stripe codec, the file
pipeline, recovery, the traffic meter, the scrubber, the chaos engine)
reports into, and ``repro ... --emit-metrics PATH`` snapshots it to
JSON after a run.

Semantics
---------

- **Counters are exact integers.**  ``Counter.inc`` rejects
  non-integral amounts (``operator.index``), so counter totals can be
  compared ``==`` against :class:`~repro.cluster.network.TrafficMeter`
  byte counts -- no float drift, matching the meter's int64 discipline.
- **Gauges** hold one last-written value (int or float).
- **Histograms** keep exact count/total/min/max plus a coarse
  power-of-4 bucket spectrum -- enough to see a latency distribution's
  shape in a JSON snapshot without storing samples.
- **Spans** (see :mod:`repro.observability.tracing`) aggregate wall and
  CPU seconds per phase name.

Kill switch
-----------

``REPRO_METRICS`` accepts exactly ``"1"`` (record, the default) and
``"0"`` (disable).  Junk values raise
:class:`~repro.errors.ConfigError` loudly, mirroring
``REPRO_PARALLEL`` (:mod:`repro.cluster.sweep`).  When disabled, :func:`metrics` returns ``None``
and every instrumented site does one function call plus a ``None``
check and nothing else -- instrumentation never touches payload bytes
or random streams, so enabled and disabled runs produce byte-identical
simulation and pipeline output (tested).

Hot-path idiom::

    from repro.observability import metrics

    m = metrics()
    if m is not None:
        m.inc("codec.encode.stripes", len(layouts))

The registry is process-local: sweep pool worker subprocesses each
have their own (discarded with the process); the
parent's counters cover everything the parent itself did, which is what
the snapshot documents.
"""

from __future__ import annotations

import json
import operator
import os
import threading
from typing import Dict, List, Mapping, Optional, Union

from repro.errors import ConfigError

#: Environment variable holding the metrics kill switch.
METRICS_ENV = "REPRO_METRICS"

#: Histogram bucket boundaries: powers of 4 spanning sub-microsecond
#: timings to multi-hour totals (also fine for integer sizes).  Values
#: land in the first bucket whose bound is >= value; the last bucket is
#: unbounded.
_BUCKET_BOUNDS: List[float] = [4.0 ** e for e in range(-10, 11)]


def metrics_env_enabled(env: Optional[Mapping[str, str]] = None) -> bool:
    """Whether ``REPRO_METRICS`` permits recording.

    Unset (or empty) means yes.  ``"1"`` means yes, ``"0"`` means no,
    and every other value raises :class:`ConfigError` loudly -- a kill
    switch that only *looks* engaged is worse than no kill switch.
    """
    raw = (env if env is not None else os.environ).get(METRICS_ENV)
    if raw is None or raw == "" or raw == "1":
        return True
    if raw == "0":
        return False
    raise ConfigError(
        f"{METRICS_ENV}={raw!r} is not a valid value; use '1' to record "
        f"metrics or '0' to disable instrumentation"
    )


class Counter:
    """Monotonic exact-integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (an exact integer; floats are rejected)."""
        self.value += operator.index(amount)


class Gauge:
    """Last-written value (int or float)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value


class Histogram:
    """Exact count/total/min/max plus a coarse power-of-4 spectrum."""

    __slots__ = ("name", "count", "total", "vmin", "vmax", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total: Union[int, float] = 0
        self.vmin: Optional[Union[int, float]] = None
        self.vmax: Optional[Union[int, float]] = None
        self.buckets = [0] * (len(_BUCKET_BOUNDS) + 1)

    def observe(self, value: Union[int, float]) -> None:
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class SpanStats:
    """Aggregated wall/CPU seconds for one span (phase) name."""

    __slots__ = ("name", "count", "wall_seconds", "cpu_seconds", "wall_max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.wall_max = 0.0

    def record(self, wall: float, cpu: float) -> None:
        self.count += 1
        self.wall_seconds += wall
        self.cpu_seconds += cpu
        if wall > self.wall_max:
            self.wall_max = wall


class MetricsRegistry:
    """One process's metric store.

    Metric creation is locked (first touch from any thread is safe);
    updates go through the returned handle or the ``inc``/``set_gauge``/
    ``observe`` conveniences, which are plain attribute updates under
    the GIL -- the hot paths stay allocation-free after first touch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: Dict[str, SpanStats] = {}

    # -- handles -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        handle = self.counters.get(name)
        if handle is None:
            with self._lock:
                handle = self.counters.setdefault(name, Counter(name))
        return handle

    def gauge(self, name: str) -> Gauge:
        handle = self.gauges.get(name)
        if handle is None:
            with self._lock:
                handle = self.gauges.setdefault(name, Gauge(name))
        return handle

    def histogram(self, name: str) -> Histogram:
        handle = self.histograms.get(name)
        if handle is None:
            with self._lock:
                handle = self.histograms.setdefault(name, Histogram(name))
        return handle

    def span_stats(self, name: str) -> SpanStats:
        handle = self.spans.get(name)
        if handle is None:
            with self._lock:
                handle = self.spans.setdefault(name, SpanStats(name))
        return handle

    # -- conveniences --------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: Union[int, float]) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: Union[int, float]) -> None:
        self.histogram(name).observe(value)

    def counter_value(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        handle = self.counters.get(name)
        return handle.value if handle is not None else 0

    # -- snapshot / reset ----------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe snapshot of every metric recorded so far."""
        with self._lock:
            return {
                "enabled": enabled(),
                "counters": {
                    name: c.value for name, c in sorted(self.counters.items())
                },
                "gauges": {
                    name: g.value for name, g in sorted(self.gauges.items())
                },
                "histograms": {
                    name: {
                        "count": h.count,
                        "total": h.total,
                        "min": h.vmin,
                        "max": h.vmax,
                        "mean": h.mean,
                    }
                    for name, h in sorted(self.histograms.items())
                },
                "spans": {
                    name: {
                        "count": s.count,
                        "wall_seconds": s.wall_seconds,
                        "cpu_seconds": s.cpu_seconds,
                        "wall_max_seconds": s.wall_max,
                    }
                    for name, s in sorted(self.spans.items())
                },
            }

    def reset(self) -> None:
        """Drop every recorded metric (tests and per-run CLI snapshots)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.spans.clear()


# ----------------------------------------------------------------------
# Process-wide state
# ----------------------------------------------------------------------

_REGISTRY = MetricsRegistry()
_ENABLED: Optional[bool] = None


def enabled() -> bool:
    """Whether instrumentation records (cached read of ``REPRO_METRICS``)."""
    global _ENABLED
    if _ENABLED is None:
        _ENABLED = metrics_env_enabled()
    return _ENABLED


def set_enabled(flag: Optional[bool]) -> None:
    """Override the kill switch (tests); ``None`` re-reads the env."""
    global _ENABLED
    _ENABLED = flag


def metrics() -> Optional[MetricsRegistry]:
    """The process registry when recording is enabled, else ``None``.

    This is the hot-path entry point: one call plus a ``None`` check is
    the entire disabled-path cost of an instrumented site.
    """
    return _REGISTRY if enabled() else None


def get_registry() -> MetricsRegistry:
    """The process registry regardless of the kill switch (snapshots)."""
    return _REGISTRY


def reset() -> None:
    """Reset the process registry (tests and per-run CLI snapshots)."""
    _REGISTRY.reset()


def write_snapshot(path: str) -> Dict[str, object]:
    """Write the registry snapshot to ``path`` as JSON; returns it."""
    snap = _REGISTRY.snapshot()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snap, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return snap
