"""Bench: observability overhead -- the disabled path must be near-free.

The metrics layer's contract (DESIGN 5f) is that ``REPRO_METRICS=0``
collapses every instrumentation site to one ``metrics()`` call
returning ``None``, so the hot paths pay effectively nothing.  This
bench holds that contract numerically two ways:

- The *composed* overhead is measured directly: the number of
  ``metrics()`` checks one batched encode actually performs (counted by
  wrapping each instrumented module's reference) times the micro-timed
  per-call disabled cost, as a fraction of the uninstrumented encode
  time.  That fraction must stay under the 2% budget -- with dozens of
  checks at ~100 ns against tens of milliseconds of encode it sits
  orders of magnitude below it, so a trip means a real regression
  (e.g. the registry losing its cached-enabled fast path, or a site
  doing work before the ``None`` check).
- ``codec.encode_stripes`` (the instrumented wrapper) is also timed
  against a hand-inlined copy of its pre-instrumentation body
  (grouping + ``_encode_groups``) in interleaved order-alternating
  pairs.  This wall-clock paired ratio is recorded for the trajectory
  and tripwired at 10% -- this host's clock wobbles far too much for a
  2% wall-clock assertion to be signal, but a disabled path that
  suddenly does enabled-path work still trips it.

Enabled-path throughput is recorded alongside (not asserted -- counters
do real work) so ``BENCH_codec.json`` tracks both modes release over
release.  ``REPRO_BENCH_SMOKE=1`` shrinks the workload and skips the
wall-clock floor on shared runners.
"""

import os
import time
from collections import OrderedDict

import numpy as np
from conftest import emit, record_bench

from repro import observability
from repro.analysis.report import render_kv
from repro.codes.rs import ReedSolomonCode
from repro.striping.codec import StripeCodec
from repro.striping.pipeline import _data_slot_lists, encode_file

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

UNIT_SIZE = 64 * 1024 if _SMOKE else 256 * 1024
STRIPES = 2 if _SMOKE else 12
BENCH_ROUNDS = 1 if _SMOKE else 40
WARMUP_ROUNDS = 0 if _SMOKE else 3

#: Budget for the composed disabled-path overhead: (checks per encode)
#: x (ns per disabled check) / (uninstrumented encode time).
DISABLED_OVERHEAD_BUDGET = 0.02
#: Gross-regression tripwire on the paired wall-clock ratio.  The 2%
#: contract is held by the composed measurement above; wall clock on
#: this host wobbles 1.5-2x between samples (see the codec pipeline
#: bench), so a tight wall-clock floor would be pure noise.
DISABLED_WALL_CLOCK_TRIPWIRE = 0.10
#: Ceiling for one disabled ``metrics()`` check.  Measured ~100 ns; the
#: bound is deliberately loose so it only trips on a real regression
#: (e.g. the registry losing its cached-enabled fast path).
METRICS_CALL_NS_CEILING = 5_000.0

CODE = ReedSolomonCode(10, 4)


def _make_inputs():
    rng = np.random.default_rng(7)
    data = rng.integers(
        0, 256, size=STRIPES * CODE.k * UNIT_SIZE, dtype=np.uint8
    )
    encoded = encode_file(CODE, data, UNIT_SIZE)
    layouts = encoded.layouts
    slot_lists = _data_slot_lists(layouts, encoded.file.blocks)
    return data, layouts, slot_lists


def _best_of(fn, rounds):
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _time_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _paired_samples(fn_a, fn_b, rounds):
    """Interleaved (a, b) timings, alternating order each round."""
    samples = []
    for i in range(rounds):
        if i % 2:
            elapsed_b = _time_once(fn_b)
            elapsed_a = _time_once(fn_a)
        else:
            elapsed_a = _time_once(fn_a)
            elapsed_b = _time_once(fn_b)
        samples.append((elapsed_a, elapsed_b))
    return samples


def _disabled_metrics_call_ns(iterations=200_000):
    """Cost of one ``metrics()`` check with the kill switch thrown."""
    metrics_fn = observability.metrics
    start = time.perf_counter()
    for _ in range(iterations):
        metrics_fn()
    return (time.perf_counter() - start) / iterations * 1e9


def _count_disabled_checks(fn):
    """Run ``fn`` once counting every ``metrics()`` check it performs.

    Each instrumented module binds ``metrics`` into its own namespace at
    import, so wrapping those references (plus the tracer's, which every
    ``span()`` consults) sees every disabled-path check the codec hot
    path makes.
    """
    import repro.codes.base as base_module
    import repro.observability.tracing as tracing_module
    import repro.striping.codec as codec_module

    modules = (base_module, tracing_module, codec_module)
    real = observability.metrics
    count = 0

    def counting():
        nonlocal count
        count += 1
        return real()

    saved = [module.metrics for module in modules]
    for module in modules:
        module.metrics = counting
    try:
        fn()
    finally:
        for module, original in zip(modules, saved):
            module.metrics = original
    return count


def test_disabled_path_overhead(benchmark):
    data, layouts, slot_lists = _make_inputs()
    codec = StripeCodec(CODE)

    def instrumented():
        codec.encode_stripes(layouts, slot_lists)

    def baseline():
        # The wrapper body with the instrumentation deleted: grouping
        # straight into _encode_groups, exactly the pre-5f hot loop.
        results = [None] * len(layouts)
        groups = OrderedDict()
        for index, layout in enumerate(layouts):
            groups.setdefault(codec.padded_width(layout), []).append(index)
        return codec._encode_groups(layouts, slot_lists, groups, results)

    try:
        observability.set_enabled(False)
        observability.reset()
        benchmark.pedantic(
            instrumented,
            rounds=BENCH_ROUNDS,
            warmup_rounds=WARMUP_ROUNDS,
            iterations=1,
        )
        samples = _paired_samples(instrumented, baseline, BENCH_ROUNDS)
        call_ns = _disabled_metrics_call_ns()
        checks = _count_disabled_checks(instrumented)

        observability.set_enabled(True)
        observability.reset()
        enabled_s = _best_of(instrumented, BENCH_ROUNDS)
        registry = observability.get_registry()
        assert registry.counter_value("codec.encode.stripes") > 0
    finally:
        observability.set_enabled(None)
        observability.reset()

    mb = data.size / 1e6
    disabled_s = min(elapsed_a for elapsed_a, _ in samples)
    baseline_s = min(elapsed_b for _, elapsed_b in samples)
    ratios = sorted(
        elapsed_a / elapsed_b for elapsed_a, elapsed_b in samples
    )
    wall_ratio = ratios[len(ratios) // 2] - 1.0
    composed = checks * call_ns * 1e-9 / baseline_s
    metrics_row = {
        "disabled_MB_per_s": round(mb / disabled_s, 1),
        "baseline_MB_per_s": round(mb / baseline_s, 1),
        "enabled_MB_per_s": round(mb / enabled_s, 1),
        "disabled_checks_per_encode": checks,
        "metrics_call_ns": round(call_ns, 1),
        "composed_overhead_pct": round(composed * 100, 5),
        "paired_wall_ratio_pct": round(wall_ratio * 100, 3),
        "unit_KiB": UNIT_SIZE // 1024,
        "stripes": STRIPES,
    }
    emit(render_kv("RS(10,4) observability overhead (encode)", metrics_row))
    record_bench("RS(10,4).observability_overhead", **metrics_row)

    assert call_ns < METRICS_CALL_NS_CEILING, (
        f"disabled metrics() costs {call_ns:.0f} ns/call "
        f"(ceiling {METRICS_CALL_NS_CEILING:.0f} ns); the cached-enabled "
        f"fast path has regressed"
    )
    assert composed < DISABLED_OVERHEAD_BUDGET, (
        f"{checks} disabled checks x {call_ns:.0f} ns is "
        f"{composed * 100:.3f}% of the uninstrumented encode "
        f"(budget {DISABLED_OVERHEAD_BUDGET * 100:.0f}%)"
    )
    if not _SMOKE:
        assert wall_ratio < DISABLED_WALL_CLOCK_TRIPWIRE, (
            f"disabled-path encode is {wall_ratio * 100:.2f}% slower than "
            f"the uninstrumented body "
            f"(tripwire {DISABLED_WALL_CLOCK_TRIPWIRE * 100:.0f}%)"
        )
