"""Simulator part of the benchmark: both engines on one cluster config.

A round constructs :class:`~repro.cluster.simulation.WarehouseSimulation`
and :class:`~repro.cluster.shard.ShardedSimulation` (``workers=0``, so
shards run in-process) outside the clock, then times each ``run()``.
The two results must agree on every field the engines report, and the
cross-rack accounting must close: the per-day series plus the bytes
charged past the horizon equal the meter's total.

The days/s figures replay ``traces`` fixed failure traces round-robin
and take each trace's median replay: how much recovery work a trace
holds varies by 10-20% between traces of a few weeks, more than any
useful bound, so timing a fresh trace per seed would measure the seed.
A trace replayed in a later round must give the same result as its
first replay.  The accounting figure, cross-rack MB per recovered
block, comes from ``ACCOUNTING_TRACES`` more traces drawn from the
benchmark seed.
"""

from __future__ import annotations

import gc
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.shard import ShardedSimulation
from repro.cluster.simulation import WarehouseSimulation


@dataclass(frozen=True)
class SimSpec:
    """One cluster config; ``throttled`` adds the repair-policy stack."""

    num_racks: int
    nodes_per_rack: int
    stripes_per_node: float
    days: float
    code: str
    throttled: bool
    traces: int


#: Config seed of the first fixed timing trace (the paper's arXiv date).
TIMING_SEED = 20130901
#: Shards of the sharded engine (all in-process).
SHARDS = 4
#: Seed-drawn traces pooled into the cross-rack accounting figure; one
#: trace of the throttled cluster recovers a few hundred blocks, and
#: its MB per block moves by about 5% from seed to seed.
ACCOUNTING_TRACES = 2
#: The repair-policy bench config's recovery pipe (``bench.py``) and the
#: stripe density it was sized for.  A sparser cluster gets a pipe
#: narrowed in proportion, which keeps the same load on it: the share
#: of the horizon the pipe is busy and the mean wait of a ready job for
#: it match the bench config's.
BENCH_PIPE_BYTES_PER_SEC = 400e6
BENCH_STRIPES_PER_NODE = 60.0


def make_config(spec: SimSpec, config_seed: int) -> ClusterConfig:
    config = ClusterConfig(
        num_racks=spec.num_racks,
        nodes_per_rack=spec.nodes_per_rack,
        stripes_per_node=spec.stripes_per_node,
        days=spec.days,
        code_name=spec.code,
        seed=config_seed,
        destination_draws="hashed",
    )
    if spec.throttled:
        config = replace(
            config,
            recovery_bandwidth_bytes_per_sec=BENCH_PIPE_BYTES_PER_SEC
            * spec.stripes_per_node / BENCH_STRIPES_PER_NODE,
            repair_queue_discipline="priority",
            lazy_repair=True,
            lazy_repair_delay_seconds=7200.0,
            repair_link_gbps=10.0,
            hot_spares_per_rack=1,
            placement_policy="d3",
            parallel_repair=True,
        )
    return config


def fingerprint(result) -> tuple:
    """Everything a run reports, in an order-free form."""
    stats, meter = result.stats, result.meter
    return (
        tuple(result.unavailability_events_per_day),
        tuple(result.blocks_recovered_per_day),
        tuple(result.cross_rack_bytes_per_day),
        tuple(sorted(result.degraded_histogram.items())),
        stats.blocks_recovered,
        stats.bytes_downloaded,
        stats.unrecoverable_units,
        stats.flagged_events_recovered,
        stats.flagged_events_skipped,
        stats.cancelled_recoveries,
        stats.queue_wait_us,
        stats.urgent_wait_us,
        stats.deferred_repairs,
        stats.promoted_repairs,
        stats.queue_peak_depth,
        stats.spare_placements,
        meter.total_bytes,
        meter.cross_rack_bytes,
        meter.intra_rack_bytes,
        meter.num_transfers,
        tuple(sorted(meter.cross_rack_bytes_by_day.items())),
        tuple(sorted(meter.bytes_by_switch.items())),
    )


def accounting_closes(result) -> bool:
    """sum(daily cross-rack series) + overflow == meter.cross_rack_bytes."""
    meter = result.meter
    overflow = sum(
        total
        for day, total in meter.cross_rack_bytes_by_day.items()
        if day >= result.days
    )
    return sum(result.cross_rack_bytes_per_day) + overflow == (
        meter.cross_rack_bytes
    )


def build_engines(config: ClusterConfig):
    return (
        WarehouseSimulation(config),
        ShardedSimulation(config, num_shards=SHARDS, workers=0),
    )


@dataclass
class SimRound:
    trace: int
    setup_s: float
    serial_s: float
    sharded_s: float
    xrack_bytes: int
    blocks: int
    fingerprint: Optional[tuple]
    attempted: int
    failed: int


def run_round(config: ClusterConfig, trace: int, op_hook=None) -> SimRound:
    """Construct both engines (timed as set-up), then time each run.

    The garbage of earlier rounds is collected before each clock starts,
    so a run pays only for its own.
    """
    clock = time.perf_counter
    gc.collect()
    start = clock()
    engines = build_engines(config)
    setup_s = clock() - start
    results, seconds = [], []
    failed = 0
    for name, engine in zip(("serial", "sharded"), engines):
        gc.collect()
        try:
            with op_hook(name, None) if op_hook else nullcontext():
                start = clock()
                result = engine.run()
                seconds.append(clock() - start)
        except Exception as exc:  # counted as a failed op
            print(f"{name} run failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed += 1
            results.append(None)
            seconds.append(math.nan)
            continue
        if not accounting_closes(result):
            print(f"{name} run: cross-rack accounting does not close",
                  file=sys.stderr)
            failed += 1
        results.append(result)
    serial, sharded = results
    prints = [fingerprint(r) if r is not None else None for r in results]
    if serial is not None and sharded is not None and prints[0] != prints[1]:
        print("sharded result differs from serial", file=sys.stderr)
        failed += 1
    blocks = xrack = 0
    if serial is not None:
        blocks = serial.stats.blocks_recovered
        xrack = serial.meter.cross_rack_bytes
    return SimRound(
        trace=trace,
        setup_s=setup_s,
        serial_s=seconds[0],
        sharded_s=seconds[1],
        xrack_bytes=xrack,
        blocks=blocks,
        fingerprint=prints[0],
        attempted=2,
        failed=failed,
    )


def timing_configs(spec: SimSpec) -> List[ClusterConfig]:
    return [make_config(spec, TIMING_SEED + k) for k in range(spec.traces)]


def accounting_configs(spec: SimSpec, seed: int) -> List[ClusterConfig]:
    seeds = np.random.SeedSequence([seed, 2]).generate_state(ACCOUNTING_TRACES)
    return [make_config(spec, int(s)) for s in seeds]


def xrack_MB_per_block(rounds: List[SimRound]) -> float:
    blocks = sum(r.blocks for r in rounds)
    if not blocks:
        return math.nan
    return sum(r.xrack_bytes for r in rounds) / blocks / 1e6


def summarize(rounds: List[SimRound], days: float) -> dict:
    """Days/s over the timing traces, each at its median replay.

    A replay repeats exactly the same work, so its time varies only with
    the host; a median over the replays follows the program.
    """
    by_trace = {}
    for r in rounds:
        by_trace.setdefault(r.trace, []).append(r)

    def days_per_s(field):
        times = [
            np.nanmedian([getattr(r, field) for r in group])
            for group in by_trace.values()
        ]
        return days * len(times) / float(np.sum(times))

    return {
        "sim_days_per_s": days_per_s("serial_s"),
        "sharded_sim_days_per_s": days_per_s("sharded_s"),
    }


def drift(rounds: List[SimRound]) -> int:
    """Replays whose result differs from their trace's first replay."""
    first = {}
    count = 0
    for r in rounds:
        if r.trace not in first:
            first[r.trace] = r.fingerprint
        elif r.fingerprint != first[r.trace]:
            count += 1
    return count
