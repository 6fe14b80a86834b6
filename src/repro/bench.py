"""Benchmark harness: timed codec workloads and backend comparisons.

Shared by the pytest benchmark suite (``benchmarks/``), the ``repro
bench`` CLI subcommand, and the CI backend-matrix job.  Three concerns
live here so every consumer reports numbers the same way:

- :func:`bench_meta` -- the environment block stamped into
  ``BENCH_codec.json`` (interpreter, numpy, selected GF backend and
  the availability of the others, CPU count).  Throughput numbers are
  meaningless without it; the committed baselines were measured on a
  different machine than yours.
- :func:`time_workload` -- repeated timing that reports **median**
  alongside mean and best.  Acceptance comparisons use the median: on
  shared/virtualised CI hosts the mean is polluted by one-off page
  faults and the best-of is too forgiving of flukes.
- :func:`run_backend_comparison` -- the same workloads executed under
  every *available* kernel backend (via
  :func:`repro.gf.backends.use_backend`), with numpy -- the oracle --
  always included as the denominator.  Fresh code objects are built
  per backend so no memoised plan smuggles one backend's kernels into
  another's run.
"""

from __future__ import annotations

import os
import platform
import time
from statistics import mean, median
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.gf import backends

#: Environment flag the CI smoke path sets to shrink workloads.
SMOKE_ENV = "REPRO_BENCH_SMOKE"


def smoke_mode(env=None) -> bool:
    value = (env if env is not None else os.environ).get(SMOKE_ENV, "")
    return value not in ("", "0")


def bench_meta() -> Dict[str, object]:
    """Environment block for benchmark reports (JSON-safe)."""
    active = backends.active_backend()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "gf_backend": active.name,
        "gf_backend_tier": active.tier_description,
        "gf_backends": backends.backend_statuses(),
    }


def time_workload(
    fn: Callable[[], object], rounds: int = 5
) -> Dict[str, float]:
    """Run ``fn`` ``rounds`` times; report mean/median/best seconds."""
    if rounds < 1:
        rounds = 1
    times: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {
        "mean_s": mean(times),
        "median_s": median(times),
        "best_s": min(times),
        "rounds": rounds,
    }


# ----------------------------------------------------------------------
# Comparison workloads
# ----------------------------------------------------------------------


def _rs_file_encode(unit_size: int) -> Callable[[], object]:
    from repro.codes.rs import ReedSolomonCode
    from repro.striping.pipeline import encode_file

    code = ReedSolomonCode(10, 4)
    rng = np.random.default_rng(2013)
    data = rng.integers(0, 256, 10 * unit_size * 4, dtype=np.uint8)
    return lambda: encode_file(code, data, unit_size, name="bench")


def _crs_encode(unit_size: int) -> Callable[[], object]:
    from repro.codes.crs import CauchyBitmatrixRSCode

    code = CauchyBitmatrixRSCode(10, 4)
    rng = np.random.default_rng(2013)
    data = rng.integers(0, 256, (10, unit_size), dtype=np.uint8)
    return lambda: code.encode(data)


def _crs_decode(unit_size: int) -> Callable[[], object]:
    from repro.codes.crs import CauchyBitmatrixRSCode

    code = CauchyBitmatrixRSCode(10, 4)
    rng = np.random.default_rng(2013)
    data = rng.integers(0, 256, (10, unit_size), dtype=np.uint8)
    stripe = code.encode(data)
    survivors = {i: stripe[i] for i in list(range(2, 10)) + [10, 11]}
    return lambda: code.decode(survivors)


def _file_repair(make_code: Callable[[], object], failed_slot: int):
    """Builder of a compiled whole-file repair of ``failed_slot``.

    Bind once, replay per run: the steady-state shape the repair data
    plane runs in production, where executors are bound to the
    survivor buffers at compile time, so the timed region is the fused
    native waves themselves.  The bytes factor is the *rebuilt* bytes
    -- the recovery-rate quantity -- not the larger download; each run
    returns its stats, so the row also reports downloaded units per
    rebuilt unit (RS 10, Piggybacked-RS 7 for a data slot, 10 for a
    parity slot).
    """

    def build(unit_size: int) -> Callable[[], object]:
        from repro.striping.pipeline import CompiledFileRepair

        code = make_code()
        # Keep the survivor working set small enough to stay
        # cache-resident on modest hosts: 4 stripes of unit_size units.
        stripes = 4
        rng = np.random.default_rng(2013)
        data = rng.integers(
            0, 256, (stripes, code.k, unit_size), dtype=np.uint8
        )
        stripe_units = np.stack([code.encode(data[t]) for t in range(stripes)])
        shards = {
            slot: np.ascontiguousarray(stripe_units[:, slot, :]).reshape(-1)
            for slot in range(code.n)
            if slot != failed_slot
        }
        compiled = CompiledFileRepair(
            code, shards, failed_slot, unit_size,
            code.k * unit_size * stripes, name="bench",
        )
        return compiled.run

    return build


def _rs() -> object:
    from repro.codes.rs import ReedSolomonCode

    return ReedSolomonCode(10, 4)


def _piggyback() -> object:
    from repro.codes.piggyback import PiggybackedRSCode

    return PiggybackedRSCode(10, 4)


#: name -> (builder(unit_size) -> thunk, bytes processed per run factor)
WORKLOADS = {
    "RS(10,4).file_encode": (_rs_file_encode, 10 * 4),
    "RS(10,4).file_repair": (_file_repair(_rs, 0), 4),
    "PiggybackedRS(10,4).file_repair.data": (_file_repair(_piggyback, 0), 4),
    "PiggybackedRS(10,4).file_repair.parity": (
        _file_repair(_piggyback, 10),
        4,
    ),
    "CRS(10,4).encode": (_crs_encode, 10),
    "CRS(10,4).decode": (_crs_decode, 10),
}


def run_backend_comparison(
    unit_size: Optional[int] = None,
    rounds: Optional[int] = None,
    backend_names: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Time every workload under every available backend.

    Returns one row per (workload, backend) with throughput, the ratio
    against the numpy oracle for the same workload and, for repairs,
    the downloaded units per rebuilt unit.  Unavailable
    backends are reported with the probe's failure reason instead of
    numbers, so the table documents *why* a tier is missing rather
    than silently shrinking.
    """
    smoke = smoke_mode()
    if unit_size is None:
        unit_size = 1 << 14 if smoke else 1 << 20
    if rounds is None:
        # Enough repeats that the median is a real median: with 1-2
        # rounds it degenerates to the (noise-prone) single sample the
        # report claims to guard against.
        rounds = 3 if smoke else 9
    statuses = backends.backend_statuses()
    if backend_names is None:
        # Oracle first so every later row can cite its ratio.
        backend_names = ["numpy"] + [
            n for n in backends.AUTO_ORDER if n != "numpy"
        ]
    rows: List[Dict[str, object]] = []
    oracle: Dict[str, float] = {}
    for backend_name in backend_names:
        status = statuses.get(backend_name, "unknown backend")
        if not status.startswith("available"):
            for workload in WORKLOADS:
                rows.append(
                    {
                        "workload": workload,
                        "backend": backend_name,
                        "MB_per_s": None,
                        "median_ms": None,
                        "vs_numpy": None,
                        "rounds": 0,
                        "units_per_rebuilt": None,
                        "note": status,
                    }
                )
            continue
        with backends.use_backend(backend_name):
            for workload, (builder, bytes_factor) in WORKLOADS.items():
                fn = builder(unit_size)
                # Warm caches, schedules and JIT outside the clock.
                repair = fn()
                stats = time_workload(fn, rounds)
                nbytes = bytes_factor * unit_size
                mb_per_s = nbytes / stats["median_s"] / 1e6
                if backend_name == "numpy":
                    oracle[workload] = mb_per_s
                base = oracle.get(workload)
                rows.append(
                    {
                        "workload": workload,
                        "backend": backend_name,
                        "MB_per_s": round(mb_per_s, 1),
                        "median_ms": round(stats["median_s"] * 1e3, 3),
                        "vs_numpy": (
                            round(mb_per_s / base, 2) if base else None
                        ),
                        "rounds": stats["rounds"],
                        "units_per_rebuilt": (
                            repair.bytes_read / repair.rebuilt_bytes
                            if hasattr(repair, "rebuilt_bytes")
                            else None
                        ),
                        "note": "",
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Simulator comparison (sharded epoch engine vs the serial oracle)
# ----------------------------------------------------------------------


def simulator_bench_config(smoke: Optional[bool] = None):
    """The config both simulator engines are timed on.

    Hashed destination draws (the order-independent mode both engines
    share) at production block density; smoke mode shrinks the cluster
    and the horizon so CI finishes in seconds.
    """
    from repro.cluster.config import ClusterConfig

    if smoke is None:
        smoke = smoke_mode()
    if smoke:
        return ClusterConfig(
            num_racks=24,
            nodes_per_rack=10,
            stripes_per_node=20.0,
            days=6.0,
            seed=8,
            destination_draws="hashed",
        )
    return ClusterConfig(
        stripes_per_node=60.0,
        days=40.0,
        seed=8,
        destination_draws="hashed",
    )


def _simulation_fingerprint(result) -> tuple:
    """Order-invariant summary of everything a simulation reports.

    Used to prove the sharded engine's merged counters equal the serial
    oracle's bit-for-bit on the benched config.
    """
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


def run_simulator_comparison(
    rounds: Optional[int] = None,
    config=None,
) -> Dict[str, object]:
    """Time the sharded epoch engine against the serial oracle.

    Both engines are constructed outside the clock each round (the
    timed region is ``run()``; for the epoch engine that includes
    timeline resolution and store construction -- its real per-run
    cost).  The two trajectories are also compared outright: a speedup
    over a *different* answer would be meaningless.
    """
    from repro.cluster.shard import ShardedSimulation
    from repro.cluster.simulation import WarehouseSimulation

    smoke = smoke_mode()
    if config is None:
        config = simulator_bench_config(smoke)
    if rounds is None:
        rounds = 1 if smoke else 3

    state: Dict[str, object] = {}

    def run_oracle():
        state["oracle"] = WarehouseSimulation(config).run()

    def run_sharded():
        state["sharded"] = ShardedSimulation(config).run()

    run_oracle()  # warm plan/layout caches outside the clock
    oracle_stats = time_workload(run_oracle, rounds)
    run_sharded()
    sharded_stats = time_workload(run_sharded, rounds)

    identical = _simulation_fingerprint(
        state["oracle"]
    ) == _simulation_fingerprint(state["sharded"])
    days = float(config.days)
    oracle_days_per_s = days / oracle_stats["median_s"]
    sharded_days_per_s = days / sharded_stats["median_s"]
    report = {
        "days": days,
        "num_nodes": config.num_nodes,
        "num_stripes": config.num_stripes,
        "code": config.code_name,
        "destination_draws": config.destination_draws,
        "rounds": rounds,
        "oracle": dict(oracle_stats, days_per_s=oracle_days_per_s),
        "sharded": dict(sharded_stats, days_per_s=sharded_days_per_s),
        "speedup_median": sharded_days_per_s / oracle_days_per_s,
        "identical": identical,
    }
    if config.repair_scheduler_active:
        stats = state["sharded"].stats
        report["queue"] = {
            "deferred": stats.deferred_repairs,
            "promoted": stats.promoted_repairs,
            "peak_depth": stats.queue_peak_depth,
            "cancelled": stats.cancelled_recoveries,
            "urgent_wait_s": round(stats.urgent_wait_us / 1e6, 1),
        }
    return report


def throttled_bench_config(smoke: Optional[bool] = None):
    """The simulator bench config under the full repair-policy stack.

    Same cluster and horizon as :func:`simulator_bench_config`, with a
    recovery pipe sized to stay contended (a standing backlog the
    scheduler must actually order) plus priority queues and lazy
    repair -- the most event-dense configuration the DES path has.
    """
    from dataclasses import replace

    base = simulator_bench_config(smoke)
    return replace(
        base,
        recovery_bandwidth_bytes_per_sec=12e6 if smoke_mode() else 400e6,
        repair_queue_discipline="priority",
        lazy_repair=True,
        lazy_repair_delay_seconds=7200.0,
    )


def run_throttled_comparison(
    rounds: Optional[int] = None,
) -> Dict[str, object]:
    """Time throttled-recovery (repair-policy DES) vs the serial oracle.

    The sharded engine runs this coordinator-driven, so the measurement
    is the scheduler's event-loop overhead on top of the epoch engine.
    """
    return run_simulator_comparison(
        rounds=rounds, config=throttled_bench_config()
    )
