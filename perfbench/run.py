"""The repository's benchmark: one workload, one process, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload bulk-files-warehouse-sim --seed 1 --seconds 50 --trace 0

Every workload reports every end-to-end metric of ``BENCHMARK.json``,
so each one pairs a data-plane part with a simulator part, each given
half of the run; the two workloads stress different layers of both:

- ``bulk-files-warehouse-sim``.  Data: cold warehouse files,
  RS(10,4) and Piggybacked-RS(10,4) alternating, 1 MiB units, two full
  stripes plus a ragged tail, with few erasure patterns so plan and
  packed-table caches hit; GF kernels and CRC32C do most of the work.
  Simulator: the paper-calibrated 100 racks x 30 nodes, RS(10,4),
  hashed destination draws, eager recovery, 60 stripes per node (the
  config of ``BENCH_simulator.json``) over 20 days; timeline resolution,
  batched recovery, destination draws and ``charge_batch`` metering do
  the work.
- ``small-files-throttled-sim``.  Data: the long tail of the
  warehouse, 64 KiB units, heavy-tailed sizes from half a unit to four
  stripes (most stripes carry padding slots), every 1- and 2-slot
  pattern (105 per code, more than the caches hold); per-stripe Python,
  plan builds and cache misses dominate, with enough degraded reads for
  a p99.  Simulator: the same cluster on Piggybacked-RS under the full
  repair-policy stack (capped recovery bandwidth, priority queue, lazy
  repair, per-TOR link model, hot spares, d3 placement with parallel
  waves), 5 stripes per node, 20 days, with the recovery pipe of the
  repair-policy bench config narrowed in proportion to the sparser
  stripes so it carries the same load; the scheduler DES and stateful
  placement run at the coordinator.

On a shared host single ops run 10-30% slower at random, so every
timing is a median over many repetitions of the same work: a data rate
is the median of the run's rounds and a simulator trace's time is its
median replay.  The simulator timings replay fixed failure traces,
while the seed draws the traces the cross-rack accounting comes from
(``simplane.py``).  Before any clock starts the process pins itself to
one CPU and settles the allocator (``pin_cpu``, ``settle_allocator``).
What the benchmark deliberately leaves out, and why, is in
``not_measured.json``.

``--trace 1`` runs the workload untraced for half the time and traced
for the other half, and reports the per-layer ledger (see ``ledger.py``)
with the tracing overhead; the spans are written under
``.bench_build/traces``.  ``--smoke`` shrinks every input for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

BUILD_DIR = ".bench_build"

END_TO_END = {
    "setup_s": "s",
    "encode_MBps": "MB/s",
    "repair_MBps": "MB/s",
    "stream_repair_MBps": "MB/s",
    "degraded_read_MBps": "MB/s",
    "degraded_read_p50_ms": "ms",
    "degraded_read_p99_ms": "ms",
    "repair_read_amplification": "ratio",
    "sim_days_per_s": "days/s",
    "sharded_sim_days_per_s": "days/s",
    "sim_xrack_MB_per_block": "MB/block",
    "peak_rss_MB": "MB",
}

#: Timing metrics whose traced-minus-untraced difference is reported.
OVERHEAD = (
    "encode_MBps",
    "repair_MBps",
    "stream_repair_MBps",
    "degraded_read_MBps",
    "degraded_read_p50_ms",
    "sim_days_per_s",
    "sharded_sim_days_per_s",
)

#: Share of a run's time for the data-plane part; the simulator gets the rest.
DATA_SHARE = 0.5
#: Data set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
MIN_ROUNDS = 3
#: Replays of every simulator trace at least; a trace's time is its median.
REPLAYS = 2
#: Rounds whose repairs make up repair_read_amplification.
ACCOUNTING_ROUNDS = 2


def _prepare_environment(root: Path) -> None:
    """Import the program from ``root/src`` and keep every write in ``root``."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {root / 'src' / 'repro'}; "
            f"run from the repository root"
        )
    build = root / BUILD_DIR
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["REPRO_GF_CACHE_DIR"] = str(build / "repro-gf")
    # Results from another kernel backend are a different program: ask
    # for the compiled one and fail loudly rather than fall back.
    os.environ["REPRO_GF_BACKEND"] = "cffi"
    sys.path.insert(0, str(root / "src"))


def pin_cpu() -> int:
    """Keep the process, and the threads it starts, on one CPU.

    Unpinned, the scheduler moves the process between cores mid-run,
    and on a small shared host each move costs it its caches: whole runs
    came out 10-25% slower at random.  The highest-numbered allowed CPU
    is taken, away from CPU 0, which serves most interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def preflight(root: Path) -> dict:
    """Compile and probe the GF backend and native CRC32C; the stamp."""
    import numpy as np

    import repro
    from repro.gf import backends
    from repro.striping.checksum import crc32c

    if not Path(repro.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    backend = backends.active_backend()
    native = backends.native_backend()
    if native is None or not hasattr(native, "crc32c"):
        raise SystemExit("perfbench: native CRC32C kernels are unavailable")
    if crc32c(np.frombuffer(b"123456789", dtype=np.uint8)) != 0xE3069283:
        raise SystemExit("perfbench: CRC32C check value mismatch")
    return {
        "gf_backend": backend.name,
        "gf_tier": backend.tier_description,
        "crc32c": native.name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def workloads(smoke: bool) -> dict:
    """name -> (data spec, simulator spec)."""
    from dataclasses import replace

    from dataplane import DataSpec
    from simplane import SimSpec

    bulk = DataSpec(unit=1 << 20, files=4, sizes="bulk", full_stripes=2,
                    patterns="cached", reads=4)
    small = DataSpec(unit=64 << 10, files=96, sizes="heavy", full_stripes=4,
                     patterns="all", min_bytes=32 << 10)
    warehouse = SimSpec(100, 30, 60.0, 20.0, "rs", throttled=False, traces=1)
    throttled = SimSpec(100, 30, 5.0, 20.0, "piggyback", throttled=True,
                        traces=2)
    if smoke:
        bulk = replace(bulk, unit=64 << 10, files=2)
        small = replace(small, unit=16 << 10, files=8, min_bytes=8 << 10)
        warehouse = SimSpec(16, 8, 20.0, 6.0, "rs", throttled=False, traces=1)
        throttled = SimSpec(16, 8, 10.0, 4.0, "piggyback", throttled=True,
                            traces=2)
    return {
        "bulk-files-warehouse-sim": (bulk, warehouse),
        "small-files-throttled-sim": (small, throttled),
    }


def setup_pool(spec, seed: int):
    """Build the file pool SETUP_REPEATS times; (pool, median seconds)."""
    import numpy as np

    import dataplane

    times, pool = [], None
    for _ in range(SETUP_REPEATS):
        pool = None
        gc.collect()
        start = time.perf_counter()
        codes = dataplane.make_codes()
        pool = dataplane.build_pool(spec, codes, np.random.default_rng([seed, 1]))
        times.append(time.perf_counter() - start)
    return pool, float(np.median(times))


def settle_allocator() -> None:
    """Put glibc malloc in the state a long-running process reaches.

    glibc serves a large request from fresh pages when it is above its
    mmap threshold, and returns free memory at the top of the heap to
    the system above twice that threshold.  It raises the threshold to
    the size of each large block freed, up to 32 MiB, so how many of the
    library's per-op buffers fault in fresh pages depended on which
    sizes the seed's set-up happened to free: bulk repairs took 4.6k or
    9.8k page faults a round, and ran up to 30% slower, by seed alone.
    Freeing one block just under 32 MiB raises the threshold to its
    ceiling before any clock starts, whatever the seed.
    """
    import numpy as np

    block = np.empty((32 << 20) - (8 << 10), dtype=np.uint8)
    del block


def measure(pool, data_setup_s, sim_spec, seed, seconds, hook=None):
    """Timed rounds of both parts; returns (metrics, attempted, failed, info)."""
    import numpy as np

    import dataplane
    import simplane

    clock = time.perf_counter
    accounting = dataplane.Accounting()
    # Accounting traces get negative trace ids, apart from the timing ones.
    accounts = [
        simplane.run_round(config, -1 - i, hook)
        for i, config in enumerate(simplane.accounting_configs(sim_spec, seed))
    ]
    configs = simplane.timing_configs(sim_spec)
    # The two parts alternate, each taking the next turn while it is
    # behind its share, so both sample the host over the whole run.
    data_rounds, sim_rounds = [], []
    spent = [0.0, 0.0]
    end = clock() + seconds
    while (
        clock() < end
        or len(data_rounds) < MIN_ROUNDS
        or len(sim_rounds) < REPLAYS * len(configs)
    ):
        start = clock()
        if spent[0] * (1 - DATA_SHARE) <= spent[1] * DATA_SHARE:
            data_rounds.append(
                dataplane.run_round(pool, len(data_rounds), accounting, hook)
            )
            spent[0] += clock() - start
        else:
            trace = len(sim_rounds) % len(configs)
            sim_rounds.append(simplane.run_round(configs[trace], trace, hook))
            spent[1] += clock() - start
    metrics = dataplane.summarize(data_rounds, ACCOUNTING_ROUNDS)
    metrics.update(simplane.summarize(sim_rounds, sim_spec.days))
    metrics["sim_xrack_MB_per_block"] = simplane.xrack_MB_per_block(accounts)
    sim_rounds += accounts
    metrics["setup_s"] = data_setup_s + float(
        np.median([r.setup_s for r in sim_rounds])
    )
    attempted = sum(r.attempted for r in data_rounds + sim_rounds)
    failed = sum(r.failed for r in data_rounds + sim_rounds)
    drift = simplane.drift(sim_rounds)
    info = {
        "data_rounds": len(data_rounds),
        "sim_rounds": len(sim_rounds),
        "read_samples": metrics.pop("_read_samples"),
        "sim_drift_rounds": drift,
    }
    return metrics, attempted, failed + drift, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    _prepare_environment(root)
    meta = preflight(root)
    meta["pinned_cpu"] = pin_cpu()
    table = workloads(args.smoke)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(table)}")
    data_spec, sim_spec = table[args.workload]
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace)

    pool, data_setup_s = setup_pool(data_spec, args.seed)
    settle_allocator()
    if not args.trace:
        metrics, attempted, failed, info = measure(
            pool, data_setup_s, sim_spec, args.seed, args.seconds
        )
        metrics["peak_rss_MB"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        report = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END.items()}
    else:
        from ledger import Tracer, unit_of

        half = args.seconds / 2
        plain, attempted, failed, info = measure(
            pool, data_setup_s, sim_spec, args.seed, half
        )
        tracer = Tracer()
        tracer.install()
        try:
            traced, n, f, traced_info = measure(
                pool, data_setup_s, sim_spec, args.seed, half,
                tracer.op_span,
            )
        finally:
            tracer.uninstall()
        attempted += n
        failed += f
        info["traced"] = traced_info
        ledger = tracer.ledger()
        for name in OVERHEAD:
            ledger[f"trace.overhead.{name}"] = traced[name] / plain[name] - 1.0
        report = {name: {"value": value, "unit": unit_of(name)}
                  for name, value in ledger.items()}
        out_dir = root / BUILD_DIR / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(
            str(out_dir / f"{args.workload}-seed{args.seed}.json"),
            dict(meta, traced=traced, untraced=plain, info=info),
        )
    values = [entry["value"] for entry in report.values()]
    correct = failed == 0 and all(math.isfinite(v) for v in values)
    print(json.dumps({"meta": meta, "info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
