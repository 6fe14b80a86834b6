"""Command-line front-end: ``repro`` (or ``python -m repro``).

Subcommands:

- ``repro experiments`` -- list the paper's figures/tables and their ids;
- ``repro run <id> [...]`` -- run one experiment and print its report;
- ``repro run-all`` -- run every experiment (the full reproduction);
- ``repro codes`` -- list registered erasure codes with their repair
  profiles;
- ``repro simulate`` -- run a custom warehouse simulation (with
  optional ``--chaos-*`` fault injection);
- ``repro pipeline`` -- measure file encode, whole-shard repair
  (compiled repair plans), or streaming degraded-read throughput
  through the in-process batched codec pipeline (``--op``);
- ``repro chaos`` -- run the seeded fault-injection acceptance
  scenario (cluster corruption + a dead node + a mid-recovery node
  flap) and report whether the system self-healed;
- ``repro scrub`` -- corrupt stored units in a mini-cluster with a
  seeded plan, then scrub and repair them;
- ``repro bench`` -- time the codec workloads under every available GF
  kernel backend and compare each against the numpy oracle;
  ``repro bench --simulator`` instead compares the sharded cluster
  simulator against the serial oracle (simulated days/s, identical
  trajectories enforced);
- ``repro metrics [path]`` -- render a metrics snapshot (the live
  registry, or a ``--emit-metrics`` JSON file).

``simulate``, ``pipeline``, and ``chaos`` accept ``--emit-metrics PATH``
to snapshot the observability registry to JSON after the run.  The flag
turns recording on for the run unless ``REPRO_METRICS=0`` explicitly
disables instrumentation (the snapshot then documents
``"enabled": false``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import render_table
from repro.analysis.repair_cost import repair_cost_table
from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import WarehouseSimulation
from repro.codes.registry import available_codes, create_code
from repro.experiments import available_experiments, run_experiment


def _cmd_experiments(_: argparse.Namespace) -> int:
    for experiment_id in available_experiments():
        print(experiment_id)
    return 0


def _begin_metrics(args: argparse.Namespace) -> bool:
    """Start a clean metrics scope when ``--emit-metrics`` was given.

    An explicit ``REPRO_METRICS=0`` wins over the flag: the run stays
    uninstrumented and the snapshot records ``"enabled": false``.
    """
    path = getattr(args, "emit_metrics", None)
    if not path:
        return False
    from repro.observability import metrics_env_enabled, reset, set_enabled

    if metrics_env_enabled():
        set_enabled(True)
    # The snapshot documents this run only, even when instrumentation
    # is disabled (the file then records "enabled": false and nothing).
    reset()
    return True


def _finish_metrics(args: argparse.Namespace) -> None:
    from repro.observability import write_snapshot

    snap = write_snapshot(args.emit_metrics)
    print(
        f"metrics: {len(snap['counters'])} counters, "
        f"{len(snap['spans'])} spans -> {args.emit_metrics}"
    )


def _json_safe(value):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(args.experiment)
    if args.json:
        import json

        payload = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "paper_rows": _json_safe(result.paper_rows),
            "tables": _json_safe(result.tables),
            "data": _json_safe(result.data),
        }
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(result.render())
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    for experiment_id in available_experiments():
        result = run_experiment(experiment_id)
        print(result.render())
        print()
    return 0


def _cmd_codes(_: argparse.Namespace) -> int:
    rows = []
    for name in available_codes():
        try:
            if name in ("rs", "reed-solomon", "piggyback", "piggybacked-rs",
                        "crs", "cauchy-bitmatrix"):
                code = create_code(name, k=10, r=4)
            elif name == "lrc":
                code = create_code(name, k=10, l=2, g=2)
            else:
                code = create_code(name)
        except TypeError:
            continue
        rows.append({"registry_name": name, **repair_cost_table([code])[0]})
    print(render_table(rows, title="registered codes ((10,4)-class parameters)"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    emit = _begin_metrics(args)
    params = {"k": args.k, "r": args.r}
    if args.code == "lrc":
        params = {"k": args.k, "l": 2, "g": 2}
    elif args.code == "replication":
        params = {"replicas": 3}
    destination_draws = args.destination_draws
    if destination_draws is None:
        # The sharded engine needs order-independent draws to split
        # work across shards; the serial engine keeps its golden
        # stream-mode trajectories.  The per-link repair model also
        # requires hashed draws (destinations must be known at submit
        # time), so requesting it flips the default too.
        # d3 placement and parallel waves replace the shared stream
        # with deterministic / hashed draws, so they flip it as well.
        destination_draws = (
            "hashed"
            if args.engine == "sharded"
            or args.repair_link_gbps
            or args.placement == "d3"
            or args.parallel_repair
            else "stream"
        )
    policy = args.repair_policy
    config = ClusterConfig(
        days=args.days,
        seed=args.seed,
        code_name=args.code,
        code_params=params,
        stripes_per_node=args.stripes_per_node,
        reads_per_stripe_per_day=args.reads_per_stripe_per_day,
        recovery_bandwidth_bytes_per_sec=args.recovery_gbps * 125e6
        if args.recovery_gbps
        else None,
        repair_queue_discipline="priority"
        if policy in ("priority", "lazy-priority")
        else "fifo",
        lazy_repair=policy in ("lazy", "lazy-priority"),
        hot_spares_per_rack=args.hot_spares,
        placement_policy=args.placement,
        parallel_repair=args.parallel_repair,
        repair_link_gbps=args.repair_link_gbps or None,
        chaos_seed=args.chaos_seed,
        chaos_node_flaps=args.chaos_node_flaps,
        chaos_corrupt_units=args.chaos_corrupt_units,
        destination_draws=destination_draws,
    )
    if args.engine == "sharded":
        from repro.cluster.shard import ShardedSimulation

        result = ShardedSimulation(
            config,
            num_shards=args.shards,
            checkpoint_path=args.checkpoint,
            checkpoint_every_days=args.checkpoint_every_days,
        ).run()
    else:
        result = WarehouseSimulation(config).run()
    print(f"code: {result.code_name}  days: {result.days}  "
          f"machines: {config.num_nodes}  block-scale: {config.block_scale:.1f}x")
    print(f"median unavailability events/day : {result.median_unavailability_events:.0f}")
    print(f"median blocks recovered/day      : {result.median_blocks_recovered_scaled:,.0f} (scaled)")
    print(f"median cross-rack TB/day         : {result.median_cross_rack_bytes_scaled / 1e12:,.1f} (scaled)")
    fractions = result.degraded_fractions
    print(f"degraded stripes 1/2/3+ missing  : "
          f"{fractions['one']:.2%} / {fractions['two']:.2%} / {fractions['three_plus']:.2%}")
    if result.stats.repair_latencies:
        import numpy as np

        latencies = np.asarray(result.stats.repair_latencies)
        print(f"recovery latency mean/median/p99 : "
              f"{latencies.mean():.2f}s / {np.median(latencies):.2f}s / "
              f"{np.percentile(latencies, 99):.2f}s")
    if config.repair_scheduler_active:
        stats = result.stats
        served = max(stats.flagged_events_recovered, 1)
        print(f"repair queue deferred/promoted   : "
              f"{stats.deferred_repairs:,} / {stats.promoted_repairs:,} "
              f"(peak depth {stats.queue_peak_depth:,})")
        print(f"repair queue wait mean/urgent    : "
              f"{stats.queue_wait_us / served / 1e6:,.1f}s / "
              f"{stats.urgent_wait_us / 1e6:,.1f}s total")
        if config.hot_spares_per_rack:
            print(f"hot-spare placements             : "
                  f"{stats.spare_placements:,}")
    if result.stats.parallel_waves:
        stats = result.stats
        print(f"parallel repair waves            : "
              f"{stats.parallel_waves:,} "
              f"({stats.wave_extra_units:,} forwarded units)")
    if result.read_stats is not None:
        reads = result.read_stats
        print(f"foreground reads                 : {reads.reads:,} "
              f"({reads.degraded_fraction:.3%} degraded, "
              f"amplification {reads.degraded_read_amplification:.1f}x)")
    if args.chaos_node_flaps or args.chaos_corrupt_units:
        print(f"chaos: corrupt survivors excluded from repair plans : "
              f"{result.stats.corrupt_survivors_excluded:,}")
    if emit:
        _finish_metrics(args)
    return 0


def _chaos_code_params(code: str) -> dict:
    """Small stripe parameters for the mini-cluster chaos/scrub runs."""
    if code == "lrc":
        return {"k": 4, "l": 2, "g": 2}
    return {"k": 4, "r": 2}


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, run_chaos_scenario

    emit = _begin_metrics(args)
    if args.spec:
        plan = FaultPlan.parse(f"{args.seed}:{args.spec}")
    else:
        plan = FaultPlan(seed=args.seed)
    report = run_chaos_scenario(
        args.code,
        seed=args.seed,
        plan=plan,
        code_params=_chaos_code_params(args.code),
    )
    print(f"chaos scenario: code={report.code_name}  seed={report.seed}")
    print(f"faults injected into the cluster    : {len(report.faults)}")
    for fault in report.faults:
        print(f"  {fault.kind:<10} stripe={fault.stripe_id} "
              f"slot={fault.slot} offset={fault.byte_offset}")
    print(f"units quarantined                   : {len(report.quarantined)}")
    for stripe_id, slot, reason in report.quarantined:
        print(f"  stripe={stripe_id} slot={slot}: {reason}")
    print(f"scrub rounds to converge            : {report.rounds_to_converge}")
    print(f"recovered data byte-identical       : {report.data_intact}")
    print(f"verdict: {'CLEAN' if report.clean else 'NOT CLEAN'}")
    if emit:
        _finish_metrics(args)
    return 0 if report.clean else 1


def _cmd_scrub(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.cluster.namenode import NameNode
    from repro.cluster.placement import DistinctRackPlacement
    from repro.cluster.raidnode import RaidNode
    from repro.cluster.scrubber import Scrubber
    from repro.cluster.topology import Topology
    from repro.faults import FaultPlan, inject_cluster_faults

    plan = FaultPlan(
        seed=args.seed,
        bit_flips=(args.corruptions + 1) // 2,
        truncations=args.corruptions // 2,
        node_flaps=0,
    )
    topology = Topology(num_racks=10, nodes_per_rack=2)
    namenode = NameNode(topology, DistinctRackPlacement(topology, seed=args.seed))
    code = create_code(args.code, **_chaos_code_params(args.code))
    raidnode = RaidNode(namenode, code)
    data = plan.rng("scrub-payload", args.code).integers(
        0, 256, size=6_000, dtype=np.uint8
    )
    namenode.write_file("scrub-file", data, block_size=250)
    raidnode.raid_file("scrub-file")
    if args.parity_only:
        # Drop the registry checksums so the scrubber must localise
        # corruption with the parity-voting oracle alone.
        for entry in namenode.stripes.values():
            entry.checksums.clear()
    faults = inject_cluster_faults(namenode, plan)
    report = Scrubber(raidnode).scrub()
    intact = np.array_equal(namenode.read_file("scrub-file"), data)
    print(f"scrub: code={code.name}  seed={args.seed}  "
          f"mode={'parity-only' if args.parity_only else 'checksum-first'}")
    print(f"faults injected            : {len(faults)}")
    for fault in faults:
        print(f"  {fault.kind:<10} stripe={fault.stripe_id} "
              f"slot={fault.slot} offset={fault.byte_offset}")
    print(f"stripes checked / clean    : "
          f"{report.stripes_checked} / {report.stripes_clean}")
    print(f"corrupt found / repaired   : "
          f"{report.corrupt_units_found} / {report.corrupt_units_repaired}")
    print(f"checksum-verified stripes  : {report.checksum_verified}")
    print(f"parity-fallback stripes    : {report.parity_fallbacks}")
    print(f"unverifiable stripes       : {len(report.unverifiable_stripes)}")
    print(f"file reads back intact     : {intact}")
    healed = (
        intact
        and report.corrupt_units_found == report.corrupt_units_repaired
        and not report.unverifiable_stripes
    )
    print(f"verdict: {'CLEAN' if healed else 'NOT CLEAN'}")
    return 0 if healed else 1


def _materialise_shards(code, data, block_size, name):
    """Encode ``data`` and return its stored shards and unit checksums.

    ``shards[slot]`` is slot's stored bytes across all stripes
    back-to-back (data slots store logical block bytes, parity slots
    the full padded width); ``checksums[slot][t]`` is the CRC32C of
    stripe ``t``'s stored unit.  This is the at-rest layout the repair
    and degraded-read pipelines consume.
    """
    import numpy as np

    from repro.striping.checksum import crc32c
    from repro.striping.pipeline import encode_file

    result = encode_file(code, data, block_size, name=name)
    shards = {slot: bytearray() for slot in range(code.n)}
    checksums = {slot: [] for slot in range(code.n)}
    cursor = 0
    for t, layout in enumerate(result.layouts):
        members = result.file.blocks[
            cursor : cursor + layout.real_data_count
        ]
        cursor += layout.real_data_count
        for slot in range(code.n):
            if slot < code.k:
                if slot < len(members):
                    stored = members[slot].payload.tobytes()
                else:
                    stored = b""  # virtual slot: nothing stored
            else:
                stored = result.parities[t][slot - code.k].payload.tobytes()
            shards[slot] += stored
            checksums[slot].append(
                crc32c(np.frombuffer(stored, dtype=np.uint8))
            )
    return (
        len(result.layouts),
        {s: bytes(b) for s, b in shards.items()},
        checksums,
    )


def _pipeline_encode(args, code, data, size, block_size):
    import time

    from repro.striping.pipeline import encode_file

    best = None
    result = None
    for _ in range(max(1, args.rounds)):
        start = time.perf_counter()
        result = encode_file(code, data, block_size, name="bench")
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    assert result is not None and best is not None
    mb = size / 1e6
    print(f"code: {code.name}  file: {mb:.0f} MB  "
          f"block: {block_size // 1024} KiB  stripes: {len(result.layouts)}")
    print(f"encode throughput: {mb / best:.1f} MB/s "
          f"(best of {max(1, args.rounds)}, {best * 1e3:.1f} ms)")
    print(f"parity bytes: {result.parity_bytes:,}")
    return 0


def _pipeline_repair(args, code, data, size, block_size):
    import time

    from repro.striping.pipeline import repair_file

    failed = args.failed_slot % code.n
    stripes, shards, checksums = _materialise_shards(
        code, data, block_size, "bench"
    )
    expected = shards.pop(failed)
    best = None
    result = None
    for _ in range(max(1, args.rounds)):
        start = time.perf_counter()
        result = repair_file(
            code, shards, failed, block_size, size,
            name="bench", checksums=checksums,
        )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    assert result is not None and best is not None
    if result.rebuilt.tobytes() != expected:
        print("FAILED: rebuilt shard does not match the encoded shard")
        return 1
    rebuilt_mb = result.rebuilt_bytes / 1e6
    kind = "data" if failed < code.k else "parity"
    print(f"code: {code.name}  file: {size / 1e6:.0f} MB  "
          f"block: {block_size // 1024} KiB  stripes: {stripes}")
    print(f"failed slot: {failed} ({kind})")
    print(f"repair throughput: {rebuilt_mb / best:.1f} MB/s rebuilt "
          f"(best of {max(1, args.rounds)}, {best * 1e3:.1f} ms)")
    ratio = result.bytes_read / max(1, result.rebuilt_bytes)
    print(f"bytes downloaded: {result.bytes_read:,} "
          f"({ratio:.1f} per byte rebuilt)")
    print(f"rebuilt shard verified: crc mismatches "
          f"{result.crc_mismatches}, quarantined {len(result.quarantined)}")
    return 0


def _pipeline_decode(args, code, data, size, block_size):
    import io
    import time

    from repro.striping.pipeline import decode_file

    failed = args.failed_slot % code.n
    stripes, shards, checksums = _materialise_shards(
        code, data, block_size, "bench"
    )
    del shards[failed]  # the degraded slot: decode without it
    sources_checks = {s: checksums[s] for s in shards if s < code.k}
    best = None
    result = None
    decoded = None
    for _ in range(max(1, args.rounds)):
        sink = io.BytesIO()
        start = time.perf_counter()
        result = decode_file(
            code, shards, sink, block_size, size,
            name="bench", checksums=sources_checks,
        )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        decoded = sink.getvalue()
    assert result is not None and best is not None
    if decoded != data.tobytes():
        print("FAILED: decoded bytes do not match the original file")
        return 1
    mb = size / 1e6
    kind = "data" if failed < code.k else "parity"
    print(f"code: {code.name}  file: {mb:.0f} MB  "
          f"block: {block_size // 1024} KiB  stripes: {stripes}")
    print(f"degraded slot: {failed} ({kind})  "
          f"pipeline occupancy: {result.occupancy:.2f}")
    print(f"degraded read throughput: {mb / best:.1f} MB/s "
          f"(best of {max(1, args.rounds)}, {best * 1e3:.1f} ms)")
    ratio = result.bytes_read / max(1, size)
    print(f"bytes downloaded: {result.bytes_read:,} "
          f"({ratio:.2f} per byte read)")
    print(f"file verified: crc mismatches {result.crc_mismatches}, "
          f"quarantined {len(result.quarantined)}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    import numpy as np

    emit = _begin_metrics(args)
    params = {"k": args.k, "r": args.r}
    if args.code == "lrc":
        params = {"k": args.k, "l": 2, "g": 2}
    code = create_code(args.code, **params)
    size = int(args.size_mib * (1 << 20))
    block_size = int(args.block_kib * 1024)
    rng = np.random.default_rng(args.seed)
    data = rng.integers(0, 256, size=size, dtype=np.uint8)
    if args.op == "repair":
        status = _pipeline_repair(args, code, data, size, block_size)
    elif args.op == "decode":
        status = _pipeline_decode(args, code, data, size, block_size)
    else:
        status = _pipeline_encode(args, code, data, size, block_size)
    if emit:
        _finish_metrics(args)
    return status


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.observability import get_registry

    if args.path:
        try:
            with open(args.path, encoding="utf-8") as handle:
                snap = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"repro metrics: cannot read {args.path}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        snap = get_registry().snapshot()
    if args.json:
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0
    source = args.path if args.path else "live registry"
    print(f"metrics snapshot ({source}), enabled: {snap.get('enabled')}")
    counters = snap.get("counters") or {}
    if counters:
        print("\ncounters:")
        for name in sorted(counters):
            print(f"  {name:<44} {counters[name]:,}")
    gauges = snap.get("gauges") or {}
    if gauges:
        print("\ngauges:")
        for name in sorted(gauges):
            print(f"  {name:<44} {gauges[name]}")
    histograms = snap.get("histograms") or {}
    if histograms:
        print("\nhistograms:")
        for name in sorted(histograms):
            h = histograms[name]
            print(f"  {name:<44} count={h['count']} mean={h['mean']:.6g} "
                  f"min={h['min']:.6g} max={h['max']:.6g}")
    spans = snap.get("spans") or {}
    if spans:
        print("\nspans:")
        for name in sorted(spans):
            s = spans[name]
            print(f"  {name:<44} count={s['count']} "
                  f"wall={s['wall_seconds']:.4f}s cpu={s['cpu_seconds']:.4f}s "
                  f"max={s['wall_max_seconds']:.4f}s")
    if not (counters or gauges or histograms or spans):
        print("(no metrics recorded)")
    return 0


#: Experiments that run multi-day cluster simulations.
_HEAVY_EXPERIMENTS = {
    "fig3a", "fig3b", "tab_missing", "tab_traffic", "ext_degraded",
    "ext_latency", "ext_uplink", "abl_threshold", "abl_placement",
    "placement_ablation",
}


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.experiments.scorecard import scorecard, summarize

    ids = available_experiments()
    if args.quick:
        ids = [e for e in ids if e not in _HEAVY_EXPERIMENTS]
    rows = scorecard(ids)
    table_rows = [
        {
            "experiment": row.experiment_id,
            "metric": row.metric,
            "paper": row.paper,
            "measured": row.measured,
            "status": row.status.upper(),
        }
        for row in rows
    ]
    print(render_table(table_rows, title="reproduction scorecard"))
    summary = summarize(rows)
    print(
        f"\n{summary['pass']} pass, {summary['fail']} fail, "
        f"{summary['info']} informational"
    )
    return 0 if summary["fail"] == 0 else 1


def _cmd_bench_simulator(args: argparse.Namespace) -> int:
    from repro.bench import bench_meta, run_simulator_comparison

    meta = bench_meta()
    report = run_simulator_comparison(
        rounds=args.rounds, num_shards=args.shards
    )
    if args.json:
        import json

        print(json.dumps({"meta": meta, "simulator": report}, indent=2))
        return 0 if report["identical"] else 1
    print(
        f"python {meta['python']}  numpy {meta['numpy']}  "
        f"cpus: {meta['cpu_count']}"
    )
    print(
        f"config: {report['num_nodes']} nodes, "
        f"{report['num_stripes']} stripes, {report['days']:.0f} days, "
        f"code {report['code']}, {report['destination_draws']} draws"
    )
    rows = [
        {
            "engine": "serial oracle",
            "median s": round(report["oracle"]["median_s"], 3),
            "days/s": round(report["oracle"]["days_per_s"], 1),
        },
        {
            "engine": f"sharded x{report['num_shards']}",
            "median s": round(report["sharded"]["median_s"], 3),
            "days/s": round(report["sharded"]["days_per_s"], 1),
        },
    ]
    print(render_table(rows, title="simulator engines (median of rounds)"))
    print(
        f"speedup (median days/s): {report['speedup_median']:.2f}x   "
        f"trajectories identical: {report['identical']}"
    )
    return 0 if report["identical"] else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench import SMOKE_ENV, bench_meta, run_backend_comparison

    if args.smoke:
        os.environ[SMOKE_ENV] = "1"
    if args.simulator:
        return _cmd_bench_simulator(args)
    meta = bench_meta()
    rows = run_backend_comparison(rounds=args.rounds)
    if args.json:
        import json

        print(json.dumps({"meta": meta, "rows": rows}, indent=2))
        return 0
    print(
        f"python {meta['python']}  numpy {meta['numpy']}  "
        f"cpus: {meta['cpu_count']}"
    )
    print(
        f"active GF backend: {meta['gf_backend']} "
        f"({meta['gf_backend_tier']})"
    )
    for name, status in meta["gf_backends"].items():
        print(f"  {name}: {status}")
    print()
    table_rows = [
        {
            "workload": row["workload"],
            "backend": row["backend"],
            "MB/s": row["MB_per_s"] if row["MB_per_s"] is not None else "-",
            "median ms": (
                row["median_ms"] if row["median_ms"] is not None else "-"
            ),
            "vs numpy": (
                f"{row['vs_numpy']:.2f}x"
                if row["vs_numpy"] is not None
                else "-"
            ),
            "units/rebuilt": (
                f"{row['units_per_rebuilt']:g}"
                if row["units_per_rebuilt"] is not None
                else "-"
            ),
            "note": row["note"],
        }
        for row in rows
    ]
    print(render_table(table_rows, title="backend comparison (median)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Solution to the Network Challenges of Data "
            "Recovery in Erasure-coded Distributed Storage Systems' "
            "(HotStorage 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list experiment ids").set_defaults(
        fn=_cmd_experiments
    )

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=available_experiments())
    run_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    run_parser.set_defaults(fn=_cmd_run)

    sub.add_parser("run-all", help="run every experiment").set_defaults(
        fn=_cmd_run_all
    )

    sub.add_parser("codes", help="list registered codes").set_defaults(
        fn=_cmd_codes
    )

    score_parser = sub.add_parser(
        "scorecard",
        help="run every experiment and grade paper-vs-measured rows",
    )
    score_parser.add_argument(
        "--quick",
        action="store_true",
        help="only the fast (non-simulation) experiments",
    )
    score_parser.set_defaults(fn=_cmd_scorecard)

    sim_parser = sub.add_parser("simulate", help="run a warehouse simulation")
    sim_parser.add_argument("--code", default="rs", choices=available_codes())
    sim_parser.add_argument("--days", type=float, default=24.0)
    sim_parser.add_argument("--seed", type=int, default=20130901)
    sim_parser.add_argument("--k", type=int, default=10)
    sim_parser.add_argument("--r", type=int, default=4)
    sim_parser.add_argument("--stripes-per-node", type=float, default=60.0)
    sim_parser.add_argument(
        "--reads-per-stripe-per-day",
        type=float,
        default=0.0,
        help="foreground read rate (enables degraded-read accounting)",
    )
    sim_parser.add_argument(
        "--recovery-gbps",
        type=float,
        default=0.0,
        help="shared recovery pipe in Gb/s (0 = instantaneous recovery)",
    )
    sim_parser.add_argument(
        "--repair-policy",
        choices=["eager", "lazy", "priority", "lazy-priority"],
        default="eager",
        help="repair-queue policy over the recovery pipe: eager FIFO "
        "(the default), lazy (defer single erasures 15 min), priority "
        "(multi-erasure stripes first; needs --recovery-gbps), or both",
    )
    sim_parser.add_argument(
        "--hot-spares",
        type=int,
        default=0,
        help="hot-spare machines per rack (repairs land there first)",
    )
    sim_parser.add_argument(
        "--placement",
        choices=["distinct-rack", "distinct-node", "d3"],
        default="distinct-rack",
        help="placement policy: random distinct racks (the paper's "
        "baseline), random distinct nodes, or the deterministic d3 "
        "round-robin schedule (implies hashed destination draws)",
    )
    sim_parser.add_argument(
        "--parallel-repair",
        action="store_true",
        help="CR-SIM parallel waves: a stripe with a concurrent "
        "erasures repairs in k+a-1 transfers instead of a*k "
        "(implies hashed destination draws)",
    )
    sim_parser.add_argument(
        "--repair-link-gbps",
        type=float,
        default=0.0,
        help="per-TOR repair uplink in Gb/s (0 = shared-pipe model "
        "only); implies hashed destination draws",
    )
    sim_parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="fault-plan seed (defaults to the master --seed)",
    )
    sim_parser.add_argument(
        "--chaos-node-flaps",
        type=int,
        default=0,
        help="extra flagged-length node flaps appended to the trace",
    )
    sim_parser.add_argument(
        "--chaos-corrupt-units",
        type=int,
        default=0,
        help="stored units marked corrupt; repair plans must avoid them",
    )
    sim_parser.add_argument(
        "--emit-metrics",
        metavar="PATH",
        default=None,
        help="write an observability-registry JSON snapshot after the run",
    )
    sim_parser.add_argument(
        "--engine",
        choices=["serial", "sharded"],
        default="serial",
        help="simulation engine: the serial oracle or the sharded "
        "epoch engine (identical trajectories under hashed draws)",
    )
    sim_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="stripe shards for --engine sharded, all run in-process "
        "(default: 1)",
    )
    sim_parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write resumable snapshots to PATH (--engine sharded)",
    )
    sim_parser.add_argument(
        "--checkpoint-every-days",
        type=int,
        default=None,
        help="snapshot interval in simulated days (requires --checkpoint)",
    )
    sim_parser.add_argument(
        "--destination-draws",
        choices=["stream", "hashed"],
        default=None,
        help="recovery-destination randomness (default: stream for the "
        "serial engine, hashed for the sharded engine)",
    )
    sim_parser.set_defaults(fn=_cmd_simulate)

    pipe_parser = sub.add_parser(
        "pipeline",
        help="measure file encode/repair/degraded-read throughput "
        "(batched codec, compiled repair plans, in-process)",
    )
    pipe_parser.add_argument(
        "--op",
        choices=("encode", "repair", "decode"),
        default="encode",
        help="encode a file, rebuild one failed shard (compiled repair "
        "plan), or stream a degraded read past a lost slot",
    )
    pipe_parser.add_argument(
        "--failed-slot",
        type=int,
        default=0,
        help="slot to fail for --op repair/decode (mod n)",
    )
    pipe_parser.add_argument("--code", default="rs", choices=available_codes())
    pipe_parser.add_argument("--k", type=int, default=10)
    pipe_parser.add_argument("--r", type=int, default=4)
    pipe_parser.add_argument("--size-mib", type=float, default=64.0)
    pipe_parser.add_argument("--block-kib", type=float, default=256.0)
    pipe_parser.add_argument("--rounds", type=int, default=3)
    pipe_parser.add_argument("--seed", type=int, default=0)
    pipe_parser.add_argument(
        "--emit-metrics",
        metavar="PATH",
        default=None,
        help="write an observability-registry JSON snapshot after the run",
    )
    pipe_parser.set_defaults(fn=_cmd_pipeline)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run the seeded fault-injection acceptance scenario",
    )
    chaos_parser.add_argument(
        "--code", default="rs", choices=("rs", "lrc", "crs", "piggyback")
    )
    chaos_parser.add_argument("--seed", type=int, default=20130901)
    chaos_parser.add_argument(
        "--spec",
        default="",
        help=(
            "fault-plan overrides as key=value pairs "
            "(e.g. 'bit_flips=2,truncations=0,node_flaps=1')"
        ),
    )
    chaos_parser.add_argument(
        "--emit-metrics",
        metavar="PATH",
        default=None,
        help="write an observability-registry JSON snapshot after the run",
    )
    chaos_parser.set_defaults(fn=_cmd_chaos)

    scrub_parser = sub.add_parser(
        "scrub",
        help="corrupt stored units with a seeded plan, then scrub and repair",
    )
    scrub_parser.add_argument(
        "--code", default="rs", choices=("rs", "lrc", "crs", "piggyback")
    )
    scrub_parser.add_argument("--seed", type=int, default=20130901)
    scrub_parser.add_argument(
        "--corruptions",
        type=int,
        default=2,
        help="units to damage (split between bit-flips and truncations)",
    )
    scrub_parser.add_argument(
        "--parity-only",
        action="store_true",
        help="drop registry checksums: exercise the parity-voting oracle",
    )
    scrub_parser.set_defaults(fn=_cmd_scrub)

    bench_parser = sub.add_parser(
        "bench",
        help="compare GF kernel backends against the numpy oracle",
    )
    bench_parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="timing rounds per workload (default 5; 1 in smoke mode)",
    )
    bench_parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads for CI (also via REPRO_BENCH_SMOKE=1)",
    )
    bench_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    bench_parser.add_argument(
        "--simulator",
        action="store_true",
        help="compare the sharded cluster simulator against the serial "
        "oracle (simulated days/s) instead of the codec backends",
    )
    bench_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="stripe shards for --simulator, all run in-process "
        "(default: 1)",
    )
    bench_parser.set_defaults(fn=_cmd_bench)

    metrics_parser = sub.add_parser(
        "metrics",
        help="render a metrics snapshot (live registry or JSON file)",
    )
    metrics_parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="snapshot file from --emit-metrics (default: live registry)",
    )
    metrics_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    metrics_parser.set_defaults(fn=_cmd_metrics)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
