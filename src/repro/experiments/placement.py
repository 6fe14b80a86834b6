"""Placement ablation: deterministic d3 vs randomised distinct-rack.

Not a paper figure: this sweeps the placement policy
(:mod:`repro.cluster.placement`) and the parallel multi-failure
recovery path over the same contended recovery pipe the repair-policy
ablation uses, and reports what each buys:

- ``random_serial`` is the randomised distinct-rack baseline with
  one-at-a-time recovery.
- ``random_parallel`` turns on CR-SIM-style recovery waves: the ``a``
  concurrent erasures of a stripe are rebuilt from one ``k``-unit read
  (``k + a - 1`` transfers instead of ``a * k``), so bytes *per
  recovered block* drop whenever failures overlap.
- ``d3_serial`` swaps in the deterministic round-robin (d3) placement:
  rng-free permutation schedules for stripe rack sets, and a
  least-loaded-rack rule for repair destinations driven by a maintained
  per-rack load vector.
- ``d3_parallel`` combines both.

The headline balance metric is the **per-rack stored-unit load** after
the run -- the quantity d3's replacement rule maintains.  Its max/mean
spread stays within a few percent of 1.0 for d3 while the randomised
baseline drifts well past 1.1.  Recovery *destination* traffic per
rack is also reported, and is intentionally burstier under d3: the
least-loaded rule funnels repairs into whichever rack is currently
drained until it catches up, which is exactly how the stored load
stays flat.

Every variant runs through :class:`ShardedSimulation`; at smoke size
each is cross-checked bit-for-bit against the serial
:class:`WarehouseSimulation` oracle.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.shard import ShardedSimulation
from repro.cluster.simulation import SimulationResult, WarehouseSimulation
from repro.experiments.runner import ExperimentResult, register_experiment

#: Same contended-pipe rates as the repair-policy ablation: repairs
#: must queue for the destination draws (and hence the load vector) to
#: be exercised under backlog rather than trivially.
SMOKE_BANDWIDTH = 12e6
FULL_BANDWIDTH = 400e6


def _base_config(full: bool, days: Optional[float]) -> ClusterConfig:
    if full:
        return ClusterConfig(
            num_racks=334,
            nodes_per_rack=30,
            stripes_per_node=60.0,
            days=days if days is not None else 30.0,
            seed=8,
            destination_draws="hashed",
            recovery_bandwidth_bytes_per_sec=FULL_BANDWIDTH,
        )
    return ClusterConfig(
        num_racks=24,
        nodes_per_rack=10,
        stripes_per_node=20.0,
        days=days if days is not None else 6.0,
        seed=8,
        destination_draws="hashed",
        recovery_bandwidth_bytes_per_sec=SMOKE_BANDWIDTH,
    )


def _placement_matrix(base: ClusterConfig) -> Dict[str, ClusterConfig]:
    return {
        "random_serial": base,
        "random_parallel": replace(base, parallel_repair=True),
        "d3_serial": replace(base, placement_policy="d3"),
        "d3_parallel": replace(
            base, placement_policy="d3", parallel_repair=True
        ),
    }


def _fingerprint(result: SimulationResult) -> tuple:
    stats, meter = result.stats, result.meter
    return (
        stats.blocks_recovered,
        stats.bytes_downloaded,
        stats.unrecoverable_units,
        stats.spare_placements,
        stats.parallel_waves,
        stats.wave_extra_units,
        stats.cancelled_recoveries,
        tuple(stats.repair_latencies),
        tuple(sorted(result.degraded_histogram.items())),
        meter.total_bytes,
        meter.cross_rack_bytes,
        tuple(sorted(meter.cross_rack_bytes_by_day.items())),
        tuple(result.blocks_recovered_per_day),
    )


def _spread(load: np.ndarray) -> float:
    """max/mean imbalance of a per-rack vector (1.0 == perfectly flat)."""
    mean = load.mean()
    return float(load.max() / mean) if mean > 0 else 0.0


def _destination_traffic(result: SimulationResult, npr: int, num_racks: int):
    """Per-rack recovery bytes received (needs recorded transfers)."""
    if not result.meter.record_transfers:
        return None
    received = np.zeros(num_racks)
    for transfer in result.meter.transfers:
        if transfer.purpose == "recovery":
            received[transfer.dst_node // npr] += transfer.num_bytes
    return received


def _latency_quantiles(stats) -> Dict[str, float]:
    if not stats.repair_latencies:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0}
    q = np.percentile(stats.repair_latencies, [50, 90, 99])
    return {"p50": float(q[0]), "p90": float(q[1]), "p99": float(q[2])}


def placement_ablation(
    full: bool = False,
    days: Optional[float] = None,
) -> ExperimentResult:
    """distinct-rack/d3 x serial/parallel over a contended pipe."""
    base = _base_config(full, days)
    matrix = _placement_matrix(base)
    npr = base.total_nodes_per_rack

    rows = []
    fingerprints: Dict[str, tuple] = {}
    results: Dict[str, SimulationResult] = {}
    load_spreads: Dict[str, float] = {}
    gb_per_block: Dict[str, float] = {}
    for name, config in matrix.items():
        start = time.perf_counter()
        # Transfer logs are per-transfer objects; keep them for the
        # smoke topology only (the full cluster would hold millions).
        simulation = ShardedSimulation(config, record_transfers=not full)
        result = simulation.run()
        wall = time.perf_counter() - start
        load = simulation.rack_unit_load()
        oracle_match: Optional[bool] = None
        if not full:
            oracle_match = _fingerprint(
                WarehouseSimulation(config).run()
            ) == _fingerprint(result)
        stats = result.stats
        received = _destination_traffic(result, npr, base.num_racks)
        latency = _latency_quantiles(stats)
        blocks = max(stats.blocks_recovered, 1)
        rows.append(
            {
                "variant": name,
                "blocks": stats.blocks_recovered,
                "GB downloaded": round(stats.bytes_downloaded / 1e9, 1),
                "GB/block": round(stats.bytes_downloaded / blocks / 1e9, 3),
                "waves": stats.parallel_waves,
                "forwarded units": stats.wave_extra_units,
                "rack load spread": round(_spread(load), 4),
                "dst traffic spread": (
                    "" if received is None else round(_spread(received), 2)
                ),
                "p50 latency s": round(latency["p50"], 1),
                "p90 latency s": round(latency["p90"], 1),
                "p99 latency s": round(latency["p99"], 1),
                "wall s": round(wall, 2),
                "oracle": "" if oracle_match is None else oracle_match,
            }
        )
        fingerprints[name] = _fingerprint(result)
        results[name] = result
        load_spreads[name] = _spread(load)
        gb_per_block[name] = stats.bytes_downloaded / blocks

    summary = [
        {
            "check": "d3 rack-load spread <= 1.1",
            "value": load_spreads["d3_serial"] <= 1.1
            and load_spreads["d3_parallel"] <= 1.1,
        },
        {
            "check": "d3 flatter than random baseline",
            "value": load_spreads["d3_serial"] < load_spreads["random_serial"]
            and load_spreads["d3_parallel"]
            < load_spreads["random_parallel"],
        },
        {
            "check": "waves cut bytes per recovered block (random)",
            "value": gb_per_block["random_parallel"]
            < gb_per_block["random_serial"],
        },
        {
            "check": "waves cut bytes per recovered block (d3)",
            "value": gb_per_block["d3_parallel"] < gb_per_block["d3_serial"],
        },
    ]
    return ExperimentResult(
        experiment_id="placement_ablation",
        title="placement ablation (distinct-rack/d3 x serial/parallel waves)",
        tables={"placements": rows, "summary": summary},
        data={
            "base_config": base,
            "fingerprints": fingerprints,
            "results": results,
            "load_spreads": load_spreads,
            "bytes_per_block": gb_per_block,
        },
    )


register_experiment("placement_ablation", placement_ablation)
