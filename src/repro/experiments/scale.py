"""Large-scale simulator scenarios on the sharded epoch engine.

Not paper figures: these exercise the simulator substrate at the scale
the paper's cluster actually had (multiple thousands of machines) and
beyond, using the sharded engine from :mod:`repro.cluster.shard`.
Three named scenarios:

- ``scale_correlated`` -- correlated rack-batch failures (several
  machines of one rack going down together), the §2 failure mode that
  makes wide stripes lose multiple units at once;
- ``scale_hetero`` -- heterogeneous block capacities (a wide full/tail
  block-size mix), stressing the byte accounting rather than the event
  machinery;
- ``scale_chaos`` -- a chaos storm: node flaps plus latent unit
  corruption on top of the background failure trace.

Every scenario runs smoke-sized by default (seconds, suitable for
``repro run``/CI) and at 10k nodes with ``full=True``.  At smoke size
the sharded trajectory is verified against the serial oracle
bit-for-bit; at full scale the oracle is the thing being avoided, so
the check is skipped and the engine's own invariants stand in.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from repro.cluster.config import ClusterConfig
from repro.cluster.shard import ShardedSimulation
from repro.cluster.simulation import SimulationResult, WarehouseSimulation
from repro.experiments.runner import ExperimentResult, register_experiment

#: Full-scale topology: 10,020 machines (334 racks of 30).
FULL_RACKS = 334
#: Smoke topology: 240 machines (24 racks of 10).
SMOKE_RACKS = 24


def _scenario_config(full: bool, days: Optional[float]) -> ClusterConfig:
    if full:
        return ClusterConfig(
            num_racks=FULL_RACKS,
            nodes_per_rack=30,
            stripes_per_node=60.0,
            days=days if days is not None else 60.0,
            seed=8,
            destination_draws="hashed",
        )
    return ClusterConfig(
        num_racks=SMOKE_RACKS,
        nodes_per_rack=10,
        stripes_per_node=20.0,
        days=days if days is not None else 6.0,
        seed=8,
        destination_draws="hashed",
    )


def _fingerprint(result: SimulationResult) -> tuple:
    stats, meter = result.stats, result.meter
    return (
        tuple(result.blocks_recovered_per_day),
        tuple(result.cross_rack_bytes_per_day),
        stats.blocks_recovered,
        stats.bytes_downloaded,
        stats.unrecoverable_units,
        meter.total_bytes,
        meter.cross_rack_bytes,
        meter.num_transfers,
    )


def _run_scenario(
    experiment_id: str,
    title: str,
    config: ClusterConfig,
    full: bool,
) -> ExperimentResult:
    start = time.perf_counter()
    result = ShardedSimulation(config).run()
    wall = time.perf_counter() - start

    oracle_match: Optional[bool] = None
    if not full:
        oracle_match = _fingerprint(
            WarehouseSimulation(config).run()
        ) == _fingerprint(result)

    fractions = result.degraded_fractions
    rows = [
        {"metric": "machines", "value": config.num_nodes},
        {"metric": "stripes", "value": config.num_stripes},
        {"metric": "simulated days", "value": config.days},
        {"metric": "wall seconds", "value": round(wall, 2)},
        {"metric": "simulated days/s", "value": round(config.days / wall, 1)},
        {
            "metric": "median unavailability events/day",
            "value": round(result.median_unavailability_events),
        },
        {
            "metric": "blocks recovered",
            "value": result.stats.blocks_recovered,
        },
        {
            "metric": "cross-rack TB/day (median, scaled)",
            "value": round(
                result.median_cross_rack_bytes_scaled / 1e12, 2
            ),
        },
        {
            "metric": "degraded stripes 1 / 2 / 3+ missing",
            "value": (
                f"{fractions['one']:.2%} / {fractions['two']:.2%} / "
                f"{fractions['three_plus']:.2%}"
            ),
        },
    ]
    if oracle_match is not None:
        rows.append(
            {
                "metric": "sharded == serial oracle",
                "value": oracle_match,
            }
        )
    if config.chaos_node_flaps or config.chaos_corrupt_units:
        rows.append(
            {
                "metric": "corrupt survivors excluded",
                "value": result.stats.corrupt_survivors_excluded,
            }
        )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        tables={"scenario": rows},
        data={
            "config": config,
            "wall_seconds": wall,
            "days_per_s": config.days / wall,
            "oracle_match": oracle_match,
            "result": result,
        },
    )


def scale_correlated(
    full: bool = False,
    days: Optional[float] = None,
) -> ExperimentResult:
    """Correlated rack-batch failures at scale."""
    config = replace(
        _scenario_config(full, days),
        correlated_event_probability=0.25,
        correlated_batch_size=8,
    )
    return _run_scenario(
        "scale_correlated",
        "correlated rack failures (sharded engine)",
        config,
        full,
    )


def scale_hetero(
    full: bool = False,
    days: Optional[float] = None,
) -> ExperimentResult:
    """Heterogeneous block capacities: a wide full/tail size mix."""
    config = replace(
        _scenario_config(full, days),
        full_block_fraction=0.35,
        min_tail_block_fraction=0.02,
    )
    return _run_scenario(
        "scale_hetero",
        "heterogeneous block capacities (sharded engine)",
        config,
        full,
    )


def scale_chaos(
    full: bool = False,
    days: Optional[float] = None,
) -> ExperimentResult:
    """Chaos storm: node flaps plus latent corruption at scale."""
    base = _scenario_config(full, days)
    config = replace(
        base,
        chaos_node_flaps=40 if full else 6,
        chaos_corrupt_units=400 if full else 25,
    )
    return _run_scenario(
        "scale_chaos",
        "chaos storm at scale (sharded engine)",
        config,
        full,
    )


register_experiment("scale_correlated", scale_correlated)
register_experiment("scale_hetero", scale_hetero)
register_experiment("scale_chaos", scale_chaos)
