"""Sharded-engine exactness under the repair-policy scheduler.

The contract this file pins: any repair-policy config (throttled pipe,
priority/lazy queues, per-link model, hot spares, read workloads) run
through :class:`ShardedSimulation` -- at any shard count -- produces
counters *field-by-field identical* to the serial
:class:`WarehouseSimulation` oracle, and a checkpoint taken with a
non-empty repair queue resumes bit-identically.
"""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.shard import ShardedSimulation
from repro.cluster.simulation import WarehouseSimulation

BASE = ClusterConfig(
    num_racks=16,
    nodes_per_rack=6,
    stripes_per_node=20.0,
    days=3.0,
    seed=11,
    destination_draws="hashed",
)

#: Three structurally different code families (plain RS, piggybacked
#: RS, locally repairable) with their parameter shapes.
CODE_PARAMS = {
    "rs": {"k": 10, "r": 4},
    "piggyback": {"k": 10, "r": 4},
    "lrc": {"k": 10, "l": 2, "g": 2},
}


def with_code(config, code_name):
    return replace(
        config, code_name=code_name, code_params=CODE_PARAMS[code_name]
    )

THROTTLED = replace(BASE, recovery_bandwidth_bytes_per_sec=40e6)

FULL_POLICY = replace(
    BASE,
    recovery_bandwidth_bytes_per_sec=40e6,
    repair_queue_discipline="priority",
    lazy_repair=True,
    lazy_repair_delay_seconds=900.0,
    lazy_repair_threshold=40,
    repair_link_gbps=1.0,
    hot_spares_per_rack=1,
    reads_per_stripe_per_day=0.05,
)


def fingerprint(result):
    """Every counter the exactness contract covers, field by field."""
    s = result.stats
    d = {
        "blocks_recovered": s.blocks_recovered,
        "bytes_downloaded": s.bytes_downloaded,
        "cancelled_recoveries": s.cancelled_recoveries,
        "unrecoverable_units": s.unrecoverable_units,
        "corrupt_survivors_excluded": s.corrupt_survivors_excluded,
        "degraded_histogram": dict(s.degraded_histogram),
        "blocks_by_day": dict(s.blocks_recovered_by_day),
        "flagged_recovered": s.flagged_events_recovered,
        "flagged_skipped": s.flagged_events_skipped,
        "repair_latencies": tuple(s.repair_latencies),
        "queue_wait_us": s.queue_wait_us,
        "urgent_wait_us": s.urgent_wait_us,
        "deferred_repairs": s.deferred_repairs,
        "promoted_repairs": s.promoted_repairs,
        "queue_peak_depth": s.queue_peak_depth,
        "spare_placements": s.spare_placements,
        "cross_rack_bytes": result.meter.cross_rack_bytes,
        "total_bytes": result.meter.total_bytes,
        "bytes_by_purpose": dict(result.meter.bytes_by_purpose),
        "cross_by_day": dict(result.meter.cross_rack_bytes_by_day),
    }
    if result.read_stats is not None:
        r = result.read_stats
        d["reads"] = (
            r.reads,
            r.healthy_reads,
            r.degraded_reads,
            r.failed_reads,
            r.healthy_bytes,
            r.degraded_bytes,
            r.degraded_read_latency_us,
            r.degraded_read_latency_max_us,
        )
    else:
        d["reads"] = None
    return d


def assert_matches_oracle(config, num_shards):
    serial = fingerprint(WarehouseSimulation(config).run())
    sharded = fingerprint(
        ShardedSimulation(config, num_shards=num_shards).run()
    )
    mismatched = [k for k in serial if serial[k] != sharded[k]]
    assert not mismatched, {
        k: (serial[k], sharded[k]) for k in mismatched
    }


# ----------------------------------------------------------------------
# Oracle equality: code families x shard counts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("code_name", ["rs", "piggyback", "lrc"])
@pytest.mark.parametrize("num_shards", [1, 3, 4])
def test_throttled_matches_oracle(code_name, num_shards):
    config = with_code(THROTTLED, code_name)
    assert_matches_oracle(config, num_shards)


@pytest.mark.parametrize("code_name", ["rs", "piggyback", "lrc"])
def test_full_policy_matches_oracle(code_name):
    config = with_code(FULL_POLICY, code_name)
    assert_matches_oracle(config, num_shards=3)


def test_full_policy_matches_oracle_four_shards():
    assert_matches_oracle(FULL_POLICY, num_shards=4)


@pytest.mark.parametrize("num_shards", [1, 3, 4])
def test_reads_match_oracle_without_scheduler(num_shards):
    # Reads execute on the owning shard when no scheduler runs.
    config = replace(BASE, reads_per_stripe_per_day=0.05)
    assert_matches_oracle(config, num_shards)


def test_lazy_priority_without_link_matches_oracle():
    config = replace(
        BASE,
        recovery_bandwidth_bytes_per_sec=60e6,
        repair_queue_discipline="priority",
        priority_aging_seconds=7200.0,
        lazy_repair=True,
        lazy_repair_delay_seconds=600.0,
    )
    assert_matches_oracle(config, num_shards=2)


def test_spares_with_throttle_match_oracle():
    config = replace(
        THROTTLED, hot_spares_per_rack=2, reads_per_stripe_per_day=0.02
    )
    assert_matches_oracle(config, num_shards=3)


# ----------------------------------------------------------------------
# Policy effects (not just exactness)
# ----------------------------------------------------------------------


def test_priority_reduces_urgent_wait():
    """Priority queueing measurably shrinks multi-erasure exposure."""
    slow = replace(THROTTLED, recovery_bandwidth_bytes_per_sec=6e6)
    fifo = WarehouseSimulation(slow).run()
    prio = WarehouseSimulation(
        replace(slow, repair_queue_discipline="priority")
    ).run()
    # Same failure history and enqueue stream -- ordering differs (so
    # cancellations and exact block counts may drift slightly), but
    # multi-erasure stripes wait dramatically less under priority.
    assert (
        fifo.stats.flagged_events_recovered
        == prio.stats.flagged_events_recovered
    )
    assert fifo.stats.urgent_wait_us > 0
    assert prio.stats.urgent_wait_us < 0.8 * fifo.stats.urgent_wait_us


def test_lazy_repair_cancels_more():
    """Deferring single-erasure repairs lets returning nodes cancel."""
    eager = WarehouseSimulation(THROTTLED).run()
    lazy = WarehouseSimulation(
        replace(
            THROTTLED,
            lazy_repair=True,
            lazy_repair_delay_seconds=7200.0,
        )
    ).run()
    assert lazy.stats.deferred_repairs > 0
    assert lazy.stats.cancelled_recoveries >= eager.stats.cancelled_recoveries
    assert lazy.stats.bytes_downloaded <= eager.stats.bytes_downloaded


# ----------------------------------------------------------------------
# Checkpoint/restore with a live queue
# ----------------------------------------------------------------------

BACKLOG = replace(
    BASE,
    days=4.0,
    recovery_bandwidth_bytes_per_sec=4e6,
    repair_queue_discipline="priority",
    lazy_repair=True,
    lazy_repair_delay_seconds=43200.0,
)


def test_checkpoint_mid_queue_resumes_bit_identical(tmp_path):
    serial = fingerprint(WarehouseSimulation(BACKLOG).run())
    path = os.path.join(tmp_path, "ckpt.npz")
    sim = ShardedSimulation(BACKLOG, num_shards=3, checkpoint_path=path)
    assert sim.run(stop_after_day=2) is None
    # The contract needs a non-trivial queue at the cut.
    assert sim.scheduler.depth > 0
    resumed = fingerprint(ShardedSimulation.resume(path).run())
    assert resumed == serial


def test_checkpoint_missing_scheduler_state_is_loud(tmp_path):
    from repro.cluster.checkpoint import load_checkpoint, save_checkpoint
    from repro.errors import CheckpointError

    path = os.path.join(tmp_path, "ckpt.npz")
    sim = ShardedSimulation(BACKLOG, num_shards=2, checkpoint_path=path)
    sim.run(stop_after_day=1)
    data = load_checkpoint(path)
    data.scheduler_state = None
    save_checkpoint(path, data)
    with pytest.raises(CheckpointError, match="queue state"):
        ShardedSimulation.resume(path)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    code_name=st.sampled_from(["rs", "piggyback", "lrc"]),
    stop_day=st.integers(min_value=1, max_value=2),
)
def test_checkpoint_sweep_resumes_identical(tmp_path, seed, code_name, stop_day):
    """Any (seed, code, cut day): resume == straight-through run."""
    config = replace(
        with_code(BACKLOG, code_name),
        seed=seed,
        days=3.0,
        num_racks=14,
        nodes_per_rack=5,
        stripes_per_node=12.0,
    )
    straight = fingerprint(ShardedSimulation(config, num_shards=2).run())
    path = os.path.join(tmp_path, f"ckpt-{seed}-{code_name}-{stop_day}.npz")
    ShardedSimulation(config, num_shards=2, checkpoint_path=path).run(
        stop_after_day=stop_day
    )
    resumed = fingerprint(ShardedSimulation.resume(path).run())
    assert resumed == straight
