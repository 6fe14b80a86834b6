"""Epoch engine == serial oracle, bit-for-bit.

The contract (DESIGN §5h): :class:`~repro.cluster.shard.ShardedSimulation`
produces the exact trajectory of :class:`WarehouseSimulation` for the
same config -- every per-day series, the degraded histogram, every
counter in :class:`RecoveryStats` and every aggregate in
:class:`TrafficMeter` -- under hashed and stream destination draws.
The engine keeps one stripe store and applies each op once;
``num_shards`` is an accepted keyword that changes nothing, so the tests
that pass several values check exactly that against the oracle (whose
fingerprint is computed once per config).

The comparisons here are over order-invariant aggregates (sorted dict
items, per-day series), the same keys the sweep and bench layers
consume; the raw transfer log may legally interleave differently.
"""

import multiprocessing.process
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster.config import ClusterConfig
from repro.cluster.shard import ShardedSimulation, ShardState
from repro.cluster.simulation import WarehouseSimulation
from repro.errors import ConfigError
from repro.observability import registry as obs_registry

#: Small but non-trivial: 480 machines, several flags per day, two
#: codes' worth of degraded stripes.
BASE = ClusterConfig(
    num_racks=40,
    nodes_per_rack=12,
    stripes_per_node=24.0,
    days=12.0,
    seed=11,
    destination_draws="hashed",
)

CODE_PARAMS = {
    "rs": {"k": 10, "r": 4},
    "piggyback": {"k": 6, "r": 3},
    "lrc": {"k": 6, "l": 2, "g": 2},
    "replication": {"replicas": 3},
}


def fingerprint(result):
    """Order-invariant trajectory key shared by every equality test."""
    stats, meter = result.stats, result.meter
    return (
        tuple(result.unavailability_events_per_day),
        tuple(result.blocks_recovered_per_day),
        tuple(result.cross_rack_bytes_per_day),
        tuple(sorted(result.degraded_fractions.items())),
        tuple(sorted(result.degraded_histogram.items())),
        stats.blocks_recovered,
        tuple(sorted(stats.blocks_recovered_by_day.items())),
        stats.bytes_downloaded,
        tuple(sorted(stats.degraded_histogram.items())),
        stats.unrecoverable_units,
        stats.flagged_events_recovered,
        stats.flagged_events_skipped,
        stats.corrupt_survivors_excluded,
        meter.total_bytes,
        meter.cross_rack_bytes,
        meter.intra_rack_bytes,
        meter.num_transfers,
        tuple(sorted(meter.bytes_by_purpose.items())),
        tuple(sorted(meter.cross_rack_bytes_by_day.items())),
        tuple(sorted(meter.bytes_by_switch.items())),
    )


_ORACLE = {}


def oracle_fingerprint(config):
    """The oracle's fingerprint, run once per config (it is
    deterministic)."""
    key = repr(config)
    if key not in _ORACLE:
        _ORACLE[key] = fingerprint(WarehouseSimulation(config).run())
    return _ORACLE[key]


# ----------------------------------------------------------------------
# Equality: one store, whatever num_shards is passed
# ----------------------------------------------------------------------


@pytest.mark.parametrize("code_name", sorted(CODE_PARAMS))
@pytest.mark.parametrize("num_shards", [1, 3])
def test_serial_shards_match_oracle(code_name, num_shards):
    config = replace(
        BASE, code_name=code_name, code_params=CODE_PARAMS[code_name]
    )
    sharded = ShardedSimulation(config, num_shards=num_shards)
    assert fingerprint(sharded.run()) == oracle_fingerprint(config)


def test_stream_mode_single_shard_matches_oracle():
    """Legacy stream draws stay bit-exact: the vectorised flag step
    draws destinations in the serial engine's order, whatever
    num_shards is passed."""
    config = replace(BASE, destination_draws="stream")
    for num_shards in (1, 2):
        sharded = ShardedSimulation(config, num_shards=num_shards)
        assert fingerprint(sharded.run()) == oracle_fingerprint(config)


def test_chaos_matches_oracle():
    """Node flaps + latent corruption replay exactly too."""
    config = replace(BASE, chaos_node_flaps=6, chaos_corrupt_units=25)
    result = ShardedSimulation(config).run()
    assert result.stats.corrupt_survivors_excluded > 0
    assert fingerprint(result) == oracle_fingerprint(config)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_shards=st.integers(min_value=1, max_value=5),
)
def test_any_seed_any_shard_count_matches_oracle(seed, num_shards):
    config = replace(BASE, seed=seed, days=6.0)
    sharded = ShardedSimulation(config, num_shards=num_shards)
    assert fingerprint(sharded.run()) == oracle_fingerprint(config)


def test_four_shards_match_oracle():
    sharded = ShardedSimulation(BASE, num_shards=4)
    assert fingerprint(sharded.run()) == oracle_fingerprint(BASE)


def test_four_shards_match_oracle_with_chaos():
    config = replace(BASE, chaos_node_flaps=6, chaos_corrupt_units=25)
    result = ShardedSimulation(config, num_shards=4).run()
    assert fingerprint(result) == oracle_fingerprint(config)


# ----------------------------------------------------------------------
# Counters == serial counters, exactly
# ----------------------------------------------------------------------


def test_merged_counters_equal_serial_exactly():
    """The engine's TrafficMeter/RecoveryStats == the oracle's, field
    by field -- integer equality, not approximate."""
    oracle = WarehouseSimulation(BASE).run()
    merged = ShardedSimulation(BASE).run()
    o_s, m_s = oracle.stats, merged.stats
    assert m_s.blocks_recovered == o_s.blocks_recovered
    assert m_s.bytes_downloaded == o_s.bytes_downloaded
    assert dict(m_s.blocks_recovered_by_day) == dict(
        o_s.blocks_recovered_by_day
    )
    assert dict(m_s.degraded_histogram) == dict(o_s.degraded_histogram)
    assert m_s.unrecoverable_units == o_s.unrecoverable_units
    assert m_s.flagged_events_recovered == o_s.flagged_events_recovered
    assert m_s.flagged_events_skipped == o_s.flagged_events_skipped
    o_m, m_m = oracle.meter, merged.meter
    assert m_m.total_bytes == o_m.total_bytes
    assert m_m.cross_rack_bytes == o_m.cross_rack_bytes
    assert m_m.intra_rack_bytes == o_m.intra_rack_bytes
    assert m_m.num_transfers == o_m.num_transfers
    assert dict(m_m.bytes_by_purpose) == dict(o_m.bytes_by_purpose)
    assert dict(m_m.cross_rack_bytes_by_day) == dict(
        o_m.cross_rack_bytes_by_day
    )
    assert dict(m_m.bytes_by_switch) == dict(o_m.bytes_by_switch)


def test_shard_metrics_recorded():
    """Run counters, plus the flag step's plan-cache and batch-size
    metrics with the serial engine's meaning: one hit or miss per
    degraded unit, one batch-size sample per flag."""
    obs_registry.set_enabled(True)
    obs_registry.reset()
    try:
        ShardedSimulation(BASE, num_shards=3).run()
        snap = obs_registry.get_registry().snapshot()
        counters, gauges = snap["counters"], snap["gauges"]
        assert counters["sim.shard.runs"] == 1
        # Epochs can spill past the horizon (heals/flags scheduled after
        # the last configured day still apply, exactly like the oracle).
        assert counters["sim.shard.epochs"] >= int(BASE.days)
        assert counters["sim.shard.ops"] > 0
        assert "sim.shard.shards" not in gauges
        assert not any("imbalance" in name for name in snap["histograms"])
        engine = (
            counters["recovery.plan_cache.hits"],
            counters["recovery.plan_cache.misses"],
            snap["histograms"]["recovery.batch.size"],
        )
        obs_registry.reset()
        WarehouseSimulation(BASE).run()
        snap = obs_registry.get_registry().snapshot()
        counters = snap["counters"]
        assert engine == (
            counters["recovery.plan_cache.hits"],
            counters["recovery.plan_cache.misses"],
            snap["histograms"]["recovery.batch.size"],
        )
        assert engine[0] > engine[1] > 0
    finally:
        obs_registry.reset()
        obs_registry.set_enabled(None)


def test_flag_op_applies_once(monkeypatch):
    """Whatever num_shards is passed, the engine builds one store and
    runs the flag step once per triggered flag."""
    built, flagged = [], []
    init, step = ShardState.__init__, ShardState._node_flagged

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_step(self, node, time, ordinal):
        flagged.append(ordinal)
        return step(self, node, time, ordinal)

    monkeypatch.setattr(ShardState, "__init__", counting_init)
    monkeypatch.setattr(ShardState, "_node_flagged", counting_step)
    for num_shards in (1, 4):
        built.clear()
        flagged.clear()
        result = ShardedSimulation(BASE, num_shards=num_shards).run()
        assert len(built) == 1
        assert len(flagged) == result.stats.flagged_events_recovered > 0
        assert len(set(flagged)) == len(flagged)


# ----------------------------------------------------------------------
# Loud rejections
# ----------------------------------------------------------------------


def test_rejects_zero_shards():
    with pytest.raises(ConfigError, match="num_shards"):
        ShardedSimulation(BASE, num_shards=0)


def test_accepts_read_workload():
    # Reads resolve into the timeline (formerly a loud ConfigError).
    config = replace(BASE, reads_per_stripe_per_day=0.5)
    sim = ShardedSimulation(config, num_shards=2)
    assert sim.scheduler is None


def test_stop_after_day_requires_checkpoint_path():
    with pytest.raises(ConfigError, match="checkpoint_path"):
        ShardedSimulation(BASE).run(stop_after_day=3)


def test_checkpoint_every_days_requires_path():
    with pytest.raises(ConfigError, match="checkpoint_path"):
        ShardedSimulation(BASE, checkpoint_every_days=2)


def test_checkpoint_every_days_must_be_positive(tmp_path):
    with pytest.raises(ConfigError, match=">= 1"):
        ShardedSimulation(
            BASE,
            checkpoint_path=str(tmp_path / "c.ckpt"),
            checkpoint_every_days=0,
        )


# ----------------------------------------------------------------------
# The engine runs in-process
# ----------------------------------------------------------------------


def test_sharded_engine_never_starts_a_process(monkeypatch, capsys):
    """num_shards=4 on the plain, throttled and d3 configs matches the
    oracle without a process start; the CLI's sharded engine
    completes; a worker request is a loud ConfigError."""

    def refuse(self):
        raise AssertionError("the sharded engine started a process")

    # Every Process class (fork, spawn, forkserver) inherits this start.
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    for config in (
        BASE,
        replace(BASE, recovery_bandwidth_bytes_per_sec=1e9),
        replace(BASE, placement_policy="d3"),
    ):
        result = ShardedSimulation(config, num_shards=4).run()
        assert fingerprint(result) == oracle_fingerprint(config)
    argv = ["simulate", "--engine", "sharded", "--days", "2",
            "--stripes-per-node", "4"]
    assert main(argv) == 0
    assert "median blocks recovered/day" in capsys.readouterr().out
    with pytest.raises(ConfigError, match="worker processes were removed"):
        ShardedSimulation(BASE, workers=2)
