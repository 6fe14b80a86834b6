"""The parallel sweep runner: determinism, ordering, seed spawning."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import run_code_comparison
from repro.cluster.sweep import (
    decide_parallel,
    parallel_map,
    replicated_configs,
    run_many,
    spawn_seeds,
)
from repro.errors import ConfigError

SMALL = ClusterConfig(
    num_racks=15,
    nodes_per_rack=3,
    stripes_per_node=10.0,
    days=1.0,
    seed=13,
)


def _square(x: int) -> int:
    """Module-level so the process pool can pickle it."""
    return x * x


def summarize(result):
    return (
        result.code_name,
        result.stats.blocks_recovered,
        result.stats.bytes_downloaded,
        result.meter.cross_rack_bytes,
        result.blocks_recovered_per_day,
        dict(result.stats.degraded_histogram),
    )


class TestParallelMap:
    def test_preserves_input_order(self):
        items = list(range(23))
        assert parallel_map(_square, items, parallel=True) == [
            x * x for x in items
        ]

    def test_serial_path_identical(self):
        items = list(range(23))
        assert parallel_map(_square, items, parallel=False) == parallel_map(
            _square, items, parallel=True
        )

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert not decide_parallel(8, parallel=None)
        # An explicit request still wins over the environment.
        assert decide_parallel(8, parallel=True)

    def test_single_task_stays_serial(self):
        assert not decide_parallel(1, parallel=None)
        assert not decide_parallel(1, parallel=True)


def test_decide_parallel_rules(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "0")
    assert not decide_parallel(8, None)
    assert decide_parallel(8, True)  # explicit request wins
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    assert not decide_parallel(1, None)  # one task: nothing to shard
    assert not decide_parallel(1, True)


class TestParallelEnvValidation:
    def test_sweep_shares_the_same_helper(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        with pytest.raises(ConfigError):
            decide_parallel(8, None)

    def test_valid_values_still_work(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_PARALLEL", "1")
        # "1" permits pools; whether one is used still depends on CPUs.
        assert decide_parallel(8, None) == ((os.cpu_count() or 1) > 1)
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert not decide_parallel(8, None)


class TestRunMany:
    def test_parallel_matches_serial(self):
        configs = [
            dataclasses.replace(SMALL, seed=seed) for seed in (1, 2, 3)
        ]
        serial = run_many(configs, parallel=False)
        parallel = run_many(configs, parallel=True)
        assert [summarize(r) for r in serial] == [
            summarize(r) for r in parallel
        ]

    def test_results_in_input_order(self):
        configs = [
            dataclasses.replace(SMALL, seed=seed) for seed in (9, 4, 7)
        ]
        results = run_many(configs, parallel=True)
        assert [r.config.seed for r in results] == [9, 4, 7]


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(42, 6) == spawn_seeds(42, 6)

    def test_distinct_and_master_dependent(self):
        seeds = spawn_seeds(42, 6)
        assert len(set(seeds)) == 6
        assert spawn_seeds(43, 6) != seeds

    def test_count_zero(self):
        assert spawn_seeds(42, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(42, -1)

    def test_replicated_configs(self):
        replicas = replicated_configs(SMALL, 4)
        assert len(replicas) == 4
        assert len({c.seed for c in replicas}) == 4
        assert all(c.num_racks == SMALL.num_racks for c in replicas)


class TestRunCodeComparison:
    def test_matches_direct_runs(self):
        from repro.cluster.simulation import WarehouseSimulation

        comparison = run_code_comparison(
            SMALL, ["rs", "piggyback"], parallel=True
        )
        assert set(comparison) == {"rs", "piggyback"}
        for name in ("rs", "piggyback"):
            direct = WarehouseSimulation(SMALL.with_code(name)).run()
            assert summarize(comparison[name]) == summarize(direct)

    def test_identical_failure_history(self):
        comparison = run_code_comparison(SMALL, ["rs", "piggyback"])
        assert (
            comparison["rs"].unavailability_events_per_day
            == comparison["piggyback"].unavailability_events_per_day
        )
        assert (
            comparison["rs"].blocks_recovered_per_day
            == comparison["piggyback"].blocks_recovered_per_day
        )
