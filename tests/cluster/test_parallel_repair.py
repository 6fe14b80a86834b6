"""Parallel multi-failure recovery (CR-SIM-style waves).

A stripe with ``a`` concurrent erasures is rebuilt in one wave costing
``k + a - 1`` unit transfers (one ``k``-unit decode at the leader
destination plus one forward per extra unit) instead of ``a``
independent ``k``-unit repairs.  These tests pin the accounting, the
savings, and -- the hard part -- that the epoch engine replays the
serial oracle bit for bit with waves on, for both the stateless hashed
draws and the stateful d3 policy (both walk a flag's units one at a
time).  The engine keeps one stripe store; the ``num_shards`` axis
checks that the ignored keyword changes nothing.
"""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.shard import ShardedSimulation
from repro.cluster.simulation import WarehouseSimulation


def _config(**overrides):
    base = dict(
        num_racks=14,
        nodes_per_rack=8,
        stripes_per_node=10.0,
        days=6.0,
        seed=23,
        destination_draws="hashed",
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _fingerprint(result):
    stats, meter = result.stats, result.meter
    return (
        stats.blocks_recovered,
        stats.bytes_downloaded,
        tuple(sorted(result.degraded_histogram.items())),
        stats.unrecoverable_units,
        stats.spare_placements,
        stats.parallel_waves,
        stats.wave_extra_units,
        meter.total_bytes,
        meter.cross_rack_bytes,
        tuple(sorted(meter.cross_rack_bytes_by_day.items())),
        tuple(result.blocks_recovered_per_day),
        stats.cancelled_recoveries,
        tuple(np.round(sorted(stats.repair_latencies), 9)),
    )


class TestWaveAccounting:
    def test_serial_run_has_no_waves(self):
        result = WarehouseSimulation(_config()).run()
        assert result.stats.parallel_waves == 0
        assert result.stats.wave_extra_units == 0

    def test_waves_fire_and_forward_units(self):
        result = WarehouseSimulation(_config(parallel_repair=True)).run()
        assert result.stats.parallel_waves > 0
        assert (
            result.stats.wave_extra_units >= result.stats.parallel_waves
        )

    def test_waves_cut_bytes_per_recovered_block(self):
        serial = WarehouseSimulation(_config()).run()
        parallel = WarehouseSimulation(_config(parallel_repair=True)).run()
        # Waves also *rescue* stripes the serial path lost (sibling
        # units rebuilt before further failures), so compare per-block
        # cost, not totals.
        assert (
            parallel.mean_bytes_per_recovered_block
            < serial.mean_bytes_per_recovered_block
        )
        assert parallel.stats.blocks_recovered >= serial.stats.blocks_recovered

    def test_wave_forwards_are_metered(self):
        sim = WarehouseSimulation(
            _config(parallel_repair=True), record_transfers=True
        )
        result = sim.run()
        recovery = [
            t for t in result.meter.transfers if t.purpose == "recovery"
        ]
        # blocks = leaders + forwarded extras; a leader decode reads k
        # unit-sized transfers, each forwarded unit exactly one more.
        k = 10
        leaders = result.stats.blocks_recovered - result.stats.wave_extra_units
        assert len(recovery) == leaders * k + result.stats.wave_extra_units


class TestShardedMatchesSerial:
    @pytest.mark.parametrize(
        "code_name,code_params",
        [("rs", {"k": 10, "r": 4}), ("piggyback", {"k": 10, "r": 4})],
    )
    @pytest.mark.parametrize("placement", ["distinct-rack", "d3"])
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_parallel_waves_bit_identical(
        self, code_name, code_params, placement, num_shards
    ):
        config = _config(
            code_name=code_name,
            code_params=code_params,
            placement_policy=placement,
            parallel_repair=True,
            hot_spares_per_rack=1,
        )
        oracle = _fingerprint(WarehouseSimulation(config).run())
        sharded = ShardedSimulation(config, num_shards=num_shards).run()
        assert _fingerprint(sharded) == oracle

    def test_d3_serial_waves_off_bit_identical(self):
        config = _config(placement_policy="d3")
        oracle = _fingerprint(WarehouseSimulation(config).run())
        sharded = ShardedSimulation(config).run()
        assert _fingerprint(sharded) == oracle

    def test_throttled_d3_parallel_bit_identical(self):
        # The bandwidth scheduler + link model exercise the peek-only
        # precomputed-destination path for the stateful policy.
        config = _config(
            placement_policy="d3",
            parallel_repair=True,
            recovery_bandwidth_bytes_per_sec=15e6,
            repair_link_gbps=1.0,
        )
        oracle = _fingerprint(WarehouseSimulation(config).run())
        sharded = ShardedSimulation(config).run()
        assert _fingerprint(sharded) == oracle

    def test_rack_unit_load_matches_serial_store(self):
        config = _config(placement_policy="d3", parallel_repair=True)
        serial = WarehouseSimulation(config)
        serial.run()
        sharded = ShardedSimulation(config)
        sharded.run()
        racks = np.asarray(serial.store.placement) // config.nodes_per_rack
        want = np.bincount(racks.ravel(), minlength=config.num_racks)
        assert np.array_equal(sharded.rack_unit_load(), want)


class TestCheckpointResume:
    @pytest.mark.parametrize("placement", ["distinct-rack", "d3"])
    def test_resume_mid_run_with_waves(self, tmp_path, placement):
        config = _config(placement_policy=placement, parallel_repair=True)
        oracle = _fingerprint(WarehouseSimulation(config).run())
        path = str(tmp_path / "ck.npz")
        ShardedSimulation(config, checkpoint_path=path).run(
            stop_after_day=3
        )
        resumed = ShardedSimulation.resume(path).run()
        assert _fingerprint(resumed) == oracle
