"""End-to-end consistency: registry counters vs the numbers they mirror.

The acceptance bar for the observability layer is *bit-for-bit*
agreement: a counter that drifts from the meter it instruments is worse
than no counter.  These tests drive whole simulations across seeds and
assert exact integer equality against :class:`TrafficMeter` and
:class:`RecoveryStats`, plus byte-identical simulation output with the
``REPRO_METRICS=0`` kill switch thrown.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import WarehouseSimulation

SIM_KWARGS = dict(
    num_racks=15,
    nodes_per_rack=4,
    stripes_per_node=8.0,
    days=3.0,
)


def run_sim(seed: int):
    return WarehouseSimulation(ClusterConfig(seed=seed, **SIM_KWARGS)).run()


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_counters_match_meter_and_stats_exactly(seed):
    observability.set_enabled(True)
    observability.reset()
    try:
        result = run_sim(seed)
        registry = observability.get_registry()
        meter = result.meter
        stats = result.stats
        assert registry.counter_value("network.bytes") == meter.total_bytes
        assert (
            registry.counter_value("network.cross_rack_bytes")
            == meter.cross_rack_bytes
        )
        assert (
            registry.counter_value("network.intra_rack_bytes")
            == meter.intra_rack_bytes
        )
        assert (
            registry.counter_value("network.transfers")
            == meter.num_transfers
        )
        assert (
            registry.counter_value("recovery.blocks_recovered")
            == stats.blocks_recovered
        )
        assert (
            registry.counter_value("recovery.bytes_downloaded")
            == stats.bytes_downloaded
        )
        assert (
            registry.counter_value("recovery.unrecoverable_units")
            == stats.unrecoverable_units
        )
        # The daily series plus any overflow surfaced via metrics must
        # re-add to the meter's full cross-rack total -- nothing silent.
        assert (
            sum(result.cross_rack_bytes_per_day)
            + registry.counter_value("network.series_overflow_bytes")
            == meter.cross_rack_bytes
        )
    finally:
        observability.set_enabled(None)
        observability.reset()


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=6, deadline=None)
def test_kill_switch_leaves_simulation_output_identical(seed):
    try:
        observability.set_enabled(True)
        observability.reset()
        enabled_result = run_sim(seed)
        observability.set_enabled(False)
        observability.reset()
        disabled_result = run_sim(seed)
    finally:
        observability.set_enabled(None)
        observability.reset()
    assert (
        enabled_result.cross_rack_bytes_per_day
        == disabled_result.cross_rack_bytes_per_day
    )
    assert (
        enabled_result.blocks_recovered_per_day
        == disabled_result.blocks_recovered_per_day
    )
    assert (
        enabled_result.unavailability_events_per_day
        == disabled_result.unavailability_events_per_day
    )
    assert (
        enabled_result.meter.total_bytes == disabled_result.meter.total_bytes
    )
    assert (
        enabled_result.meter.cross_rack_bytes
        == disabled_result.meter.cross_rack_bytes
    )
    assert dict(enabled_result.meter.bytes_by_switch) == dict(
        disabled_result.meter.bytes_by_switch
    )
    assert (
        enabled_result.stats.bytes_downloaded
        == disabled_result.stats.bytes_downloaded
    )
    assert enabled_result.degraded_histogram == disabled_result.degraded_histogram


class TestEmitMetricsCli:
    def test_snapshot_counters_match_a_direct_run(self, tmp_path, monkeypatch):
        from repro.cli import main

        # Hermetic against an ambient kill switch: this test is about
        # the flag's default-on behaviour.
        monkeypatch.delenv(observability.METRICS_ENV, raising=False)
        observability.set_enabled(None)
        path = tmp_path / "metrics.json"
        argv = [
            "simulate",
            "--days", "2",
            "--stripes-per-node", "5",
            "--seed", "987",
            "--emit-metrics", str(path),
        ]
        try:
            assert main(argv) == 0
        finally:
            observability.set_enabled(None)
            observability.reset()
        snap = json.loads(path.read_text())
        assert snap["enabled"] is True
        # The oracle: the same config run directly, counters compared
        # bit-for-bit against its meter and stats.
        result = WarehouseSimulation(
            ClusterConfig(days=2.0, stripes_per_node=5.0, seed=987)
        ).run()
        counters = snap["counters"]
        assert counters["network.bytes"] == result.meter.total_bytes
        assert (
            counters["network.cross_rack_bytes"]
            == result.meter.cross_rack_bytes
        )
        assert (
            counters["recovery.bytes_downloaded"]
            == result.stats.bytes_downloaded
        )
        assert (
            counters["recovery.blocks_recovered"]
            == result.stats.blocks_recovered
        )
        assert counters["simulation.runs"] == 1

    def test_kill_switch_wins_over_flag(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(observability.METRICS_ENV, "0")
        observability.set_enabled(None)  # drop any cached read
        path = tmp_path / "metrics.json"
        argv = [
            "simulate",
            "--days", "1",
            "--stripes-per-node", "2",
            "--emit-metrics", str(path),
        ]
        try:
            assert main(argv) == 0
        finally:
            observability.set_enabled(None)
            observability.reset()
        snap = json.loads(path.read_text())
        assert snap["enabled"] is False
        assert snap["counters"] == {}


def test_kill_switch_leaves_pipeline_output_identical():
    import numpy as np

    from repro.codes.rs import ReedSolomonCode
    from repro.striping.pipeline import encode_file

    data = np.random.default_rng(77).integers(
        0, 256, size=200_000, dtype=np.uint8
    )
    try:
        observability.set_enabled(True)
        observability.reset()
        enabled_run = encode_file(ReedSolomonCode(4, 2), data, 4096)
        observability.set_enabled(False)
        observability.reset()
        disabled_run = encode_file(ReedSolomonCode(4, 2), data, 4096)
    finally:
        observability.set_enabled(None)
        observability.reset()
    assert len(enabled_run.parities) == len(disabled_run.parities)
    for row_a, row_b in zip(enabled_run.parities, disabled_run.parities):
        for parity_a, parity_b in zip(row_a, row_b):
            assert parity_a.block_id == parity_b.block_id
            assert np.array_equal(parity_a.payload, parity_b.payload)
