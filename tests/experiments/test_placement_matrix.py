"""The placement/parallel-recovery ablation: registered and discriminating."""

import pytest

from repro.experiments import available_experiments, run_experiment


@pytest.fixture(scope="module")
def ablation():
    return run_experiment("placement_ablation", days=4.0)


class TestPlacementMatrix:
    def test_registered(self):
        assert "placement_ablation" in available_experiments()

    def test_covers_the_matrix(self, ablation):
        assert set(ablation.data["fingerprints"]) == {
            "random_serial",
            "random_parallel",
            "d3_serial",
            "d3_parallel",
        }

    def test_every_variant_matches_the_serial_oracle(self, ablation):
        rows = ablation.tables["placements"]
        assert all(row["oracle"] is True for row in rows)

    def test_d3_rack_load_spread_within_ten_percent(self, ablation):
        spreads = ablation.data["load_spreads"]
        assert spreads["d3_serial"] <= 1.1
        assert spreads["d3_parallel"] <= 1.1

    def test_d3_flatter_than_random(self, ablation):
        spreads = ablation.data["load_spreads"]
        assert spreads["d3_serial"] < spreads["random_serial"]
        assert spreads["d3_parallel"] < spreads["random_parallel"]

    def test_waves_cut_bytes_per_block(self, ablation):
        per_block = ablation.data["bytes_per_block"]
        assert per_block["random_parallel"] < per_block["random_serial"]
        assert per_block["d3_parallel"] < per_block["d3_serial"]

    def test_waves_only_fire_with_parallel_repair(self, ablation):
        rows = {row["variant"]: row for row in ablation.tables["placements"]}
        assert rows["random_serial"]["waves"] == 0
        assert rows["d3_serial"]["waves"] == 0
        assert rows["random_parallel"]["waves"] > 0
        assert rows["d3_parallel"]["waves"] > 0

    def test_all_summary_checks_pass(self, ablation):
        for row in ablation.tables["summary"]:
            assert row["value"] is True, row["check"]

    def test_renders(self, ablation):
        text = ablation.render()
        assert "placements" in text and "d3_parallel" in text
