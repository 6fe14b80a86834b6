"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])


class TestCommands:
    def test_experiments_lists_ids(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig3b" in out and "tab_savings" in out

    def test_codes_table(self, capsys):
        assert main(["codes"]) == 0
        out = capsys.readouterr().out
        assert "RS(10,4)" in out
        assert "PiggybackedRS(10,4)" in out

    def test_run_fig4(self, capsys):
        assert main(["run", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out
        assert "fig4" in out

    def test_run_json(self, capsys):
        import json

        assert main(["run", "fig4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "fig4"
        assert payload["paper_rows"]
        assert "design_groups" in payload["data"]

    def test_run_json_simulation_experiment(self, capsys):
        """Numpy values inside results serialise cleanly."""
        import json

        assert main(["run", "ext_bound", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["bound_units"] == 3.25

    def test_simulate_quick(self, capsys):
        code = main(
            [
                "simulate",
                "--days", "2",
                "--stripes-per-node", "10",
                "--code", "piggyback",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PiggybackedRS(10,4)" in out
        assert "median cross-rack TB/day" in out

    def test_simulate_d3_parallel(self, capsys):
        code = main(
            [
                "simulate",
                "--days", "2",
                "--stripes-per-node", "4",
                "--placement", "d3",
                "--parallel-repair",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parallel repair waves" in out

    def test_simulate_rejects_unknown_placement(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--placement", "best-fit"])

    def test_simulate_with_chaos(self, capsys):
        code = main(
            [
                "simulate",
                "--days", "2",
                "--stripes-per-node", "10",
                "--chaos-corrupt-units", "10",
                "--chaos-node-flaps", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "corrupt survivors excluded" in out


class TestRobustnessCommands:
    def test_chaos_scenario_is_clean(self, capsys):
        assert main(["chaos", "--code", "rs"]) == 0
        out = capsys.readouterr().out
        assert "verdict: CLEAN" in out
        assert "shared-memory segments leaked       : 0" in out

    def test_chaos_spec_overrides(self, capsys):
        code = main(
            ["chaos", "--spec", "worker_crashes=1,crash_attempts=5"]
        )
        assert code == 0
        assert "verdict: CLEAN" in capsys.readouterr().out

    def test_chaos_rejects_junk_spec(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["chaos", "--spec", "bogus=1"])

    def test_scrub_repairs_and_reports(self, capsys):
        assert main(["scrub", "--corruptions", "3"]) == 0
        out = capsys.readouterr().out
        assert "verdict: CLEAN" in out
        assert "corrupt found / repaired   : 3 / 3" in out

    def test_scrub_parity_only_uses_the_fallback(self, capsys):
        assert main(["scrub", "--parity-only"]) == 0
        out = capsys.readouterr().out
        assert "mode=parity-only" in out
        assert "checksum-verified stripes  : 0" in out
        assert "verdict: CLEAN" in out


class TestBenchCommand:
    def test_bench_smoke_table(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        assert main(["bench", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "active GF backend:" in out
        assert "backend comparison (median)" in out
        # The oracle row is always present; every workload appears.
        assert "numpy" in out
        assert "RS(10,4).file_encode" in out
        assert "RS(10,4).file_repair" in out
        assert "PiggybackedRS(10,4).file_repair.data" in out
        assert "PiggybackedRS(10,4).file_repair.parity" in out
        assert "units/rebuilt" in out
        assert "CRS(10,4).encode" in out
        assert "CRS(10,4).decode" in out

    def test_bench_json_has_meta_and_rows(self, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        assert main(["bench", "--rounds", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        meta = payload["meta"]
        assert meta["numpy"]
        assert meta["gf_backend"] in ("numpy", "cffi", "numba")
        assert set(meta["gf_backends"]) == {"numpy", "cffi", "numba"}
        rows = payload["rows"]
        numpy_rows = [r for r in rows if r["backend"] == "numpy"]
        assert len(numpy_rows) == 6
        assert all(r["vs_numpy"] == 1.0 for r in numpy_rows)
        # Downloaded units per rebuilt unit: Piggybacked-RS reads 7 for
        # a data slot where RS reads 10; a parity slot costs 10 either way.
        units = {r["workload"]: r["units_per_rebuilt"] for r in numpy_rows}
        assert units["RS(10,4).file_repair"] == 10
        assert units["PiggybackedRS(10,4).file_repair.data"] == 7
        assert units["PiggybackedRS(10,4).file_repair.parity"] == 10
        assert units["RS(10,4).file_encode"] is None
        # Unavailable tiers document their reason instead of numbers.
        for row in rows:
            if row["MB_per_s"] is None:
                assert "unavailable" in row["note"]
