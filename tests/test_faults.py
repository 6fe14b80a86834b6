"""The chaos engine and the end-to-end fault-injection acceptance test.

The acceptance criterion of the robustness layer: under a seeded
``FaultPlan`` (bit-flips, truncations, a dead node, a mid-recovery node
flap), raid + recover + scrub converge to byte-identical data for each
of the paper's codes, with every corruption surfaced as a quarantine
record and the whole report deterministic across two runs with the
same seed.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, run_chaos_scenario

CODES = [
    ("rs", {"k": 4, "r": 2}),
    ("lrc", {"k": 4, "l": 2, "g": 2}),
    ("crs", {"k": 4, "r": 2}),
    ("piggyback", {"k": 4, "r": 2}),
]


class TestFaultPlanStreams:
    def test_rng_is_deterministic_per_scope(self):
        plan = FaultPlan(seed=9)
        assert plan.rng("a").integers(0, 1 << 30) == plan.rng("a").integers(
            0, 1 << 30
        )

    def test_rng_scopes_are_independent(self):
        plan = FaultPlan(seed=9)
        draws_a = plan.rng("a").integers(0, 1 << 30, size=8)
        draws_b = plan.rng("b").integers(0, 1 << 30, size=8)
        assert not np.array_equal(draws_a, draws_b)

    def test_seed_changes_every_stream(self):
        a = FaultPlan(seed=1).rng("x").integers(0, 1 << 30, size=8)
        b = FaultPlan(seed=2).rng("x").integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)

    def test_corrupt_unit_indices_distinct_and_in_range(self):
        plan = FaultPlan(seed=9)
        units = plan.corrupt_unit_indices(20, num_stripes=30, width=6)
        assert len(units) == 20
        assert len(set(units)) == 20
        for stripe, slot in units:
            assert 0 <= stripe < 30
            assert 0 <= slot < 6

    def test_flap_events_exceed_the_flag_threshold(self):
        plan = FaultPlan(seed=9, node_flaps=4)
        events = plan.flap_events(
            num_nodes=50, days=3.0, threshold_seconds=900.0
        )
        assert len(events) == 4
        for event in events:
            assert 0 <= event.node < 50
            assert 0.0 <= event.time < 3.0 * 86_400.0
            assert event.duration > 900.0


class TestFaultPlanParsing:
    def test_bare_seed(self):
        plan = FaultPlan.parse("42")
        assert plan == FaultPlan(seed=42)

    def test_overrides(self):
        plan = FaultPlan.parse("42:bit_flips=3,node_flaps=0")
        assert plan.bit_flips == 3
        assert plan.node_flaps == 0

    @pytest.mark.parametrize(
        "raw",
        [
            "abc",
            "1:bogus=2",
            "1:bit_flips=x",
            "1:bit_flips",
            "1:=3",
            "1:worker_crashes=1",
        ],
    )
    def test_junk_raises_config_error(self, raw):
        with pytest.raises(ConfigError):
            FaultPlan.parse(raw)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(seed=1, bit_flips=-1)


@pytest.mark.parametrize("name,params", CODES, ids=[c[0] for c in CODES])
def test_acceptance_scenario_converges_and_is_deterministic(name, params):
    first = run_chaos_scenario(name, code_params=params)
    second = run_chaos_scenario(name, code_params=params)
    assert first == second
    assert first.clean
    assert first.data_intact
    # Every injected unit fault surfaced as a quarantine record.
    quarantined = {(sid, slot) for sid, slot, __ in first.quarantined}
    for fault in first.faults:
        assert (fault.stripe_id, fault.slot) in quarantined
    assert first.rounds_to_converge >= 1


def test_different_seed_changes_the_report():
    a = run_chaos_scenario("rs", seed=1, plan=FaultPlan(seed=1))
    b = run_chaos_scenario("rs", seed=2, plan=FaultPlan(seed=2))
    assert a.clean and b.clean
    assert a.faults != b.faults
