"""The epoch engine's vectorised flag step == its scalar per-unit walk.

:meth:`ShardState._node_flagged` recovers every degraded unit of a
flagged node in one step: pattern keys resolved once each, plans cached
as full-width rows of subunits read per slot, one gather for the
transfers.  :meth:`ShardState.recover_unit_scalar` is the per-unit
mirror of ``RecoveryService.recover_unit``.  Run on two copies of one
state -- the step on one, the scalar walk in node-list order on the
other -- both must end with equal stats, degraded histogram, placement,
missing bits, node lists and meter aggregates (``num_transfers``
included).
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.checkpoint import meter_state, stats_state
from repro.cluster.network import TrafficMeter
from repro.cluster.placement import destination_entropy, make_placement
from repro.cluster.shard import ShardState
from repro.cluster.topology import Topology
from repro.codes.registry import create_code
from repro.errors import RepairError

CODES = {
    "rs": {"k": 6, "r": 3},
    "piggyback": {"k": 6, "r": 3},
    "lrc": {"k": 6, "l": 2, "g": 2},
}

NUM_RACKS = 14
NODES_PER_RACK = 4
NUM_STRIPES = 160
FLAG_TIME = 90_000.0
ORDINAL = 7


def make_states(code_name, seed, missing, corrupt, down, spares=0):
    """Two independent, identical states over one random placement."""
    code = create_code(code_name, **CODES[code_name])
    topology = Topology(NUM_RACKS, NODES_PER_RACK)
    states = []
    for _ in range(2):
        policy = make_placement(
            "distinct-rack", topology, seed=seed, spares_per_rack=spares
        )
        placement = policy.place_many(NUM_STRIPES, code.n)
        is_up = np.ones(topology.num_nodes, dtype=bool)
        is_up[list(down)] = False
        states.append(
            ShardState(
                placement=placement,
                unit_sizes=np.full(NUM_STRIPES, 1 << 20, dtype=np.int64),
                width=code.n,
                num_nodes=topology.num_nodes,
                code=code,
                policy=policy,
                meter=TrafficMeter(topology),
                destination_draws="hashed",
                entropy=destination_entropy(np.random.SeedSequence(seed)),
                corrupt_rows=corrupt,
                missing=missing(placement),
                is_up=is_up,
            )
        )
    return states


def run_both(vec, scalar, node):
    """Flag ``node`` on both copies; returns (vec, scalar) recovered."""
    got = vec._node_flagged(node, FLAG_TIME, ORDINAL)
    want = 0
    for uid in scalar.degraded_uids(node).tolist():
        stripe, slot = divmod(uid, scalar.width)
        want += scalar.recover_unit_scalar(stripe, slot, FLAG_TIME, ORDINAL)
    vec.flush_epoch()
    scalar.flush_epoch()
    return got, want


def assert_same_end_state(vec, scalar, got, want):
    assert got == want
    assert stats_state(vec.stats) == stats_state(scalar.stats)
    assert np.array_equal(vec.placement, scalar.placement)
    assert np.array_equal(vec.missing, scalar.missing)
    lists = lambda s: {n: u for n, u in s.node_units.items() if u}
    assert lists(vec) == lists(scalar)
    assert meter_state(vec.meter) == meter_state(scalar.meter)


@settings(max_examples=60, deadline=None)
@given(
    code_name=st.sampled_from(sorted(CODES)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p_missing=st.floats(min_value=0.0, max_value=0.45),
    p_corrupt=st.floats(min_value=0.0, max_value=0.2),
    spares=st.integers(min_value=0, max_value=1),
    extra_down=st.integers(min_value=0, max_value=4),
)
def test_vectorised_flag_equals_scalar_walk(
    code_name, seed, p_missing, p_corrupt, spares, extra_down
):
    rng = np.random.default_rng(seed)
    node = int(rng.integers(0, NUM_RACKS)) * NODES_PER_RACK  # a data node
    down = {node} | set(
        rng.integers(0, NUM_RACKS * NODES_PER_RACK, extra_down).tolist()
    )
    width = create_code(code_name, **CODES[code_name]).n
    draws = rng.random((NUM_STRIPES, width))
    corrupt = rng.random((NUM_STRIPES, width)) < p_corrupt
    if not corrupt.any():
        corrupt = None

    def missing(placement):
        return (draws < p_missing) | (placement == node)

    vec, scalar = make_states(code_name, seed, missing, corrupt, down, spares)
    got, want = run_both(vec, scalar, node)
    assert_same_end_state(vec, scalar, got, want)


def _unrecoverable_erasures(code):
    """Per slot, an erasure set holding it that leaves >= k survivors
    yet cannot rebuild it (absent where every such set can)."""
    found = {}
    for size in range(1, code.n - code.k + 1):
        for erased in itertools.combinations(range(code.n), size):
            available = tuple(s for s in range(code.n) if s not in erased)
            for slot in erased:
                if slot in found:
                    continue
                try:
                    code.repair_plan_cached(slot, available)
                except RepairError:
                    found[slot] = set(erased)
    return found


def test_lrc_unrecoverable_with_k_survivors():
    """LRC units the survivors cannot rebuild although k or more are
    live: the step counts them unrecoverable, like the scalar walk."""
    code = create_code("lrc", **CODES["lrc"])
    erasures = _unrecoverable_erasures(code)
    assert erasures, "LRC(6,2,2) should have unrecoverable >= k patterns"
    node = 5

    def missing(placement):
        out = placement == node
        for stripe, slot in zip(*np.nonzero(out)):
            if stripe % 2 == 0:
                out[stripe, list(erasures.get(int(slot), ()))] = True
        return out

    vec, scalar = make_states("lrc", 3, missing, None, {node})
    got, want = run_both(vec, scalar, node)
    assert_same_end_state(vec, scalar, got, want)
    assert vec.stats.unrecoverable_units > 0
    assert vec.stats.blocks_recovered > 0


def test_piggyback_half_row_plans():
    """Piggybacked-RS data repairs read half units from some survivors;
    the step's full-width plan rows carry those halves exactly."""
    node = 9
    vec, scalar = make_states(
        "piggyback", 5, lambda placement: placement == node, None, {node}
    )
    got, want = run_both(vec, scalar, node)
    assert_same_end_state(vec, scalar, got, want)
    assert got > 0
    assert (vec._plan_table == 1).any()
    # Fewer bytes than k full units per rebuilt unit: the halves count.
    assert vec.stats.bytes_downloaded < got * 6 * (1 << 20)
