"""The fused batch operations are byte-identical to the scalar loops.

Every code with a batched fast path (RS, CRS, LRC, Piggybacked-RS) must
produce, for any batch of stripes, exactly the bytes the scalar
per-stripe ``encode`` / ``decode`` / ``execute_repair`` calls produce --
the scalar implementations are the oracles.  Hypothesis drives widths
(including ragged alignment multiples), survivor patterns, and failed
nodes; byte accounting from ``execute_repair_batch`` must equal the sum
of the scalar plans' bytes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codes.crs import CauchyBitmatrixRSCode
from repro.codes.lrc import LRCCode
from repro.codes.piggyback.code import PiggybackedRSCode
from repro.codes.piggyback.repair import is_piggyback_plan
from repro.codes.rs import ReedSolomonCode
from repro.errors import DecodingError, EncodingError, RepairError

CODES = {
    "rs": lambda: ReedSolomonCode(6, 3),
    "lrc": lambda: LRCCode(6, 2, 2),
    "piggyback": lambda: PiggybackedRSCode(6, 3),
    "crs": lambda: CauchyBitmatrixRSCode(6, 3),
}


@st.composite
def batch_cases(draw):
    """(code key, stripe batch, survivor set, failed node)."""
    key = draw(st.sampled_from(sorted(CODES)))
    code = CODES[key]()
    stripes = draw(st.integers(min_value=1, max_value=5))
    # Width must be a positive multiple of the code's unit alignment;
    # odd multiples exercise the unaligned kernel fallbacks.
    multiple = draw(st.integers(min_value=1, max_value=9))
    width = code.unit_alignment * multiple
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(stripes, code.k, width), dtype=np.uint8)
    failed = draw(st.integers(min_value=0, max_value=code.n - 1))
    extra_erasures = draw(st.integers(min_value=0, max_value=code.r - 1))
    others = [node for node in range(code.n) if node != failed]
    erased = draw(
        st.permutations(others).map(lambda p: sorted(p[:extra_erasures]))
    )
    survivors = [
        node for node in others if node not in set(erased)
    ]
    return key, code, data, failed, survivors


def _stripe_units(code, data):
    """Scalar-encoded full stripes, one (n, w) matrix per batch row."""
    return [code.encode(data[t]) for t in range(data.shape[0])]


@given(batch_cases())
@settings(max_examples=40, deadline=None)
def test_encode_batch_matches_scalar(case):
    _, code, data, __, ___ = case
    batch = code.encode_batch(data)
    for t, expected in enumerate(_stripe_units(code, data)):
        assert np.array_equal(batch[t], expected)


@given(batch_cases())
@settings(max_examples=40, deadline=None)
def test_decode_batch_matches_scalar(case):
    _, code, data, __, survivors = case
    stripes_units = _stripe_units(code, data)
    available = {
        node: np.stack([units[node] for units in stripes_units])
        for node in survivors
    }
    try:  # not every erasure pattern is recoverable (e.g. LRC past g+1)
        code.decode({node: stripes_units[0][node] for node in survivors})
    except Exception:
        assume(False)
    decoded = code.decode_batch(available)
    for t in range(data.shape[0]):
        expected = code.decode(
            {node: stripes_units[t][node] for node in survivors}
        )
        assert np.array_equal(decoded[t], expected)
        assert np.array_equal(decoded[t], data[t])


@given(batch_cases())
@settings(max_examples=40, deadline=None)
def test_execute_repair_batch_matches_scalar(case):
    _, code, data, failed, survivors = case
    stripes_units = _stripe_units(code, data)
    available = {
        node: np.stack([units[node] for units in stripes_units])
        for node in survivors
    }
    try:  # not every erasure pattern is recoverable (e.g. LRC past g+1)
        plan = code.repair_plan_cached(failed, survivors)
    except Exception:
        assume(False)
    rebuilt, batch_bytes = code.execute_repair_batch(
        failed, available, plan
    )
    scalar_bytes = 0
    for t in range(data.shape[0]):
        unit, nbytes = code.execute_repair(
            failed,
            {node: stripes_units[t][node] for node in survivors},
            plan,
        )
        assert np.array_equal(rebuilt[t], unit)
        assert np.array_equal(rebuilt[t], stripes_units[t][failed])
        scalar_bytes += nbytes
    assert batch_bytes == scalar_bytes


@pytest.mark.parametrize("key", sorted(CODES))
def test_fused_batch_paths_are_installed(key):
    """Guards against silently falling back to the scalar default."""
    assert CODES[key]().has_fused_batch


@pytest.mark.parametrize("key", sorted(CODES))
def test_batch_accepts_row_view_sequences(key):
    """Per-node units may be lists of row views, not just (s, w) arrays."""
    code = CODES[key]()
    rng = np.random.default_rng(11)
    width = code.unit_alignment * 6
    data = rng.integers(0, 256, size=(3, code.k, width), dtype=np.uint8)
    stripes_units = _stripe_units(code, data)
    survivors = list(range(1, code.n))
    available = {
        node: [units[node] for units in stripes_units] for node in survivors
    }
    rebuilt, _ = code.execute_repair_batch(0, available)
    for t in range(3):
        assert np.array_equal(rebuilt[t], stripes_units[t][0])


#: Codes whose decode and repair compile to one GF(2^8) matrix per
#: pattern; the (10, 4) Piggybacked-RS is the paper's code.
LINEAR = {
    "rs": lambda: ReedSolomonCode(6, 3),
    "lrc": lambda: LRCCode(6, 2, 2),
    "piggyback": lambda: PiggybackedRSCode(6, 3),
    "piggyback-10-4": lambda: PiggybackedRSCode(10, 4),
}


def _patterns(code, failed):
    """Every survivor set left after ``failed`` plus up to r-1 more."""
    others = [node for node in range(code.n) if node != failed]
    for extra in range(code.r):
        for lost in itertools.combinations(others, extra):
            yield [node for node in others if node not in lost]


@pytest.mark.parametrize("key", sorted(LINEAR))
def test_bind_repair_batch_matches_execute_and_scalar(key):
    """Every failed slot x survivor set: the bound executor, the batch
    call and the scalar oracle agree byte for byte, and the batch meters
    exactly the plan's bytes -- parity slots and blocked piggyback
    paths included."""
    code = LINEAR[key]()
    rng = np.random.default_rng(5)
    width = 2 * code.unit_alignment * 5
    data = rng.integers(0, 256, size=(2, code.k, width), dtype=np.uint8)
    stripes_units = _stripe_units(code, data)
    shapes = set()
    for failed in range(code.n):
        for survivors in _patterns(code, failed):
            try:
                plan = code.repair_plan_cached(failed, survivors)
            except RepairError:
                continue  # LRC past its tolerance
            shapes.add((failed >= code.k, is_piggyback_plan(plan)))
            available = {
                node: np.stack([units[node] for units in stripes_units])
                for node in survivors
            }
            bound = np.empty((2, width), dtype=np.uint8)
            code.bind_repair_batch(failed, available, bound, plan)()
            rebuilt, nbytes = code.execute_repair_batch(
                failed, available, plan
            )
            assert nbytes == 2 * plan.bytes_downloaded(width)
            for t, units in enumerate(stripes_units):
                scalar, _ = code.execute_repair(
                    failed, {node: units[node] for node in survivors}, plan
                )
                assert np.array_equal(bound[t], scalar)
                assert np.array_equal(rebuilt[t], scalar)
                assert np.array_equal(scalar, units[failed])
    if key.startswith("piggyback"):
        # data via piggyback, data with the path blocked, parity
        assert {(False, True), (False, False), (True, False)} <= shapes


@pytest.mark.parametrize("key", sorted(LINEAR))
def test_erasure_only_decode_batch_matches_scalar(key):
    """Every pattern of up to r erasures: decoding only the erased data
    slots equals the scalar decode's rows (and the data)."""
    code = LINEAR[key]()
    rng = np.random.default_rng(9)
    width = code.unit_alignment * 7
    data = rng.integers(0, 256, size=(3, code.k, width), dtype=np.uint8)
    stripes_units = _stripe_units(code, data)
    for count in range(1, code.r + 1):
        for erased in itertools.combinations(range(code.n), count):
            survivors = [node for node in range(code.n) if node not in erased]
            try:
                code.decode({n: stripes_units[0][n] for n in survivors})
            except DecodingError:
                continue  # LRC: not every r-pattern is decodable
            lost = [slot for slot in erased if slot < code.k]
            available = {
                node: [units[node] for units in stripes_units]
                for node in survivors
            }
            decoded = code.decode_batch(available, slots=lost)
            assert decoded.shape == (3, len(lost), width)
            for t, units in enumerate(stripes_units):
                scalar = code.decode({n: units[n] for n in survivors})
                assert np.array_equal(decoded[t], scalar[lost])
                assert np.array_equal(decoded[t], data[t][lost])


def test_compiled_paths_reject_units_that_do_not_split():
    """A Piggybacked-RS unit of odd width has no half rows: the batch
    paths refuse it like the scalar oracle does."""
    code = PiggybackedRSCode(6, 3)
    rows = {node: np.zeros((2, 7), dtype=np.uint8) for node in range(1, 9)}
    with pytest.raises(EncodingError):
        code.execute_repair_batch(0, rows)
    with pytest.raises(EncodingError):
        code.decode_batch(rows, slots=[0])
