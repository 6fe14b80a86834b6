"""Equivalence suite for the streaming repair / degraded-read pipeline.

The contract under test: :func:`repro.striping.pipeline.repair_stream`,
:func:`~repro.striping.pipeline.decode_file`,
:func:`~repro.striping.pipeline.repair_file` and
:class:`~repro.striping.pipeline.CompiledFileRepair` produce bytes
identical to the batched :class:`~repro.striping.codec.StripeCodec`
paths (``repair_block`` / ``decode_stripe``) for every registered code
family, every failure slot, and every file shape -- including empty
files, ragged tails, virtual padding slots, corrupted survivors
(quarantine-and-retry), and short-read sources.
"""

import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.crs import CauchyBitmatrixRSCode
from repro.codes.lrc import LRCCode
from repro.codes.piggyback import PiggybackedRSCode
from repro.codes.rs import ReedSolomonCode
from repro.errors import CorruptionError, PipelineError, RepairError
from repro.striping.blocks import chunk_bytes
from repro.striping.checksum import crc32c
from repro.striping.codec import StripeCodec
from repro.striping.layout import group_into_stripes
from repro.striping.pipeline import (
    CompiledFileRepair,
    decode_file,
    repair_file,
    repair_stream,
)

_CODES = {
    "rs": ReedSolomonCode(4, 2),
    "lrc": LRCCode(4, 2, 2),
    "crs": CauchyBitmatrixRSCode(4, 2),
    "piggyback": PiggybackedRSCode(4, 2),
}


def _materialise(code, name, data, block_size):
    """Encode ``data`` and return the per-slot stored shards.

    Returns ``(layouts, per_stripe, shards, checksums)`` where
    ``per_stripe[t]`` maps slot -> stored Block (real slots only),
    ``shards[slot]`` is the slot's stored bytes across all stripes, and
    ``checksums[slot][t]`` is the CRC32C of stripe ``t``'s stored bytes.
    """
    logical = chunk_bytes(name, data, block_size)
    layouts = group_into_stripes(
        logical.blocks, code.k, code.r, stripe_prefix=f"{name}/stripe"
    )
    codec = StripeCodec(code)
    per_stripe = []
    shards = {slot: bytearray() for slot in range(code.n)}
    checksums = {slot: [] for slot in range(code.n)}
    cursor = 0
    for layout in layouts:
        members = logical.blocks[cursor : cursor + layout.real_data_count]
        cursor += layout.real_data_count
        data_slots = list(members) + [None] * (code.k - len(members))
        parities = codec.encode_stripe(layout, data_slots)
        slot_map = {}
        for slot in range(code.n):
            if slot < code.k:
                block = data_slots[slot]
                stored = b"" if block is None else block.payload.tobytes()
                if block is not None:
                    slot_map[slot] = block
            else:
                parity = parities[slot - code.k]
                stored = parity.payload.tobytes()
                slot_map[slot] = parity
            shards[slot] += stored
            checksums[slot].append(
                crc32c(np.frombuffer(stored, dtype=np.uint8))
            )
        per_stripe.append(slot_map)
    return (
        layouts,
        per_stripe,
        {slot: bytes(b) for slot, b in shards.items()},
        checksums,
    )


@given(
    code_name=st.sampled_from(sorted(_CODES)),
    file_size=st.integers(min_value=0, max_value=1500),
    block_size=st.integers(min_value=16, max_value=192),
    failed_choice=st.integers(min_value=0, max_value=7),
    chunk_stripes=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_repair_stream_matches_batched_repair(
    code_name, file_size, block_size, failed_choice, chunk_stripes
):
    code = _CODES[code_name]
    rng = np.random.default_rng(file_size * 8 + failed_choice)
    data = rng.integers(0, 256, size=file_size, dtype=np.uint8)
    layouts, per_stripe, shards, checksums = _materialise(
        code, "f", data, block_size
    )
    failed = failed_choice % code.n
    codec = StripeCodec(code)

    # Batched oracle: repair_block per stripe with the same survivors.
    oracle = bytearray()
    oracle_bytes_read = 0
    for layout, slot_map in zip(layouts, per_stripe):
        if failed not in slot_map:
            continue  # virtual in this stripe; nothing stored to rebuild
        available = {s: b for s, b in slot_map.items() if s != failed}
        rebuilt, bytes_read, _ = codec.repair_block(
            layout, failed, available
        )
        oracle += rebuilt.payload.tobytes()
        oracle_bytes_read += bytes_read

    sources = {s: shards[s] for s in range(code.n) if s != failed}
    sink = io.BytesIO()
    result = repair_stream(
        code,
        sources,
        sink,
        block_size,
        failed,
        file_size,
        name="f",
        checksums=checksums,
        chunk_stripes=chunk_stripes,
    )
    assert sink.getvalue() == bytes(oracle) == shards[failed]
    assert result.rebuilt_bytes == len(shards[failed])
    assert result.bytes_read == oracle_bytes_read
    assert result.crc_mismatches == 0
    assert result.quarantined == ()


@given(
    code_name=st.sampled_from(sorted(_CODES)),
    file_size=st.integers(min_value=0, max_value=1200),
    block_size=st.integers(min_value=16, max_value=160),
    erased_choice=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=40, deadline=None)
def test_decode_file_matches_decode_stripe(
    code_name, file_size, block_size, erased_choice
):
    code = _CODES[code_name]
    rng = np.random.default_rng(file_size * 8 + erased_choice + 1)
    data = rng.integers(0, 256, size=file_size, dtype=np.uint8)
    layouts, per_stripe, shards, checksums = _materialise(
        code, "f", data, block_size
    )
    erased = erased_choice % code.n
    codec = StripeCodec(code)

    oracle = bytearray()
    for layout, slot_map in zip(layouts, per_stripe):
        available = {s: b for s, b in slot_map.items() if s != erased}
        for block in codec.decode_stripe(layout, available):
            oracle += block.payload.tobytes()
    assert bytes(oracle) == data.tobytes()

    sources = {s: shards[s] for s in range(code.n) if s != erased}
    sink = io.BytesIO()
    result = decode_file(
        code,
        sources,
        sink,
        block_size,
        file_size,
        name="f",
        checksums=checksums,
    )
    assert sink.getvalue() == data.tobytes()
    assert result.data_bytes == file_size
    assert result.crc_mismatches == 0


@pytest.mark.parametrize("code_name", sorted(_CODES))
def test_corrupted_survivor_is_quarantined_and_repair_recovers(code_name):
    code = _CODES[code_name]
    rng = np.random.default_rng(7)
    block_size = 64
    file_size = code.k * block_size * 3
    data = rng.integers(0, 256, size=file_size, dtype=np.uint8)
    _, _, shards, checksums = _materialise(code, "f", data, block_size)
    failed = 1
    survivors = sorted(s for s in range(code.n) if s != failed)
    plan = code.repair_plan_cached(failed, survivors)
    victim = plan.nodes_contacted[0]

    bad = bytearray(shards[victim])
    bad[3] ^= 0xA5  # stripe 0 of the contacted survivor
    sources = {s: shards[s] for s in survivors}
    sources[victim] = bytes(bad)
    sink = io.BytesIO()
    result = repair_stream(
        code,
        sources,
        sink,
        block_size,
        failed,
        file_size,
        name="f",
        checksums=checksums,
    )
    assert sink.getvalue() == shards[failed]
    assert result.crc_mismatches >= 1
    assert (0, victim) in result.quarantined


@pytest.mark.parametrize("code_name", sorted(_CODES))
def test_unattributable_corruption_raises(code_name):
    code = _CODES[code_name]
    rng = np.random.default_rng(11)
    block_size = 32
    file_size = code.k * block_size * 2
    data = rng.integers(0, 256, size=file_size, dtype=np.uint8)
    _, _, shards, checksums = _materialise(code, "f", data, block_size)
    failed = 0
    # All survivors verify, but the failed shard's expected CRC is wrong:
    # the rebuilt unit can never match and nobody can be quarantined.
    checksums[failed][0] ^= 1
    sources = {s: shards[s] for s in range(code.n) if s != failed}
    with pytest.raises(CorruptionError):
        repair_stream(
            code,
            sources,
            io.BytesIO(),
            block_size,
            failed,
            file_size,
            name="f",
            checksums=checksums,
        )


def test_decode_file_quarantines_corrupt_data_source():
    code = _CODES["rs"]
    rng = np.random.default_rng(13)
    block_size = 64
    file_size = code.k * block_size * 2 + 10
    data = rng.integers(0, 256, size=file_size, dtype=np.uint8)
    _, _, shards, checksums = _materialise(code, "f", data, block_size)
    erased = code.k  # lose a parity; decode from data + remaining parity
    bad = bytearray(shards[1])
    bad[block_size + 5] ^= 0x20  # stripe 1 of data slot 1
    sources = {s: shards[s] for s in range(code.n) if s != erased}
    sources[1] = bytes(bad)
    sink = io.BytesIO()
    result = decode_file(
        code,
        sources,
        sink,
        block_size,
        file_size,
        name="f",
        checksums=checksums,
    )
    assert sink.getvalue() == data.tobytes()
    assert result.crc_mismatches >= 1
    assert (1, 1) in result.quarantined


def test_short_read_source_fails_loudly():
    code = _CODES["rs"]
    rng = np.random.default_rng(17)
    block_size = 64
    file_size = code.k * block_size * 2
    data = rng.integers(0, 256, size=file_size, dtype=np.uint8)
    _, _, shards, _ = _materialise(code, "f", data, block_size)
    failed = 2
    sources = {s: shards[s] for s in range(code.n) if s != failed}
    sources[0] = io.BytesIO(shards[0][:-10])  # truncated stream
    with pytest.raises(PipelineError):
        repair_stream(
            code, sources, io.BytesIO(), block_size, failed, file_size,
            name="f",
        )
    # A bytes-like shard with the wrong length is rejected up front too.
    sources[0] = shards[0][:-10]
    with pytest.raises(PipelineError):
        repair_stream(
            code, sources, io.BytesIO(), block_size, failed, file_size,
            name="f",
        )


def test_repair_stream_rejects_failed_slot_as_source():
    code = _CODES["rs"]
    _, _, shards, _ = _materialise(
        code, "f", np.zeros(256, dtype=np.uint8), 64
    )
    with pytest.raises(RepairError):
        repair_stream(
            code,
            {s: shards[s] for s in range(code.n)},
            io.BytesIO(),
            64,
            0,
            256,
            name="f",
        )


def test_repair_stream_from_paths_to_path(tmp_path):
    code = _CODES["piggyback"]
    rng = np.random.default_rng(19)
    block_size = 96
    file_size = code.k * block_size * 4 + 33
    data = rng.integers(0, 256, size=file_size, dtype=np.uint8)
    _, _, shards, checksums = _materialise(code, "f", data, block_size)
    failed = code.k + 1
    sources = {}
    for slot in range(code.n):
        if slot == failed:
            continue
        path = tmp_path / f"shard_{slot}"
        path.write_bytes(shards[slot])
        sources[slot] = str(path)
    out_path = tmp_path / "rebuilt"
    result = repair_stream(
        code,
        sources,
        str(out_path),
        block_size,
        failed,
        file_size,
        name="f",
        checksums=checksums,
    )
    assert out_path.read_bytes() == shards[failed]
    assert result.rebuilt_bytes == len(shards[failed])


@pytest.mark.parametrize("code_name", sorted(_CODES))
def test_repair_file_parallel_matches_serial(code_name):
    code = _CODES[code_name]
    rng = np.random.default_rng(23)
    block_size = 64
    file_size = code.k * block_size * 6 + 17
    data = rng.integers(0, 256, size=file_size, dtype=np.uint8)
    _, _, shards, checksums = _materialise(code, "f", data, block_size)
    failed = 3
    survivors = {s: shards[s] for s in range(code.n) if s != failed}
    serial = repair_file(
        code, survivors, failed, block_size, file_size,
        name="f", checksums=checksums, parallel=False,
    )
    parallel = repair_file(
        code, survivors, failed, block_size, file_size,
        name="f", checksums=checksums, parallel=True, max_workers=2,
    )
    assert serial.rebuilt.tobytes() == shards[failed]
    assert parallel.rebuilt.tobytes() == shards[failed]
    assert serial.bytes_read == parallel.bytes_read
    assert not serial.parallel_used


def test_compiled_repair_reruns_against_current_shard_contents():
    code = _CODES["rs"]
    rng = np.random.default_rng(29)
    block_size = 64
    file_size = code.k * block_size * 4
    data = rng.integers(0, 256, size=file_size, dtype=np.uint8)
    _, _, shards, checksums = _materialise(code, "f", data, block_size)
    failed = 0
    # ndarray shards: the compiled plan binds these buffers, so edits
    # between runs must be visible to the executors.
    survivors = {
        s: np.frombuffer(shards[s], dtype=np.uint8).copy()
        for s in range(code.n)
        if s != failed
    }
    compiled = CompiledFileRepair(
        code, survivors, failed, block_size, file_size,
        name="f", checksums=checksums,
    )
    first = compiled.run()
    assert compiled.out.tobytes() == shards[failed]
    second = compiled.run()
    assert compiled.out.tobytes() == shards[failed]
    assert first == second

    # Mutate a survivor the plan reads; an uncheck-summed rerun must
    # reflect the new buffer contents (wrong bytes, by design).
    unchecked = CompiledFileRepair(
        code, survivors, failed, block_size, file_size, name="f",
    )
    unchecked.run()
    baseline = unchecked.out.tobytes()
    plan = code.repair_plan_cached(
        failed, sorted(s for s in range(code.n) if s != failed)
    )
    victim = plan.nodes_contacted[0]
    survivors[victim][0] ^= 0xFF
    unchecked.run()
    assert unchecked.out.tobytes() != baseline
    survivors[victim][0] ^= 0xFF
    unchecked.run()
    assert unchecked.out.tobytes() == baseline == shards[failed]


def test_empty_and_sub_block_files_round_trip():
    code = _CODES["crs"]
    for file_size in (0, 1, 7):
        data = np.arange(file_size, dtype=np.uint8)
        _, _, shards, checksums = _materialise(code, "f", data, 64)
        failed = code.k  # first parity is stored even for tiny files
        sources = {s: shards[s] for s in range(code.n) if s != failed}
        sink = io.BytesIO()
        repair_stream(
            code, sources, sink, 64, failed, file_size,
            name="f", checksums=checksums,
        )
        assert sink.getvalue() == shards[failed]
        sink = io.BytesIO()
        decode_file(
            code,
            {s: shards[s] for s in range(code.n) if s != 0},
            sink,
            64,
            file_size,
            name="f",
            checksums=checksums,
        )
        assert sink.getvalue() == data.tobytes()


#: (file size in blocks + extra bytes, block size): a sub-stripe file,
#: a ragged last stripe with virtual slots, and an unaligned short last
#: block (odd block size, so Piggybacked-RS pads every row by a byte).
_TAIL_SHAPES = [(2, 0, 64), (9, 13, 64), (8, 5, 33), (17, 1, 33)]


def _tail_case(code, blocks, extra, block_size):
    file_size = blocks * block_size + extra
    data = np.random.default_rng(file_size).integers(
        0, 256, size=file_size, dtype=np.uint8
    )
    return (file_size, data) + _materialise(code, "f", data, block_size)


@pytest.mark.parametrize("code_name", ["rs", "lrc", "piggyback"])
@pytest.mark.parametrize("blocks,extra,block_size", _TAIL_SHAPES)
def test_ragged_tails_match_stripe_codec(code_name, blocks, extra, block_size):
    """Every slot of every tail shape: repair_file, repair_stream and
    decode_file equal StripeCodec byte for byte, with its bytes_read."""
    code = _CODES[code_name]
    file_size, data, layouts, per_stripe, shards, checksums = _tail_case(
        code, blocks, extra, block_size
    )
    codec = StripeCodec(code)
    for failed in range(code.n):
        oracle_bytes = 0
        for layout, slot_map in zip(layouts, per_stripe):
            if failed in slot_map:
                available = {s: b for s, b in slot_map.items() if s != failed}
                oracle_bytes += codec.repair_block(layout, failed, available)[1]
        sources = {s: shards[s] for s in range(code.n) if s != failed}
        whole = repair_file(
            code, sources, failed, block_size, file_size,
            name="f", checksums=checksums, parallel=False,
        )
        assert whole.rebuilt.tobytes() == shards[failed]
        assert whole.bytes_read == oracle_bytes
        sink = io.BytesIO()
        streamed = repair_stream(
            code, sources, sink, block_size, failed, file_size,
            name="f", checksums=checksums, chunk_stripes=1,
        )
        assert sink.getvalue() == shards[failed]
        assert streamed.bytes_read == oracle_bytes
        for erased in ({failed}, {failed, (failed + code.k) % code.n}):
            survivors = {
                s: shards[s] for s in range(code.n) if s not in erased
            }
            sink = io.BytesIO()
            read = decode_file(
                code, survivors, sink, block_size, file_size,
                name="f", checksums=checksums,
            )
            assert sink.getvalue() == data.tobytes()
            assert read.bytes_read == sum(map(len, survivors.values()))


@pytest.mark.parametrize("code_name", ["rs", "lrc", "piggyback"])
def test_uncorrupted_runs_never_call_the_scalar_oracle(code_name, monkeypatch):
    """Outside quarantine retries every entry point runs compiled
    kernels: each pattern probes the scalar oracle once to compile, and
    a rerun with the oracle raising still succeeds."""
    code = pickle.loads(pickle.dumps(_CODES[code_name]))  # empty caches
    block_size = 33
    file_size, data, _, _, shards, checksums = _tail_case(code, 41, 7, 33)
    calls = []

    def counted(name):
        original = getattr(type(code), name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("scalar oracle called outside a retry")

    def run_all():
        for failed in (0, code.k):
            sources = {s: shards[s] for s in range(code.n) if s != failed}
            whole = repair_file(
                code, sources, failed, block_size, file_size,
                name="f", checksums=checksums, parallel=False,
            )
            assert whole.rebuilt.tobytes() == shards[failed]
            compiled = CompiledFileRepair(
                code, sources, failed, block_size, file_size,
                name="f", checksums=checksums,
            )
            compiled.run()
            assert compiled.out.tobytes() == shards[failed]
            sink = io.BytesIO()
            repair_stream(
                code, sources, sink, block_size, failed, file_size,
                name="f", checksums=checksums, chunk_stripes=2,
            )
            assert sink.getvalue() == shards[failed]
            sink = io.BytesIO()
            decode_file(
                code,
                {s: shards[s] for s in range(code.n) if s not in (1, failed)},
                sink, block_size, file_size, name="f", checksums=checksums,
            )
            assert sink.getvalue() == data.tobytes()

    for name in ("execute_repair", "decode"):
        monkeypatch.setattr(type(code), name, counted(name))
    run_all()
    # One probe per compiled pattern (uniform and tail, per failed slot
    # and per read), however many stripes the file has.
    assert 0 < len(calls) <= 8
    for name in ("execute_repair", "decode"):
        monkeypatch.setattr(type(code), name, forbidden)
    run_all()
