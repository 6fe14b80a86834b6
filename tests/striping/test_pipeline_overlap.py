"""Streaming encode: byte-identity, accounting, failures.

:func:`repro.striping.pipeline.encode_stream` reads, encodes and writes
one stripe-aligned chunk at a time.  Whatever the chunking, the parity
bytes written to the sink must equal what the in-memory
:func:`encode_file` path computes for the same bytes -- including
ragged tails, sub-stripe files and the empty file -- and errors in any
stage must surface as :class:`PipelineError`, never a hang or silent
truncation.
"""

import io

import numpy as np
import pytest

from repro.codes.crs import CauchyBitmatrixRSCode
from repro.codes.rs import ReedSolomonCode
from repro.errors import EncodingError, PipelineError
from repro.striping.pipeline import (
    StreamEncodeResult,
    encode_file,
    encode_stream,
)

CODE = ReedSolomonCode(4, 2)
BLOCK = 1 << 12


def reference_parity(code, data, block_size):
    result = encode_file(code, data, block_size)
    return np.concatenate(
        [p.payload for row in result.parities for p in row]
    )


def stream_parity(code, data, block_size, **kwargs):
    sink = io.BytesIO()
    result = encode_stream(
        code, io.BytesIO(data.tobytes()), sink, block_size, **kwargs
    )
    return np.frombuffer(sink.getvalue(), dtype=np.uint8), result


@pytest.mark.parametrize(
    "size",
    [
        0,  # empty file: one empty-block stripe
        1,  # sub-block
        BLOCK * 3 + 17,  # partial stripe, ragged block
        BLOCK * 4,  # exactly one stripe
        BLOCK * 4 * 3,  # chunk-aligned multi-stripe
        BLOCK * 4 * 5 + BLOCK + 5,  # multi-chunk with ragged tail
    ],
)
def test_stream_matches_encode_file(size):
    rng = np.random.default_rng(size)
    data = rng.integers(0, 256, size, dtype=np.uint8)
    expected = reference_parity(CODE, data, BLOCK)
    got, result = stream_parity(CODE, data, BLOCK, chunk_stripes=2)
    assert np.array_equal(got, expected)
    assert result.data_bytes == size
    assert result.parity_bytes == expected.size


def test_stream_matches_for_crs_backend():
    code = CauchyBitmatrixRSCode(4, 2)
    rng = np.random.default_rng(5)
    data = rng.integers(0, 256, BLOCK * 4 * 3 + 40, dtype=np.uint8)
    expected = reference_parity(code, data, BLOCK)
    got, __ = stream_parity(code, data, BLOCK, chunk_stripes=1)
    assert np.array_equal(got, expected)


def test_bytes_like_source_and_path_sink(tmp_path):
    rng = np.random.default_rng(6)
    data = rng.integers(0, 256, BLOCK * 4 * 2 + 9, dtype=np.uint8)
    expected = reference_parity(CODE, data, BLOCK)
    out_path = tmp_path / "parity.bin"
    result = encode_stream(CODE, data.tobytes(), str(out_path), BLOCK)
    got = np.frombuffer(out_path.read_bytes(), dtype=np.uint8)
    assert np.array_equal(got, expected)
    assert result.parity_bytes == expected.size


def test_path_source_and_none_sink(tmp_path):
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, BLOCK * 4 * 2, dtype=np.uint8)
    src = tmp_path / "data.bin"
    src.write_bytes(data.tobytes())
    result = encode_stream(CODE, src, None, BLOCK)
    assert result.data_bytes == data.size
    assert result.stripes == 2
    assert result.parity_bytes == 2 * CODE.r * BLOCK


def test_accounting_and_occupancy():
    rng = np.random.default_rng(8)
    data = rng.integers(0, 256, BLOCK * 4 * 6, dtype=np.uint8)
    __, result = stream_parity(CODE, data, BLOCK, chunk_stripes=2)
    assert isinstance(result, StreamEncodeResult)
    assert result.chunks == 3
    assert result.stripes == 6
    assert result.wall_seconds > 0
    assert 0.0 <= result.occupancy <= 1.0
    assert result.read_wait_seconds >= 0.0
    assert result.write_wait_seconds >= 0.0


def test_overlap_metrics_recorded():
    from repro import observability

    rng = np.random.default_rng(9)
    data = rng.integers(0, 256, BLOCK * 4 * 2, dtype=np.uint8)
    observability.set_enabled(True)
    observability.reset()
    try:
        stream_parity(CODE, data, BLOCK)
        registry = observability.get_registry()
        assert registry.counter_value("pipeline.overlap.files") == 1
        assert registry.counter_value("pipeline.overlap.stripes") == 2
        assert (
            registry.counter_value("pipeline.overlap.data_bytes")
            == data.size
        )
        snapshot = registry.snapshot()
        assert "pipeline.overlap.occupancy" in snapshot["gauges"]
    finally:
        observability.set_enabled(None)


class _ExplodingReader(io.RawIOBase):
    def readable(self):
        return True

    def readinto(self, b):
        raise OSError("disk on fire")


class _ExplodingSink:
    def write(self, data):
        raise OSError("sink full")


def test_reader_error_propagates():
    with pytest.raises(PipelineError, match="disk on fire"):
        encode_stream(CODE, _ExplodingReader(), io.BytesIO(), BLOCK)


def test_writer_error_propagates():
    rng = np.random.default_rng(10)
    data = rng.integers(0, 256, BLOCK * 4 * 4, dtype=np.uint8)
    with pytest.raises(PipelineError, match="sink full"):
        encode_stream(
            CODE,
            io.BytesIO(data.tobytes()),
            _ExplodingSink(),
            BLOCK,
            chunk_stripes=1,
        )


def test_invalid_parameters_rejected():
    with pytest.raises(EncodingError):
        encode_stream(CODE, b"", None, 0)
    with pytest.raises(EncodingError):
        encode_stream(CODE, b"", None, BLOCK, chunk_stripes=0)


def test_short_read_source_is_handled():
    """A reader returning short counts must still assemble full chunks."""

    class DribbleReader(io.RawIOBase):
        def __init__(self, payload):
            self._payload = payload
            self._pos = 0

        def readable(self):
            return True

        def readinto(self, b):
            n = min(len(b), 777, len(self._payload) - self._pos)
            if n <= 0:
                return 0
            b[:n] = self._payload[self._pos : self._pos + n]
            self._pos += n
            return n

    rng = np.random.default_rng(11)
    data = rng.integers(0, 256, BLOCK * 4 * 2 + 123, dtype=np.uint8)
    expected = reference_parity(CODE, data, BLOCK)
    sink = io.BytesIO()
    encode_stream(
        CODE, DribbleReader(data.tobytes()), sink, BLOCK, chunk_stripes=1
    )
    got = np.frombuffer(sink.getvalue(), dtype=np.uint8)
    assert np.array_equal(got, expected)
