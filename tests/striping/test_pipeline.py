"""The in-process file pipeline: ``encode_file`` matches the codec."""

import numpy as np
import pytest

from repro.codes.rs import ReedSolomonCode
from repro.striping.codec import StripeCodec
from repro.striping.pipeline import encode_file


@pytest.fixture
def data():
    return np.random.default_rng(2).integers(
        0, 256, size=17 * 1024 + 13, dtype=np.uint8
    )


def test_serial_matches_scalar_codec(data):
    code = ReedSolomonCode(6, 3)
    result = encode_file(code, data, 1024)
    codec = StripeCodec(code)
    cursor = 0
    for layout, parities in zip(result.layouts, result.parities):
        slots = []
        for block_id in layout.data_block_ids:
            if block_id is None:
                slots.append(None)
            else:
                slots.append(result.file.blocks[cursor])
                cursor += 1
        for got, want in zip(parities, codec.encode_stripe(layout, slots)):
            assert np.array_equal(got.payload, want.payload)


def test_parity_bytes_accounting(data):
    code = ReedSolomonCode(6, 3)
    result = encode_file(code, data, 1024)
    assert result.parity_bytes == sum(
        p.size for row in result.parities for p in row
    )
    assert result.parity_bytes > 0
