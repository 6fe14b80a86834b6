"""CRC32C (Castagnoli) checksums for stored stripe units.

Production HDFS detects silent corruption with per-chunk checksums; this
module is the codec-level equivalent.  Every stored unit gets a CRC32C
attached at encode time, the read/repair paths verify it, and the
scrubber uses it to *locate* corruption directly instead of solving
parity equations (which remain available as the fallback oracle --
see :meth:`repro.cluster.scrubber.Scrubber.locate_corruption`).

Two implementations share one table:

- :func:`crc32c` -- plain bytewise table CRC over one buffer; the
  reference implementation and the convenience entry point.
- :func:`crc32c_batch` -- one CRC per *row* of a ``(rows, width)``
  matrix, vectorised **across rows** (CRC is sequential within a
  buffer, but independent buffers advance in lock-step, so each byte
  position is one numpy gather over all rows).  An optional ``lengths``
  array lets rows of different logical lengths share the matrix: a row
  stops participating once its length is exhausted.  This is the path
  the scrubber and raid node use to verify whole stripes at once.

The polynomial is the Castagnoli polynomial (reflected ``0x82F63B78``),
init and xor-out ``0xFFFFFFFF`` -- identical to the crc32c of iSCSI,
ext4, and the HDFS ``CRC32C`` checksum type, so values here can be
compared against any standard implementation
(``crc32c(b"123456789") == 0xE3069283``).

When the compiled GF kernel backend is available its ``crc32c`` /
``crc32c_rows`` entry points take over (SSE4.2 hardware CRC or C
slicing-by-8) -- the repair and degraded-read pipelines verify every
rebuilt unit, so checksum speed is on the recovery-rate critical path.
The Python implementations remain the oracle the property tests pin
the native values against.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import EncodingError

#: Reflected Castagnoli polynomial.
_POLY = np.uint32(0x82F63B78)

_TABLE: Optional[np.ndarray] = None
_TABLE_LIST: Optional[list] = None

_NATIVE: Optional[object] = None
_NATIVE_PROBED = False


def _native():
    """The compiled CRC kernel provider, or None (probed once).

    Independent of the *selected* GF backend: CRC values are
    backend-invariant math, so the fastest available implementation is
    always correct to use even while a test pins GF work to numpy.
    """
    global _NATIVE, _NATIVE_PROBED
    if not _NATIVE_PROBED:
        _NATIVE_PROBED = True
        try:
            from repro.gf import backends

            backend = backends.native_backend()
            if hasattr(backend, "crc32c") and hasattr(backend, "crc32c_rows"):
                _NATIVE = backend
        except Exception:
            _NATIVE = None
    return _NATIVE


def _table() -> np.ndarray:
    """The 256-entry bytewise CRC32C table (built once, with numpy)."""
    global _TABLE, _TABLE_LIST
    if _TABLE is None:
        crc = np.arange(256, dtype=np.uint32)
        for _ in range(8):
            crc = np.where(crc & 1, (crc >> 1) ^ _POLY, crc >> 1)
        crc.setflags(write=False)
        _TABLE = crc
        _TABLE_LIST = crc.tolist()
    return _TABLE


def _as_bytes(data) -> bytes:
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data)
    array = np.asarray(data)
    if array.dtype != np.uint8:
        raise EncodingError(
            f"checksums are defined over uint8 payloads, got {array.dtype}"
        )
    return np.ascontiguousarray(array.reshape(-1)).tobytes()


def _as_contiguous_u8(data) -> np.ndarray:
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(memoryview(data).cast("B"), dtype=np.uint8)
    array = np.asarray(data)
    if array.dtype != np.uint8:
        raise EncodingError(
            f"checksums are defined over uint8 payloads, got {array.dtype}"
        )
    return np.ascontiguousarray(array.reshape(-1))


def crc32c(data, value: int = 0) -> int:
    """CRC32C of one byte buffer (``bytes`` or 1-d ``uint8`` array).

    ``value`` chains a previous :func:`crc32c` result so a buffer can be
    checksummed in pieces: ``crc32c(b, crc32c(a)) == crc32c(a + b)``.
    """
    native = _native()
    if native is not None:
        return native.crc32c(_as_contiguous_u8(data), value)
    _table()
    table = _TABLE_LIST
    assert table is not None
    crc = (int(value) ^ 0xFFFFFFFF) & 0xFFFFFFFF
    for byte in _as_bytes(data):
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32c_reference(data, value: int = 0) -> int:
    """The pure-Python bytewise CRC32C (the oracle for the native path)."""
    _table()
    table = _TABLE_LIST
    assert table is not None
    crc = (int(value) ^ 0xFFFFFFFF) & 0xFFFFFFFF
    for byte in _as_bytes(data):
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32c_batch(
    rows: Union[np.ndarray, Sequence[np.ndarray]],
    lengths: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """CRC32C of every row of a uint8 matrix, vectorised across rows.

    Parameters
    ----------
    rows:
        ``(num_rows, width)`` uint8 array, or a sequence of equal-width
        1-d uint8 rows (checksummed in place by the native kernel).
    lengths:
        Optional per-row logical lengths (``<= width``).  Row ``i``'s
        CRC covers only its first ``lengths[i]`` bytes -- the trailing
        matrix cells are ignored, so short payloads can share a padded
        matrix without their padding leaking into the digest.

    Returns
    -------
    ``(num_rows,)`` uint32 array; ``crc32c_batch(m)[i] == crc32c(m[i])``
    (the property tests pin this equivalence).
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.ndim != 2:
            raise EncodingError(
                f"expected a (rows, width) matrix, got shape {rows.shape}"
            )
    # Rows are checksummed where they lie: a sequence of views (the
    # degraded-read path hands over survivor units in place) is never
    # stacked on the native path.
    row_list = [np.asarray(row) for row in rows]
    shapes = {row.shape for row in row_list}
    if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
        raise EncodingError(f"expected equal-width 1-d rows, got {shapes}")
    if any(row.dtype != np.uint8 for row in row_list):
        raise EncodingError("checksums are defined over uint8 payloads")
    num_rows = len(row_list)
    width = shapes.pop()[0] if shapes else 0
    if lengths is not None:
        length_arr = np.asarray(lengths, dtype=np.int64)
        if length_arr.shape != (num_rows,):
            raise EncodingError(
                f"lengths of shape {length_arr.shape} do not match "
                f"{num_rows} rows"
            )
        if length_arr.size and (
            length_arr.min() < 0 or length_arr.max() > width
        ):
            raise EncodingError(
                f"row lengths must lie in [0, {width}]"
            )
    native = _native()
    if native is not None:
        if lengths is None:
            row_lengths = [width] * num_rows
        else:
            row_lengths = [int(n) for n in length_arr]
        return native.crc32c_rows(
            [np.ascontiguousarray(row) for row in row_list], row_lengths
        )
    matrix = np.array(row_list, dtype=np.uint8).reshape(num_rows, width)
    table = _table()
    crc = np.full(num_rows, 0xFFFFFFFF, dtype=np.uint32)
    if lengths is None:
        for col in range(width):
            crc = table[(crc ^ matrix[:, col]) & 0xFF] ^ (crc >> np.uint32(8))
    else:
        for col in range(int(length_arr.max(initial=0))):
            live = col < length_arr
            step = table[(crc ^ matrix[:, col]) & 0xFF] ^ (crc >> np.uint32(8))
            crc = np.where(live, step, crc)
    return crc ^ np.uint32(0xFFFFFFFF)
