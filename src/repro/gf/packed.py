"""Packed gather tables for batched GF(2^8) kernels.

The PR-1 kernels (:meth:`repro.gf.field.GF256.matmul`) gather one
product-table row per (output row, input row) pair -- ``m * n`` gathers
per matrix application.  The batched data plane amortises table
construction across thousands of stripe widths' worth of bytes, which
makes two denser layouts profitable:

- :class:`PackedMatmul` packs **pairs of input columns** and **up to
  four output rows** into one ``(65536,)`` ``uint32`` table per
  (row-group, column-pair).  A 16-bit index is built from two adjacent
  input bytes; a single ``np.take`` then yields four output bytes at
  once, so an ``(m, n)`` matrix needs ``ceil(m/4) * ceil(n/2)`` gathers
  per chunk instead of ``m * n``.
- :class:`PackedRow` packs a **single output row** as per-column
  ``(65536,)`` ``uint16`` tables indexed by the source rows *viewed* as
  ``uint16`` -- the index is free (no arithmetic), giving ``n`` gathers
  plus ``n - 1`` XORs per chunk for a repair row.

Both classes are byte-identical to :func:`repro.gf.linalg.gf_matmul` /
:meth:`GF256.dot` (property-tested in ``tests/gf/test_packed.py``) and
are pure lookups -- no log/antilog arithmetic on the hot path.

When a native kernel backend is active (:mod:`repro.gf.backends`), both
classes skip their table builds entirely and delegate ``apply`` to the
backend's fused matmul -- the packed-table layouts only exist to beat
numpy's one-gather-per-coefficient cost, which a compiled SIMD kernel
beats outright.  The numpy table path is built lazily on first need and
remains the byte-identical fallback for rows the backend declines
(non-contiguous views).

Endianness convention (little-endian hosts; numpy ``uint16`` views):
the **low** byte of a 16-bit index corresponds to the **first** of the
two packed positions.  Tables are built with ``index & 255`` mapping to
the even column and ``index >> 8`` to the odd column, and indices are
assembled as ``odd_byte * 256 | even_byte`` to match.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import FieldError
from repro.gf.field import DEFAULT_FIELD, GF256

#: Elements per kernel chunk.  Smaller than the scalar kernels'
#: ``KERNEL_CHUNK`` because each chunk touches a 256 KiB uint32 table
#: per row-group/column-pair; 32 Ki indices keeps index + scratch + a
#: hot table slice resident in L2.
PACKED_CHUNK = 1 << 15

_ROWS_PER_GROUP = 4
_COLS_PER_PAIR = 2


def _as_rows(rows: Sequence[np.ndarray], length: Optional[int]) -> int:
    """Validate a sequence of equal-length 1-d uint8 rows; return length."""
    for row in rows:
        if row.dtype != np.uint8 or row.ndim != 1:
            raise FieldError("packed kernels take 1-d uint8 rows")
        if length is None:
            length = row.shape[0]
        elif row.shape[0] != length:
            raise FieldError(
                f"ragged packed-kernel rows: {row.shape[0]} != {length}"
            )
    if length is None:
        raise FieldError("packed kernels need at least one row")
    return length


class PackedMatmul:
    """Pair-of-columns x four-rows packed tables for a fixed matrix.

    Parameters
    ----------
    matrix:
        ``(m, n)`` uint8 matrix over GF(2^8), captured by value at
        construction (table build cost: ``ceil(m/4) * ceil(n/2)`` passes
        over a 64 Ki table; ~256 KiB of tables per group/pair cell).
    """

    def __init__(self, matrix: np.ndarray, field: Optional[GF256] = None):
        gf = field if field is not None else DEFAULT_FIELD
        matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2 or matrix.size == 0:
            raise FieldError(
                f"PackedMatmul needs a non-empty 2-d matrix, got {matrix.shape}"
            )
        self.shape = matrix.shape
        self.matrix = matrix
        self._field = gf
        from repro.gf import backends

        self._backend = backends.native_backend()
        self._pairs: Optional[int] = None
        self._groups: Optional[list] = None
        if self._backend is None:
            self._build_tables()

    def __getstate__(self):
        """Pickle without the backend handle (and its C pointers).

        The plan rehydrates against whatever backend the *receiving*
        process selects -- a worker process may not share the parent's
        tiers.  Packed tables travel if already built; otherwise they
        rebuild lazily on first fallback use.
        """
        state = dict(self.__dict__)
        state["_backend"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        from repro.gf import backends

        self._backend = backends.native_backend()

    def _build_tables(self) -> None:
        """Numpy packed tables, deferred while a native backend serves."""
        matrix, gf = self.matrix, self._field
        m, n = matrix.shape
        prod = gf._prod
        index = np.arange(1 << 16, dtype=np.uint32)
        low = (index & 0xFF).astype(np.uint8)
        high = (index >> 8).astype(np.uint8)
        self._pairs = (n + _COLS_PER_PAIR - 1) // _COLS_PER_PAIR
        self._groups = []
        for g_start in range(0, m, _ROWS_PER_GROUP):
            g_rows = range(g_start, min(g_start + _ROWS_PER_GROUP, m))
            tables = np.zeros((self._pairs, 1 << 16), dtype=np.uint32)
            for p in range(self._pairs):
                even, odd = _COLS_PER_PAIR * p, _COLS_PER_PAIR * p + 1
                for lane, row in enumerate(g_rows):
                    cell = prod[matrix[row, even]][low]
                    if odd < n:
                        cell = cell ^ prod[matrix[row, odd]][high]
                    tables[p] |= cell.astype(np.uint32) << np.uint32(8 * lane)
            self._groups.append((len(g_rows), tables))

    def apply(
        self,
        rows_in: Sequence[np.ndarray],
        rows_out: Sequence[np.ndarray],
        accumulate: bool = False,
    ) -> None:
        """``rows_out <- matrix @ rows_in`` (or ``^=`` when accumulating).

        ``rows_in`` / ``rows_out`` are sequences of 1-d uint8 arrays of a
        common length (views into larger buffers are fine; input and
        output must not alias).
        """
        m, n = self.shape
        if len(rows_in) != n or len(rows_out) != m:
            raise FieldError(
                f"PackedMatmul{self.shape} got {len(rows_in)} inputs / "
                f"{len(rows_out)} outputs"
            )
        length = _as_rows(rows_in, None)
        _as_rows(rows_out, length)
        if length == 0:
            return
        if (
            self._backend is not None
            and all(row.flags.c_contiguous for row in rows_in)
            and all(row.flags.c_contiguous for row in rows_out)
        ):
            self._backend.matmul(
                self._field, self.matrix, rows_in, rows_out, accumulate
            )
            return
        if self._groups is None:
            self._build_tables()
        chunk = min(PACKED_CHUNK, length)
        idx = np.empty(chunk, dtype=np.uint16)
        acc = np.empty(chunk, dtype=np.uint32)
        scratch = np.empty(chunk, dtype=np.uint32)
        for start in range(0, length, PACKED_CHUNK):
            stop = min(start + PACKED_CHUNK, length)
            size = stop - start
            idx_c, acc_c, sc_c = idx[:size], acc[:size], scratch[:size]
            out_lane = 0
            for lanes, tables in self._groups:
                for p in range(self._pairs):
                    even, odd = _COLS_PER_PAIR * p, _COLS_PER_PAIR * p + 1
                    if odd < n:
                        np.multiply(
                            rows_in[odd][start:stop],
                            np.uint16(256),
                            out=idx_c,
                            casting="unsafe",
                        )
                        np.bitwise_or(
                            idx_c,
                            rows_in[even][start:stop],
                            out=idx_c,
                            casting="unsafe",
                        )
                    else:
                        idx_c[:] = rows_in[even][start:stop]
                    target = acc_c if p == 0 else sc_c
                    np.take(tables[p], idx_c, out=target)
                    if p != 0:
                        np.bitwise_xor(acc_c, sc_c, out=acc_c)
                unpacked = acc_c.view(np.uint8).reshape(size, 4)
                for lane in range(lanes):
                    out_seg = rows_out[out_lane + lane][start:stop]
                    if accumulate:
                        np.bitwise_xor(
                            out_seg, unpacked[:, lane], out=out_seg
                        )
                    else:
                        out_seg[:] = unpacked[:, lane]
                out_lane += lanes

    def apply_batch(
        self,
        batch_rows_in: Sequence[Sequence[np.ndarray]],
        batch_rows_out: Sequence[Sequence[np.ndarray]],
        accumulate: bool = False,
    ) -> None:
        """Apply the matrix to every row set of a survivor batch.

        One fused backend call when a native backend serves and every
        row is contiguous; otherwise a per-element :meth:`apply` loop
        (the byte-identical numpy oracle).
        """
        if self._backend is not None and _batch_contiguous(
            batch_rows_in, batch_rows_out
        ):
            self._backend.matmul_batch(
                self._field, self.matrix, batch_rows_in, batch_rows_out,
                accumulate,
            )
            return
        for rows_in, rows_out in zip(batch_rows_in, batch_rows_out):
            self.apply(rows_in, rows_out, accumulate)

    def bind_batch(
        self,
        batch_rows_in: Sequence[Sequence[np.ndarray]],
        batch_rows_out: Sequence[Sequence[np.ndarray]],
        accumulate: bool = False,
    ):
        """Precompiled executor over fixed buffers; see
        :meth:`KernelBackend.bind_matmul_batch`."""
        if self._backend is not None and _batch_contiguous(
            batch_rows_in, batch_rows_out
        ):
            return self._backend.bind_matmul_batch(
                self._field, self.matrix, batch_rows_in, batch_rows_out,
                accumulate,
            )
        batch_rows_in = [list(rows) for rows in batch_rows_in]
        batch_rows_out = [list(rows) for rows in batch_rows_out]

        def execute() -> None:
            for rows_in, rows_out in zip(batch_rows_in, batch_rows_out):
                self.apply(rows_in, rows_out, accumulate)

        return execute

    def matmul(self, data: np.ndarray, out: Optional[np.ndarray] = None):
        """Convenience 2-d wrapper: ``(n, L) -> (m, L)``."""
        data = np.asarray(data, dtype=np.uint8)
        if out is None:
            out = np.empty((self.shape[0], data.shape[1]), dtype=np.uint8)
        self.apply(list(data), list(out))
        return out


def _batch_contiguous(
    batch_rows_in: Sequence[Sequence[np.ndarray]],
    batch_rows_out: Sequence[Sequence[np.ndarray]],
) -> bool:
    """True when every row across the batch is backend-eligible."""
    return all(
        row.flags.c_contiguous
        for rows in batch_rows_in
        for row in rows
    ) and all(
        row.flags.c_contiguous
        for rows in batch_rows_out
        for row in rows
    )


def _u16_viewable(array: np.ndarray) -> bool:
    return (
        array.flags.c_contiguous
        and array.ctypes.data % 2 == 0
    )


class PackedRow:
    """Half-word packed tables for one GF(2^8) linear combination.

    Used for single-row repairs: the rebuilt unit is a fixed linear
    combination of ``n`` survivor rows, and each survivor row re-read as
    ``uint16`` *is* the gather index -- two bytes of the same source per
    lookup, no index arithmetic at all.  Zero coefficients are skipped;
    unit coefficients XOR the source directly instead of gathering.

    The fast path needs every row (and the output) to be C-contiguous
    with an even byte offset and an even common length; anything else
    falls back to plain product-table accumulation (still exact).
    """

    def __init__(self, coefficients: np.ndarray, field: Optional[GF256] = None):
        gf = field if field is not None else DEFAULT_FIELD
        coefficients = np.ascontiguousarray(coefficients, dtype=np.uint8)
        if coefficients.ndim != 2 and coefficients.ndim != 1:
            raise FieldError(
                f"PackedRow needs a coefficient vector, got {coefficients.shape}"
            )
        coefficients = coefficients.reshape(-1)
        self.coefficients = coefficients
        self._field = gf
        self._prod = gf._prod
        from repro.gf import backends

        self._backend = backends.native_backend()
        self._terms: Optional[list] = None
        if self._backend is None:
            self._build_terms()

    def __getstate__(self):
        """Pickle without the backend handle; see PackedMatmul."""
        state = dict(self.__dict__)
        state["_backend"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        from repro.gf import backends

        self._backend = backends.native_backend()

    def _build_terms(self) -> None:
        """Numpy half-word tables, deferred while a native backend serves."""
        coefficients = self.coefficients
        index = np.arange(1 << 16, dtype=np.uint32)
        low = (index & 0xFF).astype(np.uint8)
        high = (index >> 8).astype(np.uint8)
        # (source index, table-or-None); None marks a unit coefficient.
        self._terms = []
        for j, coeff in enumerate(coefficients):
            if coeff == 0:
                continue
            if coeff == 1:
                self._terms.append((j, None))
                continue
            table = self._prod[coeff][low].astype(np.uint16)
            table |= self._prod[coeff][high].astype(np.uint16) << np.uint16(8)
            self._terms.append((j, table))

    def apply(
        self,
        rows: Sequence[np.ndarray],
        out: np.ndarray,
        accumulate: bool = False,
    ) -> None:
        """``out <- sum_j coeff[j] * rows[j]`` (``^=`` when accumulating)."""
        if len(rows) != self.coefficients.shape[0]:
            raise FieldError(
                f"PackedRow of {self.coefficients.shape[0]} coefficients "
                f"got {len(rows)} rows"
            )
        length = _as_rows([out], _as_rows(rows, None) if rows else None)
        if length == 0:
            return
        if not np.any(self.coefficients):
            if not accumulate:
                out[:] = 0
            return
        if (
            self._backend is not None
            and out.flags.c_contiguous
            and all(row.flags.c_contiguous for row in rows)
        ):
            self._backend.matmul(
                self._field,
                self.coefficients.reshape(1, -1),
                rows,
                [out],
                accumulate,
            )
            return
        if self._terms is None:
            self._build_terms()
        fast = (
            length % 2 == 0
            and _u16_viewable(out)
            and all(_u16_viewable(rows[j]) for j, _ in self._terms)
        )
        if not fast:
            self._apply_bytewise(rows, out, accumulate)
            return
        out16 = out.view(np.uint16)
        half = length // 2
        chunk = min(PACKED_CHUNK, half)
        scratch = np.empty(chunk, dtype=np.uint16)
        for start in range(0, half, PACKED_CHUNK):
            stop = min(start + PACKED_CHUNK, half)
            sc_c = scratch[: stop - start]
            out_seg = out16[start:stop]
            for position, (j, table) in enumerate(self._terms):
                src = rows[j].view(np.uint16)[start:stop]
                first = position == 0 and not accumulate
                if table is None:
                    if first:
                        out_seg[:] = src
                    else:
                        np.bitwise_xor(out_seg, src, out=out_seg)
                else:
                    if first:
                        np.take(table, src, out=out_seg)
                    else:
                        np.take(table, src, out=sc_c)
                        np.bitwise_xor(out_seg, sc_c, out=out_seg)

    def apply_batch(
        self,
        batch_rows: Sequence[Sequence[np.ndarray]],
        batch_outs: Sequence[np.ndarray],
        accumulate: bool = False,
    ) -> None:
        """Rebuild one output row per batch element, fused when native."""
        if self._backend is not None and _batch_contiguous(
            batch_rows, [[out] for out in batch_outs]
        ):
            self._backend.matmul_batch(
                self._field,
                self.coefficients.reshape(1, -1),
                batch_rows,
                [[out] for out in batch_outs],
                accumulate,
            )
            return
        for rows, out in zip(batch_rows, batch_outs):
            self.apply(rows, out, accumulate)

    def bind_batch(
        self,
        batch_rows: Sequence[Sequence[np.ndarray]],
        batch_outs: Sequence[np.ndarray],
        accumulate: bool = False,
    ):
        """Precompiled executor over fixed buffers; see
        :meth:`KernelBackend.bind_matmul_batch`."""
        batch_rows_out = [[out] for out in batch_outs]
        if self._backend is not None and _batch_contiguous(
            batch_rows, batch_rows_out
        ):
            return self._backend.bind_matmul_batch(
                self._field,
                self.coefficients.reshape(1, -1),
                batch_rows,
                batch_rows_out,
                accumulate,
            )
        batch_rows = [list(rows) for rows in batch_rows]
        batch_outs = list(batch_outs)

        def execute() -> None:
            for rows, out in zip(batch_rows, batch_outs):
                self.apply(rows, out, accumulate)

        return execute

    def _apply_bytewise(
        self,
        rows: Sequence[np.ndarray],
        out: np.ndarray,
        accumulate: bool,
    ) -> None:
        """Exact fallback for odd / unaligned rows: plain u8 gathers."""
        prod = self._prod
        for position, (j, table) in enumerate(self._terms):
            coeff = int(self.coefficients[j])
            term = rows[j] if coeff == 1 else prod[coeff][rows[j]]
            if position == 0 and not accumulate:
                out[:] = term
            else:
                np.bitwise_xor(out, term, out=out)
