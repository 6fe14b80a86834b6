"""Optional numba-JIT kernel backend.

A middle tier for hosts with numba but no C compiler: the product-table
accumulation loop is JIT-compiled with ``nogil=True``, so, like the cffi
tier, it releases the GIL inside each kernel call.  Kernels are compiled per-process on first construction; the
probe runs a tiny warm-up call so "numba is installed but cannot
compile" surfaces as :class:`~repro.errors.BackendUnavailable` at
selection time rather than as a crash on the hot path.

The inner loops are deliberately per-(row, coefficient) -- numba's typed
containers are slow to unbox, so the Python layer drives one JIT call
per term, each of which processes an entire row.  That keeps the
dispatch overhead at ``O(m * n)`` calls per matmul, negligible against
megabyte rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import BackendUnavailable
from repro.gf.backends.base import KernelBackend


class NumbaBackend(KernelBackend):
    """JIT product-table kernels (optional tier)."""

    name = "numba"
    is_native = True

    def __init__(self):
        try:
            import numba
        except ImportError as exc:
            raise BackendUnavailable(f"numba is not installed: {exc}") from exc
        try:
            njit = numba.njit

            @njit(nogil=True, cache=False)
            def _gather_xor(row, src, dst):
                # dst ^= row[src], one product-table row at a time.
                for p in range(src.shape[0]):
                    dst[p] ^= row[src[p]]

            @njit(nogil=True, cache=False)
            def _xor_into(src, dst):
                for p in range(src.shape[0]):
                    dst[p] ^= src[p]

            probe = np.arange(32, dtype=np.uint8)
            table = np.arange(256, dtype=np.uint8)
            sink = np.zeros(32, dtype=np.uint8)
            _gather_xor(table, probe, sink)
            _xor_into(probe, sink)
        except Exception as exc:  # JIT/compile failure of any kind
            raise BackendUnavailable(
                f"numba kernels failed to compile: {type(exc).__name__}: {exc}"
            ) from exc
        self._gather_xor = _gather_xor
        self._xor_into = _xor_into

    @property
    def tier_description(self) -> str:
        return "numba JIT product-table kernels"

    def matmul(
        self,
        field,
        coeffs: np.ndarray,
        rows_in: Sequence[np.ndarray],
        rows_out: Sequence[np.ndarray],
        accumulate: bool = False,
    ) -> None:
        prod = field._prod
        for i, out in enumerate(rows_out):
            if not accumulate:
                out[...] = 0
            for j, src in enumerate(rows_in):
                coefficient = int(coeffs[i, j])
                if coefficient == 0:
                    continue
                if coefficient == 1:
                    self._xor_into(src, out)
                else:
                    self._gather_xor(
                        np.ascontiguousarray(prod[coefficient]), src, out
                    )

    def xor_rows(
        self,
        sources: Sequence[np.ndarray],
        dst: np.ndarray,
        accumulate: bool = False,
    ) -> None:
        start = 0
        if not accumulate:
            if not sources:
                dst[...] = 0
                return
            np.copyto(dst, sources[0])
            start = 1
        for source in sources[start:]:
            self._xor_into(source, dst)
