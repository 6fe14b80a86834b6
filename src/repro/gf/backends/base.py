"""Abstract interface every GF(2^8) kernel backend implements.

A backend owns two bulk kernels, both operating on sequences of
equal-length 1-d C-contiguous ``uint8`` rows (views into larger buffers
are fine; inputs and outputs must not alias):

- :meth:`KernelBackend.matmul` -- ``rows_out <- coeffs @ rows_in`` over
  GF(2^8), the operation behind ``GF256.dot``/``GF256.matmul`` and the
  packed stripe kernels;
- :meth:`KernelBackend.xor_rows` -- ``dst <- XOR of sources``, the
  operation behind the Cauchy bit-matrix strip schedules.

Backends are *semantically identical by contract*: every implementation
must be byte-for-byte equal to the numpy oracle
(:class:`~repro.gf.backends.numpy_backend.NumpyBackend`) on all inputs.
The hypothesis suites in ``tests/gf/test_backends.py`` enforce this at
the ``scale``/``dot``/``matmul`` and ``encode_batch``/``decode_batch``
layers.

Probing is a constructor concern: instantiating a backend must either
succeed (the backend is fully usable) or raise
:class:`~repro.errors.BackendUnavailable` with a reason.  Nothing else
may escape a probe -- the registry turns any unexpected error into an
unavailability record rather than breaking import of the GF layer.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.errors import BackendUnavailable

__all__ = ["KernelBackend", "BackendUnavailable"]


class KernelBackend(abc.ABC):
    """One tier of the pluggable GF kernel engine.

    Attributes
    ----------
    name:
        Registry key (``"numpy"`` or ``"cffi"``); also what
        benchmarks and ``BENCH_codec.json`` record.
    is_native:
        True when the backend's kernels run outside the numpy ufunc
        machinery (compiled C).  The GF layer only diverts work to
        a backend when this is set -- the numpy oracle's kernels *are*
        the fallback path, so dispatching to it would just add a hop.
    tier_description:
        Human-readable note on what the backend compiles down to (e.g.
        which SIMD tier the C build selected); surfaced by
        ``repro bench`` and the backend-matrix CI job.
    """

    name: str = "abstract"
    is_native: bool = False

    @property
    def tier_description(self) -> str:
        return self.name

    @abc.abstractmethod
    def matmul(
        self,
        field,
        coeffs: np.ndarray,
        rows_in: Sequence[np.ndarray],
        rows_out: Sequence[np.ndarray],
        accumulate: bool = False,
    ) -> None:
        """``rows_out <- coeffs @ rows_in`` over GF(2^8) (``^=`` when
        ``accumulate``).

        ``field`` is the :class:`~repro.gf.field.GF256` instance whose
        modulus defines the arithmetic; ``coeffs`` is an ``(m, n)``
        uint8 matrix; ``rows_in``/``rows_out`` are ``n``/``m``
        equal-length 1-d C-contiguous uint8 rows.
        """

    def matmul_batch(
        self,
        field,
        coeffs: np.ndarray,
        batch_rows_in: Sequence[Sequence[np.ndarray]],
        batch_rows_out: Sequence[Sequence[np.ndarray]],
        accumulate: bool = False,
    ) -> None:
        """Apply the *same* ``(m, n)`` matrix to a batch of row sets.

        ``batch_rows_in[b]`` / ``batch_rows_out[b]`` are the ``n``
        input / ``m`` output rows of batch element ``b``; all rows
        across the whole batch share one length.  This is the compiled
        repair-plan shape: one reduced repair matrix applied across
        every stripe of a survivor batch.  The default runs one
        :meth:`matmul` per element; native backends override it with a
        single fused call so a batch costs one FFI crossing instead of
        one per stripe.
        """
        for rows_in, rows_out in zip(batch_rows_in, batch_rows_out):
            self.matmul(field, coeffs, rows_in, rows_out, accumulate)

    def bind_matmul_batch(
        self,
        field,
        coeffs: np.ndarray,
        batch_rows_in: Sequence[Sequence[np.ndarray]],
        batch_rows_out: Sequence[Sequence[np.ndarray]],
        accumulate: bool = False,
    ):
        """Precompile a repeatable :meth:`matmul_batch` over fixed rows.

        Returns a zero-argument callable that re-applies the matrix to
        the *current contents* of the captured rows.  Callers that
        rebuild the same buffers every wave (the streaming repair
        pipeline's buffer pool, the repair benches) pay row validation
        and pointer marshalling once instead of per wave.  The default
        just closes over :meth:`matmul_batch`.
        """
        coeffs = np.ascontiguousarray(coeffs, dtype=np.uint8)
        batch_rows_in = [list(rows) for rows in batch_rows_in]
        batch_rows_out = [list(rows) for rows in batch_rows_out]

        def execute() -> None:
            self.matmul_batch(
                field, coeffs, batch_rows_in, batch_rows_out, accumulate
            )

        return execute

    @abc.abstractmethod
    def xor_rows(
        self,
        sources: Sequence[np.ndarray],
        dst: np.ndarray,
        accumulate: bool = False,
    ) -> None:
        """``dst <- sources[0] ^ sources[1] ^ ...`` (``^=`` when
        ``accumulate``).  An empty source list zero-fills (or leaves)
        ``dst``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} native={self.is_native}>"
