"""Cauchy Reed-Solomon over bit matrices (pure-XOR codec).

The same (k, r) MDS code as :class:`~repro.codes.rs.ReedSolomonCode`,
implemented the way high-throughput production codecs do it: the Cauchy
generator matrix is expanded over GF(2)
(:mod:`repro.gf.bitmatrix`), each unit is split into 8 bit strips, and
every operation is an XOR of strips -- no field multiplications on the
data path.

Repair economics are identical to RS (``k`` units for any single
failure); the codec exists as an alternative *backend*: the tests assert
it is byte-for-byte self-consistent and MDS, and the throughput bench
compares it with the table-based codec.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.codes.base import (
    PACKED_CACHE_CAP,
    ErasureCode,
    RepairPlan,
    SymbolRequest,
    require_unit_shapes,
)
from repro.gf.linalg import gf_matmul
from repro.errors import CodeConstructionError, DecodingError, RepairError
from repro.gf import GF256, DEFAULT_FIELD
from repro.gf.bitmatrix import W, expand_generator
from repro.gf.linalg import gf_inv_matrix
from repro.gf.matrices import systematic_generator_from_cauchy
from repro.gf.xor_schedule import XorSchedule, compile_xor_schedule


class CauchyBitmatrixRSCode(ErasureCode):
    """(k, r) Cauchy-RS with bit-matrix (XOR-only) encoding.

    Units must be a multiple of 8 bytes (8 strips per unit).

    Examples
    --------
    >>> import numpy as np
    >>> code = CauchyBitmatrixRSCode(4, 2)
    >>> data = np.arange(4 * 16, dtype=np.uint8).reshape(4, 16)
    >>> stripe = code.encode(data)
    >>> survivors = {i: stripe[i] for i in (1, 3, 4, 5)}
    >>> bool(np.array_equal(code.decode(survivors), data))
    True
    """

    substripes_per_unit = 1

    def __init__(self, k: int, r: int, field: Optional[GF256] = None):
        if k < 1 or r < 1:
            raise CodeConstructionError(f"invalid parameters k={k}, r={r}")
        if k + r > 256:
            raise CodeConstructionError(
                f"GF(256) supports k + r <= 256, got {k + r}"
            )
        self.k = k
        self.r = r
        self.field = field if field is not None else DEFAULT_FIELD
        self.generator = systematic_generator_from_cauchy(k, r, self.field)
        #: (8n, 8k) binary expansion; parities use rows 8k..8n.
        self.expanded = expand_generator(self.generator, self.field)

    @property
    def name(self) -> str:
        return f"CauchyBitmatrixRS({self.k},{self.r})"

    @property
    def unit_alignment(self) -> int:
        """Units are bit-sliced into 8 strips, so sizes align to 8."""
        return W

    # ------------------------------------------------------------------
    # Strip plumbing
    # ------------------------------------------------------------------

    def _to_strips(self, units: np.ndarray) -> np.ndarray:
        """(count, size) units -> (count * 8, size / 8) strips."""
        count, size = units.shape
        if size % W:
            raise DecodingError(
                f"{self.name} needs unit sizes divisible by {W}, got {size}"
            )
        return units.reshape(count * W, size // W)

    def _from_strips(self, strips: np.ndarray, count: int) -> np.ndarray:
        return strips.reshape(count, -1)

    # ------------------------------------------------------------------
    # XOR schedules
    # ------------------------------------------------------------------
    #
    # Every data-path operation below is one binary matrix applied to a
    # strip stack.  Each matrix is compiled once into a CSE'd
    # :class:`XorSchedule` and memoised next to the decode-matrix cache
    # (``cache.xor_schedule.hits/misses`` counters come for free via
    # ``_memoize``); the raw ``xor_encode_strips`` gather stays around in
    # :mod:`repro.gf.bitmatrix` as the oracle the schedule tests pin
    # against.

    def _encode_schedule(self) -> XorSchedule:
        """Schedule computing all parity strips from data strips."""
        return self._memoize(
            "_xor_schedule_cache",
            ("encode",),
            lambda: compile_xor_schedule(self.expanded[self.k * W :]),
        )

    def _decode_schedule(self, chosen) -> XorSchedule:
        """Schedule recovering data strips from the chosen nodes'."""
        chosen = tuple(chosen)

        def build() -> XorSchedule:
            inverse = self.memoized_decode_matrix(
                chosen, lambda: self._binary_decode_inverse(chosen)
            )
            return compile_xor_schedule(inverse)

        return self._memoize("_xor_schedule_cache", ("decode", chosen), build)

    def _node_schedule(self, node: int) -> XorSchedule:
        """Schedule re-encoding one node's strips from data strips."""
        return self._memoize(
            "_xor_schedule_cache",
            ("encode_node", node),
            lambda: compile_xor_schedule(
                self.expanded[node * W : (node + 1) * W]
            ),
        )

    def _repair_schedule(self, failed_node: int, sources) -> XorSchedule:
        """Schedule rebuilding one node from the chosen sources' strips."""
        sources = tuple(sources)

        def build_rows() -> np.ndarray:
            # Compose decode + (for parities) re-encode into one (8, 8k)
            # binary row block over the chosen sources' strips; gf_matmul
            # on {0,1} matrices is exactly GF(2) matrix product.
            inverse = self.memoized_decode_matrix(
                sources, lambda: self._binary_decode_inverse(sources)
            )
            if failed_node < self.k:
                rows = inverse[failed_node * W : (failed_node + 1) * W]
            else:
                rows = gf_matmul(
                    self.expanded[failed_node * W : (failed_node + 1) * W],
                    inverse,
                    self.field,
                )
            rows = np.ascontiguousarray(rows)
            rows.setflags(write=False)
            return rows

        def build() -> XorSchedule:
            rows = self._memoize(
                "_binary_repair_row_cache",
                (failed_node, sources),
                build_rows,
                cap=PACKED_CACHE_CAP,
            )
            return compile_xor_schedule(rows)

        return self._memoize(
            "_xor_schedule_cache",
            ("repair", failed_node, sources),
            build,
            cap=PACKED_CACHE_CAP,
        )

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode(self, data_units: np.ndarray) -> np.ndarray:
        data_units = self.validate_data_units(data_units)
        if data_units.shape[1] % W:
            raise CodeConstructionError(
                f"{self.name} needs unit sizes divisible by {W}, "
                f"got {data_units.shape[1]}"
            )
        data_strips = self._to_strips(data_units)
        parity_strips = self._encode_schedule().apply(data_strips)
        parity_units = self._from_strips(parity_strips, self.r)
        return np.vstack([data_units, parity_units])

    def decode(self, available_units: Mapping[int, np.ndarray]) -> np.ndarray:
        unit_size = require_unit_shapes(available_units, self)
        if unit_size % W:
            raise DecodingError(
                f"{self.name} needs unit sizes divisible by {W}, got {unit_size}"
            )
        available = {
            int(node): np.asarray(unit, dtype=np.uint8)
            for node, unit in available_units.items()
        }
        if all(node in available for node in range(self.k)):
            return np.vstack([available[node] for node in range(self.k)])
        chosen = sorted(available)[: self.k]
        if len(chosen) < self.k:
            raise DecodingError(
                f"{self.name} needs {self.k} surviving units, got {len(chosen)}"
            )
        # Binary decoding matrix: the chosen nodes' strip rows.  The
        # (8k x 8k) GF(2) inversion is the expensive part of decode setup
        # and depends only on which nodes were chosen, so the compiled
        # schedule (and the inverse inside it) is memoised per choice.
        schedule = self._decode_schedule(chosen)
        stacked = self._to_strips(
            np.vstack([available[node] for node in chosen])
        )
        data_strips = schedule.apply(stacked)
        return self._from_strips(data_strips, self.k)

    def _binary_decode_inverse(self, chosen) -> np.ndarray:
        """Invert the chosen nodes' strip rows over GF(2).

        Reuses the GF(256) kernel -- on {0,1} entries its multiply
        degenerates to AND and its addition to XOR.
        """
        rows = np.concatenate(
            [np.arange(node * W, (node + 1) * W) for node in chosen]
        )
        return gf_inv_matrix(self.expanded[rows], self.field)

    # ------------------------------------------------------------------
    # Batched operations (pooled strip XOR)
    # ------------------------------------------------------------------
    #
    # The XOR backend batches differently from the table-based codes:
    # strips of all stripes are pooled side by side into one wide strip
    # matrix, so each output strip's XOR schedule is resolved once per
    # batch (one ``np.flatnonzero`` + one ``xor.reduce``) instead of
    # once per stripe.

    def _pool_strips(self, rows_by_node, nodes, stripes, width) -> np.ndarray:
        """Stack per-stripe strips into a ``(len(nodes)*8, s*w/8)`` pool.

        Column block ``t`` holds stripe ``t``'s strips, so an XOR
        schedule applied to the pool computes all stripes at once.
        """
        strip_len = width // W
        pooled = np.empty((len(nodes) * W, stripes * strip_len), dtype=np.uint8)
        view = pooled.reshape(len(nodes) * W, stripes, strip_len)
        for i, node in enumerate(nodes):
            rows = rows_by_node[node]
            for t in range(stripes):
                view[i * W : (i + 1) * W, t, :] = rows[t].reshape(W, strip_len)
        return pooled

    def _unpool_strips(
        self, strips: np.ndarray, units: int, stripes: int, width: int
    ) -> np.ndarray:
        """Inverse of :meth:`_pool_strips`: ``-> (s, units, w)``."""
        strip_len = width // W
        cube = strips.reshape(units, W, stripes, strip_len)
        return np.ascontiguousarray(
            np.moveaxis(cube, 2, 0).reshape(stripes, units, width)
        )

    def parity_batch(
        self, data: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        data = self.validate_batch_data(data)
        stripes, _, width = data.shape
        if width % W:
            raise CodeConstructionError(
                f"{self.name} needs unit sizes divisible by {W}, got {width}"
            )
        if out is None:
            out = np.empty((stripes, self.r, width), dtype=np.uint8)
        pooled = self._pool_strips(
            {node: data[:, node, :] for node in range(self.k)},
            list(range(self.k)),
            stripes,
            width,
        )
        parity_strips = self._encode_schedule().apply(pooled)
        out[:] = self._unpool_strips(parity_strips, self.r, stripes, width)
        return out

    def decode_batch(
        self,
        available_units: Mapping[int, "np.ndarray | list"],
        slots=None,
    ) -> np.ndarray:
        stripes, width, rows_by_node = self.batch_unit_rows(available_units)
        if width % W:
            raise DecodingError(
                f"{self.name} needs unit sizes divisible by {W}, got {width}"
            )
        out = np.empty((stripes, self.k, width), dtype=np.uint8)
        if all(node in rows_by_node for node in range(self.k)):
            for node in range(self.k):
                rows = rows_by_node[node]
                for t in range(stripes):
                    out[t, node] = rows[t]
        else:
            self._decode_strips(rows_by_node, stripes, width, out)
        return out if slots is None else out[:, list(slots)]

    def _decode_strips(self, rows_by_node, stripes, width, out) -> None:
        chosen = sorted(rows_by_node)[: self.k]
        if len(chosen) < self.k:
            raise DecodingError(
                f"{self.name} needs {self.k} surviving units, got {len(chosen)}"
            )
        schedule = self._decode_schedule(chosen)
        pooled = self._pool_strips(rows_by_node, chosen, stripes, width)
        data_strips = schedule.apply(pooled)
        out[:] = self._unpool_strips(data_strips, self.k, stripes, width)

    def execute_repair_batch(
        self,
        failed_node: int,
        available_units: Mapping[int, "np.ndarray | list"],
        plan: Optional[RepairPlan] = None,
    ):
        failed_node = self.validate_node_index(failed_node)
        stripes, width, rows_by_node = self.batch_unit_rows(available_units)
        if width % W:
            raise RepairError(
                f"{self.name} needs unit sizes divisible by {W}, got {width}"
            )
        if plan is None:
            plan = self.repair_plan_cached(failed_node, rows_by_node.keys())
        sources = list(plan.nodes_contacted)
        for node in sources:
            if node not in rows_by_node:
                raise RepairError(
                    f"plan reads node {node} which is unavailable"
                )

        schedule = self._repair_schedule(failed_node, sources)
        pooled = self._pool_strips(rows_by_node, sources, stripes, width)
        rebuilt_strips = schedule.apply(pooled)
        out = self._unpool_strips(rebuilt_strips, 1, stripes, width)[:, 0, :]
        return out, stripes * plan.bytes_downloaded(width)

    # ------------------------------------------------------------------
    # Repair (same economics as RS)
    # ------------------------------------------------------------------

    def repair_plan(
        self,
        failed_node: int,
        available_nodes: Optional[Iterable[int]] = None,
    ) -> RepairPlan:
        failed_node = self.validate_node_index(failed_node)
        if available_nodes is None:
            survivors = [n for n in range(self.n) if n != failed_node]
        else:
            survivors = sorted(
                {self.validate_node_index(n) for n in available_nodes}
                - {failed_node}
            )
        if len(survivors) < self.k:
            raise RepairError(
                f"{self.name} repair needs {self.k} survivors, "
                f"got {len(survivors)}"
            )
        requests = tuple(
            SymbolRequest(node, (0,)) for node in survivors[: self.k]
        )
        return RepairPlan(
            failed_node=failed_node,
            requests=requests,
            substripes_per_unit=self.substripes_per_unit,
        )

    def repair(
        self,
        failed_node: int,
        fetched: Mapping[int, Mapping[int, np.ndarray]],
    ) -> np.ndarray:
        failed_node = self.validate_node_index(failed_node)
        units: Dict[int, np.ndarray] = {}
        for node, substripes in fetched.items():
            if set(substripes) != {0}:
                raise RepairError(
                    f"{self.name} units have a single substripe 0"
                )
            units[int(node)] = np.asarray(substripes[0], dtype=np.uint8)
        data = self.decode(units)
        if failed_node < self.k:
            return data[failed_node]
        strips = self._node_schedule(failed_node).apply(self._to_strips(data))
        return strips.reshape(-1)
