"""Azure-style Local Reconstruction Codes (LRC) -- related-work baseline.

Section 5 of the paper contrasts Piggybacked-RS with LRCs [Huang et al.,
USENIX ATC 2012; "XORing elephants", VLDB 2013]: LRCs also cut recovery
download, but by *adding* parity units, so they are not storage-optimal
(not MDS).  This module implements the standard LRC(k, l, g) layout so the
comparison benches can measure both sides of that trade-off:

- ``k`` data units are split into ``l`` equal local groups;
- each group gets one *local parity*: the XOR of its members;
- ``g`` *global parities* are RS-style combinations of all ``k`` units.

Unit order within a stripe: data ``0..k-1``, local parities ``k..k+l-1``
(one per group, in group order), global parities ``k+l..k+l+g-1``.

Repairing a data unit or local parity reads only its local group
(``k/l`` units); repairing a global parity reads ``k`` units.  The code
tolerates any ``g + 1`` failures (information-theoretically it can decode
whenever the surviving generator rows have full rank, which the decoder
checks directly).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.codes.base import (
    PACKED_CACHE_CAP,
    ErasureCode,
    RepairPlan,
    SymbolRequest,
    require_unit_shapes,
)
from repro.errors import CodeConstructionError, DecodingError, RepairError
from repro.gf import GF256, DEFAULT_FIELD, cauchy_matrix, gf_matmul
from repro.gf.linalg import gf_inv_matrix, gf_rank
from repro.gf.packed import PackedMatmul


class LRCCode(ErasureCode):
    """LRC(k, l, g): ``l`` local XOR parities plus ``g`` global parities.

    Parameters
    ----------
    k:
        Number of data units; must be divisible by ``l``.
    l:
        Number of local groups (and local parities).
    g:
        Number of global parities.

    Examples
    --------
    >>> import numpy as np
    >>> code = LRCCode(k=10, l=2, g=2)
    >>> code.n, code.storage_overhead
    (14, 1.4)
    >>> code.repair_plan(0).units_downloaded  # local repair: group of 5
    5.0
    """

    substripes_per_unit = 1
    bytewise_linear = True

    def __init__(
        self,
        k: int,
        l: int,
        g: int,
        field: Optional[GF256] = None,
    ):
        if k < 1 or l < 1 or g < 0:
            raise CodeConstructionError(f"invalid LRC parameters ({k},{l},{g})")
        if k % l:
            raise CodeConstructionError(
                f"k={k} must be divisible by the number of local groups l={l}"
            )
        if k + l + g > 256:
            raise CodeConstructionError(
                f"GF(256) supports stripes of at most 256 units, got {k + l + g}"
            )
        self.field = field if field is not None else DEFAULT_FIELD
        self.k = k
        self.l = l
        self.g = g
        self.r = l + g
        self.group_size = k // l
        # Full (n x k) generator: identity, local XOR rows, global rows.
        generator = np.zeros((self.n, k), dtype=np.uint8)
        generator[:k] = np.eye(k, dtype=np.uint8)
        for group in range(l):
            members = self.group_members(group)
            generator[k + group, members] = 1
        if g:
            generator[k + l :] = cauchy_matrix(g, k, field=self.field)
        self.generator = generator

    @property
    def name(self) -> str:
        return f"LRC({self.k},{self.l},{self.g})"

    @property
    def is_mds(self) -> bool:
        """LRCs trade storage optimality for cheap local repair."""
        return False

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------

    def group_of_data_unit(self, data_unit: int) -> int:
        """Local group index of a data unit."""
        if not 0 <= data_unit < self.k:
            raise RepairError(f"{data_unit} is not a data unit")
        return data_unit // self.group_size

    def group_members(self, group: int) -> List[int]:
        """Data-unit indices of a local group."""
        if not 0 <= group < self.l:
            raise RepairError(f"group {group} outside [0, {self.l})")
        start = group * self.group_size
        return list(range(start, start + self.group_size))

    def local_parity_node(self, group: int) -> int:
        """Stripe index of a group's local parity unit."""
        return self.k + group

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode(self, data_units: np.ndarray) -> np.ndarray:
        data_units = self.validate_data_units(data_units)
        stripe = np.empty((self.n, data_units.shape[1]), dtype=np.uint8)
        stripe[: self.k] = data_units
        gf_matmul(
            self.generator[self.k :], data_units, self.field, out=stripe[self.k :]
        )
        return stripe

    def decode(self, available_units: Mapping[int, np.ndarray]) -> np.ndarray:
        unit_size = require_unit_shapes(available_units, self)
        available = {
            int(node): np.asarray(unit, dtype=np.uint8)
            for node, unit in available_units.items()
        }
        if all(node in available for node in range(self.k)):
            return np.vstack([available[node] for node in range(self.k)])
        chosen = self._independent_rows(sorted(available))
        if chosen is None:
            raise DecodingError(
                f"{self.name}: surviving units {sorted(available)} do not "
                f"span the data (rank < k)"
            )
        inverse = self.memoized_decode_matrix(
            tuple(chosen),
            lambda: gf_inv_matrix(self.generator[chosen], self.field),
        )
        stacked = np.vstack([available[node] for node in chosen])
        data = gf_matmul(inverse, stacked, self.field)
        return data.reshape(self.k, unit_size)

    def _independent_rows(self, nodes: List[int]) -> Optional[List[int]]:
        """Greedily pick ``k`` nodes whose generator rows are independent.

        Memoised per survivor tuple: the greedy rank checks dominate
        plan/decode setup cost, and the simulator asks about the same few
        survivor patterns over and over.
        """
        return self._memoize(
            "_independent_rows_cache",
            tuple(nodes),
            lambda: self._independent_rows_uncached(nodes),
        )

    def _independent_rows_uncached(self, nodes: List[int]) -> Optional[List[int]]:
        chosen: List[int] = []
        for node in nodes:
            candidate = chosen + [node]
            if gf_rank(self.generator[candidate], self.field) == len(candidate):
                chosen = candidate
            if len(chosen) == self.k:
                return chosen
        return None

    def tolerates(self, failed_nodes: Iterable[int]) -> bool:
        """Whether the data survives the given set of failures."""
        failed = {self.validate_node_index(n) for n in failed_nodes}
        survivors = [n for n in range(self.n) if n not in failed]
        return self._independent_rows(survivors) is not None

    # ------------------------------------------------------------------
    # Batched encode (fused packed-table kernels; decode and repair are
    # compiled by the base class -- the code is bytewise linear)
    # ------------------------------------------------------------------

    def parity_batch(
        self, data: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        data = self.validate_batch_data(data)
        stripes, _, width = data.shape
        if out is None:
            out = np.empty((stripes, self.r, width), dtype=np.uint8)
        kernel = self._memoize(
            "_packed_matmul_cache",
            "parity",
            lambda: PackedMatmul(self.generator[self.k :], self.field),
            cap=PACKED_CACHE_CAP,
        )
        self._apply_packed_parity(kernel, data, out)
        return out

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def _local_repair_sources(self, failed_node: int) -> Tuple[int, List[int]]:
        """(group, sources) for a locally repairable node."""
        if failed_node < self.k:
            group = self.group_of_data_unit(failed_node)
            sources = [
                n for n in self.group_members(group) if n != failed_node
            ]
            sources.append(self.local_parity_node(group))
        else:
            group = failed_node - self.k
            sources = self.group_members(group)
        return group, sources

    def repair_plan(
        self,
        failed_node: int,
        available_nodes: Optional[Iterable[int]] = None,
    ) -> RepairPlan:
        failed_node = self.validate_node_index(failed_node)
        if available_nodes is None:
            survivors = set(range(self.n)) - {failed_node}
        else:
            survivors = {
                self.validate_node_index(n) for n in available_nodes
            } - {failed_node}
        if failed_node < self.k + self.l:
            __, sources = self._local_repair_sources(failed_node)
            if set(sources) <= survivors:
                requests = tuple(
                    SymbolRequest(node, (0,)) for node in sorted(sources)
                )
                return RepairPlan(
                    failed_node=failed_node,
                    requests=requests,
                    substripes_per_unit=self.substripes_per_unit,
                )
        # Global parity, or local repair blocked: decode from independent
        # survivors and re-encode.
        chosen = self._independent_rows(sorted(survivors))
        if chosen is None:
            raise RepairError(
                f"{self.name}: cannot repair node {failed_node} from "
                f"survivors {sorted(survivors)}"
            )
        requests = tuple(SymbolRequest(node, (0,)) for node in chosen)
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
                raise RepairError("LRC units have a single substripe 0")
            units[int(node)] = np.asarray(substripes[0], dtype=np.uint8)
        if failed_node < self.k + self.l:
            __, sources = self._local_repair_sources(failed_node)
            if set(sources) == set(units):
                # XOR of the group (data or its local parity) yields the
                # missing unit directly.
                result = np.zeros_like(units[sources[0]])
                for node in sources:
                    np.bitwise_xor(result, units[node], out=result)
                return result
        data = self.decode(units)
        if failed_node < self.k:
            return data[failed_node]
        return self.field.dot(self.generator[failed_node], data)
