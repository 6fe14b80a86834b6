"""Systematic Reed-Solomon codes over GF(2^8).

This is the code the Facebook warehouse cluster deploys for cold data
((k=10, r=4), Section 2.1 of the paper): ``k`` data units are multiplied
by a ``(k + r) x k`` MDS generator matrix, producing ``r`` parity units;
any ``k`` of the ``k + r`` units recover the data.

The repair story, which motivates the whole paper: rebuilding a single
unit requires downloading ``k`` full units -- the logical size of the
stripe -- because RS decoding has no cheaper special case for one erasure.
:meth:`ReedSolomonCode.repair_plan` therefore always reads ``k`` survivors
in full, and the measurement study's 180 TB/day of cross-rack recovery
traffic follows from exactly this multiplier.
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
from repro.errors import CodeConstructionError, DecodingError, RepairError
from repro.gf import (
    GF256,
    DEFAULT_FIELD,
    gf_inv_matrix,
    gf_matmul,
    systematic_generator_from_cauchy,
    systematic_generator_from_vandermonde,
)
from repro.gf.packed import PackedMatmul

#: Generator-matrix construction styles.
CONSTRUCTIONS = ("vandermonde", "cauchy")


class ReedSolomonCode(ErasureCode):
    """A systematic (k, r) Reed-Solomon code.

    Parameters
    ----------
    k:
        Number of data units per stripe.
    r:
        Number of parity units per stripe.
    construction:
        ``"vandermonde"`` (default; matches classic RS deployments) or
        ``"cauchy"``.
    field:
        GF(2^8) instance; defaults to the shared ``0x11D`` field.

    Examples
    --------
    >>> import numpy as np
    >>> code = ReedSolomonCode(10, 4)
    >>> data = np.arange(10 * 8, dtype=np.uint8).reshape(10, 8)
    >>> stripe = code.encode(data)
    >>> survivors = {i: stripe[i] for i in range(4, 14)}  # any 10 of 14
    >>> bool(np.array_equal(code.decode(survivors), data))
    True
    """

    substripes_per_unit = 1
    bytewise_linear = True

    def __init__(
        self,
        k: int,
        r: int,
        construction: str = "vandermonde",
        field: Optional[GF256] = None,
    ):
        if k < 1:
            raise CodeConstructionError(f"k must be >= 1, got {k}")
        if r < 1:
            raise CodeConstructionError(f"r must be >= 1, got {r}")
        if k + r > 256:
            raise CodeConstructionError(
                f"GF(256) RS supports k + r <= 256, got {k + r}"
            )
        if construction not in CONSTRUCTIONS:
            raise CodeConstructionError(
                f"unknown construction {construction!r}; expected one of "
                f"{CONSTRUCTIONS}"
            )
        self.k = k
        self.r = r
        self.construction = construction
        self.field = field if field is not None else DEFAULT_FIELD
        if construction == "vandermonde":
            self.generator = systematic_generator_from_vandermonde(k, r, self.field)
        else:
            self.generator = systematic_generator_from_cauchy(k, r, self.field)

    @property
    def name(self) -> str:
        return f"RS({self.k},{self.r})"

    @property
    def parity_matrix(self) -> np.ndarray:
        """The ``r x k`` bottom block of the generator matrix."""
        return self.generator[self.k:]

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode(self, data_units: np.ndarray) -> np.ndarray:
        data_units = self.validate_data_units(data_units)
        stripe = np.empty((self.n, data_units.shape[1]), dtype=np.uint8)
        stripe[: self.k] = data_units
        gf_matmul(self.parity_matrix, data_units, self.field, out=stripe[self.k :])
        return stripe

    def decode(self, available_units: Mapping[int, np.ndarray]) -> np.ndarray:
        unit_size = require_unit_shapes(available_units, self)
        available = {
            int(node): np.asarray(unit, dtype=np.uint8)
            for node, unit in available_units.items()
        }
        data_nodes = [node for node in sorted(available) if node < self.k]
        if len(data_nodes) == self.k:
            return np.vstack([available[node] for node in range(self.k)])
        chosen = sorted(available)[: self.k]
        if len(chosen) < self.k:
            raise DecodingError(
                f"{self.name} needs {self.k} surviving units, got {len(chosen)}"
            )
        # The inverted decoding matrix depends only on which k survivors
        # were chosen; with single failures dominating (Section 2.2) the
        # same few matrices recur constantly, so memoise the inversion.
        inverse = self.memoized_decode_matrix(
            tuple(chosen),
            lambda: gf_inv_matrix(self.generator[chosen], self.field),
        )
        stacked = np.vstack([available[node] for node in chosen])
        data = gf_matmul(inverse, stacked, self.field)
        return data.reshape(self.k, unit_size)

    # ------------------------------------------------------------------
    # Batched encode (fused packed-table kernels; decode and repair are
    # compiled by the base class -- the code is bytewise linear)
    # ------------------------------------------------------------------

    def _packed_parity(self) -> PackedMatmul:
        return self._memoize(
            "_packed_matmul_cache",
            "parity",
            lambda: PackedMatmul(self.parity_matrix, self.field),
            cap=PACKED_CACHE_CAP,
        )

    def parity_batch(
        self, data: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        data = self.validate_batch_data(data)
        stripes, _, width = data.shape
        if out is None:
            out = np.empty((stripes, self.r, width), dtype=np.uint8)
        self._apply_packed_parity(self._packed_parity(), data, out)
        return out

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def repair_plan(
        self,
        failed_node: int,
        available_nodes: Optional[Iterable[int]] = None,
    ) -> RepairPlan:
        """Plan a single-unit repair: read ``k`` survivors in full.

        The ``k`` lowest-indexed survivors are chosen; with all other
        nodes alive this reads nodes ``0..k-1`` (skipping the failed
        node), mirroring how HDFS-RAID prefers data blocks as sources.
        """
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
        sources = survivors[: self.k]
        requests = tuple(SymbolRequest(node, (0,)) for node in sources)
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
                    f"RS units have a single substripe; got {set(substripes)} "
                    f"for node {node}"
                )
            units[int(node)] = np.asarray(substripes[0], dtype=np.uint8)
        if len(units) < self.k:
            raise RepairError(
                f"{self.name} repair needs {self.k} source units, got {len(units)}"
            )
        data = self.decode(units)
        if failed_node < self.k:
            return data[failed_node]
        coefficients = self.generator[failed_node]
        return self.field.dot(coefficients, data)
