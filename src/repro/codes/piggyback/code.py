"""The Piggybacked-RS code implementation.

Construction (Section 3.1, generalising Fig. 4): each unit is split into
two halves, the *first* and *second* subunit, which form two byte-level
substripes ``a`` and ``b`` of a base (k, r) RS code.  Parity unit ``j``
stores::

    [ f_j(a) | f_j(b) + P[j] . a ]

where ``f_j`` is the base RS parity function and ``P`` is the design's
piggyback coefficient matrix (row 0 zero).  Because every first subunit
is a clean RS symbol of substripe ``a``, and the piggybacks are functions
of ``a`` alone, decoding proceeds substripe-a-first and the code tolerates
any ``r`` unit failures -- it is MDS, like the RS code it wraps, with
identical storage overhead.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.codes.base import (
    PACKED_CACHE_CAP,
    ErasureCode,
    RepairPlan,
    require_unit_shapes,
)
from repro.codes.piggyback.design import PiggybackDesign
from repro.codes.piggyback import repair as planning
from repro.codes.rs import ReedSolomonCode
from repro.errors import CodeConstructionError, DecodingError, RepairError
from repro.gf import GF256, DEFAULT_FIELD, gf_matmul
from repro.gf.packed import PackedMatmul


class PiggybackedRSCode(ErasureCode):
    """A (k, r) Piggybacked-RS code over two byte-level substripes.

    Parameters
    ----------
    k, r:
        Base RS parameters (the warehouse cluster uses (10, 4)).
    design:
        Piggyback coefficient design; defaults to
        :meth:`PiggybackDesign.xor_design`, the near-equal partition of
        all data units over the ``r - 1`` piggyback-capable parities.
    construction:
        Generator construction of the base RS code.
    field:
        GF(2^8) instance.

    Examples
    --------
    >>> import numpy as np
    >>> code = PiggybackedRSCode(10, 4)
    >>> data = np.random.default_rng(0).integers(
    ...     0, 256, size=(10, 64), dtype=np.uint8)
    >>> stripe = code.encode(data)
    >>> unit, downloaded = code.execute_repair(
    ...     3, {i: stripe[i] for i in range(14) if i != 3})
    >>> bool(np.array_equal(unit, stripe[3]))
    True
    >>> downloaded < 10 * 64  # cheaper than the RS download of k units
    True
    """

    substripes_per_unit = 2
    bytewise_linear = True

    def __init__(
        self,
        k: int,
        r: int,
        design: Optional[PiggybackDesign] = None,
        construction: str = "vandermonde",
        field: Optional[GF256] = None,
    ):
        self.field = field if field is not None else DEFAULT_FIELD
        self._rs = ReedSolomonCode(k, r, construction, self.field)
        self.k = k
        self.r = r
        self.construction = construction
        self.design = design if design is not None else PiggybackDesign.xor_design(k, r)
        if self.design.k != k or self.design.r != r:
            raise CodeConstructionError(
                f"design is for ({self.design.k},{self.design.r}), "
                f"code is ({k},{r})"
            )
        #: Optional display name override (used by Hitchhiker variants).
        self.variant: Optional[str] = None

    @property
    def name(self) -> str:
        base = self.variant if self.variant else "PiggybackedRS"
        return f"{base}({self.k},{self.r})"

    @property
    def generator(self) -> np.ndarray:
        """Generator matrix of the base RS code (per substripe)."""
        return self._rs.generator

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode(self, data_units: np.ndarray) -> np.ndarray:
        data_units = self.validate_data_units(data_units)
        half = data_units.shape[1] // 2
        a = data_units[:, :half]
        b = data_units[:, half:]
        # Parities are computed straight into their stripe views; only
        # the piggyback addend needs a temporary of its own.
        stripe = np.empty((self.n, data_units.shape[1]), dtype=np.uint8)
        stripe[: self.k] = data_units
        parity_a = stripe[self.k :, :half]
        parity_b = stripe[self.k :, half:]
        gf_matmul(self._rs.parity_matrix, a, self.field, out=parity_a)
        gf_matmul(self._rs.parity_matrix, b, self.field, out=parity_b)
        piggybacks = gf_matmul(self.design.matrix, a, self.field)
        np.bitwise_xor(parity_b, piggybacks, out=parity_b)
        return stripe

    def decode(self, available_units: Mapping[int, np.ndarray]) -> np.ndarray:
        unit_size = require_unit_shapes(available_units, self)
        half = unit_size // 2
        available = {
            int(node): np.asarray(unit, dtype=np.uint8)
            for node, unit in available_units.items()
        }
        if len(available) < self.k:
            raise DecodingError(
                f"{self.name} needs {self.k} surviving units, got {len(available)}"
            )
        # Step 1: substripe a is a clean RS codeword in the first subunits.
        a_units = {node: unit[:half] for node, unit in available.items()}
        a_data = self._rs.decode(a_units)
        # Step 2: strip piggybacks from surviving parity second subunits,
        # then substripe b is a clean RS codeword too.
        piggybacks = gf_matmul(self.design.matrix, a_data, self.field)
        b_units: Dict[int, np.ndarray] = {}
        for node, unit in available.items():
            second = unit[half:]
            if node >= self.k:
                second = np.bitwise_xor(second, piggybacks[node - self.k])
            b_units[node] = second
        b_data = self._rs.decode(b_units)
        return np.hstack([a_data, b_data])

    # ------------------------------------------------------------------
    # Batched encode (fused packed-table kernels; decode and repair are
    # compiled by the base class -- the code is bytewise linear)
    # ------------------------------------------------------------------

    def parity_batch(
        self, data: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        data = self.validate_batch_data(data)
        stripes, _, width = data.shape
        half = width // 2
        if out is None:
            out = np.empty((stripes, self.r, width), dtype=np.uint8)
        rs_kernel = self._memoize(
            "_packed_matmul_cache",
            "parity",
            lambda: PackedMatmul(self._rs.parity_matrix, self.field),
            cap=PACKED_CACHE_CAP,
        )
        pb_kernel = self._memoize(
            "_packed_matmul_cache",
            "piggyback",
            lambda: PackedMatmul(self.design.matrix, self.field),
            cap=PACKED_CACHE_CAP,
        )
        a = data[:, :, :half]
        b = data[:, :, half:]
        self._apply_packed_parity(rs_kernel, a, out[:, :, :half])
        self._apply_packed_parity(rs_kernel, b, out[:, :, half:])
        self._apply_packed_parity(
            pb_kernel, a, out[:, :, half:], accumulate=True
        )
        return out

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def repair_plan(
        self,
        failed_node: int,
        available_nodes: Optional[Iterable[int]] = None,
    ) -> RepairPlan:
        failed_node = self.validate_node_index(failed_node)
        survivors = planning.survivors_from(self.n, failed_node, available_nodes)
        plan = planning.plan_piggyback_repair(self.design, failed_node, survivors)
        if plan is not None:
            return plan
        return planning.plan_full_repair(self.k, self.n, failed_node, survivors)

    def repair(
        self,
        failed_node: int,
        fetched: Mapping[int, Mapping[int, np.ndarray]],
    ) -> np.ndarray:
        failed_node = self.validate_node_index(failed_node)
        normalised: Dict[int, Dict[int, np.ndarray]] = {
            int(node): {
                int(sub): np.asarray(payload, dtype=np.uint8)
                for sub, payload in substripes.items()
            }
            for node, substripes in fetched.items()
        }
        # The full path always ships both substripes of every source; the
        # piggyback path always includes at least one single-substripe
        # source (the clean parity 0).  That distinguishes the plan shapes.
        partial = any(
            set(substripes) != {0, 1} for substripes in normalised.values()
        )
        if partial:
            return self._repair_piggyback(failed_node, normalised)
        return self._repair_full(failed_node, normalised)

    # ------------------------------------------------------------------
    # Repair internals
    # ------------------------------------------------------------------

    def _repair_full(
        self, failed_node: int, fetched: Mapping[int, Mapping[int, np.ndarray]]
    ) -> np.ndarray:
        units: Dict[int, np.ndarray] = {}
        for node, substripes in fetched.items():
            if set(substripes) != {0, 1}:
                raise RepairError(
                    f"full repair needs both substripes of node {node}"
                )
            units[node] = np.concatenate([substripes[0], substripes[1]])
        data = self.decode(units)
        stripe = self.encode(data)
        return stripe[failed_node]

    def _repair_piggyback(
        self, failed_node: int, fetched: Mapping[int, Mapping[int, np.ndarray]]
    ) -> np.ndarray:
        carrier = self.design.carrier_parity(failed_node)
        if carrier is None:
            raise RepairError(
                f"node {failed_node} has no piggyback repair path"
            )
        parity0 = self.k
        carrier_node = self.k + carrier
        required = planning.piggyback_path_sources(self.design, failed_node)
        assert required is not None
        missing = required - set(fetched)
        if missing:
            raise RepairError(
                f"piggyback repair of node {failed_node} is missing "
                f"sources {sorted(missing)}"
            )
        # Step 1: decode substripe b from clean second subunits.
        b_units: Dict[int, np.ndarray] = {}
        for node in required:
            if node == carrier_node:
                continue  # piggybacked symbol: not clean
            substripes = fetched[node]
            if planning.SECOND_SUBSTRIPE not in substripes:
                raise RepairError(
                    f"piggyback repair needs the second subunit of node {node}"
                )
            b_units[node] = substripes[planning.SECOND_SUBSTRIPE]
        b_data = self._rs.decode(b_units)
        b_failed = b_data[failed_node]
        # Step 2: strip f_carrier(b) from the piggybacked symbol.
        parity_row = self._rs.generator[carrier_node]
        f_carrier_b = self.field.dot(parity_row, b_data)
        piggybacked_symbol = fetched[carrier_node][planning.SECOND_SUBSTRIPE]
        piggyback_value = np.bitwise_xor(piggybacked_symbol, f_carrier_b)
        # Step 3: cancel the other group members and divide by the
        # failed unit's own coefficient.
        for member in self.design.group_of(failed_node):
            if member == failed_node:
                continue
            member_first = fetched[member].get(planning.FIRST_SUBSTRIPE)
            if member_first is None:
                raise RepairError(
                    f"piggyback repair needs the first subunit of group "
                    f"member {member}"
                )
            coefficient = self.design.coefficient(carrier, member)
            piggyback_value = np.bitwise_xor(
                piggyback_value, self.field.scale(coefficient, member_first)
            )
        own_coefficient = self.design.coefficient(carrier, failed_node)
        a_failed = self.field.scale(
            self.field.inv(own_coefficient), piggyback_value
        )
        return np.concatenate([a_failed, b_failed])
