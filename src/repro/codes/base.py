"""Common interface for erasure codes and their repair plans.

Terminology (matching the paper, Section 1-2):

- A *stripe* consists of ``n = k + r`` *units* stored on distinct nodes:
  ``k`` data units and ``r`` parity units.  In the warehouse cluster a
  unit is a 256 MB HDFS block.
- A *unit* is a byte payload.  Codes built from multiple byte-level
  substripes (the Piggybacked-RS code couples two) divide each unit into
  ``substripes_per_unit`` equal contiguous *subunits*; the code operates
  on corresponding subunits across nodes.  Plain RS has
  ``substripes_per_unit == 1``.
- *Repair* of a failed unit downloads some set of subunits from surviving
  nodes.  The network cost of the paper's study is exactly the byte count
  of those downloads, so repair is described by an explicit
  :class:`RepairPlan` that the cluster simulator meters.

All payloads are numpy ``uint8`` arrays.  ``encode`` is systematic: the
first ``k`` output units are the data units unchanged.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DecodingError, EncodingError, RepairError
from repro.gf import backends
from repro.gf.packed import PackedMatmul, PackedRow, _batch_contiguous
from repro.observability import metrics

#: Per-code cap on memoised decode matrices / repair plans.  Real failure
#: patterns are heavily skewed (98.08% of degraded stripes miss exactly
#: one unit, Section 2.2), so a few hundred survivor-set keys covers
#: everything a simulation run produces; beyond that, evict oldest-first.
MEMO_CAP = 512

#: Cap on memoised packed gather-table kernels.  Each entry holds about
#: 1.25 MiB of tables for a (10, 4) code, so this cap bounds bytes, not
#: just keys; the skewed failure-pattern distribution means a handful of
#: entries gets a near-perfect hit rate anyway.
PACKED_CACHE_CAP = 16

#: Below this unit width a stripe batch is pooled into one ``(k, s*w)``
#: matrix so a single packed-kernel call amortises per-stripe Python
#: overhead; at or above it each stripe already fills whole kernel
#: chunks and pooling would only add copies.
POOL_WIDTH = 1 << 12

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MEMO_MISSING = object()

#: cache attribute name -> (hit counter, miss counter), built lazily so
#: the hot memo path never re-derives metric name strings.
_CACHE_COUNTER_NAMES: Dict[str, Tuple[str, str]] = {}


def _cache_counters(cache_name: str) -> Tuple[str, str]:
    names = _CACHE_COUNTER_NAMES.get(cache_name)
    if names is None:
        base = cache_name.strip("_")
        if base.endswith("_cache"):
            base = base[: -len("_cache")]
        names = (f"cache.{base}.hits", f"cache.{base}.misses")
        _CACHE_COUNTER_NAMES[cache_name] = names
    return names


@dataclass(frozen=True)
class SymbolRequest:
    """A request to read some subunits of one surviving node's unit.

    Attributes
    ----------
    node:
        Index of the surviving node in the stripe, in ``[0, n)``.
    substripes:
        Sorted tuple of substripe indices to read from that node's unit,
        each in ``[0, substripes_per_unit)``.
    """

    node: int
    substripes: Tuple[int, ...]

    def __post_init__(self):
        if not self.substripes:
            raise RepairError("a SymbolRequest must request at least one substripe")
        if tuple(sorted(set(self.substripes))) != self.substripes:
            raise RepairError("substripes must be sorted and unique")

    def fraction_of_unit(self, substripes_per_unit: int) -> float:
        """Fraction of the node's unit that this request reads."""
        return len(self.substripes) / substripes_per_unit


@dataclass(frozen=True)
class RepairPlan:
    """A complete description of one unit-repair operation.

    The plan is *declarative*: it lists which subunits to read from which
    surviving nodes.  :meth:`ErasureCode.repair` consumes exactly these
    subunits; the simulator charges exactly these bytes to the network.

    Attributes
    ----------
    failed_node:
        The stripe index of the unit being rebuilt.
    requests:
        One :class:`SymbolRequest` per surviving node contacted.
    substripes_per_unit:
        Copied from the owning code, so byte accounting needs no
        back-reference.
    """

    failed_node: int
    requests: Tuple[SymbolRequest, ...]
    substripes_per_unit: int = 1

    def __post_init__(self):
        nodes = [request.node for request in self.requests]
        if len(set(nodes)) != len(nodes):
            raise RepairError("repair plan contacts a node twice")
        if self.failed_node in nodes:
            raise RepairError("repair plan reads from the failed node")

    @property
    def nodes_contacted(self) -> Tuple[int, ...]:
        """Stripe indices of the surviving nodes read from."""
        return tuple(request.node for request in self.requests)

    @property
    def num_connections(self) -> int:
        """How many distinct nodes the repair connects to."""
        return len(self.requests)

    @property
    def subunits_read(self) -> int:
        """Total number of subunits transferred."""
        return sum(len(request.substripes) for request in self.requests)

    @property
    def units_downloaded(self) -> float:
        """Total download in units (fractions of a full unit)."""
        return self.subunits_read / self.substripes_per_unit

    def bytes_downloaded(self, unit_size: int) -> int:
        """Total download in bytes for a stripe whose units are ``unit_size``.

        ``unit_size`` must be divisible by ``substripes_per_unit`` (codes
        enforce this on their payloads as well).
        """
        if unit_size % self.substripes_per_unit:
            raise RepairError(
                f"unit size {unit_size} not divisible by "
                f"{self.substripes_per_unit} substripes"
            )
        return self.subunits_read * (unit_size // self.substripes_per_unit)


class ErasureCode(abc.ABC):
    """Abstract base class for all erasure codes in the library.

    Subclasses define the class attributes/properties ``k``, ``r`` and
    ``substripes_per_unit`` and implement :meth:`encode`,
    :meth:`decode`, :meth:`repair_plan` and :meth:`repair`.
    """

    #: Number of data units per stripe.
    k: int
    #: Number of parity units per stripe.
    r: int
    #: How many byte-level substripes each unit is divided into.
    substripes_per_unit: int = 1
    #: Whether ``decode`` / ``repair`` are bytewise GF(2^8)-linear: each
    #: byte of each output subunit is one fixed combination of the same
    #: byte of the input subunits.  Such codes (which define ``field``)
    #: get compiled batch decode and repair (see :meth:`_linear_map`).
    bytewise_linear: bool = False

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Total number of units (nodes) per stripe."""
        return self.k + self.r

    @property
    def unit_alignment(self) -> int:
        """Byte multiple unit sizes must satisfy.

        Defaults to the substripe count; backends with internal
        bit-slicing (e.g. the Cauchy bit-matrix codec) require more.
        The block codec pads stripe widths to this alignment.
        """
        return self.substripes_per_unit

    @property
    def storage_overhead(self) -> float:
        """Physical-to-logical storage ratio ``n / k`` (1.4 for (10,4))."""
        return self.n / self.k

    @property
    def is_mds(self) -> bool:
        """Whether the code is Maximum Distance Separable.

        MDS codes decode from *any* ``k`` surviving units and are
        storage-optimal for their fault tolerance; RS and Piggybacked-RS
        are MDS, LRC is not.
        """
        return True

    @property
    def name(self) -> str:
        """Human-readable identifier used in benches and reports."""
        return f"{type(self).__name__}({self.k},{self.r})"

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def encode(self, data_units: np.ndarray) -> np.ndarray:
        """Systematically encode ``k`` data units into ``n`` stripe units.

        Parameters
        ----------
        data_units:
            Array of shape ``(k, unit_size)`` and dtype ``uint8``.
            ``unit_size`` must be a positive multiple of
            ``substripes_per_unit``.

        Returns
        -------
        Array of shape ``(n, unit_size)``; rows ``0..k-1`` equal the
        input data units.
        """

    @abc.abstractmethod
    def decode(self, available_units: Mapping[int, np.ndarray]) -> np.ndarray:
        """Recover the ``k`` data units from surviving units.

        Parameters
        ----------
        available_units:
            Maps stripe index to that node's full unit payload.  MDS
            codes require any ``k`` entries; non-MDS codes may need more
            depending on which nodes survive.

        Returns
        -------
        Array of shape ``(k, unit_size)``: the original data units.

        Raises
        ------
        DecodingError
            If the surviving set is insufficient.
        """

    @abc.abstractmethod
    def repair_plan(
        self,
        failed_node: int,
        available_nodes: Optional[Iterable[int]] = None,
    ) -> RepairPlan:
        """Plan the cheapest supported repair of one failed unit.

        Parameters
        ----------
        failed_node:
            Stripe index in ``[0, n)`` of the unit to rebuild.
        available_nodes:
            Iterable of surviving stripe indices; defaults to all nodes
            except ``failed_node``.  The plan only reads from these.

        Raises
        ------
        RepairError
            If the survivors cannot rebuild the failed unit.
        """

    @abc.abstractmethod
    def repair(
        self,
        failed_node: int,
        fetched: Mapping[int, Mapping[int, np.ndarray]],
    ) -> np.ndarray:
        """Rebuild a failed unit from the subunits named by its plan.

        Parameters
        ----------
        failed_node:
            Stripe index of the unit to rebuild.
        fetched:
            ``fetched[node][substripe]`` is the requested subunit payload
            from a surviving node, exactly as named by the
            :class:`RepairPlan` this call is executing.

        Returns
        -------
        The rebuilt unit, shape ``(unit_size,)``.
        """

    # ------------------------------------------------------------------
    # Memoisation of derived matrices and plans
    # ------------------------------------------------------------------
    #
    # Codes are immutable after construction (generator matrices and
    # designs never change), so anything derived purely from a survivor
    # set -- an inverted decoding matrix, a repair plan -- can be cached
    # on the instance.  The cluster simulator replays the same few
    # failure patterns millions of times, which makes these caches
    # effectively O(1) lookups on the recovery hot path.

    def __getstate__(self):
        """Pickle without memoised caches.

        The caches (``*_cache`` attributes) are pure derived state and
        can hold megabytes of packed gather tables; dropping them keeps
        code objects cheap to pickle into worker processes, which
        rebuild whatever they need on first use.
        """
        return {
            name: value
            for name, value in self.__dict__.items()
            if not name.endswith("_cache")
        }

    def _memoize(self, cache_name: str, key, builder: Callable, cap: int = MEMO_CAP):
        """Return ``builder()`` memoised under ``key`` in a capped cache.

        ``cap`` defaults to :data:`MEMO_CAP`; callers caching large
        values (e.g. packed gather tables, ~1.25 MiB each) pass a much
        smaller cap so the cache stays bounded in bytes, not just keys.
        """
        cache = self.__dict__.get(cache_name)
        if cache is None:
            cache = self.__dict__[cache_name] = OrderedDict()
        value = cache.get(key, _MEMO_MISSING)
        m = metrics()
        if value is _MEMO_MISSING:
            if m is not None:
                m.inc(_cache_counters(cache_name)[1])
            value = builder()
            while len(cache) >= cap:
                cache.popitem(last=False)
            cache[key] = value
        else:
            if m is not None:
                m.inc(_cache_counters(cache_name)[0])
            cache.move_to_end(key)
        return value

    def memoized_decode_matrix(
        self, key, builder: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Memoise an inverted decoding matrix for one survivor selection.

        ``key`` must uniquely describe the selection (the sorted tuple of
        chosen stripe indices).  The cached array is marked read-only
        because it is shared across calls.
        """

        def build() -> np.ndarray:
            matrix = np.asarray(builder(), dtype=np.uint8)
            matrix.setflags(write=False)
            return matrix

        return self._memoize("_decode_matrix_cache", key, build)

    def repair_plan_cached(
        self,
        failed_node: int,
        available_nodes: Optional[Iterable[int]] = None,
    ) -> RepairPlan:
        """Memoising front-end to :meth:`repair_plan`.

        Keyed by ``(failed_node, sorted survivor tuple)``; plans are
        frozen dataclasses, so sharing one instance across callers is
        safe.  ``available_nodes=None`` (everyone else alive) is its own
        key -- the overwhelmingly common single-failure case.
        """
        failed_node = self.validate_node_index(failed_node)
        if available_nodes is None:
            survivors_key = None
        else:
            survivors_key = tuple(sorted({int(n) for n in available_nodes}))
        return self._memoize(
            "_repair_plan_cache",
            (failed_node, survivors_key),
            lambda: self.repair_plan(
                failed_node,
                survivors_key if survivors_key is not None else None,
            ),
        )

    def repair_plan_retry(
        self,
        failed_node: int,
        available_nodes: Iterable[int],
        quarantined: Iterable[int],
    ) -> RepairPlan:
        """Re-plan a repair after survivors were quarantined as corrupt.

        The integrity layer calls this when a rebuilt unit failed its
        checksum: the corrupt survivors are excluded and a fresh plan is
        drawn over the remaining ones.  Shares the
        :meth:`repair_plan_cached` memo (the reduced survivor tuple is
        just another key), but failures are re-raised with the
        quarantine context so an unrecoverable stripe names the units
        that poisoned it.

        Raises
        ------
        RepairError
            If the survivors minus the quarantined set cannot rebuild
            the failed unit.
        """
        failed_node = self.validate_node_index(failed_node)
        excluded = {self.validate_node_index(node) for node in quarantined}
        survivors = sorted(
            {self.validate_node_index(node) for node in available_nodes}
            - excluded
            - {failed_node}
        )
        try:
            return self.repair_plan_cached(failed_node, survivors)
        except (RepairError, DecodingError) as exc:
            raise RepairError(
                f"{self.name}: cannot repair unit {failed_node} with "
                f"quarantined survivor(s) {sorted(excluded)} excluded "
                f"({len(survivors)} usable survivors remain): {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Shared validation and convenience helpers
    # ------------------------------------------------------------------

    def validate_data_units(self, data_units: np.ndarray) -> np.ndarray:
        """Check shape/dtype of encoder input and return it as ``uint8``."""
        data_units = np.asarray(data_units)
        if data_units.ndim != 2:
            raise EncodingError(
                f"expected 2-d (k, unit_size) data, got shape {data_units.shape}"
            )
        if data_units.shape[0] != self.k:
            raise EncodingError(
                f"{self.name} expects {self.k} data units, got {data_units.shape[0]}"
            )
        unit_size = data_units.shape[1]
        if unit_size <= 0:
            raise EncodingError("unit size must be positive")
        if unit_size % self.substripes_per_unit:
            raise EncodingError(
                f"unit size {unit_size} must be divisible by "
                f"{self.substripes_per_unit} substripes"
            )
        if data_units.dtype != np.uint8:
            data_units = data_units.astype(np.uint8)
        return data_units

    def validate_node_index(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self.n:
            raise RepairError(
                f"node index {node} outside stripe of {self.n} units"
            )
        return node

    def split_unit(self, unit: np.ndarray) -> List[np.ndarray]:
        """Split one unit payload into its ``substripes_per_unit`` subunits."""
        unit = np.asarray(unit, dtype=np.uint8)
        if unit.ndim != 1 or unit.shape[0] % self.substripes_per_unit:
            raise EncodingError(
                f"unit of shape {unit.shape} cannot be split into "
                f"{self.substripes_per_unit} substripes"
            )
        return list(unit.reshape(self.substripes_per_unit, -1))

    def join_subunits(self, subunits: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate subunits back into a full unit payload."""
        if len(subunits) != self.substripes_per_unit:
            raise EncodingError(
                f"expected {self.substripes_per_unit} subunits, got {len(subunits)}"
            )
        return np.concatenate([np.asarray(s, dtype=np.uint8) for s in subunits])

    def execute_repair(
        self,
        failed_node: int,
        available_units: Mapping[int, np.ndarray],
        plan: Optional[RepairPlan] = None,
    ) -> Tuple[np.ndarray, int]:
        """Plan and run a repair against full surviving units.

        This is the end-to-end helper the simulator and tests use: it
        builds (or takes) a plan, extracts from ``available_units`` only
        the subunits the plan names, rebuilds the unit, and reports the
        byte count actually transferred.

        Returns
        -------
        (rebuilt_unit, bytes_downloaded)
        """
        failed_node = self.validate_node_index(failed_node)
        if plan is None:
            plan = self.repair_plan_cached(failed_node, available_units.keys())
        fetched: Dict[int, Dict[int, np.ndarray]] = {}
        bytes_downloaded = 0
        for request in plan.requests:
            if request.node not in available_units:
                raise RepairError(
                    f"plan reads node {request.node} which is unavailable"
                )
            subunits = self.split_unit(available_units[request.node])
            fetched[request.node] = {}
            for substripe in request.substripes:
                payload = subunits[substripe]
                fetched[request.node][substripe] = payload
                bytes_downloaded += payload.shape[0]
        rebuilt = self.repair(failed_node, fetched)
        return rebuilt, bytes_downloaded

    # ------------------------------------------------------------------
    # Batched operations (many stripes at once)
    # ------------------------------------------------------------------
    #
    # The batched data plane stacks ``s`` same-width stripes and runs the
    # fused kernels once per batch instead of once per stripe.  For
    # bytewise-linear codes every repair and decode pattern compiles to
    # one GF(2^8) matrix, read off the scalar oracle in a single call
    # and applied by the backend's batched matmul; other codes loop the
    # scalar methods.  The scalar ``encode`` / ``decode`` /
    # ``execute_repair`` stay the oracles the equivalence suites pin
    # every batch path to, byte for byte.

    def validate_batch_data(self, data: np.ndarray) -> np.ndarray:
        """Check shape/dtype of a ``(s, k, w)`` stripe batch."""
        data = np.asarray(data)
        if data.ndim != 3:
            raise EncodingError(
                f"expected 3-d (stripes, k, unit_size) data, got shape "
                f"{data.shape}"
            )
        if data.shape[1] != self.k:
            raise EncodingError(
                f"{self.name} expects {self.k} data units per stripe, "
                f"got {data.shape[1]}"
            )
        unit_size = data.shape[2]
        if unit_size <= 0:
            raise EncodingError("unit size must be positive")
        if unit_size % self.substripes_per_unit:
            raise EncodingError(
                f"unit size {unit_size} must be divisible by "
                f"{self.substripes_per_unit} substripes"
            )
        if data.dtype != np.uint8:
            data = data.astype(np.uint8)
        return data

    @staticmethod
    def batch_unit_rows(
        available_units: Mapping[int, "np.ndarray | Sequence[np.ndarray]"],
    ) -> Tuple[int, int, Dict[int, List[np.ndarray]]]:
        """Normalise a batched survivor map to per-stripe row views.

        ``available_units`` maps stripe index to either a ``(s, w)``
        uint8 array or a sequence of ``s`` equal-length 1-d uint8 rows
        (the latter lets callers pass zero-copy views of payloads that
        do not live in one contiguous buffer).  Returns
        ``(s, w, {node: [row_0, ..., row_{s-1}]})``.
        """
        if not available_units:
            raise RepairError("no surviving units supplied to batch repair")
        stripes: Optional[int] = None
        width: Optional[int] = None
        rows_by_node: Dict[int, List[np.ndarray]] = {}
        for node, value in available_units.items():
            if isinstance(value, np.ndarray) and value.ndim == 2:
                rows = list(value)
            else:
                rows = [np.asarray(row) for row in value]
            if stripes is None:
                stripes = len(rows)
            elif len(rows) != stripes:
                raise RepairError(
                    f"node {node} supplies {len(rows)} stripes, "
                    f"expected {stripes}"
                )
            for row in rows:
                if row.ndim != 1 or row.dtype != np.uint8:
                    raise RepairError(
                        f"node {node} batch rows must be 1-d uint8"
                    )
                if width is None:
                    width = row.shape[0]
                elif row.shape[0] != width:
                    raise RepairError(
                        f"node {node} batch rows disagree in width: "
                        f"{row.shape[0]} != {width}"
                    )
            rows_by_node[node] = rows
        assert stripes is not None and width is not None
        if stripes == 0:
            raise RepairError("batch repair of zero stripes")
        return stripes, width, rows_by_node

    def parity_batch(
        self, data: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Parity units for a batch: ``(s, k, w) -> (s, r, w)``.

        ``out`` may be any array view whose per-unit rows ``out[t, j]``
        are C-contiguous (e.g. the ``[:, k:, :]`` slice of a full
        ``(s, n, w)`` stripe batch).  Default: per-stripe scalar encode.
        """
        data = self.validate_batch_data(data)
        stripes, _, width = data.shape
        if out is None:
            out = np.empty((stripes, self.r, width), dtype=np.uint8)
        for t in range(stripes):
            out[t] = self.encode(data[t])[self.k :]
        return out

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Systematically encode a stripe batch: ``(s, k, w) -> (s, n, w)``.

        Generic over ``parity_batch``: allocates the output, copies the
        systematic rows, and computes parity into the trailing view, so
        codes only override :meth:`parity_batch` to get a fused encode.
        """
        data = self.validate_batch_data(data)
        stripes, _, width = data.shape
        out = np.empty((stripes, self.n, width), dtype=np.uint8)
        out[:, : self.k] = data
        self.parity_batch(data, out=out[:, self.k :, :])
        return out

    def decode_batch(
        self,
        available_units: Mapping[int, "np.ndarray | Sequence[np.ndarray]"],
        slots: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Recover data units for a stripe batch: values ``(s, w)`` -> ``(s, k, w)``.

        Every stripe in the batch must share the same survivor set.
        ``slots`` restricts the output to those data slots, in the given
        order (``(s, len(slots), w)``); the degraded-read pipeline asks
        for the erased ones only and reads the survivors in place.
        Linear codes run one compiled kernel that writes only the
        erased rows (surviving rows are copied); the default is a
        per-stripe scalar decode.
        """
        stripes, width, rows_by_node = self.batch_unit_rows(available_units)
        slots = list(range(self.k) if slots is None else map(int, slots))
        out = np.empty((stripes, len(slots), width), dtype=np.uint8)
        if not self.bytewise_linear:
            for t in range(stripes):
                out[t] = self.decode(
                    {node: rows[t] for node, rows in rows_by_node.items()}
                )[slots]
            return out
        lost = [i for i, slot in enumerate(slots) if slot not in rows_by_node]
        for i, slot in enumerate(slots):
            if slot in rows_by_node:
                for t, row in enumerate(rows_by_node[slot]):
                    out[t, i] = row
        if lost:
            survivors = tuple(sorted(rows_by_node))
            lost_slots = [slots[i] for i in lost]
            terms = [
                (node, sub)
                for node in survivors
                for sub in range(self.substripes_per_unit)
            ]
            matrix = self._linear_map(
                ("decode", survivors, tuple(lost_slots)),
                terms,
                lambda units: self.decode(units)[lost_slots],
            )
            self._bind_linear(
                matrix,
                terms,
                rows_by_node,
                [[out[t, i] for i in lost] for t in range(stripes)],
            )()
        return out

    def execute_repair_batch(
        self,
        failed_node: int,
        available_units: Mapping[int, "np.ndarray | Sequence[np.ndarray]"],
        plan: Optional[RepairPlan] = None,
    ) -> Tuple[np.ndarray, int]:
        """Repair the same failed node across a stripe batch.

        ``available_units`` maps surviving node to that node's units
        across the batch (``(s, w)`` array or sequence of ``s`` rows);
        every stripe shares the failure pattern, which is how the
        batched codec groups its work (98.08% of degraded stripes miss
        exactly one unit, Section 2.2, so the same pattern recurs
        across thousands of stripes).  Linear codes run the compiled
        kernel of :meth:`bind_repair_batch`; the default loops the
        scalar :meth:`execute_repair`.

        Returns
        -------
        (rebuilt ``(s, w)`` array, total bytes downloaded)
        """
        failed_node = self.validate_node_index(failed_node)
        stripes, width, rows_by_node = self.batch_unit_rows(available_units)
        if plan is None:
            plan = self.repair_plan_cached(failed_node, rows_by_node.keys())
        out = np.empty((stripes, width), dtype=np.uint8)
        if self.bytewise_linear:
            self.bind_repair_batch(failed_node, rows_by_node, out, plan)()
            return out, stripes * plan.bytes_downloaded(width)
        bytes_downloaded = 0
        for t in range(stripes):
            rebuilt, transferred = self.execute_repair(
                failed_node,
                {node: rows[t] for node, rows in rows_by_node.items()},
                plan=plan,
            )
            out[t] = rebuilt
            bytes_downloaded += transferred
        return out, bytes_downloaded

    def bind_repair_batch(
        self,
        failed_node: int,
        available_units: Mapping[int, "np.ndarray | Sequence[np.ndarray]"],
        out: np.ndarray,
        plan: Optional[RepairPlan] = None,
    ):
        """Compile a repair plan against fixed buffers; returns an executor.

        The zero-argument callable rebuilds ``out`` (a ``(s, w)`` uint8
        array) from the *current contents* of the survivor rows, so a
        caller that refills the same buffers every wave -- the streaming
        reconstruction pipeline, the repair benches -- pays plan lookup,
        row validation and kernel marshalling once instead of per wave.
        For linear codes every plan -- RS, either Piggybacked-RS path,
        a parity slot -- is one ``(substripes, terms)`` matrix over
        exactly the plan's :class:`SymbolRequest` subunits, applied by
        the backend's fused batched matmul; other codes close over
        :meth:`execute_repair_batch`.
        """
        failed_node = self.validate_node_index(failed_node)
        stripes, width, rows_by_node = self.batch_unit_rows(available_units)
        if out.shape != (stripes, width) or out.dtype != np.uint8:
            raise RepairError(
                f"bound repair output must be uint8 {(stripes, width)}, "
                f"got {out.dtype} {out.shape}"
            )
        if plan is None:
            plan = self.repair_plan_cached(failed_node, rows_by_node.keys())
        for node in plan.nodes_contacted:
            if node not in rows_by_node:
                raise RepairError(
                    f"plan reads node {node} which is unavailable"
                )
        if not self.bytewise_linear:

            def execute() -> None:
                rebuilt, _ = self.execute_repair_batch(
                    failed_node, rows_by_node, plan=plan
                )
                out[:] = rebuilt

            return execute
        terms = [
            (request.node, sub)
            for request in plan.requests
            for sub in request.substripes
        ]
        matrix = self._linear_map(
            ("repair", plan),
            terms,
            lambda units: self.execute_repair(failed_node, units, plan)[0],
        )
        return self._bind_linear(
            matrix, terms, rows_by_node, [[row] for row in out]
        )

    def _linear_map(self, key, terms, oracle: Callable) -> np.ndarray:
        """The GF(2^8) matrix of one bytewise-linear scalar operation.

        ``terms`` orders the ``(node, substripe)`` inputs and
        ``oracle(units)`` runs the scalar operation on full units,
        returning its ``(outputs, unit_size)`` (or ``(unit_size,)``)
        result.  One call reads the whole matrix off: with subunits
        ``len(terms)`` bytes wide, term ``i`` is zero except for a 1 at
        byte ``i``, so byte ``i`` of every output subunit is that
        subunit's coefficient on term ``i``.  Rows come out ordered
        (output, substripe).  Memoised beside the decode matrices (the
        key names the operation).
        """

        def build() -> np.ndarray:
            count = len(terms)
            units = {
                node: np.zeros(self.substripes_per_unit * count, np.uint8)
                for node, _ in terms
            }
            for i, (node, sub) in enumerate(terms):
                units[node][sub * count + i] = 1
            return np.asarray(oracle(units)).reshape(-1, count)

        return self.memoized_decode_matrix(key, build)

    def _bind_linear(self, matrix, terms, rows_by_node, outs):
        """Executor for ``outs[t] <- matrix @ terms`` across a batch.

        ``outs[t]`` lists stripe ``t``'s output units, each split into
        substripes to match the matrix's (output, substripe) rows.
        Terms whose column is all zero are never read.
        """
        used = np.flatnonzero(matrix.any(axis=0))
        matrix = np.ascontiguousarray(matrix[:, used])
        terms = [terms[i] for i in used]
        parts = self.substripes_per_unit
        size, ragged = divmod(outs[0][0].shape[0], parts)
        if ragged:
            raise EncodingError(
                f"unit size {outs[0][0].shape[0]} not divisible by "
                f"{parts} substripes"
            )

        def piece(row, s):
            return row[s * size : (s + 1) * size]

        batch_in = [
            [piece(rows_by_node[node][t], s) for node, s in terms]
            for t in range(len(outs))
        ]
        batch_out = [
            [piece(unit, s) for unit in units for s in range(parts)]
            for units in outs
        ]
        backend = backends.native_backend()
        if backend is not None and _batch_contiguous(batch_in, batch_out):
            return backend.bind_matmul_batch(
                self.field, matrix, batch_in, batch_out
            )
        # No native kernel: the numpy packed tables (~1 MiB a matrix);
        # a single row gets PackedRow's cheaper half-word layout.
        if len(matrix) == 1:
            batch_out = [rows[0] for rows in batch_out]
        kernel = self._memoize(
            "_linear_kernel_cache",
            (matrix.shape, matrix.tobytes()),
            lambda: (PackedRow if len(matrix) == 1 else PackedMatmul)(
                matrix, self.field
            ),
            cap=PACKED_CACHE_CAP,
        )
        return kernel.bind_batch(batch_in, batch_out)

    def _apply_packed_parity(
        self,
        kernel,
        data: np.ndarray,
        out: np.ndarray,
        accumulate: bool = False,
    ) -> None:
        """Drive a :class:`~repro.gf.packed.PackedMatmul` over a batch.

        ``data`` is a validated ``(s, k, w)`` batch and ``out`` any view
        whose rows ``out[t, j]`` are 1-d; narrow batches are pooled into
        one ``(rows, s*w)`` call (see :data:`POOL_WIDTH`), wide ones run
        per-stripe on zero-copy row views.
        """
        stripes, _, width = data.shape
        rows_out = out.shape[1]
        if width < POOL_WIDTH and stripes > 1:
            pooled = np.ascontiguousarray(
                np.moveaxis(data, 1, 0).reshape(data.shape[1], stripes * width)
            )
            pooled_out = np.empty((rows_out, stripes * width), dtype=np.uint8)
            kernel.apply(list(pooled), list(pooled_out))
            unpooled = np.moveaxis(
                pooled_out.reshape(rows_out, stripes, width), 1, 0
            )
            if accumulate:
                np.bitwise_xor(out, unpooled, out=out)
            else:
                out[:] = unpooled
        else:
            for t in range(stripes):
                kernel.apply(list(data[t]), list(out[t]), accumulate=accumulate)

    @property
    def has_fused_batch(self) -> bool:
        """Whether any batched operation runs a fused or compiled kernel.

        The bench smoke steps assert this so CI fails if the batched
        data plane is accidentally disabled (e.g. an override removed).
        """
        base = ErasureCode
        return (
            self.bytewise_linear
            or type(self).parity_batch is not base.parity_batch
            or type(self).decode_batch is not base.decode_batch
            or type(self).execute_repair_batch is not base.execute_repair_batch
        )

    # ------------------------------------------------------------------
    # Analytic costs (used by repro.analysis and the benches)
    # ------------------------------------------------------------------

    def verify_stripe(self, stripe_units: np.ndarray) -> bool:
        """Check that a full stripe is a consistent codeword.

        Re-encodes the data units and compares all ``n`` outputs; a
        mismatch means at least one unit is corrupt (silent corruption
        is detected by HDFS via checksums; this is the codec-level
        equivalent used by scrubbing tests).
        """
        stripe_units = np.asarray(stripe_units, dtype=np.uint8)
        if stripe_units.shape[0] != self.n:
            return False
        expected = self.encode(stripe_units[: self.k])
        return bool(np.array_equal(expected, stripe_units))

    def repair_download_units(self, failed_node: int) -> float:
        """Download for repairing ``failed_node``, in units, all nodes alive."""
        plan = self.repair_plan_cached(failed_node)
        return plan.units_downloaded

    def average_repair_download_units(self) -> float:
        """Mean single-failure repair download over all ``n`` nodes.

        Memoised: analysis code calls this per report row, and the value
        only depends on the (immutable) code construction.
        """
        cached = self.__dict__.get("_avg_repair_units")
        if cached is None:
            cached = self.__dict__["_avg_repair_units"] = (
                sum(self.repair_download_units(i) for i in range(self.n)) / self.n
            )
        return cached

    def average_data_repair_download_units(self) -> float:
        """Mean single-failure repair download over the ``k`` data nodes.

        Memoised like :meth:`average_repair_download_units`.
        """
        cached = self.__dict__.get("_avg_data_repair_units")
        if cached is None:
            cached = self.__dict__["_avg_data_repair_units"] = (
                sum(self.repair_download_units(i) for i in range(self.k)) / self.k
            )
        return cached

    def __repr__(self) -> str:
        return self.name


def require_unit_shapes(
    units: Mapping[int, np.ndarray], code: ErasureCode
) -> int:
    """Validate a map of stripe units and return their common size.

    Raises
    ------
    DecodingError
        If units disagree in size or have an invalid shape.
    """
    if not units:
        raise DecodingError("no surviving units supplied")
    sizes = set()
    for node, unit in units.items():
        code.validate_node_index(node)
        unit = np.asarray(unit)
        if unit.ndim != 1:
            raise DecodingError(
                f"unit for node {node} has shape {unit.shape}; expected 1-d"
            )
        sizes.add(unit.shape[0])
    if len(sizes) != 1:
        raise DecodingError(f"surviving units disagree in size: {sorted(sizes)}")
    unit_size = sizes.pop()
    if unit_size % code.substripes_per_unit:
        raise DecodingError(
            f"unit size {unit_size} not divisible by "
            f"{code.substripes_per_unit} substripes"
        )
    return unit_size
