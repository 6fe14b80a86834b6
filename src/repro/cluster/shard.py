"""Sharded, checkpointable warehouse simulation (the epoch engine).

:class:`~repro.cluster.simulation.WarehouseSimulation` replays the
unavailability trace one event-queue callback at a time against a single
:class:`~repro.cluster.blockmap.StripeStore`.  That is the oracle -- but
a ten-cluster-year run at 10k nodes walks millions of events through
Python closures, and one process is the ceiling.

:class:`ShardedSimulation` reorganises the same computation around two
observations:

1. **The failure timeline is independent of the stored data.**  Node
   lifecycle (down -> flag-after-15-min-if-still-down -> up) is driven
   entirely by the trace and the availability table, so the whole run's
   op sequence -- every down/up/flag in exact event-queue order,
   including FIFO tie-breaks -- can be resolved *up front* by replaying
   the queue against a store-less :class:`FailureInjector`
   (:func:`resolve_timeline`).  The day-granularity loop then becomes
   *epochs*: draw one day's trigger flips, then apply its ops in order.

2. **A flag's units recover independently.**  A flagged node holds at
   most one unit per stripe, and each unit's plan, destination draw
   and histogram tick depend only on its own stripe.  So the engine
   keeps one stripe store (:class:`ShardState`), applies each op once,
   and runs a flag's recoveries as one vectorised step: every degraded
   unit gets a pattern key ``slot << width | availability mask``,
   each distinct key resolves once (``np.unique``) against a table of
   cached plans -- one full-width row per plan, the subunits read from
   each slot -- and the flag's transfers come out of one gather.
   Every meter and stats aggregate is an order-invariant integer sum,
   so the step equals the serial per-unit walk exactly.  On the
   benchmark's 100x30 eager-recovery cluster (RS(10,4), 20 days, one
   pinned CPU) a run takes 0.22 s against 0.53 s for the stripe-hash
   partition into four shards this replaced.

``num_shards`` and ``workers`` remain accepted keywords for older
callers; neither changes execution.

Exactness contract (tested in ``tests/cluster/test_shard.py``): under
the same config, the engine matches ``WarehouseSimulation`` bit for
bit in both destination modes.

- ``destination_draws="stream"`` (the historical semantics): the
  vectorised step draws destinations from the shared rng in the
  store's per-node query order, the serial engine's draw order.
- ``destination_draws="hashed"``: destinations are a pure function of
  ``(unit id, flag ordinal, seed)``, so draw order does not matter.

Checkpointing (:mod:`repro.cluster.checkpoint`) snapshots the store,
rng states, and the epoch cursor at day boundaries; a resumed run
continues the identical trajectory.
"""

from __future__ import annotations

import math
import time as time_module
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.blockmap import node_unit_lists
from repro.cluster.config import SECONDS_PER_DAY, ClusterConfig
from repro.cluster.datanode import NodeStateTable
from repro.cluster.events import EventQueue
from repro.cluster.failures import FailureInjector
from repro.cluster.network import TrafficMeter
from repro.cluster.placement import (
    PlacementPolicy,
    destination_entropy,
    make_placement,
)
from repro.cluster.recovery import RecoveryStats
from repro.cluster.repair_policy import RepairJob, scheduler_from_config
from repro.cluster.simulation import SimulationResult
from repro.cluster.topology import Topology
from repro.cluster.traces import generate_unavailability_events, stripe_unit_sizes
from repro.cluster.workload import ReadStats
from repro.codes.base import ErasureCode
from repro.codes.registry import create_code
from repro.errors import (
    CheckpointError,
    ConfigError,
    PlacementError,
    RepairError,
    SimulationError,
)
from repro.observability import metrics, span

#: Timeline op kinds, in the exact order the oracle's event queue
#: produces them.  Reads carry the client node in ``nodes``, the data
#: slot in ``ordinals``, and the stripe in ``extras``.
OP_DOWN, OP_UP, OP_FLAG, OP_READ = 0, 1, 2, 3


class Timeline:
    """The run's full op sequence, resolved before any shard runs.

    ``kinds[i] / nodes[i] / times[i]`` describe the i-th op in event
    execution order (times are non-decreasing; FIFO ties replay the
    queue's own tie-breaking because the same queue produced them).
    ``ordinals[i]`` is the 1-based flag counter for flag ops (0
    otherwise) -- the value :class:`RecoveryService` would hold in
    ``_flag_ordinal`` when handling that flag, reproduced here so hashed
    destination draws match the oracle without any rng rendezvous.
    """

    def __init__(
        self,
        kinds: np.ndarray,
        nodes: np.ndarray,
        times: np.ndarray,
        ordinals: np.ndarray,
        num_flags: int,
        flagged_events_by_day: Dict[int, int],
        total_events: int,
        skipped_already_down: int,
        num_source_events: int,
        extras: Optional[np.ndarray] = None,
        num_reads: int = 0,
    ):
        self.kinds = kinds
        self.nodes = nodes
        self.times = times
        self.ordinals = ordinals
        if extras is None:
            extras = np.zeros(kinds.shape[0], dtype=np.int64)
        self.extras = extras
        self.num_reads = num_reads
        self.num_flags = num_flags
        self.flagged_events_by_day = flagged_events_by_day
        self.total_events = total_events
        self.skipped_already_down = skipped_already_down
        self.num_source_events = num_source_events

    @property
    def num_ops(self) -> int:
        return int(self.kinds.shape[0])

    def num_epochs(self, num_days: int) -> int:
        """Epochs needed to apply every op (ups/flags spill past the
        configured horizon; their bytes still count, like the oracle)."""
        if not self.num_ops:
            return num_days
        return max(num_days, int(self.times[-1] // SECONDS_PER_DAY) + 1)

    def epoch_bounds(self, num_epochs: int) -> np.ndarray:
        """``bounds[e]:bounds[e+1]`` slices epoch ``e``'s ops."""
        edges = np.arange(num_epochs + 1, dtype=np.float64) * SECONDS_PER_DAY
        return np.searchsorted(self.times, edges, side="left")

    def daily_flagged_series(self, num_days: int) -> List[int]:
        return [
            self.flagged_events_by_day.get(day, 0) for day in range(num_days)
        ]


def resolve_timeline(config: ClusterConfig) -> Timeline:
    """Replay the failure trace against a store-less injector.

    Uses the identical failure stream, chaos-flap merge, event queue,
    and :class:`FailureInjector` state machine as the serial oracle --
    only the store side-effects are absent -- so the recorded op order
    (including same-time FIFO ties) is exactly what
    ``WarehouseSimulation`` executes.
    """
    seed = np.random.SeedSequence(config.seed)
    _placement_seed, failure_seed, _size, _recovery, _workload = seed.spawn(5)
    failure_rng = np.random.default_rng(failure_seed)
    events = generate_unavailability_events(failure_rng, config)
    if config.chaos_node_flaps > 0:
        from repro.faults import FaultPlan

        plan = FaultPlan(
            seed=(
                config.chaos_seed
                if config.chaos_seed is not None
                else config.seed
            ),
            node_flaps=config.chaos_node_flaps,
        )
        events = sorted(
            list(events)
            + plan.flap_events(
                config.num_nodes,
                config.days,
                config.unavailability_threshold_seconds,
            ),
            key=lambda event: (event.time, event.node),
        )
    kinds: List[int] = []
    nodes: List[int] = []
    times: List[float] = []
    ordinals: List[int] = []
    extras: List[int] = []
    flag_count = 0

    def on_down(node: int, time: float) -> None:
        kinds.append(OP_DOWN)
        nodes.append(node)
        times.append(time)
        ordinals.append(0)
        extras.append(0)

    def on_up(node: int, time: float) -> None:
        kinds.append(OP_UP)
        nodes.append(node)
        times.append(time)
        ordinals.append(0)
        extras.append(0)

    def on_flagged(queue: EventQueue, node: int, time: float) -> None:
        nonlocal flag_count
        flag_count += 1
        kinds.append(OP_FLAG)
        nodes.append(node)
        times.append(time)
        ordinals.append(flag_count)
        extras.append(0)

    injector = FailureInjector(
        state=NodeStateTable(config.num_nodes),
        store=None,
        threshold_seconds=config.unavailability_threshold_seconds,
        on_flagged=on_flagged,
        on_down=on_down,
        on_up=on_up,
    )
    queue = EventQueue()
    injector.install(queue, events)
    # Foreground reads interleave with the failure ops exactly as the
    # oracle interleaves them: the identical workload rng draws, the
    # identical install order (injector first, then reads), the same
    # queue -- so same-time seq tie-breaks replay verbatim.
    num_reads = 0
    if config.reads_per_stripe_per_day > 0:
        workload_rng = np.random.default_rng(_workload)
        code_k = create_code(config.code_name, **config.code_params).k
        expected = (
            config.reads_per_stripe_per_day
            * config.num_stripes
            * config.days
        )
        if expected > 0:
            num_reads = int(workload_rng.poisson(expected))
            read_times = np.sort(
                workload_rng.uniform(
                    0.0, config.days * SECONDS_PER_DAY, num_reads
                )
            )
            read_stripes = workload_rng.integers(
                0, config.num_stripes, num_reads
            )
            read_slots = workload_rng.integers(0, code_k, num_reads)
            read_clients = workload_rng.integers(
                0, config.num_nodes, num_reads
            )

            def make_read(stripe: int, slot: int, client: int):
                def handler(q: EventQueue, time: float) -> None:
                    kinds.append(OP_READ)
                    nodes.append(client)
                    times.append(time)
                    ordinals.append(slot)
                    extras.append(stripe)

                return handler

            for time, stripe, slot, client in zip(
                read_times, read_stripes, read_slots, read_clients
            ):
                queue.schedule(
                    float(time),
                    make_read(int(stripe), int(slot), int(client)),
                    label="read",
                )
    queue.run()
    return Timeline(
        kinds=np.asarray(kinds, dtype=np.int8),
        nodes=np.asarray(nodes, dtype=np.int64),
        times=np.asarray(times, dtype=np.float64),
        ordinals=np.asarray(ordinals, dtype=np.int64),
        extras=np.asarray(extras, dtype=np.int64),
        num_reads=num_reads,
        num_flags=flag_count,
        flagged_events_by_day=dict(injector.flagged_events_by_day),
        total_events=injector.total_events,
        skipped_already_down=injector.skipped_already_down,
        num_source_events=len(events),
    )


class ShardState:
    """The cluster's stripe store, in epoch-replayable form.

    Mirrors exactly the state the serial engine keeps: placement rows,
    missing bits, per-node unit lists in the store's query order
    (never-relocated units in uid order, relocated-in units in arrival
    order -- see :func:`repro.cluster.blockmap.node_unit_lists`), and
    node availability.  Unit ids are the store's ``stripe * width +
    slot``.

    Recovery at a flag op replays :meth:`RecoveryService.recover_node_batch`
    in one vectorised step (:meth:`_node_flagged`).  Transfers
    accumulate per epoch and hit the :class:`TrafficMeter` in one
    ``charge_batch`` per epoch -- per-transfer times are preserved, so
    per-day aggregation is exact.
    """

    def __init__(
        self,
        placement: np.ndarray,
        unit_sizes: np.ndarray,
        width: int,
        num_nodes: int,
        code: ErasureCode,
        policy: PlacementPolicy,
        meter: TrafficMeter,
        destination_draws: str,
        entropy: Optional[int] = None,
        parallel_repair: bool = False,
        corrupt_rows: Optional[np.ndarray] = None,
        missing: Optional[np.ndarray] = None,
        node_lists: Optional[Dict[int, List[int]]] = None,
        is_up: Optional[np.ndarray] = None,
        stats: Optional[RecoveryStats] = None,
        read_stats: Optional[ReadStats] = None,
    ):
        self.placement = np.ascontiguousarray(placement, dtype=np.int64).copy()
        self.unit_sizes = np.asarray(unit_sizes, dtype=np.int64)
        self.width = int(width)
        self.num_nodes = int(num_nodes)
        self.code = code
        self.policy = policy
        self.meter = meter
        self.destination_draws = destination_draws
        self._entropy = entropy
        self.parallel_repair = bool(parallel_repair)
        self._corrupt = corrupt_rows
        if missing is None:
            missing = np.zeros(self.placement.shape, dtype=bool)
        self.missing = np.ascontiguousarray(missing, dtype=bool).copy()
        self._flat_missing = self.missing.reshape(-1)
        if node_lists is None:
            node_lists = node_unit_lists(self.placement)
        self.node_units: Dict[int, List[int]] = node_lists
        if is_up is None:
            is_up = np.ones(self.num_nodes, dtype=bool)
        self.is_up = np.asarray(is_up, dtype=bool).copy()
        self._down_cache: Optional[List[int]] = None
        self.stats = stats if stats is not None else RecoveryStats()
        self.read_stats = read_stats if read_stats is not None else ReadStats()
        # Pattern key (failed slot << width | availability bitmask) ->
        # row of the plan table (-1: unrecoverable).  A table row is
        # one resolved plan at full width: the subunits read per slot.
        self._plan_index: Dict[int, int] = {}
        self._plan_list: List[List[int]] = []
        self._plan_table = np.zeros((0, self.width), dtype=np.int64)
        self._mask_weights = np.int64(1) << np.arange(
            self.width, dtype=np.int64
        )
        self._ep_times: List[Tuple[float, int]] = []
        self._ep_srcs: List[np.ndarray] = []
        self._ep_dsts: List[np.ndarray] = []
        self._ep_nbytes: List[np.ndarray] = []
        # Scalar transfers (reads; scheduler-driven recoveries) buffered
        # per purpose: (times, srcs, dsts, nbytes) plain lists.
        self._ep_scalar: Dict[
            str, Tuple[List[float], List[int], List[int], List[int]]
        ] = {}

    # ------------------------------------------------------------------
    # Epoch application
    # ------------------------------------------------------------------

    def apply_epoch(
        self,
        kinds: Sequence[int],
        nodes: Sequence[int],
        times: Sequence[float],
        ordinals: Sequence[int],
        extras: Sequence[int],
    ) -> None:
        """Apply one epoch's (pre-filtered) ops.

        Every flag op in the slice is already known to be triggered (the
        coordinator draws the trigger flips and drops skipped flags), so
        this path is rng-free in hashed mode.
        """
        for kind, node, time, ordinal, extra in zip(
            kinds, nodes, times, ordinals, extras
        ):
            if kind == OP_DOWN:
                self._node_down(node)
            elif kind == OP_UP:
                self._node_up(node)
            elif kind == OP_READ:
                self._apply_read(extra, ordinal, node, time)
            else:
                self._node_flagged(node, time, ordinal)

    def _charge_scalar(
        self, time: float, src: int, dst: int, nbytes: int, purpose: str
    ) -> None:
        try:
            buffers = self._ep_scalar[purpose]
        except KeyError:
            buffers = self._ep_scalar[purpose] = ([], [], [], [])
        buffers[0].append(time)
        buffers[1].append(src)
        buffers[2].append(dst)
        buffers[3].append(nbytes)

    def _apply_read(
        self, stripe: int, slot: int, client: int, time: float
    ) -> Optional[int]:
        """Replay of ``ReadWorkload.perform_read``.

        Returns the bytes a *degraded* read downloaded (for the
        coordinator's scheduler-latency accounting), None otherwise.
        """
        read_stats = self.read_stats
        read_stats.reads += 1
        unit_size = int(self.unit_sizes[stripe])
        holder = int(self.placement[stripe, slot])
        if not self.missing[stripe, slot] and self.is_up[holder]:
            if holder != client:
                self._charge_scalar(time, holder, client, unit_size, "read")
            read_stats.healthy_reads += 1
            read_stats.healthy_bytes += unit_size
            return None
        available = tuple(np.flatnonzero(~self.missing[stripe]).tolist())
        if len(available) < self.code.k:
            read_stats.failed_reads += 1
            return None
        try:
            plan = self.code.repair_plan_cached(slot, available)
        except RepairError:
            read_stats.failed_reads += 1
            return None
        subunit_bytes = unit_size // self.code.substripes_per_unit
        row = self.placement[stripe]
        read_bytes = 0
        for request in plan.requests:
            source = int(row[request.node])
            num_bytes = len(request.substripes) * subunit_bytes
            if source != client:
                self._charge_scalar(
                    time, source, client, num_bytes, "degraded-read"
                )
            read_stats.degraded_bytes += num_bytes
            read_bytes += num_bytes
        read_stats.degraded_reads += 1
        return read_bytes

    def _node_down(self, node: int) -> None:
        self.is_up[node] = False
        self._down_cache = None
        units = self.node_units.get(node)
        if units:
            self._flat_missing[units] = True

    def _node_up(self, node: int) -> None:
        self.is_up[node] = True
        self._down_cache = None
        units = self.node_units.get(node)
        if units:
            # Clearing every mapped unit's flag equals the store's
            # "clear the missing ones": non-missing units are unchanged.
            self._flat_missing[units] = False

    def _down_nodes(self) -> List[int]:
        if self._down_cache is None:
            self._down_cache = np.flatnonzero(~self.is_up).tolist()
        return self._down_cache

    def degraded_uids(self, node: int) -> np.ndarray:
        """The node's missing units, in the store's query order."""
        uids = np.asarray(self.node_units.get(node, ()), dtype=np.int64)
        return uids[self._flat_missing[uids]]

    def _node_flagged(self, node: int, time: float, ordinal: int) -> int:
        """Replay of ``RecoveryService.recover_node_batch`` as one
        vectorised step; returns blocks recovered.

        A flagged node holds at most one unit per stripe, so its units
        recover independently: each gets a pattern key ``slot << width |
        availability mask``, each distinct key resolves once against
        the plan table, and every recoverable unit's transfers come out
        of one gather over the full-width plan rows.  The result equals
        the scalar walk (:meth:`recover_unit_scalar` in node-list order)
        on every stats and meter aggregate.
        """
        uids = self.degraded_uids(node)
        if not uids.size:
            return 0
        if self.parallel_repair or self.policy.stateful:
            # Waves relocate units beyond this node's own list and d3
            # threads a load vector through every draw, so both replay
            # the serial engine's scalar walk in the store's query order.
            return self._node_flagged_scalar(uids, time, ordinal)
        width = self.width
        stripes = uids // width
        slots = uids % width
        live_rows = ~self.missing[stripes]
        # The degraded histogram counts true unavailability; corrupt
        # survivors are *excluded from planning* but still live.
        missing_counts = width - live_rows.sum(axis=1)
        avail_rows = live_rows
        if self._corrupt is not None:
            corrupt_rows = self._corrupt[stripes]
            self.stats.corrupt_survivors_excluded += int(
                (live_rows & corrupt_rows).sum()
            )
            avail_rows = live_rows & ~corrupt_rows
        keys = (slots << width) | (avail_rows @ self._mask_weights)
        patterns, inverse = np.unique(keys, return_inverse=True)
        pattern_rows, misses = self._plan_rows(patterns.tolist())
        plan_rows = pattern_rows[inverse]
        m = metrics()
        if m is not None:
            m.inc("recovery.plan_cache.hits", int(uids.size) - misses)
            m.inc("recovery.plan_cache.misses", misses)
            m.observe("recovery.batch.size", int(uids.size))
        histogram = self.stats.degraded_histogram
        for count, occurrences in enumerate(
            np.bincount(missing_counts).tolist()
        ):
            if occurrences:
                histogram[count] += occurrences
        recoverable = plan_rows >= 0
        recovered = int(recoverable.sum())
        self.stats.unrecoverable_units += int(uids.size) - recovered
        if not recovered:
            return 0
        if recovered < uids.size:
            uids = uids[recoverable]
            stripes = stripes[recoverable]
            slots = slots[recoverable]
            plan_rows = plan_rows[recoverable]
        rows = self.placement[stripes]
        down = self._down_nodes()
        if self.destination_draws == "hashed":
            destinations = self.policy.hashed_replacement_nodes(
                rows, down, uids, ordinal, self._entropy
            )
        else:
            destinations = self.policy.replacement_nodes(rows, down)
            if destinations is None:
                destinations = np.array(
                    [
                        self.policy.replacement_node(row + down)
                        for row in rows.tolist()
                    ],
                    dtype=np.int64,
                )
        if self.policy.spares_per_rack:
            offsets = destinations % self.policy.topology.nodes_per_rack
            self.stats.spare_placements += int(
                (offsets >= self.policy.data_nodes_per_rack).sum()
            )
        # One gather for the whole flag: a transfer per (unit, slot the
        # unit's plan reads), row-major.  The order differs from the
        # scalar walk's; every meter aggregate is order-invariant.
        reads = self._plan_table[plan_rows]
        reading = reads > 0
        srcs = rows[reading]
        subunit_sizes = self.unit_sizes[stripes] // self.code.substripes_per_unit
        nbytes = (subunit_sizes[:, None] * reads)[reading]
        self._ep_srcs.append(srcs)
        self._ep_dsts.append(np.repeat(destinations, reading.sum(axis=1)))
        self._ep_nbytes.append(nbytes)
        self._ep_times.append((time, srcs.shape[0]))
        self.placement[stripes, slots] = destinations
        self.missing[stripes, slots] = False
        node_units = self.node_units
        moved = set(uids.tolist())
        node_units[node] = [u for u in node_units[node] if u not in moved]
        for dest, uid in zip(destinations.tolist(), uids.tolist()):
            node_units.setdefault(dest, []).append(uid)
        self.stats.bytes_downloaded += int(nbytes.sum())
        self.stats.blocks_recovered += recovered
        self.stats.blocks_recovered_by_day[
            int(time // SECONDS_PER_DAY)
        ] += recovered
        return recovered

    def _plan_rows(self, patterns: List[int]) -> Tuple[np.ndarray, int]:
        """Plan-table row of each pattern key (-1: unrecoverable), and
        how many of the keys were resolved for the first time."""
        index = self._plan_index
        rows: List[int] = []
        misses = 0
        for key in patterns:
            row = index.get(key)
            if row is None:
                misses += 1
                row = index[key] = self._add_plan_row(key)
            rows.append(row)
        if misses:
            self._plan_table = np.array(
                self._plan_list, dtype=np.int64
            ).reshape(-1, self.width)
        return np.asarray(rows, dtype=np.int64), misses

    def _add_plan_row(self, key: int) -> int:
        slot, mask = key >> self.width, key & ((1 << self.width) - 1)
        available = tuple(i for i in range(self.width) if mask >> i & 1)
        plan = self._resolve_plan(slot, available)
        if plan is None:
            return -1
        reads = [0] * self.width
        for request in plan.requests:
            reads[request.node] = len(request.substripes)
        self._plan_list.append(reads)
        return len(self._plan_list) - 1

    def _node_flagged_scalar(
        self, uids: np.ndarray, time: float, ordinal: int
    ) -> int:
        """Serial-order scalar walk over a flagged node's degraded units
        (the parallel-repair and stateful-placement path)."""
        recovered = 0
        width = self.width
        for uid in uids.tolist():
            # A sibling's wave may already have rebuilt it mid-walk;
            # recover_unit_scalar then does nothing.
            recovered += self.recover_unit_scalar(
                *divmod(uid, width), time, ordinal
            )
        return recovered

    def _hashed_destination(
        self, row: np.ndarray, stripe: int, slot: int, ordinal: int
    ) -> int:
        return int(
            self.policy.hashed_replacement_nodes(
                row[None, :],
                self._down_nodes(),
                np.asarray([stripe * self.width + slot], dtype=np.int64),
                ordinal,
                self._entropy,
            )[0]
        )

    def _relocate(self, stripe: int, slot: int, destination: int) -> None:
        uid = stripe * self.width + slot
        self.node_units[int(self.placement[stripe, slot])].remove(uid)
        self.node_units.setdefault(destination, []).append(uid)
        self.placement[stripe, slot] = destination
        self.missing[stripe, slot] = False

    def recover_unit_scalar(
        self, stripe: int, slot: int, time: float, ordinal: int
    ) -> int:
        """Scalar mirror of ``RecoveryService.recover_unit`` (+ wave).

        Returns the units recovered: 0 when the unit was not missing or
        is unrecoverable now (stats accounted here either way), else 1
        plus any wave extras.
        """
        if not self.missing[stripe, slot]:
            return 0
        avail, missing_count = self._usable_row(stripe)
        available = tuple(np.flatnonzero(avail).tolist())
        plan = self._resolve_plan(slot, available)
        self.stats.degraded_histogram[missing_count] += 1
        if plan is None:
            self.stats.unrecoverable_units += 1
            return 0
        unit_size = int(self.unit_sizes[stripe])
        subunit_bytes = unit_size // self.code.substripes_per_unit
        row = self.placement[stripe]
        destination = self._hashed_destination(row, stripe, slot, ordinal)
        if self.policy.is_spare(destination):
            self.stats.spare_placements += 1
        unit_bytes = 0
        for request in plan.requests:
            num_bytes = len(request.substripes) * subunit_bytes
            self._charge_scalar(
                time, int(row[request.node]), destination, num_bytes,
                "recovery",
            )
            unit_bytes += num_bytes
        self._relocate(stripe, slot, destination)
        self.stats.bytes_downloaded += unit_bytes
        self.stats.blocks_recovered += 1
        self.stats.blocks_recovered_by_day[
            int(time // SECONDS_PER_DAY)
        ] += 1
        if self.parallel_repair:
            return 1 + self._wave_scalar(stripe, destination, time, ordinal)
        return 1

    def _wave_scalar(
        self, stripe: int, leader_dest: int, time: float, ordinal: int
    ) -> int:
        """Replay of ``RecoveryService._recover_wave``; returns the
        units forwarded."""
        extra_slots = np.flatnonzero(self.missing[stripe]).tolist()
        if not extra_slots:
            return 0
        self.stats.parallel_waves += 1
        unit_size = int(self.unit_sizes[stripe])
        for slot in extra_slots:
            remaining = int(self.missing[stripe].sum())
            self.stats.degraded_histogram[remaining] += 1
            row = self.placement[stripe]
            destination = self._hashed_destination(row, stripe, slot, ordinal)
            if self.policy.is_spare(destination):
                self.stats.spare_placements += 1
            self._charge_scalar(
                time, leader_dest, destination, unit_size, "recovery"
            )
            self._relocate(stripe, slot, destination)
            self.stats.bytes_downloaded += unit_size
            self.stats.blocks_recovered += 1
            self.stats.blocks_recovered_by_day[
                int(time // SECONDS_PER_DAY)
            ] += 1
            self.stats.wave_extra_units += 1
        return len(extra_slots)

    def _resolve_plan(self, slot: int, available: Tuple[int, ...]):
        if len(available) < self.code.k:
            return None
        try:
            return self.code.repair_plan_cached(slot, available)
        except RepairError:
            return None

    # ------------------------------------------------------------------
    # Scheduler-mode (DES) scalar operations
    # ------------------------------------------------------------------

    def _usable_row(self, stripe: int) -> Tuple[np.ndarray, int]:
        """(planning-availability row, true missing count) for one
        stripe, with the same corrupt-survivor accounting as
        ``RecoveryService._usable_slots``."""
        live = ~self.missing[stripe]
        missing_count = int(self.width - live.sum())
        if self._corrupt is not None:
            corrupt = self._corrupt[stripe]
            self.stats.corrupt_survivors_excluded += int(
                (live & corrupt).sum()
            )
            live = live & ~corrupt
        return live, missing_count

    def collect_repair_job(
        self, stripe: int, slot: int
    ) -> Optional[Tuple[int, int]]:
        """Enqueue-time planning for one degraded unit.

        Returns ``(planned download bytes, missing count)``, or None
        after accounting the unit unrecoverable -- byte-for-byte the
        accounting ``RecoveryService._submit_repairs`` performs.
        """
        avail, missing_count = self._usable_row(stripe)
        available = tuple(np.flatnonzero(avail).tolist())
        plan = self._resolve_plan(slot, available)
        if plan is None:
            self.stats.degraded_histogram[missing_count] += 1
            self.stats.unrecoverable_units += 1
            return None
        nbytes = plan.bytes_downloaded(int(self.unit_sizes[stripe]))
        if self.parallel_repair and missing_count >= 2:
            # The wave job carries the stripe's other erasures too --
            # same deliberate over-booking as the serial service.
            nbytes += (missing_count - 1) * int(self.unit_sizes[stripe])
        return nbytes, missing_count

    def precompute_destination(
        self, stripe: int, slot: int, ordinal: int
    ) -> Optional[int]:
        """Enqueue-time hashed destination draw for the per-link model;
        None (job travels without a TOR) when placement has no rack."""
        row = self.placement[stripe]
        try:
            return int(
                self.policy.hashed_replacement_nodes(
                    row[None, :],
                    self._down_nodes(),
                    np.asarray(
                        [stripe * self.width + slot], dtype=np.int64
                    ),
                    ordinal,
                    self._entropy,
                    commit=False,
                )[0]
            )
        except PlacementError:
            return None

    def apply_completion(self, job: RepairJob) -> bool:
        """Apply one completed scheduler job against current state.

        The scalar mirror of ``RecoveryService._finish_job`` +
        ``recover_unit``: re-plan against completion-time availability,
        validate (or redraw) the destination, charge the plan's
        transfers at the completion instant, relocate (plus the wave
        when ``parallel_repair`` forwards the stripe's other erasures).
        Returns False when the job was cancelled (machine returned
        first) or is unrecoverable now.
        """
        stripe, slot = job.stripe, job.slot
        if not self.missing[stripe, slot]:
            self.stats.cancelled_recoveries += 1
            return False
        avail, missing_count = self._usable_row(stripe)
        available = tuple(np.flatnonzero(avail).tolist())
        plan = self._resolve_plan(slot, available)
        self.stats.degraded_histogram[missing_count] += 1
        if plan is None:
            self.stats.unrecoverable_units += 1
            return False
        unit_size = int(self.unit_sizes[stripe])
        subunit_bytes = unit_size // self.code.substripes_per_unit
        row = self.placement[stripe]
        stripe_nodes = row.tolist()
        destination = job.dest
        if destination is not None and (
            self.policy.stateful
            or destination in stripe_nodes
            or not self.is_up[destination]
        ):
            # Stale precommit, or a stateful policy whose precommit was
            # a peek (only the link model's TOR estimate): redraw below
            # so the committing draw happens exactly once, now.
            destination = None
        if destination is None:
            if self.destination_draws == "hashed":
                destination = self._hashed_destination(
                    row, stripe, slot, job.ordinal
                )
            else:
                destination = self.policy.replacement_node(
                    exclude_nodes=stripe_nodes + self._down_nodes()
                )
        if self.policy.is_spare(destination):
            self.stats.spare_placements += 1
        time = job.completion
        unit_bytes = 0
        for request in plan.requests:
            num_bytes = len(request.substripes) * subunit_bytes
            self._charge_scalar(
                time,
                int(row[request.node]),
                destination,
                num_bytes,
                "recovery",
            )
            unit_bytes += num_bytes
        self._relocate(stripe, slot, destination)
        self.stats.bytes_downloaded += unit_bytes
        self.stats.blocks_recovered += 1
        self.stats.blocks_recovered_by_day[
            int(time // SECONDS_PER_DAY)
        ] += 1
        if self.parallel_repair:
            self._wave_scalar(stripe, destination, time, job.ordinal)
        return True

    def flush_epoch(self) -> None:
        """Charge the epoch's transfers in one batch per purpose.

        Per-transfer times are preserved across the epoch, so the
        meter's per-day grouping is identical to per-flag charging.
        """
        if self._ep_srcs:
            # Times are kept as (time, transfer-count) pairs per flag;
            # one repeat here replaces a np.full per flag in the hot
            # loop.
            times = np.repeat(
                np.array([t for t, _ in self._ep_times]),
                np.array([n for _, n in self._ep_times], dtype=np.int64),
            )
            srcs = np.concatenate(self._ep_srcs)
            dsts = np.concatenate(self._ep_dsts)
            nbytes = np.concatenate(self._ep_nbytes)
            self._ep_times.clear()
            self._ep_srcs.clear()
            self._ep_dsts.clear()
            self._ep_nbytes.clear()
            self.meter.charge_batch(
                times, srcs, dsts, nbytes, purpose="recovery"
            )
        # Scalar transfers (reads, scheduler completions), one
        # charge_batch per purpose; every meter aggregate is an
        # order-invariant sum, so batching here is exact.
        for purpose in sorted(self._ep_scalar):
            times_l, srcs_l, dsts_l, nbytes_l = self._ep_scalar[purpose]
            self.meter.charge_batch(
                np.asarray(times_l, dtype=np.float64),
                np.asarray(srcs_l, dtype=np.int64),
                np.asarray(dsts_l, dtype=np.int64),
                np.asarray(nbytes_l, dtype=np.int64),
                purpose=purpose,
            )
        self._ep_scalar.clear()

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Picklable snapshot of the store's mutable state, in the
        checkpoint's one-shard layout.

        Node lists are ragged-encoded (node ids, counts, concatenated
        uids) preserving per-list order; empty lists are dropped (an
        absent node and an empty list behave identically).
        """
        from repro.cluster.checkpoint import (
            meter_state,
            read_stats_state,
            stats_state,
        )

        list_nodes = [n for n in sorted(self.node_units) if self.node_units[n]]
        counts = [len(self.node_units[n]) for n in list_nodes]
        concat: List[int] = []
        for n in list_nodes:
            concat.extend(self.node_units[n])
        return {
            "shard_id": 0,
            "stripe_ids": np.arange(self.placement.shape[0], dtype=np.int64),
            "placement": self.placement.copy(),
            "missing": self.missing.copy(),
            "unit_sizes": self.unit_sizes,
            "list_nodes": np.asarray(list_nodes, dtype=np.int64),
            "list_counts": np.asarray(counts, dtype=np.int64),
            "list_uids": np.asarray(concat, dtype=np.int64),
            "stats": stats_state(self.stats),
            "meter": meter_state(self.meter),
            "read_stats": read_stats_state(self.read_stats),
        }


def _decode_node_lists(
    list_nodes: np.ndarray, list_counts: np.ndarray, list_uids: np.ndarray
) -> Dict[int, List[int]]:
    lists: Dict[int, List[int]] = {}
    cursor = 0
    uids = list_uids.tolist()
    for node, count in zip(list_nodes.tolist(), list_counts.tolist()):
        lists[node] = uids[cursor : cursor + count]
        cursor += count
    return lists


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


class ShardedSimulation:
    """Epoch-driven equivalent of :class:`WarehouseSimulation`.

    Parameters
    ----------
    config:
        The simulation config; both ``destination_draws`` modes
        reproduce the serial oracle exactly.
    num_shards, workers:
        Accepted for older callers and ignored: the engine keeps one
        stripe store.  ``num_shards`` must be >= 1 and ``workers``
        ``None`` or ``0``; anything else is a :class:`ConfigError`.
    checkpoint_path, checkpoint_every_days:
        Snapshot destination and cadence (day boundaries).  A path with
        no cadence only writes when :meth:`run` stops early
        (``stop_after_day``).

    Read workloads (``reads_per_stripe_per_day > 0``) resolve into the
    timeline up front (the read rng replays the serial workload's draws
    exactly).  Repair-policy configs (throttled recovery, priority/lazy
    queues, the per-link model) serialise through the global queue
    clocks: the coordinator drives the scheduler itself and applies
    each finished job to the store.  Stateful placement (``"d3"``) and
    parallel repair walk a flag's units one at a time in the store's
    query order, as the serial engine does.
    """

    def __init__(
        self,
        config: ClusterConfig,
        num_shards: int = 1,
        workers: Optional[int] = None,
        record_transfers: bool = False,
        checkpoint_path: Optional[str] = None,
        checkpoint_every_days: Optional[int] = None,
        _restore=None,
    ):
        if workers not in (None, 0):
            raise ConfigError(
                f"workers={workers!r}: shard worker processes were removed; "
                "the engine runs in-process"
            )
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        self.config = config
        #: Global repair-policy scheduler (None when every repair
        #: completes at flag time).  Queue timing is global state, so
        #: scheduler runs are coordinator-driven.
        self.scheduler = scheduler_from_config(config)
        self.record_transfers = record_transfers
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every_days = checkpoint_every_days
        if checkpoint_every_days is not None:
            if checkpoint_every_days < 1:
                raise ConfigError("checkpoint_every_days must be >= 1")
            if checkpoint_path is None:
                raise ConfigError(
                    "checkpoint_every_days requires checkpoint_path"
                )

        self.topology = Topology(config.num_racks, config.total_nodes_per_rack)
        seed = np.random.SeedSequence(config.seed)
        placement_seed, _failure, size_seed, recovery_seed, _wl = seed.spawn(5)
        self.code = create_code(config.code_name, **config.code_params)
        self.policy = make_placement(
            config.placement_policy,
            self.topology,
            seed=placement_seed,
            spares_per_rack=config.hot_spares_per_rack,
        )
        self._recovery_rng = np.random.default_rng(recovery_seed)
        self._entropy = (
            destination_entropy(recovery_seed)
            if config.destination_draws == "hashed"
            else None
        )
        self._corrupt: Optional[np.ndarray] = None
        if config.chaos_corrupt_units > 0:
            from repro.faults import FaultPlan

            plan = FaultPlan(
                seed=(
                    config.chaos_seed
                    if config.chaos_seed is not None
                    else config.seed
                ),
                node_flaps=config.chaos_node_flaps,
            )
            self._corrupt = np.zeros(
                (config.num_stripes, config.stripe_width_units), dtype=bool
            )
            for stripe, slot in plan.corrupt_unit_indices(
                config.chaos_corrupt_units,
                config.num_stripes,
                config.stripe_width_units,
            ):
                self._corrupt[int(stripe), int(slot)] = True

        #: Scheduler (DES) mode's completed-job latencies and exact
        #: integer wait sums -- empty/zero when no scheduler runs.
        self._latencies: List[float] = []
        self._queue_wait_us = 0
        self._urgent_wait_us = 0
        if _restore is None:
            # Fresh run: build the identical substrate the oracle builds
            # (same placement/size streams).
            self._initial_state: dict = {
                "placement": self.policy.place_many(
                    config.num_stripes, self.code.n
                ),
                "unit_sizes": stripe_unit_sizes(
                    np.random.default_rng(size_seed), config.num_stripes, config
                ),
            }
            self._initial_is_up = None
            self._start_epoch = 0
            self._flagged_recovered = 0
            self._flagged_skipped = 0
        else:
            # Resume: the store comes from the snapshot; the rng states
            # replace the freshly-seeded generators so the remaining
            # epochs draw exactly what the uninterrupted run would have
            # drawn.
            if len(_restore.shard_states) != 1:
                raise CheckpointError(
                    f"checkpoint carries {len(_restore.shard_states)} shard "
                    "states; the epoch engine keeps one stripe store and "
                    "cannot merge partitions -- re-create the snapshot"
                )
            self._initial_state = _restore.shard_states[0]
            self._initial_is_up = _restore.is_up
            self._recovery_rng.bit_generator.state = (
                _restore.recovery_rng_state
            )
            self.policy.rng.bit_generator.state = _restore.policy_rng_state
            self._start_epoch = _restore.next_epoch
            self._flagged_recovered = _restore.flagged_events_recovered
            self._flagged_skipped = _restore.flagged_events_skipped
            if self.scheduler is not None:
                if _restore.scheduler_state is None:
                    raise CheckpointError(
                        "config activates the repair-policy scheduler "
                        "but the checkpoint carries no queue state; it "
                        "was written by a build without the policy "
                        "engine -- re-create the snapshot"
                    )
                self.scheduler.restore(_restore.scheduler_state)
                self._latencies = (
                    np.asarray(
                        _restore.coord_latencies, dtype=np.float64
                    ).tolist()
                    if _restore.coord_latencies is not None
                    else []
                )
                self._queue_wait_us = _restore.coord_queue_wait_us
                self._urgent_wait_us = _restore.coord_urgent_wait_us
            if self.policy.stateful:
                policy_state = getattr(_restore, "policy_state", None)
                if policy_state is None:
                    raise CheckpointError(
                        "config uses a stateful placement policy but "
                        "the checkpoint carries no policy state; it was "
                        "written by a build without stateful placement "
                        "-- re-create the snapshot"
                    )
                self.policy.restore(policy_state)

        self._state: Optional[ShardState] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        path: str,
        record_transfers: bool = False,
        checkpoint_path: Optional[str] = None,
        checkpoint_every_days: Optional[int] = None,
    ) -> "ShardedSimulation":
        """Reconstruct a simulation from a checkpoint file; the resumed
        run continues the identical trajectory."""
        from repro.cluster.checkpoint import load_checkpoint

        data = load_checkpoint(path)
        return cls(
            data.config,
            record_transfers=record_transfers,
            checkpoint_path=(
                checkpoint_path if checkpoint_path is not None else path
            ),
            checkpoint_every_days=checkpoint_every_days,
            _restore=data,
        )

    def run(
        self, stop_after_day: Optional[int] = None
    ) -> Optional[SimulationResult]:
        """Run the epochs; returns the result, or None when stopped early.

        ``stop_after_day=N`` applies epochs up to (excluding) day N,
        writes a checkpoint to ``checkpoint_path`` (required), and
        returns None; :meth:`resume` continues from there.
        """
        if stop_after_day is not None and self.checkpoint_path is None:
            raise ConfigError("stop_after_day requires checkpoint_path")
        with span("shard.run"):
            return self._run(stop_after_day)

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------

    def _run(self, stop_after_day: Optional[int]) -> Optional[SimulationResult]:
        config = self.config
        timeline = resolve_timeline(config)
        num_days = int(config.days)
        num_epochs = timeline.num_epochs(num_days)
        bounds = timeline.epoch_bounds(num_epochs)
        target_epoch = num_epochs
        if stop_after_day is not None:
            target_epoch = min(int(stop_after_day), num_epochs)
        m = metrics()
        if m is not None:
            m.inc("sim.shard.runs")
        self._state = state = self._build_state()
        for epoch in range(self._start_epoch, target_epoch):
            lo, hi = int(bounds[epoch]), int(bounds[epoch + 1])
            ops = self._prepare_epoch(timeline, lo, hi)
            if self.scheduler is not None:
                self._apply_epoch_des(ops, (epoch + 1) * SECONDS_PER_DAY)
            else:
                state.apply_epoch(*ops)
            state.flush_epoch()
            if m is not None:
                m.inc("sim.shard.epochs")
                m.inc("sim.shard.ops", hi - lo)
            if (
                self.checkpoint_every_days is not None
                and (epoch + 1 - self._start_epoch)
                % self.checkpoint_every_days
                == 0
                and epoch + 1 < target_epoch
            ):
                self._write_checkpoint(epoch + 1)
        if stop_after_day is not None:
            self._write_checkpoint(target_epoch)
            return None
        stats = state.stats
        if self.scheduler is not None:
            # Serial queue.run() drains to exhaustion; mirror it by
            # letting every queued/deferred repair run to completion
            # past the horizon.
            self._apply_completions(
                self.scheduler.advance(math.inf, inclusive=True)
            )
            state.flush_epoch()
            stats.repair_latencies.extend(self._latencies)
            stats.queue_wait_us += self._queue_wait_us
            stats.urgent_wait_us += self._urgent_wait_us
            stats.deferred_repairs += self.scheduler.deferred_total
            stats.promoted_repairs += self.scheduler.promoted_total
            stats.queue_peak_depth = max(
                stats.queue_peak_depth, self.scheduler.peak_depth
            )
        stats.flagged_events_recovered += self._flagged_recovered
        stats.flagged_events_skipped += self._flagged_skipped
        if m is not None:
            m.inc("simulation.runs")
            m.inc("simulation.events", timeline.num_source_events)
            m.set_gauge("simulation.days", num_days)
        return SimulationResult(
            config=config,
            code_name=self.code.name,
            days=num_days,
            unavailability_events_per_day=timeline.daily_flagged_series(
                num_days
            ),
            blocks_recovered_per_day=stats.daily_blocks_series(num_days),
            cross_rack_bytes_per_day=state.meter.daily_cross_rack_series(
                num_days, allow_overflow=True
            ),
            degraded_fractions=stats.degraded_fractions(),
            degraded_histogram=dict(stats.degraded_histogram),
            stats=stats,
            meter=state.meter,
            read_stats=(
                state.read_stats
                if self.config.reads_per_stripe_per_day > 0
                else None
            ),
        )

    def rack_unit_load(self) -> np.ndarray:
        """Per-rack stored-unit counts from the final placement.

        The balance measure the d3 replacement rule maintains (rows of
        missing units still count toward their last holder's rack, the
        same convention the serial store uses).  Only available once
        :meth:`run` has built the store.
        """
        if self._state is None:
            raise SimulationError(
                "rack_unit_load reads the final placement; call run() first"
            )
        return np.bincount(
            (self._state.placement // self.topology.nodes_per_rack).ravel(),
            minlength=self.topology.num_racks,
        )

    def _prepare_epoch(self, timeline: Timeline, lo: int, hi: int) -> Tuple:
        """Draw the epoch's trigger flips and drop skipped flags.

        The flips come off the recovery rng in flag order -- one draw
        per flag event, exactly like the serial service (a bulk
        ``random(n)`` consumes the PCG64 stream identically to n scalar
        draws) -- so the coordinator owns the only order-dependent rng
        use and the store stays rng-free in hashed mode.
        """
        kinds = timeline.kinds[lo:hi]
        nodes = timeline.nodes[lo:hi]
        times = timeline.times[lo:hi]
        ordinals = timeline.ordinals[lo:hi]
        extras = timeline.extras[lo:hi]
        flag_idx = np.flatnonzero(kinds == OP_FLAG)
        if flag_idx.size:
            flips = self._recovery_rng.random(flag_idx.size)
            triggered = ~(flips > self.config.recovery_trigger_fraction)
            self._flagged_recovered += int(triggered.sum())
            self._flagged_skipped += int(flag_idx.size - triggered.sum())
            keep = np.ones(kinds.shape[0], dtype=bool)
            keep[flag_idx[~triggered]] = False
            kinds = kinds[keep]
            nodes = nodes[keep]
            times = times[keep]
            ordinals = ordinals[keep]
            extras = extras[keep]
        return (
            kinds.tolist(),
            nodes.tolist(),
            times.tolist(),
            ordinals.tolist(),
            extras.tolist(),
        )

    # ------------------------------------------------------------------
    # DES mode: the coordinator drives the repair-policy scheduler
    # ------------------------------------------------------------------

    def _apply_completions(self, jobs: List["RepairJob"]) -> None:
        """Apply finished repair jobs to the store, in order.

        Mirrors the serial service's ``_finish_job``: wait metrics are
        charged before the cancellation check.
        """
        for job in jobs:
            self._queue_wait_us += int(
                round((job.start - job.enqueue_time) * 1e6)
            )
            if job.urgent:
                self._urgent_wait_us += int(
                    round((job.completion - job.enqueue_time) * 1e6)
                )
            if self._state.apply_completion(job):
                self._latencies.append(job.completion - job.enqueue_time)

    def _submit_flag(self, node: int, time: float, ordinal: int) -> None:
        """Enqueue one repair job per degraded unit on a flagged node, in
        the store's per-node query order -- the serial
        ``_submit_repairs`` enqueue sequence exactly."""
        state = self._state
        for uid in state.degraded_uids(node).tolist():
            stripe, slot = divmod(uid, state.width)
            collected = state.collect_repair_job(stripe, slot)
            if collected is None:
                continue
            nbytes, missing_count = collected
            dest = rack = None
            if self.scheduler.link is not None:
                dest = state.precompute_destination(stripe, slot, ordinal)
                if dest is not None:
                    rack = dest // self.topology.nodes_per_rack
            self.scheduler.submit(
                RepairJob(
                    stripe=stripe,
                    slot=slot,
                    uid=uid,
                    shard_id=0,
                    enqueue_time=time,
                    ordinal=ordinal,
                    nbytes=nbytes,
                    urgent=missing_count >= 2,
                    dest=dest,
                    rack=rack,
                ),
                time,
            )

    def _apply_epoch_des(self, ops: Tuple, bound: float) -> None:
        """Apply one epoch with the repair-policy scheduler in the loop.

        Interleaving law: before each timeline op, completions strictly
        *before* its timestamp are applied (ops win exact-time ties,
        matching the serial event queue where pre-installed ops carry
        smaller sequence numbers than run-scheduled wakes); at the epoch
        boundary, completions strictly before the boundary are drained
        so boundary-time completions stay pending for the next epoch.
        """
        state = self._state
        for kind, node, time, ordinal, extra in zip(*ops):
            self._apply_completions(
                self.scheduler.advance(time, inclusive=False)
            )
            if kind == OP_DOWN:
                state._node_down(node)
            elif kind == OP_UP:
                state._node_up(node)
            elif kind == OP_READ:
                read_bytes = state._apply_read(extra, ordinal, node, time)
                if read_bytes is not None:
                    rack = node // self.topology.nodes_per_rack
                    latency_us = int(
                        round(
                            self.scheduler.read_latency(
                                time, read_bytes, rack
                            )
                            * 1e6
                        )
                    )
                    rs = state.read_stats
                    rs.degraded_read_latency_us += latency_us
                    if latency_us > rs.degraded_read_latency_max_us:
                        rs.degraded_read_latency_max_us = latency_us
            else:  # OP_FLAG
                self._submit_flag(node, time, ordinal)
        self._apply_completions(
            self.scheduler.advance(bound, inclusive=False)
        )

    def _build_state(self) -> ShardState:
        """Construct the store from the initial payload or a restored
        snapshot (snapshots carry the extra keys)."""
        from repro.cluster.checkpoint import (
            restore_meter,
            restore_read_stats,
            restore_stats,
        )

        state = self._initial_state
        node_lists = None
        if "list_nodes" in state:
            node_lists = _decode_node_lists(
                state["list_nodes"], state["list_counts"], state["list_uids"]
            )
        meter = (
            restore_meter(self.topology, state["meter"], self.record_transfers)
            if "meter" in state
            else TrafficMeter(
                self.topology, record_transfers=self.record_transfers
            )
        )
        return ShardState(
            placement=state["placement"],
            unit_sizes=state["unit_sizes"],
            width=self.config.stripe_width_units,
            num_nodes=self.config.num_nodes,
            code=self.code,
            policy=self.policy,
            meter=meter,
            destination_draws=self.config.destination_draws,
            entropy=self._entropy,
            parallel_repair=self.config.parallel_repair,
            corrupt_rows=self._corrupt,
            missing=state.get("missing"),
            node_lists=node_lists,
            is_up=self._initial_is_up,
            stats=(
                restore_stats(state["stats"]) if "stats" in state else None
            ),
            read_stats=(
                restore_read_stats(state["read_stats"])
                if "read_stats" in state
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def _write_checkpoint(self, next_epoch: int) -> None:
        from repro.cluster.checkpoint import (
            SimulationCheckpoint,
            save_checkpoint,
        )

        wall0 = time_module.perf_counter()
        state = self._state.state_dict()
        scheduler_state = None
        policy_state = None
        coord_traj = None
        coord_missing = None
        coord_latencies = None
        if self.scheduler is not None:
            scheduler_state = self.scheduler.state_dict()
            coord_latencies = np.asarray(self._latencies, dtype=np.float64)
        if self.policy.stateful:
            policy_state = self.policy.state_dict()
        if self.scheduler is not None or self.policy.stateful:
            # The format's coordinator trajectories: with one store they
            # are its own node lists and missing bits.
            coord_traj = (
                state["list_nodes"], state["list_counts"], state["list_uids"]
            )
            coord_missing = state["missing"].reshape(-1)
        save_checkpoint(
            self.checkpoint_path,
            SimulationCheckpoint(
                config=self.config,
                next_epoch=next_epoch,
                num_shards=1,
                recovery_rng_state=self._recovery_rng.bit_generator.state,
                policy_rng_state=self.policy.rng.bit_generator.state,
                flagged_events_recovered=self._flagged_recovered,
                flagged_events_skipped=self._flagged_skipped,
                is_up=self._state.is_up,
                shard_states=[state],
                scheduler_state=scheduler_state,
                policy_state=policy_state,
                coord_traj=coord_traj,
                coord_missing=coord_missing,
                coord_latencies=coord_latencies,
                coord_queue_wait_us=self._queue_wait_us,
                coord_urgent_wait_us=self._urgent_wait_us,
            ),
        )
        m = metrics()
        if m is not None:
            m.observe(
                "sim.shard.checkpoint.write_seconds",
                time_module.perf_counter() - wall0,
            )
