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
   coordinator -> shard *epochs*: broadcast one day's ops, apply them,
   merge the deltas.

2. **Stripes never interact.**  Recovery reads, repair plans, degraded
   histograms, and relocations are all per-stripe, so the stripe store
   partitions by a stable stripe hash into shards that each maintain
   their slice of placements/missing bits plus a full (cheap) replica of
   node availability.  Every per-shard counter is an order-invariant
   integer sum, so merging shard meters and stats reproduces the serial
   result *exactly* -- same bytes, same series, same histograms.

Every shard runs in the calling process; one epoch loop applies each
day's ops to the shards in turn.

Exactness contract (tested in ``tests/cluster/test_shard.py``):

- ``destination_draws="stream"`` (the historical semantics): a single
  shard replays the shared-rng draw order and matches
  ``WarehouseSimulation`` bit-for-bit.  Multiple shards are a
  :class:`ConfigError` -- stream draws are order-dependent by
  definition.
- ``destination_draws="hashed"``: destinations are a pure function of
  ``(unit id, flag ordinal, seed)``, so the run partitions freely;
  any shard count equals the ``WarehouseSimulation`` oracle
  bit-for-bit under the same config.

Checkpointing (:mod:`repro.cluster.checkpoint`) snapshots shard states,
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
    _splitmix64,
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


def stripe_shard_ids(num_stripes: int, num_shards: int) -> np.ndarray:
    """Stable stripe -> shard assignment (splitmix64 hash, mod shards).

    Hash-based rather than contiguous ranges so correlated placement
    structure (consecutive stripes share rng history) spreads across
    shards, and stable in the sense that it depends only on the stripe
    id and the shard count -- not on the epoch or any runtime state.
    """
    hashes = _splitmix64(np.arange(num_stripes, dtype=np.uint64))
    return (hashes % np.uint64(num_shards)).astype(np.int64)


class ShardState:
    """One shard's slice of the cluster, in epoch-replayable form.

    Mirrors exactly the state the serial engine keeps for these stripes:
    placement rows, missing bits, per-node unit lists in the store's
    query order (never-relocated units in uid order, relocated-in units
    in arrival order -- see :func:`repro.cluster.blockmap.node_unit_lists`),
    plus a full replica of node availability (every shard applies every
    down/up op; the replica is one bool per node).

    Recovery at a flag op replays :meth:`RecoveryService.recover_node_batch`
    over the shard-local degraded units.  Transfers accumulate per epoch
    and hit the shard's private :class:`TrafficMeter` in one
    ``charge_batch`` per epoch -- per-transfer times are preserved, so
    per-day aggregation is exact and the merged meter equals the serial
    one.
    """

    def __init__(
        self,
        shard_id: int,
        stripe_ids: np.ndarray,
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
        self.shard_id = shard_id
        self.stripe_ids = np.ascontiguousarray(stripe_ids, dtype=np.int64)
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
        # (failed slot, availability bitmask) -> resolved plan arrays
        # plus a content key for merging pattern groups that share one
        # plan; same cache keys as the serial service, per shard.
        self._plans: Dict[
            Tuple[int, int], Optional[Tuple[np.ndarray, np.ndarray, bytes]]
        ] = {}
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
    ) -> int:
        """Apply one epoch's (pre-filtered) ops; returns blocks recovered.

        Every flag op in the slice is already known to be triggered (the
        coordinator draws the trigger flips and drops skipped flags), so
        this path is rng-free in hashed mode.
        """
        recovered = 0
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
                recovered += self._node_flagged(node, time, ordinal)
        return recovered

    def local_index(self, stripe: int) -> Optional[int]:
        """Row index of a global stripe id, or None if not ours."""
        idx = int(np.searchsorted(self.stripe_ids, stripe))
        if (
            idx < self.stripe_ids.shape[0]
            and self.stripe_ids[idx] == stripe
        ):
            return idx
        return None

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
        """Shard-local replay of ``ReadWorkload.perform_read``.

        Returns the bytes a *degraded* read downloaded (for the
        coordinator's scheduler-latency accounting), None otherwise --
        including when the stripe belongs to another shard, in which
        case nothing is counted here (exactly one shard owns each
        stripe, so merged read stats are exact sums).
        """
        local = self.local_index(stripe)
        if local is None:
            return None
        read_stats = self.read_stats
        read_stats.reads += 1
        unit_size = int(self.unit_sizes[local])
        holder = int(self.placement[local, slot])
        if not self.missing[local, slot] and self.is_up[holder]:
            if holder != client:
                self._charge_scalar(time, holder, client, unit_size, "read")
            read_stats.healthy_reads += 1
            read_stats.healthy_bytes += unit_size
            return None
        available = tuple(np.flatnonzero(~self.missing[local]).tolist())
        if len(available) < self.code.k:
            read_stats.failed_reads += 1
            return None
        try:
            plan = self.code.repair_plan_cached(slot, available)
        except RepairError:
            read_stats.failed_reads += 1
            return None
        subunit_bytes = unit_size // self.code.substripes_per_unit
        row = self.placement[local]
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

    def _node_flagged(self, node: int, time: float, ordinal: int) -> int:
        """Shard-local replay of ``RecoveryService.recover_node_batch``."""
        units = self.node_units.get(node)
        if not units:
            return 0
        flat_missing = self._flat_missing
        luids = np.asarray(units, dtype=np.int64)
        luids = luids[flat_missing[luids]]
        if not luids.size:
            return 0
        if self.parallel_repair:
            # Waves relocate units beyond this node's own list, so this
            # replays the serial engine's scalar walk in the store's
            # query order instead of the batched pass.  Stats stay
            # exact across shards: recoveries decompose per stripe and
            # hashed draws are order-free.
            return self._node_flagged_scalar(luids, time, ordinal)
        width = self.width
        lstripes = luids // width
        slots = luids % width
        live_rows = ~self.missing[lstripes]
        missing_counts = width - live_rows.sum(axis=1)
        avail_rows = live_rows
        if self._corrupt is not None:
            corrupt_rows = self._corrupt[lstripes]
            self.stats.corrupt_survivors_excluded += int(
                (live_rows & corrupt_rows).sum()
            )
            avail_rows = live_rows & ~corrupt_rows
        mask_keys = (avail_rows @ self._mask_weights).tolist()
        key_list = list(zip(slots.tolist(), mask_keys))
        plans = self._plans
        missing_list = missing_counts.tolist()
        # Group recoverable units by the *content* of their resolved
        # plan, not the (slot, mask) pattern key: distinct availability
        # masks overwhelmingly resolve to identical request lists
        # (single failures dominate), so this collapses ~a dozen
        # pattern groups per flag into one or two -- fewer, larger
        # transfer gathers.  Merging groups only reorders transfers,
        # and every meter aggregate is order-invariant.
        groups: Dict[bytes, Tuple[Tuple[np.ndarray, np.ndarray], List[int]]] = {}
        rec_list: List[int] = []
        for i, key in enumerate(key_list):
            try:
                resolved = plans[key]
            except KeyError:
                available = tuple(np.flatnonzero(avail_rows[i]).tolist())
                plan = self._resolve_plan(key[0], available)
                resolved = None
                if plan is not None:
                    request_nodes = np.array(
                        [r.node for r in plan.requests], dtype=np.int64
                    )
                    request_subunits = np.array(
                        [len(r.substripes) for r in plan.requests],
                        dtype=np.int64,
                    )
                    resolved = (
                        request_nodes,
                        request_subunits,
                        request_nodes.tobytes() + request_subunits.tobytes(),
                    )
                plans[key] = resolved
            if resolved is None:
                self.stats.degraded_histogram[missing_list[i]] += 1
                self.stats.unrecoverable_units += 1
            else:
                try:
                    groups[resolved[2]][1].append(len(rec_list))
                except KeyError:
                    groups[resolved[2]] = (resolved[:2], [len(rec_list)])
                rec_list.append(i)
        if not rec_list:
            return 0
        rec_idx = np.asarray(rec_list, dtype=np.int64)
        rec_stripes = lstripes[rec_idx]
        rec_slots = slots[rec_idx]
        rows = self.placement[rec_stripes]
        down = self._down_nodes()
        if self.destination_draws == "hashed":
            guids = self.stripe_ids[rec_stripes] * width + rec_slots
            destinations = self.policy.hashed_replacement_nodes(
                rows, down, guids, ordinal, self._entropy
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
        for count, occurrences in enumerate(
            np.bincount(missing_counts[rec_idx]).tolist()
        ):
            if occurrences:
                self.stats.degraded_histogram[count] += occurrences
        substripes = self.code.substripes_per_unit
        subunit_sizes = self.unit_sizes[rec_stripes] // substripes
        batch_bytes = 0
        num_rec = len(rec_list)
        for (request_nodes, request_subunits), members in groups.values():
            if len(members) == num_rec:
                # Single plan covers every unit (the common case once
                # groups are merged by plan content): skip the member
                # gather entirely.
                grp_rows, grp_sizes, grp_dsts = rows, subunit_sizes, destinations
            else:
                member_idx = np.asarray(members, dtype=np.int64)
                grp_rows = rows[member_idx]
                grp_sizes = subunit_sizes[member_idx]
                grp_dsts = destinations[member_idx]
            srcs = grp_rows[:, request_nodes].ravel()
            nbytes = (
                grp_sizes[:, None] * request_subunits[None, :]
            ).ravel()
            self._ep_srcs.append(srcs)
            self._ep_dsts.append(
                np.repeat(grp_dsts, request_nodes.shape[0])
            )
            self._ep_nbytes.append(nbytes)
            self._ep_times.append((time, srcs.shape[0]))
            batch_bytes += int(nbytes.sum())
        self.placement[rec_stripes, rec_slots] = destinations
        self.missing[rec_stripes, rec_slots] = False
        rec_luids = luids[rec_idx]
        moved = set(rec_luids.tolist())
        self.node_units[node] = [u for u in units if u not in moved]
        node_units = self.node_units
        for dest, uid in zip(destinations.tolist(), rec_luids.tolist()):
            node_units.setdefault(dest, []).append(uid)
        recovered = int(rec_idx.size)
        self.stats.bytes_downloaded += batch_bytes
        self.stats.blocks_recovered += recovered
        self.stats.blocks_recovered_by_day[
            int(time // SECONDS_PER_DAY)
        ] += recovered
        return recovered

    def _node_flagged_scalar(
        self, luids: np.ndarray, time: float, ordinal: int
    ) -> int:
        """Serial-order scalar walk over a flagged node's degraded units
        (the parallel-repair path; see :meth:`_node_flagged`)."""
        recovered = 0
        width = self.width
        for luid in luids.tolist():
            local, slot = divmod(luid, width)
            if not self.missing[local, slot]:
                # A sibling's wave already rebuilt it mid-walk.
                continue
            stripe = int(self.stripe_ids[local])
            recovered += len(
                self.recover_unit_scalar(stripe, slot, time, ordinal)
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

    def _relocate_local(self, local: int, slot: int, destination: int) -> int:
        """Move one unit to ``destination``; returns the old holder."""
        old_holder = int(self.placement[local, slot])
        self.placement[local, slot] = destination
        self.missing[local, slot] = False
        luid = local * self.width + slot
        self.node_units[old_holder].remove(luid)
        self.node_units.setdefault(destination, []).append(luid)
        return old_holder

    def recover_unit_scalar(
        self, stripe: int, slot: int, time: float, ordinal: int
    ) -> List[Tuple[int, int, int]]:
        """Scalar mirror of ``RecoveryService.recover_unit`` (+ wave).

        Used by the parallel-repair walk and by the coordinator-driven
        stateful (d3) epoch path.  Returns the relocations performed --
        ``[(global uid, old holder, destination), ...]``, leader first,
        wave extras after -- so the coordinator can replay them against
        its node trajectories; empty when the unit was not missing or
        is unrecoverable now (stats accounted here either way).
        """
        local = self.local_index(stripe)
        relocations: List[Tuple[int, int, int]] = []
        if not self.missing[local, slot]:
            return relocations
        avail, missing_count = self._usable_row(local)
        available = tuple(np.flatnonzero(avail).tolist())
        plan = self._resolve_plan(slot, available)
        if plan is None:
            self.stats.degraded_histogram[missing_count] += 1
            self.stats.unrecoverable_units += 1
            return relocations
        self.stats.degraded_histogram[missing_count] += 1
        unit_size = int(self.unit_sizes[local])
        subunit_bytes = unit_size // self.code.substripes_per_unit
        row = self.placement[local]
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
        old_holder = self._relocate_local(local, slot, destination)
        self.stats.bytes_downloaded += unit_bytes
        self.stats.blocks_recovered += 1
        self.stats.blocks_recovered_by_day[
            int(time // SECONDS_PER_DAY)
        ] += 1
        relocations.append((stripe * self.width + slot, old_holder, destination))
        if self.parallel_repair:
            relocations.extend(
                self._wave_scalar(local, stripe, destination, time, ordinal)
            )
        return relocations

    def _wave_scalar(
        self,
        local: int,
        stripe: int,
        leader_dest: int,
        time: float,
        ordinal: int,
    ) -> List[Tuple[int, int, int]]:
        """Shard-local replay of ``RecoveryService._recover_wave``."""
        extra_slots = np.flatnonzero(self.missing[local]).tolist()
        relocations: List[Tuple[int, int, int]] = []
        if not extra_slots:
            return relocations
        self.stats.parallel_waves += 1
        unit_size = int(self.unit_sizes[local])
        for slot in extra_slots:
            remaining = int(self.missing[local].sum())
            self.stats.degraded_histogram[remaining] += 1
            row = self.placement[local]
            destination = self._hashed_destination(row, stripe, slot, ordinal)
            if self.policy.is_spare(destination):
                self.stats.spare_placements += 1
            self._charge_scalar(
                time, leader_dest, destination, unit_size, "recovery"
            )
            old_holder = self._relocate_local(local, slot, destination)
            self.stats.bytes_downloaded += unit_size
            self.stats.blocks_recovered += 1
            self.stats.blocks_recovered_by_day[
                int(time // SECONDS_PER_DAY)
            ] += 1
            self.stats.wave_extra_units += 1
            relocations.append(
                (stripe * self.width + slot, old_holder, destination)
            )
        return relocations

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

    def _usable_row(self, local: int) -> Tuple[np.ndarray, int]:
        """(planning-availability row, true missing count) for one
        stripe, with the same corrupt-survivor accounting as
        ``RecoveryService._usable_slots``."""
        live = ~self.missing[local]
        missing_count = int(self.width - live.sum())
        if self._corrupt is not None:
            corrupt = self._corrupt[local]
            self.stats.corrupt_survivors_excluded += int(
                (live & corrupt).sum()
            )
            live = live & ~corrupt
        return live, missing_count

    def collect_repair_job(
        self, stripe: int, slot: int
    ) -> Optional[Tuple[int, int]]:
        """Enqueue-time planning for one degraded unit of ours.

        Returns ``(planned download bytes, missing count)``, or None
        after accounting the unit unrecoverable -- byte-for-byte the
        accounting ``RecoveryService._submit_repairs`` performs.
        """
        local = self.local_index(stripe)
        avail, missing_count = self._usable_row(local)
        available = tuple(np.flatnonzero(avail).tolist())
        plan = self._resolve_plan(slot, available)
        if plan is None:
            self.stats.degraded_histogram[missing_count] += 1
            self.stats.unrecoverable_units += 1
            return None
        nbytes = plan.bytes_downloaded(int(self.unit_sizes[local]))
        if self.parallel_repair and missing_count >= 2:
            # The wave job carries the stripe's other erasures too --
            # same deliberate over-booking as the serial service.
            nbytes += (missing_count - 1) * int(self.unit_sizes[local])
        return nbytes, missing_count

    def precompute_destination(
        self, stripe: int, slot: int, ordinal: int
    ) -> Optional[int]:
        """Enqueue-time hashed destination draw for the per-link model;
        None (job travels without a TOR) when placement has no rack."""
        local = self.local_index(stripe)
        row = self.placement[local]
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

    def apply_completion(
        self, job: RepairJob
    ) -> Optional[Tuple[int, int, List[Tuple[int, int, int]]]]:
        """Apply one completed scheduler job against current state.

        The scalar mirror of ``RecoveryService._finish_job`` +
        ``recover_unit``: re-plan against completion-time availability,
        validate (or redraw) the destination, charge the plan's
        transfers at the completion instant, relocate.  Returns
        ``(old holder, destination, wave relocations)`` on success
        (the wave list is empty unless ``parallel_repair`` forwarded
        the stripe's other erasures), None when the job was cancelled
        (machine returned first) or unrecoverable now.
        """
        local = self.local_index(job.stripe)
        slot = job.slot
        if not self.missing[local, slot]:
            self.stats.cancelled_recoveries += 1
            return None
        avail, missing_count = self._usable_row(local)
        available = tuple(np.flatnonzero(avail).tolist())
        plan = self._resolve_plan(slot, available)
        if plan is None:
            self.stats.degraded_histogram[missing_count] += 1
            self.stats.unrecoverable_units += 1
            return None
        self.stats.degraded_histogram[missing_count] += 1
        unit_size = int(self.unit_sizes[local])
        subunit_bytes = unit_size // self.code.substripes_per_unit
        row = self.placement[local]
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
            down = self._down_nodes()
            if self.destination_draws == "hashed":
                destination = int(
                    self.policy.hashed_replacement_nodes(
                        row[None, :],
                        down,
                        np.asarray(
                            [job.stripe * self.width + slot],
                            dtype=np.int64,
                        ),
                        job.ordinal,
                        self._entropy,
                    )[0]
                )
            else:
                destination = self.policy.replacement_node(
                    exclude_nodes=stripe_nodes + down
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
        old_holder = int(row[slot])
        self.placement[local, slot] = destination
        self.missing[local, slot] = False
        luid = local * self.width + slot
        self.node_units[old_holder].remove(luid)
        self.node_units.setdefault(destination, []).append(luid)
        self.stats.bytes_downloaded += unit_bytes
        self.stats.blocks_recovered += 1
        self.stats.blocks_recovered_by_day[
            int(time // SECONDS_PER_DAY)
        ] += 1
        extras: List[Tuple[int, int, int]] = []
        if self.parallel_repair:
            extras = self._wave_scalar(
                local, job.stripe, destination, time, job.ordinal
            )
        return old_holder, destination, extras

    def flush_epoch(self) -> int:
        """Charge the epoch's transfers in one batch; returns array bytes.

        Per-transfer times are preserved across the epoch, so the
        meter's per-day grouping is identical to per-flag charging.
        """
        flushed = 0
        if self._ep_srcs:
            # Times are kept as (time, transfer-count) pairs per flag;
            # one repeat here replaces a np.full per group in the hot
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
            flushed += int(
                times.nbytes + srcs.nbytes + dsts.nbytes + nbytes.nbytes
            )
        if self._ep_scalar:
            # Scalar transfers (reads, scheduler completions), one
            # charge_batch per purpose; every meter aggregate is an
            # order-invariant sum, so batching here is exact.
            for purpose in sorted(self._ep_scalar):
                times_l, srcs_l, dsts_l, nbytes_l = self._ep_scalar[purpose]
                times = np.asarray(times_l, dtype=np.float64)
                self.meter.charge_batch(
                    times,
                    np.asarray(srcs_l, dtype=np.int64),
                    np.asarray(dsts_l, dtype=np.int64),
                    np.asarray(nbytes_l, dtype=np.int64),
                    purpose=purpose,
                )
                flushed += int(times.nbytes * 4)
            self._ep_scalar.clear()
        return flushed

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Picklable snapshot of the shard's mutable state.

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
            "shard_id": int(self.shard_id),
            "stripe_ids": self.stripe_ids,
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
    """Epoch-driven, shardable equivalent of :class:`WarehouseSimulation`.

    Parameters
    ----------
    config:
        The simulation config.  ``destination_draws="hashed"`` is
        required for more than one shard; ``"stream"`` runs as a single
        shard that replays the historical rng semantics exactly.
    num_shards:
        Stripe partitions, all applied in this process (default 1).
    workers:
        Accepted only as ``None`` or ``0`` for older callers; worker
        processes were removed, so any other value is a
        :class:`ConfigError`.
    checkpoint_path, checkpoint_every_days:
        Snapshot destination and cadence (day boundaries).  A path with
        no cadence only writes when :meth:`run` stops early
        (``stop_after_day``).

    Read workloads (``reads_per_stripe_per_day > 0``) resolve into the
    timeline up front (the read rng replays the serial workload's draws
    exactly) and execute on the owning shard, so they partition freely.
    Repair-policy configs (throttled recovery, priority/lazy queues,
    the per-link model) serialise through the global queue clocks: the
    coordinator drives the scheduler itself and applies each finished
    job to its owning shard.  Stateful placement (``"d3"``) is
    coordinator-driven the same way: each flag's recoveries apply in
    trajectory order so the policy's global load vector sees exactly
    the serial commit sequence.  Parallel repair
    (``config.parallel_repair``) needs neither: waves stay within one
    stripe, hence one shard, and hashed draws are order-free.
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
                "every shard runs in-process (set num_shards instead)"
            )
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        self.config = config
        self.num_shards = int(num_shards)
        #: Global repair-policy scheduler (None when every repair
        #: completes at flag time).  Queue timing is global state, so
        #: scheduler runs are coordinator-driven.
        self.scheduler = scheduler_from_config(config)
        if config.destination_draws != "hashed" and self.num_shards > 1:
            raise ConfigError(
                "destination_draws='stream' draws destinations from one "
                "shared rng in event order, which cannot be partitioned; "
                "run with num_shards=1, or switch the config to "
                "destination_draws='hashed'"
            )
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
        corrupt_mask = None
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
            corrupt_mask = np.zeros(
                (config.num_stripes, config.stripe_width_units), dtype=bool
            )
            for stripe, slot in plan.corrupt_unit_indices(
                config.chaos_corrupt_units,
                config.num_stripes,
                config.stripe_width_units,
            ):
                corrupt_mask[int(stripe), int(slot)] = True

        shard_of = stripe_shard_ids(config.num_stripes, self.num_shards)
        self._shard_of = shard_of
        #: Coordinator-side global state for scheduler (DES) mode: the
        #: per-node unit trajectories in the store's query order, a flat
        #: missing replica, completed-job latencies, and the exact
        #: integer wait sums -- all None/zero when no scheduler runs.
        self._traj: Optional[Dict[int, List[int]]] = None
        self._missing: Optional[np.ndarray] = None
        self._latencies: List[float] = []
        self._queue_wait_us = 0
        self._urgent_wait_us = 0
        if _restore is None:
            # Fresh run: build the identical substrate the oracle builds
            # (same placement/size streams), then partition by shard.
            placements = self.policy.place_many(config.num_stripes, self.code.n)
            sizes = stripe_unit_sizes(
                np.random.default_rng(size_seed), config.num_stripes, config
            )
            self._initial_states: List[dict] = []
            for s in range(self.num_shards):
                idx = np.flatnonzero(shard_of == s)
                state = {
                    "shard_id": s,
                    "stripe_ids": idx.astype(np.int64),
                    "placement": placements[idx].astype(np.int64),
                    "unit_sizes": sizes[idx].astype(np.int64),
                }
                if corrupt_mask is not None:
                    state["corrupt"] = corrupt_mask[idx]
                self._initial_states.append(state)
            self._start_epoch = 0
            self._is_up = np.ones(config.num_nodes, dtype=bool)
            self._flagged_recovered = 0
            self._flagged_skipped = 0
            if self.scheduler is not None or self.policy.stateful:
                self._traj = node_unit_lists(placements)
                self._missing = np.zeros(placements.size, dtype=bool)
        else:
            # Resume: shard states come from the snapshot; the rng
            # states replace the freshly-seeded generators so the
            # remaining epochs draw exactly what the uninterrupted run
            # would have drawn.
            self._initial_states = []
            for s, state in enumerate(_restore.shard_states):
                state = dict(state)
                if corrupt_mask is not None:
                    idx = state["stripe_ids"]
                    state["corrupt"] = corrupt_mask[idx]
                self._initial_states.append(state)
            self._recovery_rng.bit_generator.state = (
                _restore.recovery_rng_state
            )
            self.policy.rng.bit_generator.state = _restore.policy_rng_state
            self._start_epoch = _restore.next_epoch
            self._is_up = np.asarray(_restore.is_up, dtype=bool).copy()
            self._flagged_recovered = _restore.flagged_events_recovered
            self._flagged_skipped = _restore.flagged_events_skipped
            if self.scheduler is not None or self.policy.stateful:
                if (
                    _restore.coord_traj is None
                    or _restore.coord_missing is None
                ):
                    raise CheckpointError(
                        "config needs coordinator trajectories (repair "
                        "scheduler or stateful placement) but the "
                        "checkpoint carries none; it was written by a "
                        "build without them -- re-create the snapshot"
                    )
                traj_nodes, traj_counts, traj_uids = _restore.coord_traj
                self._traj = _decode_node_lists(
                    traj_nodes, traj_counts, traj_uids
                )
                self._missing = np.asarray(
                    _restore.coord_missing, dtype=bool
                ).copy()
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

        self._shards: List[ShardState] = []

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
        """Reconstruct a simulation from a checkpoint file.

        The shard count comes from the snapshot, because shards are the
        unit of state; the resumed run continues the identical
        trajectory.
        """
        from repro.cluster.checkpoint import load_checkpoint

        data = load_checkpoint(path)
        return cls(
            data.config,
            num_shards=data.num_shards,
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
            m.set_gauge("sim.shard.shards", self.num_shards)
        self._shards = [
            self._build_local_shard(state) for state in self._initial_states
        ]
        for epoch in range(self._start_epoch, target_epoch):
            lo, hi = int(bounds[epoch]), int(bounds[epoch + 1])
            ops = self._prepare_epoch(timeline, lo, hi)
            if self.scheduler is not None:
                recovered = self._apply_epoch_des(
                    ops, (epoch + 1) * SECONDS_PER_DAY
                )
            elif self.policy.stateful:
                recovered = self._apply_epoch_stateful(ops)
            else:
                recovered = self._apply_epoch_serial(ops)
            if m is not None:
                m.inc("sim.shard.epochs")
                m.inc("sim.shard.ops", hi - lo)
                if self.num_shards > 1:
                    m.observe(
                        "sim.shard.imbalance",
                        max(recovered) - min(recovered),
                    )
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
        if self.scheduler is not None:
            # Serial queue.run() drains to exhaustion; mirror it by
            # letting every queued/deferred repair run to completion
            # past the horizon.
            counts = [0] * self.num_shards
            self._apply_completions(
                self.scheduler.advance(math.inf, inclusive=True), counts
            )
            for shard in self._shards:
                shard.flush_epoch()
        meter, stats, read_stats = self._merge_results()
        stats.flagged_events_recovered += self._flagged_recovered
        stats.flagged_events_skipped += self._flagged_skipped
        if self.scheduler is not None:
            stats.repair_latencies.extend(self._latencies)
            stats.queue_wait_us += self._queue_wait_us
            stats.urgent_wait_us += self._urgent_wait_us
            stats.deferred_repairs += self.scheduler.deferred_total
            stats.promoted_repairs += self.scheduler.promoted_total
            stats.queue_peak_depth = max(
                stats.queue_peak_depth, self.scheduler.peak_depth
            )
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
            cross_rack_bytes_per_day=meter.daily_cross_rack_series(
                num_days, allow_overflow=True
            ),
            degraded_fractions=stats.degraded_fractions(),
            degraded_histogram=dict(stats.degraded_histogram),
            stats=stats,
            meter=meter,
            read_stats=(
                read_stats
                if self.config.reads_per_stripe_per_day > 0
                else None
            ),
        )

    def rack_unit_load(self) -> np.ndarray:
        """Per-rack stored-unit counts from the final shard placements.

        The balance measure the d3 replacement rule maintains (rows of
        missing units still count toward their last holder's rack, the
        same convention the serial store uses).  Only available once
        :meth:`run` has built the shards.
        """
        if not self._shards:
            raise SimulationError(
                "rack_unit_load reads the final shard placements; call "
                "run() first"
            )
        npr = self.topology.nodes_per_rack
        load = np.zeros(self.topology.num_racks, dtype=np.int64)
        for shard in self._shards:
            load += np.bincount(
                (shard.placement // npr).ravel(),
                minlength=self.topology.num_racks,
            )
        return load

    def _prepare_epoch(self, timeline: Timeline, lo: int, hi: int) -> Tuple:
        """Draw the epoch's trigger flips and drop skipped flags.

        The flips come off the recovery rng in flag order -- one draw
        per flag event, exactly like the serial service (a bulk
        ``random(n)`` consumes the PCG64 stream identically to n scalar
        draws) -- so the coordinator owns the only order-dependent rng
        use and shards stay rng-free in hashed mode.  Down/up ops also
        update the coordinator's availability replica (checkpoints store
        it).
        """
        kinds = timeline.kinds[lo:hi]
        nodes = timeline.nodes[lo:hi]
        times = timeline.times[lo:hi]
        ordinals = timeline.ordinals[lo:hi]
        extras = timeline.extras[lo:hi]
        flag_idx = np.flatnonzero(kinds == OP_FLAG)
        keep = np.ones(kinds.shape[0], dtype=bool)
        if flag_idx.size:
            flips = self._recovery_rng.random(flag_idx.size)
            triggered = ~(flips > self.config.recovery_trigger_fraction)
            self._flagged_recovered += int(triggered.sum())
            self._flagged_skipped += int(flag_idx.size - triggered.sum())
            keep[flag_idx[~triggered]] = False
        kinds = kinds[keep]
        nodes = nodes[keep]
        times = times[keep]
        ordinals = ordinals[keep]
        extras = extras[keep]
        avail = (kinds == OP_DOWN) | (kinds == OP_UP)
        for kind, node in zip(kinds[avail].tolist(), nodes[avail].tolist()):
            self._is_up[node] = kind == OP_UP
        return (
            kinds.tolist(),
            nodes.tolist(),
            times.tolist(),
            ordinals.tolist(),
            extras.tolist(),
        )

    def _apply_epoch_serial(self, ops: Tuple) -> List[int]:
        kinds, nodes, times, ordinals, extras = ops
        recovered = []
        merge_bytes = 0
        for shard in self._shards:
            recovered.append(
                shard.apply_epoch(kinds, nodes, times, ordinals, extras)
            )
            merge_bytes += shard.flush_epoch()
        m = metrics()
        if m is not None and merge_bytes:
            m.inc("sim.shard.merge_bytes", merge_bytes)
        return recovered

    # ------------------------------------------------------------------
    # DES mode: the coordinator drives the repair-policy scheduler
    # ------------------------------------------------------------------

    def _apply_completions(
        self, jobs: List["RepairJob"], counts: List[int]
    ) -> None:
        """Apply finished repair jobs to their owning shards, in order.

        Mirrors the serial service's ``_finish_job``: wait metrics are
        charged before the cancellation check, and the coordinator's
        node trajectories replay the relocation as remove+append so the
        next flag on a node enqueues in the store's query order.
        """
        for job in jobs:
            self._queue_wait_us += int(
                round((job.start - job.enqueue_time) * 1e6)
            )
            if job.urgent:
                self._urgent_wait_us += int(
                    round((job.completion - job.enqueue_time) * 1e6)
                )
            result = self._shards[job.shard_id].apply_completion(job)
            if result is None:
                continue
            old_holder, destination, extras = result
            self._latencies.append(job.completion - job.enqueue_time)
            counts[job.shard_id] += 1
            self._missing[job.uid] = False
            self._traj[old_holder].remove(job.uid)
            self._traj.setdefault(destination, []).append(job.uid)
            # Wave extras (parallel repair) relocated siblings of the
            # job's stripe; replay them so later flags enqueue in the
            # store's query order.
            for guid, wave_old, wave_dest in extras:
                counts[job.shard_id] += 1
                self._missing[guid] = False
                self._traj[wave_old].remove(guid)
                self._traj.setdefault(wave_dest, []).append(guid)

    def _submit_flag(self, node: int, time: float, ordinal: int) -> None:
        """Enqueue one repair job per degraded unit on a flagged node.

        The trajectory list IS the store's per-node query order
        (never-relocated units in uid order, relocated-in units in
        arrival order), so iterating it unsorted reproduces the serial
        ``_submit_repairs`` enqueue sequence exactly.
        """
        width = self.config.stripe_width_units
        degraded = [
            uid for uid in self._traj.get(node, []) if self._missing[uid]
        ]
        for uid in degraded:
            stripe, slot = divmod(int(uid), width)
            owner = int(self._shard_of[stripe])
            shard = self._shards[owner]
            collected = shard.collect_repair_job(stripe, slot)
            if collected is None:
                continue
            nbytes, missing_count = collected
            dest = rack = None
            if self.scheduler.link is not None:
                dest = shard.precompute_destination(stripe, slot, ordinal)
                if dest is not None:
                    rack = dest // self.topology.nodes_per_rack
            self.scheduler.submit(
                RepairJob(
                    stripe=stripe,
                    slot=slot,
                    uid=int(uid),
                    shard_id=owner,
                    enqueue_time=time,
                    ordinal=ordinal,
                    nbytes=nbytes,
                    urgent=missing_count >= 2,
                    dest=dest,
                    rack=rack,
                ),
                time,
            )

    def _apply_epoch_des(self, ops: Tuple, bound: float) -> List[int]:
        """Apply one epoch with the repair-policy scheduler in the loop.

        Interleaving law: before each timeline op, completions strictly
        *before* its timestamp are applied (ops win exact-time ties,
        matching the serial event queue where pre-installed ops carry
        smaller sequence numbers than run-scheduled wakes); at the epoch
        boundary, completions strictly before the boundary are drained
        so boundary-time completions stay pending for the next epoch.
        """
        kinds, nodes, times, ordinals, extras = ops
        counts = [0] * self.num_shards
        for kind, node, time, ordinal, extra in zip(
            kinds, nodes, times, ordinals, extras
        ):
            self._apply_completions(
                self.scheduler.advance(time, inclusive=False), counts
            )
            if kind == OP_DOWN:
                for shard in self._shards:
                    shard._node_down(node)
                units = self._traj.get(node)
                if units:
                    self._missing[units] = True
            elif kind == OP_UP:
                for shard in self._shards:
                    shard._node_up(node)
                units = self._traj.get(node)
                if units:
                    self._missing[units] = False
            elif kind == OP_READ:
                owner = int(self._shard_of[extra])
                shard = self._shards[owner]
                read_bytes = shard._apply_read(extra, ordinal, node, time)
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
                    rs = shard.read_stats
                    rs.degraded_read_latency_us += latency_us
                    if latency_us > rs.degraded_read_latency_max_us:
                        rs.degraded_read_latency_max_us = latency_us
            else:  # OP_FLAG
                self._submit_flag(node, time, ordinal)
        self._apply_completions(
            self.scheduler.advance(bound, inclusive=False), counts
        )
        merge_bytes = 0
        for shard in self._shards:
            merge_bytes += shard.flush_epoch()
        m = metrics()
        if m is not None and merge_bytes:
            m.inc("sim.shard.merge_bytes", merge_bytes)
        return counts

    def _apply_epoch_stateful(self, ops: Tuple) -> List[int]:
        """Apply one epoch with a stateful placement (d3), no scheduler.

        The policy's load vector must see exactly the serial oracle's
        commit sequence, so the coordinator walks the ops itself and
        drives each flag's recoveries through the owning shard in the
        store's per-node query order (the node trajectories), instead
        of letting shards batch their own slices.
        """
        kinds, nodes, times, ordinals, extras = ops
        counts = [0] * self.num_shards
        width = self.config.stripe_width_units
        for kind, node, time, ordinal, extra in zip(
            kinds, nodes, times, ordinals, extras
        ):
            if kind == OP_DOWN:
                for shard in self._shards:
                    shard._node_down(node)
                units = self._traj.get(node)
                if units:
                    self._missing[units] = True
            elif kind == OP_UP:
                for shard in self._shards:
                    shard._node_up(node)
                units = self._traj.get(node)
                if units:
                    self._missing[units] = False
            elif kind == OP_READ:
                owner = int(self._shard_of[extra])
                self._shards[owner]._apply_read(extra, ordinal, node, time)
            else:  # OP_FLAG
                degraded = [
                    uid
                    for uid in self._traj.get(node, [])
                    if self._missing[uid]
                ]
                for uid in degraded:
                    stripe, slot = divmod(int(uid), width)
                    owner = int(self._shard_of[stripe])
                    relocations = self._shards[owner].recover_unit_scalar(
                        stripe, slot, time, ordinal
                    )
                    counts[owner] += len(relocations)
                    for guid, old_holder, destination in relocations:
                        self._missing[guid] = False
                        self._traj[old_holder].remove(guid)
                        self._traj.setdefault(destination, []).append(guid)
        merge_bytes = 0
        for shard in self._shards:
            merge_bytes += shard.flush_epoch()
        m = metrics()
        if m is not None and merge_bytes:
            m.inc("sim.shard.merge_bytes", merge_bytes)
        return counts

    def _build_local_shard(self, state: dict) -> ShardState:
        """Construct a :class:`ShardState` from an initial payload or a
        restored snapshot (snapshots carry the extra keys)."""
        from repro.cluster.checkpoint import (
            restore_meter,
            restore_read_stats,
            restore_stats,
        )

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
            shard_id=int(state["shard_id"]),
            stripe_ids=state["stripe_ids"],
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
            corrupt_rows=state.get("corrupt"),
            missing=state.get("missing"),
            node_lists=node_lists,
            is_up=self._is_up,
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
    # Snapshots and result merging
    # ------------------------------------------------------------------

    def _write_checkpoint(self, next_epoch: int) -> None:
        from repro.cluster.checkpoint import (
            SimulationCheckpoint,
            save_checkpoint,
        )

        wall0 = time_module.perf_counter()
        states = [shard.state_dict() for shard in self._shards]
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
        if self._traj is not None:
            traj_nodes = [
                n for n in sorted(self._traj) if self._traj[n]
            ]
            traj_counts = [len(self._traj[n]) for n in traj_nodes]
            traj_concat: List[int] = []
            for n in traj_nodes:
                traj_concat.extend(self._traj[n])
            coord_traj = (
                np.asarray(traj_nodes, dtype=np.int64),
                np.asarray(traj_counts, dtype=np.int64),
                np.asarray(traj_concat, dtype=np.int64),
            )
            coord_missing = self._missing
        save_checkpoint(
            self.checkpoint_path,
            SimulationCheckpoint(
                config=self.config,
                next_epoch=next_epoch,
                num_shards=self.num_shards,
                recovery_rng_state=self._recovery_rng.bit_generator.state,
                policy_rng_state=self.policy.rng.bit_generator.state,
                flagged_events_recovered=self._flagged_recovered,
                flagged_events_skipped=self._flagged_skipped,
                is_up=self._is_up,
                shard_states=states,
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

    def _merge_results(
        self,
    ) -> Tuple[TrafficMeter, RecoveryStats, ReadStats]:
        meter = TrafficMeter(
            self.topology, record_transfers=self.record_transfers
        )
        stats = RecoveryStats()
        read_stats = ReadStats()
        for shard in self._shards:
            meter.merge_from(shard.meter)
            stats.merge_from(shard.stats)
            read_stats.merge_from(shard.read_stats)
        return meter, stats, read_stats
