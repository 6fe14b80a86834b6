"""The reconstruction scheduler.

When the cluster flags a machine unavailable, the recovery service
rebuilds the missing stripe units elsewhere: for every affected stripe it
asks the protecting code for a :class:`~repro.codes.base.RepairPlan`
against the currently available slots, charges each planned read to the
traffic meter as a transfer from the source machine to the rebuild
destination, and relocates the unit.  This is exactly the accounting the
paper measures: "any 10 of the remaining 13 blocks of its stripe are
downloaded ... through the TOR switches" (Section 2.1), generalised to
whatever the code's plan says.

Repair plans are memoised per ``(failed slot, available slots)`` pattern
-- with single failures dominating (98.08%, Section 2.2) the cache makes
per-block planning O(1).

Two equivalent paths execute a flagged node's recoveries:

- :meth:`RecoveryService.recover_unit` -- one unit at a time; the test
  oracle, and the path every scheduled (policy-engine) completion runs
  through;
- :meth:`RecoveryService.recover_node_batch` (default when recovery is
  instantaneous) -- groups the node's degraded units by their
  ``(failed slot, availability bitmask)`` pattern, resolves each
  distinct pattern once, and charges all resulting transfers through
  :meth:`~repro.cluster.network.TrafficMeter.charge_batch` in one shot.
  Destination draws happen in the same per-unit order as the scalar
  path, so both paths produce bit-identical stats, meters, and stores.

When a :class:`~repro.cluster.repair_policy.RepairScheduler` is
attached (finite bandwidth, lazy repair, or the per-link model), flag
events *submit* repair jobs instead of executing them: the scheduler
decides when each job's service completes, and a wake-event chain on
the DES queue applies completed jobs -- re-planning against
completion-time state, cancelling jobs whose machine returned first --
in deterministic ``(completion, seq)`` order.  Configured as a plain
FIFO over one aggregate pipe this reproduces the historical throttled
law exactly, flag by flag and float by float.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.blockmap import StripeStore
from repro.cluster.config import SECONDS_PER_DAY
from repro.cluster.datanode import NodeStateTable
from repro.cluster.events import EventQueue
from repro.cluster.network import TrafficMeter
from repro.cluster.placement import PlacementPolicy
from repro.cluster.repair_policy import RepairJob, RepairScheduler
from repro.codes.base import ErasureCode, RepairPlan
from repro.errors import ConfigError, PlacementError, RepairError
from repro.observability import metrics


@dataclass
class RecoveryStats:
    """Counters the benches report from."""

    blocks_recovered: int = 0
    blocks_recovered_by_day: Dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    bytes_downloaded: int = 0
    #: Histogram over degraded stripes observed at recovery time:
    #: missing-unit count -> occurrences (Section 2.2 item 2).
    degraded_histogram: Dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    unrecoverable_units: int = 0
    flagged_events_recovered: int = 0
    flagged_events_skipped: int = 0
    #: Per-block flag-to-completion latency (seconds); only populated
    #: when a finite recovery bandwidth is configured.
    repair_latencies: List[float] = field(default_factory=list)
    #: Recoveries that became unnecessary before the shared recovery
    #: pipe reached them (the machine returned first).
    cancelled_recoveries: int = 0
    #: Survivor units skipped by repair planning because they are
    #: marked corrupt (chaos injection); identical between the scalar
    #: and batched paths.
    corrupt_survivors_excluded: int = 0
    #: Repair-policy engine counters; all zero unless a scheduler is
    #: active.  Waits are integer microseconds so every engine's sums
    #: stay exact.
    deferred_repairs: int = 0
    promoted_repairs: int = 0
    queue_peak_depth: int = 0
    #: Sum over completed jobs of (service start - flag time).
    queue_wait_us: int = 0
    #: Sum over completed *urgent* (multi-erasure) jobs of
    #: (completion - flag time) -- the multi-erasure exposure metric
    #: the priority discipline exists to shrink.
    urgent_wait_us: int = 0
    #: Rebuilt units whose destination landed in the hot-spare pool.
    spare_placements: int = 0
    #: Parallel multi-failure recovery (CR-SIM waves): wave count and
    #: how many extra units rode along with a leader's decode.
    parallel_waves: int = 0
    wave_extra_units: int = 0

    def daily_blocks_series(self, num_days: int) -> List[int]:
        return [
            self.blocks_recovered_by_day.get(day, 0) for day in range(num_days)
        ]

    def degraded_fractions(self) -> Dict[str, float]:
        """Fractions of degraded stripes with 1 / 2 / >=3 missing units."""
        total = sum(self.degraded_histogram.values())
        if not total:
            return {"one": 0.0, "two": 0.0, "three_plus": 0.0}
        one = self.degraded_histogram.get(1, 0)
        two = self.degraded_histogram.get(2, 0)
        three_plus = total - one - two
        return {
            "one": one / total,
            "two": two / total,
            "three_plus": three_plus / total,
        }


class RecoveryService:
    """Rebuilds missing units when machines are flagged unavailable.

    Parameters
    ----------
    store, state, placement, meter:
        The shared cluster substrate.
    code:
        The protecting erasure code (drives repair plans).
    rng:
        Stream for the trigger coin-flip and destination choice.
    trigger_fraction:
        Probability that a flagged machine's units are reconstructed
        (rather than the machine returning before the re-replication
        queue reaches it); calibrated against Fig. 3b.
    scheduler:
        Optional :class:`~repro.cluster.repair_policy.RepairScheduler`.
        None (default) completes recoveries at flag time (the right
        model for daily byte accounting); with a scheduler attached,
        flag events submit jobs and a wake-event chain applies
        completions, recording per-block repair latencies and the
        ``queue_*`` stats.
    batched:
        Use the vectorised per-node fast path when recoveries complete
        at flag time.  Results are identical either way; False keeps the
        scalar oracle for equivalence tests.
    corrupt_units:
        Optional ``(stripe, slot)`` pairs whose stored bytes are known
        corrupt (chaos injection).  Corrupt units are excluded from
        every repair plan -- reading them would rebuild garbage -- but
        do **not** count as missing for the degraded-stripe histogram,
        which measures true unavailability.  The scalar and batched
        paths apply the exclusion identically.
    destination_draws, destination_entropy:
        ``"stream"`` (default) draws destinations from ``rng`` in
        per-unit order; ``"hashed"`` derives them from
        ``(unit id, flag ordinal, destination_entropy)`` via
        :meth:`PlacementPolicy.hashed_replacement_nodes`, leaving the
        rng stream to the trigger coin-flips alone (see
        ``ClusterConfig.destination_draws``).  ``destination_entropy``
        is required in hashed mode -- the simulation derives it from
        the recovery seed with
        :func:`repro.cluster.placement.destination_entropy`.
    parallel_repair:
        CR-SIM-style parallel multi-failure recovery: when a repair of
        a multi-erasure stripe succeeds, the decode already holds the
        whole stripe, so the remaining missing units are forwarded from
        the leader's destination for one unit transfer each (total
        ``k + a - 1`` transfers for ``a`` erasures instead of ``a``
        independent ``k``-unit repairs).  Requires hashed draws.
    """

    def __init__(
        self,
        store: StripeStore,
        state: NodeStateTable,
        placement: PlacementPolicy,
        code: ErasureCode,
        meter: TrafficMeter,
        rng: np.random.Generator,
        trigger_fraction: float = 1.0,
        scheduler: Optional[RepairScheduler] = None,
        batched: bool = True,
        corrupt_units: Optional[Sequence[Tuple[int, int]]] = None,
        destination_draws: str = "stream",
        destination_entropy: Optional[int] = None,
        parallel_repair: bool = False,
    ):
        if destination_draws not in ("stream", "hashed"):
            raise ConfigError(
                f"unknown destination_draws {destination_draws!r}; "
                f"expected 'stream' or 'hashed'"
            )
        if destination_draws == "hashed" and destination_entropy is None:
            raise ConfigError(
                "destination_draws='hashed' requires destination_entropy "
                "(derive it with repro.cluster.placement.destination_entropy)"
            )
        if parallel_repair and destination_draws != "hashed":
            raise ConfigError(
                "parallel_repair needs order-free destination draws; "
                "set destination_draws='hashed'"
            )
        self.parallel_repair = parallel_repair
        self.destination_draws = destination_draws
        self._dest_entropy = destination_entropy
        #: Count of flag events seen, in event order; the counter the
        #: hashed destination draws mix in.  Advances for *every*
        #: on_node_flagged call (triggered or skipped) so the epoch
        #: engine can reproduce it from the timeline alone.
        self._flag_ordinal = 0
        self.store = store
        self.state = state
        self.placement = placement
        self.code = code
        self.meter = meter
        self.rng = rng
        self.trigger_fraction = trigger_fraction
        self.scheduler = scheduler
        self.batched = batched
        #: Earliest outstanding wake event scheduled on the DES queue
        #: (None when no wake is pending); keeps the wake chain from
        #: flooding the queue with duplicates.
        self._wake_at: Optional[float] = None
        self._corrupt_mask: Optional[np.ndarray] = None
        if corrupt_units:
            mask = np.zeros(
                (store.num_stripes, store.width), dtype=bool
            )
            for stripe, slot in corrupt_units:
                mask[int(stripe), int(slot)] = True
            self._corrupt_mask = mask
        self.stats = RecoveryStats()
        # (failed slot, availability bitmask) -> resolved plan arrays,
        # or None for unrecoverable patterns.  The bitmask determines
        # the available-slot tuple, so entries stay valid forever.
        self._pattern_plans: Dict[
            Tuple[int, int],
            Optional[Tuple[RepairPlan, np.ndarray, np.ndarray]],
        ] = {}
        self._mask_weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Entry point (wired to FailureInjector.on_flagged)
    # ------------------------------------------------------------------

    def on_node_flagged(self, queue: EventQueue, node: int, time: float) -> None:
        """Reconstruct the flagged machine's missing units (maybe)."""
        self._flag_ordinal += 1
        if self.rng.random() > self.trigger_fraction:
            self.stats.flagged_events_skipped += 1
            return
        self.stats.flagged_events_recovered += 1
        if self.scheduler is not None:
            self._submit_repairs(queue, node, time)
        elif self.batched:
            self.recover_node_batch(node, time)
        else:
            for stripe, slot in self.store.degraded_stripes_on_node(node):
                self.recover_unit(stripe, slot, time)

    def _usable_slots(self, stripe: int) -> Tuple[Tuple[int, ...], int]:
        """(available slots minus corrupt ones, true missing count)."""
        available = tuple(self.store.available_slots(stripe))
        missing_count = self.store.width - len(available)
        if self._corrupt_mask is not None:
            usable = tuple(
                slot
                for slot in available
                if not self._corrupt_mask[stripe, slot]
            )
            self.stats.corrupt_survivors_excluded += len(available) - len(
                usable
            )
            available = usable
        return available, missing_count

    def _submit_repairs(
        self, queue: EventQueue, node: int, time: float
    ) -> None:
        """Turn a flagged node's degraded units into scheduler jobs.

        Units are submitted in the store's per-node query order
        (never-relocated units in uid order, relocated-in units
        appended) -- the identical order the historical throttled
        enqueue used, and the one the epoch engine's node lists
        reproduce.  Plans are resolved at enqueue time to
        size each job's download; unplannable units count as
        unrecoverable right here, exactly like the historical enqueue.
        """
        scheduler = self.scheduler
        # Defensive: the wake chain should have drained everything due
        # strictly before this flag already; if an earlier wake was
        # superseded, apply stragglers now, in completion order.
        for job in scheduler.advance(time, inclusive=False):
            self._finish_job(job)
        width = self.store.width
        uids = self.store.degraded_uids_on_node(node)
        # Hashed draws mix in the flag ordinal; capture it now, because
        # by completion time later flags will have advanced the counter.
        ordinal = self._flag_ordinal
        link_active = scheduler.link is not None
        for uid in uids.tolist():
            stripe, slot = divmod(uid, width)
            available, missing_count = self._usable_slots(stripe)
            plan = self._resolve_plan(slot, available)
            if plan is None:
                self._count_unrecoverable(missing_count)
                continue
            nbytes = plan.bytes_downloaded(int(self.store.unit_sizes[stripe]))
            if self.parallel_repair and missing_count >= 2:
                # One wave job carries the stripe's other erasures too
                # (k + a - 1 transfers occupy the pipe together).  If a
                # sibling's own job completes first, this side of the
                # reservation goes unused -- a deliberate, deterministic
                # over-booking, not double repair.
                nbytes += (missing_count - 1) * int(
                    self.store.unit_sizes[stripe]
                )
            dest = rack = None
            if link_active:
                dest = self._precompute_destination(stripe, slot, ordinal)
                if dest is not None:
                    rack = dest // self.placement.topology.nodes_per_rack
            scheduler.submit(
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
        self._schedule_wake(queue)

    def _precompute_destination(
        self, stripe: int, slot: int, ordinal: int
    ) -> Optional[int]:
        """Enqueue-time destination draw for the per-link model.

        The link model needs to know which TOR a job will occupy before
        the job runs.  If placement cannot find a destination now (all
        racks excluded under a correlated burst), the job travels
        without one and the completion-time redraw decides -- graceful
        degradation, never a crash.
        """
        try:
            return int(
                self.placement.hashed_replacement_nodes(
                    np.asarray(
                        [self.store.stripe_nodes(stripe)], dtype=np.int64
                    ),
                    self.state.down_nodes(),
                    np.asarray(
                        [stripe * self.store.width + slot], dtype=np.int64
                    ),
                    ordinal,
                    self._dest_entropy,
                    commit=False,
                )[0]
            )
        except PlacementError:
            return None

    def _schedule_wake(self, queue: EventQueue) -> None:
        """Keep exactly one wake event at the scheduler's next instant."""
        wake = self.scheduler.next_wake()
        if wake is None:
            return
        if wake < queue.now:
            wake = queue.now
        if self._wake_at is not None and self._wake_at <= wake:
            return
        self._wake_at = wake
        queue.schedule(wake, self._on_wake, label="repair-wake")

    def _on_wake(self, queue: EventQueue, now: float) -> None:
        self._wake_at = None
        for job in self.scheduler.advance(now, inclusive=True):
            self._finish_job(job)
        self._schedule_wake(queue)

    def _finish_job(self, job: RepairJob) -> None:
        """Apply one completed job against *current* cluster state."""
        stats = self.stats
        stats.queue_wait_us += int(
            round((job.start - job.enqueue_time) * 1e6)
        )
        if job.urgent:
            stats.urgent_wait_us += int(
                round((job.completion - job.enqueue_time) * 1e6)
            )
        if not self.store.missing[job.stripe, job.slot]:
            # The machine returned before the queue reached this block;
            # nothing to rebuild.
            stats.cancelled_recoveries += 1
            return
        if self.recover_unit(
            job.stripe,
            job.slot,
            job.completion,
            ordinal=job.ordinal,
            destination=job.dest,
        ):
            stats.repair_latencies.append(job.completion - job.enqueue_time)

    def finalize_scheduler_stats(self) -> None:
        """Copy the scheduler's aggregates into the run's stats."""
        scheduler = self.scheduler
        if scheduler is None:
            return
        self.stats.deferred_repairs += scheduler.deferred_total
        self.stats.promoted_repairs += scheduler.promoted_total
        self.stats.queue_peak_depth = max(
            self.stats.queue_peak_depth, scheduler.peak_depth
        )

    # ------------------------------------------------------------------
    # Per-unit recovery (the oracle path)
    # ------------------------------------------------------------------

    def recover_unit(
        self,
        stripe: int,
        slot: int,
        time: float,
        ordinal: Optional[int] = None,
        destination: Optional[int] = None,
    ) -> bool:
        """Rebuild one stripe unit; returns False if unrecoverable now.

        ``ordinal`` overrides the flag ordinal hashed destination draws
        mix in (the scheduled path completes recoveries after later
        flags have advanced the counter); None uses the current one.
        ``destination`` is an optional enqueue-time precommitted
        destination (the per-link model); it is validated against
        current state and silently redrawn if stale.
        """
        if not self.store.missing[stripe, slot]:
            raise RepairError(
                f"unit {slot} of stripe {stripe} is not missing"
            )
        available, missing_count = self._usable_slots(stripe)
        plan = self._resolve_plan(slot, available)
        if plan is None:
            self._count_unrecoverable(missing_count)
            return False
        self.stats.degraded_histogram[missing_count] += 1
        unit_size = int(self.store.unit_sizes[stripe])
        subunit_bytes = unit_size // self.code.substripes_per_unit
        stripe_nodes = self.store.stripe_nodes(stripe)
        if destination is not None and (
            self.placement.stateful
            or destination in stripe_nodes
            or self.state.is_down(destination)
        ):
            # Stale precommit, or a stateful policy whose precommit was
            # a peek (only the link model's TOR estimate): redraw below
            # so the committing draw happens exactly once, now.
            destination = None
        if destination is None:
            if self.destination_draws == "hashed":
                destination = int(
                    self.placement.hashed_replacement_nodes(
                        np.asarray([stripe_nodes], dtype=np.int64),
                        self.state.down_nodes(),
                        np.asarray(
                            [stripe * self.store.width + slot],
                            dtype=np.int64,
                        ),
                        self._flag_ordinal if ordinal is None else ordinal,
                        self._dest_entropy,
                    )[0]
                )
            else:
                destination = self.placement.replacement_node(
                    exclude_nodes=stripe_nodes + self.state.down_nodes()
                )
        if self.placement.is_spare(destination):
            self.stats.spare_placements += 1
        unit_bytes_downloaded = 0
        for request in plan.requests:
            source_node = stripe_nodes[request.node]
            self.meter.charge(
                time,
                source_node,
                destination,
                len(request.substripes) * subunit_bytes,
                purpose="recovery",
            )
            self.stats.bytes_downloaded += len(request.substripes) * subunit_bytes
            unit_bytes_downloaded += len(request.substripes) * subunit_bytes
        self.store.relocate_unit(stripe, slot, destination)
        self.stats.blocks_recovered += 1
        self.stats.blocks_recovered_by_day[int(time // SECONDS_PER_DAY)] += 1
        m = metrics()
        if m is not None:
            m.inc("recovery.blocks_recovered")
            m.inc("recovery.bytes_downloaded", unit_bytes_downloaded)
        if self.parallel_repair:
            self._recover_wave(
                stripe,
                destination,
                time,
                self._flag_ordinal if ordinal is None else ordinal,
            )
        return True

    def _recover_wave(
        self, stripe: int, leader_dest: int, time: float, ordinal: int
    ) -> None:
        """Forward a repaired stripe's other missing units (CR-SIM).

        The leader's decode already reconstructed the whole stripe at
        ``leader_dest``, so each remaining erasure costs exactly one
        unit transfer from there -- ``k + a - 1`` total instead of
        ``a * k``.  Each forwarded unit ticks the degraded histogram at
        its observed missing count (a, a-1, ...), the same sequence a
        serial repair of the survivors would have recorded.
        """
        extra_slots = np.flatnonzero(self.store.missing[stripe]).tolist()
        if not extra_slots:
            return
        self.stats.parallel_waves += 1
        unit_size = int(self.store.unit_sizes[stripe])
        for slot in extra_slots:
            remaining = int(self.store.missing[stripe].sum())
            self.stats.degraded_histogram[remaining] += 1
            stripe_nodes = self.store.stripe_nodes(stripe)
            destination = int(
                self.placement.hashed_replacement_nodes(
                    np.asarray([stripe_nodes], dtype=np.int64),
                    self.state.down_nodes(),
                    np.asarray(
                        [stripe * self.store.width + slot], dtype=np.int64
                    ),
                    ordinal,
                    self._dest_entropy,
                )[0]
            )
            if self.placement.is_spare(destination):
                self.stats.spare_placements += 1
            self.meter.charge(
                time, leader_dest, destination, unit_size, purpose="recovery"
            )
            self.stats.bytes_downloaded += unit_size
            self.store.relocate_unit(stripe, slot, destination)
            self.stats.blocks_recovered += 1
            self.stats.blocks_recovered_by_day[
                int(time // SECONDS_PER_DAY)
            ] += 1
            self.stats.wave_extra_units += 1
            m = metrics()
            if m is not None:
                m.inc("recovery.blocks_recovered")
                m.inc("recovery.bytes_downloaded", unit_size)
                m.inc("recovery.wave_extra_units")

    # ------------------------------------------------------------------
    # Batched per-node recovery (the fast path)
    # ------------------------------------------------------------------

    def recover_node_batch(self, node: int, time: float) -> int:
        """Rebuild every degraded unit of one node in a vectorised pass.

        Equivalent to calling :meth:`recover_unit` for each degraded
        (stripe, slot) of the node in index order -- same stats, meter
        totals, rng draws, and final store state -- but plans are
        resolved once per distinct failure pattern and all transfers are
        metered in a single :meth:`TrafficMeter.charge_batch` call.
        Returns the number of blocks recovered.
        """
        store = self.store
        uids = store.degraded_uids_on_node(node)
        if not uids.size:
            return 0
        width = store.width
        if self.parallel_repair or self.placement.stateful:
            # Waves relocate units beyond this node's list and stateful
            # (d3) picks thread a load vector through every draw, so
            # both run the scalar oracle in the store's per-node order.
            # Batching is the independent-single-unit fast path only.
            recovered = 0
            for uid in uids.tolist():
                stripe, slot = divmod(uid, width)
                if not store.missing[stripe, slot]:
                    continue
                if self.recover_unit(stripe, slot, time):
                    recovered += 1
            return recovered
        stripes = uids // width
        slots = uids % width
        live_rows = ~store.missing[stripes]
        # The degraded histogram counts true unavailability; corrupt
        # survivors are *excluded from planning* but still live.
        missing_counts = width - live_rows.sum(axis=1)
        avail_rows = live_rows
        if self._corrupt_mask is not None:
            corrupt_rows = self._corrupt_mask[stripes]
            self.stats.corrupt_survivors_excluded += int(
                (live_rows & corrupt_rows).sum()
            )
            avail_rows = live_rows & ~corrupt_rows
        # Pattern key: failed slot + availability bitmask.  Distinct
        # patterns are few (98% of stripes miss exactly one unit), so a
        # persistent pattern -> plan cache makes planning O(1) per unit.
        if self._mask_weights is None or self._mask_weights.shape[0] != width:
            self._mask_weights = np.int64(1) << np.arange(
                width, dtype=np.int64
            )
        mask_keys = (avail_rows @ self._mask_weights).tolist()
        key_list = list(zip(slots.tolist(), mask_keys))
        plans = self._pattern_plans
        missing_list = missing_counts.tolist()
        # One pass: resolve each unit's pattern (memoised), account the
        # unrecoverable ones, and group the recoverable ones by pattern
        # (every unit of a pattern reads the same plan slots).
        groups: Dict[Tuple[int, int], List[int]] = {}
        rec_list: List[int] = []
        plan_hits = 0
        plan_misses = 0
        for i, key in enumerate(key_list):
            try:
                resolved = plans[key]
                plan_hits += 1
            except KeyError:
                plan_misses += 1
                available = tuple(np.flatnonzero(avail_rows[i]).tolist())
                plan = self._resolve_plan(key[0], available)
                resolved = None
                if plan is not None:
                    resolved = (
                        plan,
                        np.array(
                            [r.node for r in plan.requests], dtype=np.int64
                        ),
                        np.array(
                            [len(r.substripes) for r in plan.requests],
                            dtype=np.int64,
                        ),
                    )
                plans[key] = resolved
            if resolved is None:
                self._count_unrecoverable(missing_list[i])
            else:
                groups.setdefault(key, []).append(len(rec_list))
                rec_list.append(i)
        m = metrics()
        if m is not None:
            m.inc("recovery.plan_cache.hits", plan_hits)
            m.inc("recovery.plan_cache.misses", plan_misses)
            m.observe("recovery.batch.size", int(uids.size))
        if not rec_list:
            return 0
        rec_idx = np.asarray(rec_list, dtype=np.int64)
        rec_stripes = stripes[rec_idx]
        rec_slots = slots[rec_idx]
        rows = store.placement[rec_stripes]
        down = self.state.down_nodes()
        if self.destination_draws == "hashed":
            destinations = self.placement.hashed_replacement_nodes(
                rows, down, uids[rec_idx], self._flag_ordinal,
                self._dest_entropy,
            )
        else:
            # One interleaved rng draw for every destination; falls back
            # to the scalar per-unit draws when a unit has no free rack
            # (same stream either way -- see
            # PlacementPolicy.replacement_nodes).
            destinations = self.placement.replacement_nodes(rows, down)
            if destinations is None:
                destinations = np.array(
                    [
                        self.placement.replacement_node(row + down)
                        for row in rows.tolist()
                    ],
                    dtype=np.int64,
                )
        if self.placement.spares_per_rack:
            offsets = destinations % self.placement.topology.nodes_per_rack
            self.stats.spare_placements += int(
                (offsets >= self.placement.data_nodes_per_rack).sum()
            )
        for count, occurrences in enumerate(
            np.bincount(missing_counts[rec_idx]).tolist()
        ):
            if occurrences:
                self.stats.degraded_histogram[count] += occurrences
        substripes = self.code.substripes_per_unit
        subunit_sizes = store.unit_sizes[rec_stripes] // substripes
        # Gather transfers per distinct pattern with one 2-d fancy index
        # per group.  Transfer order differs from the scalar path but
        # every meter aggregate is order-invariant.
        src_chunks: List[np.ndarray] = []
        dst_chunks: List[np.ndarray] = []
        nbyte_chunks: List[np.ndarray] = []
        for key, members in groups.items():
            __, request_nodes, request_subunits = plans[key]
            member_idx = np.asarray(members, dtype=np.int64)
            src_chunks.append(rows[member_idx][:, request_nodes].ravel())
            dst_chunks.append(
                np.repeat(destinations[member_idx], request_nodes.shape[0])
            )
            nbyte_chunks.append(
                (
                    subunit_sizes[member_idx, None] * request_subunits[None, :]
                ).ravel()
            )
        store.relocate_units(rec_stripes, rec_slots, destinations)
        srcs = np.concatenate(src_chunks)
        num_bytes = np.concatenate(nbyte_chunks)
        self.meter.charge_batch(
            np.full(srcs.shape[0], time),
            srcs,
            np.concatenate(dst_chunks),
            num_bytes,
            purpose="recovery",
        )
        recovered = int(rec_idx.size)
        batch_bytes = int(num_bytes.sum())
        self.stats.bytes_downloaded += batch_bytes
        self.stats.blocks_recovered += recovered
        self.stats.blocks_recovered_by_day[
            int(time // SECONDS_PER_DAY)
        ] += recovered
        if m is not None:
            m.inc("recovery.blocks_recovered", recovered)
            m.inc("recovery.bytes_downloaded", batch_bytes)
        return recovered

    # ------------------------------------------------------------------
    # Shared plan resolution and failure accounting
    # ------------------------------------------------------------------

    def _resolve_plan(
        self, slot: int, available: Tuple[int, ...]
    ) -> Optional[RepairPlan]:
        """Memoised plan lookup; None when the survivors cannot rebuild.

        Non-MDS codes (LRC) can be unrecoverable even with k or more
        survivors, depending on which nodes failed.
        """
        if len(available) < self.code.k:
            return None
        try:
            return self._plan_for(slot, available)
        except RepairError:
            return None

    def _count_unrecoverable(self, missing_count: int) -> None:
        """One histogram + unrecoverable tick per failed repair attempt.

        Shared by the immediate and throttled paths so neither can
        double-count a stripe's degradation.
        """
        self.stats.degraded_histogram[missing_count] += 1
        self.stats.unrecoverable_units += 1
        m = metrics()
        if m is not None:
            m.inc("recovery.unrecoverable_units")

    def _plan_for(self, slot: int, available: Tuple[int, ...]) -> RepairPlan:
        # The memo lives on the code instance
        # (ErasureCode.repair_plan_cached), so every recovery service --
        # and analysis code asking the same questions -- shares one
        # cache per code.
        return self.code.repair_plan_cached(slot, available)
