"""Repair-policy engine: prioritised, bandwidth-aware recovery queues.

The paper's tension (Section 2): recovery traffic is a median 180 TB/day
-- 10-20% of the cluster network -- yet 98.08% of degraded stripes have
exactly one erasure while the 1.87% + 0.05% multi-erasure tail carries
nearly all the data-loss risk.  A flat FIFO treats both the same.  The
:class:`RepairScheduler` replaces the historical single throttled FIFO
(``RecoveryService._enqueue_throttled``) with a policy layer:

- **priority** -- 2+-erasure stripes are served strictly before
  single-erasure ones, with optional aging so the bulk never starves;
- **lazy repair** -- single-erasure stripes are deferred for a timer
  (default: the paper's 15-minute flag threshold) or until a deferred
  backlog threshold, so machines that return quickly cancel their
  repairs instead of moving bytes;
- **per-link contention** -- when a :class:`~repro.cluster.network.
  RepairLinkModel` is attached, repairs queue on their destination TOR
  uplink and the shared aggregation trunk instead of one aggregate pipe,
  and degraded reads can ask the same clocks for queueing *latency*;
- **promotion** -- when a stripe picks up a second erasure while its
  first repair is still queued or deferred, the pending job is promoted
  to urgent immediately.

The scheduler is a pure, deterministic state machine: no wall clock, no
rng, no knowledge of stores or placements.  Engines ``submit`` jobs,
``advance`` the clock, and apply the completed jobs that come back --
which is what lets the serial DES oracle and the epoch engine's coordinator
share one implementation and stay bit-identical.  Configured as a flat
FIFO over one aggregate pipe it reproduces the historical throttled
law exactly: a job is assigned the moment the pipe frees, so the
``start = max(flag_time, pipe_free)`` / ``pipe_free = start + duration``
chain of the old enqueue-time precommit re-emerges job by job.

Checkpointing: :meth:`RepairScheduler.state_dict` captures every queued
job and clock so a run stopped mid-backlog resumes byte-identical to a
straight-through run (see ``checkpoint.py``).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.config import SECONDS_PER_DAY, ClusterConfig
from repro.cluster.network import RepairLinkModel
from repro.observability import get_logger, metrics

#: Job lifecycle states (serialised into checkpoints).
JOB_DEFERRED = 0
JOB_READY = 1
JOB_IN_SERVICE = 2
JOB_DONE = 3

#: Queue-wait beyond which the scheduler warns (once) that repair is
#: falling behind the failure process.
BACKLOG_WARN_SECONDS = SECONDS_PER_DAY


class RepairJob:
    """One pending unit reconstruction travelling through the queues.

    ``nbytes`` is the planned download size *at enqueue time*; it fixes
    the job's service duration (the historical throttled law).  The
    repair itself re-plans against completion-time state when it runs,
    so a stripe that degraded further while queued still rebuilds
    correctly -- or counts as unrecoverable then.
    """

    __slots__ = (
        "stripe",
        "slot",
        "uid",
        "shard_id",
        "enqueue_time",
        "ready_time",
        "ordinal",
        "nbytes",
        "urgent",
        "seq",
        "state",
        "dest",
        "rack",
        "start",
        "completion",
    )

    def __init__(
        self,
        stripe: int,
        slot: int,
        uid: int,
        shard_id: int,
        enqueue_time: float,
        ordinal: int,
        nbytes: int,
        urgent: bool,
        dest: Optional[int] = None,
        rack: Optional[int] = None,
    ):
        self.stripe = stripe
        self.slot = slot
        self.uid = uid
        self.shard_id = shard_id
        self.enqueue_time = enqueue_time
        self.ready_time = enqueue_time
        self.ordinal = ordinal
        self.nbytes = nbytes
        self.urgent = urgent
        self.seq = -1
        self.state = JOB_READY
        self.dest = dest
        self.rack = rack
        self.start = math.nan
        self.completion = math.nan


class RepairScheduler:
    """Priority/lazy/link-aware queueing for unit repairs.

    Engines drive it with three calls:

    - :meth:`submit` a job at its flag time;
    - :meth:`advance` the clock to ``now``, receiving the jobs whose
      service completed (in deterministic ``(completion, seq)`` order);
    - :meth:`next_wake` to learn when the next internal event is due,
      so the DES can schedule a wake-up instead of polling.

    Invariant: after ``advance(now)`` every internal event time is
    ``> now`` (``>= now`` for the exclusive form), so ``next_wake`` is
    never in the caller's past.
    """

    def __init__(
        self,
        *,
        pipe_bytes_per_sec: Optional[float] = None,
        discipline: str = "fifo",
        priority_aging_seconds: Optional[float] = None,
        lazy_repair: bool = False,
        lazy_delay_seconds: float = 900.0,
        lazy_threshold: Optional[int] = None,
        link_model: Optional[RepairLinkModel] = None,
    ):
        self.pipe_rate = pipe_bytes_per_sec
        self.discipline = discipline
        self.aging = priority_aging_seconds
        self.lazy = lazy_repair
        self.lazy_delay = lazy_delay_seconds
        self.lazy_threshold = lazy_threshold
        self.link = link_model
        self._pipe_free = 0.0
        self._seq = 0
        self._ready: List[RepairJob] = []
        self._deferred: Deque[RepairJob] = deque()
        self._deferred_live = 0
        self._in_service: List[Tuple[float, int, RepairJob]] = []
        # stripe -> pending (deferred/ready) jobs, for urgent promotion.
        self._stripe_jobs: Dict[int, List[RepairJob]] = {}
        # Aggregates surfaced into RecoveryStats at the end of a run.
        self.enqueued_total = 0
        self.deferred_total = 0
        self.promoted_total = 0
        self.threshold_flushes = 0
        self.peak_depth = 0
        self._warned_backlog = False

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------

    def submit(self, job: RepairJob, now: float) -> None:
        """Accept a job at its flag time (``now == job.enqueue_time``)."""
        job.seq = self._seq
        self._seq += 1
        self.enqueued_total += 1
        if job.urgent:
            self._promote_stripe(job.stripe)
        if self.lazy and not job.urgent:
            job.state = JOB_DEFERRED
            self._deferred.append(job)
            self._deferred_live += 1
            self.deferred_total += 1
            if (
                self.lazy_threshold is not None
                and self._deferred_live >= self.lazy_threshold
            ):
                self._flush_deferred(now)
        else:
            job.state = JOB_READY
            job.ready_time = now
            self._ready.append(job)
        self._stripe_jobs.setdefault(job.stripe, []).append(job)
        depth = len(self._ready) + self._deferred_live + len(self._in_service)
        if depth > self.peak_depth:
            self.peak_depth = depth
        m = metrics()
        if m is not None:
            m.inc("sim.repair.queue_enqueued")
            m.set_gauge("sim.repair.queue_depth", depth)

    def _promote_stripe(self, stripe: int) -> None:
        """A stripe just went multi-erasure: expedite its pending jobs."""
        pending = self._stripe_jobs.get(stripe)
        if not pending:
            return
        for other in pending:
            if other.state == JOB_DEFERRED:
                other.state = JOB_READY
                other.urgent = True
                self._deferred_live -= 1
                self._ready.append(other)
                self.promoted_total += 1
            elif other.state == JOB_READY and not other.urgent:
                other.urgent = True
                self.promoted_total += 1
        m = metrics()
        if m is not None:
            m.inc("sim.repair.queue_promoted")

    def _flush_deferred(self, now: float) -> None:
        """Deferred backlog hit the threshold: activate everything."""
        flushed = 0
        while self._deferred:
            job = self._deferred.popleft()
            if job.state != JOB_DEFERRED:
                continue  # promoted out earlier; deque entry is stale
            job.state = JOB_READY
            job.ready_time = now
            self._ready.append(job)
            flushed += 1
        self._deferred_live = 0
        if flushed:
            self.threshold_flushes += 1
            m = metrics()
            if m is not None:
                m.inc("sim.repair.queue_flushed", flushed)

    # ------------------------------------------------------------------
    # The clock
    # ------------------------------------------------------------------

    def next_wake(self) -> Optional[float]:
        """Earliest pending internal event, or None when idle."""
        t = min(
            self._next_completion_time(),
            self._next_activation_time(),
            self._next_assignment()[0],
        )
        return None if t == math.inf else t

    def advance(self, now: float, inclusive: bool = True) -> List[RepairJob]:
        """Play internal events up to ``now``; return completed jobs.

        ``inclusive=False`` stops strictly before ``now`` -- the form
        engines use right before applying a simulation event at ``now``,
        so simulation events win exact-time ties exactly as the old
        event-queue seq ordering made them.  At one instant the order
        is completions, then activations, then assignments.
        """
        completed: List[RepairJob] = []
        while True:
            t_comp = self._next_completion_time()
            t_act = self._next_activation_time()
            t_asg, job = self._next_assignment()
            t = min(t_comp, t_act, t_asg)
            if t == math.inf or (t > now if inclusive else t >= now):
                break
            if t_comp == t:
                _, _, done = heapq.heappop(self._in_service)
                done.state = JOB_DONE
                completed.append(done)
            elif t_act == t:
                self._activate_one(t)
            else:
                self._assign(job, t)
        return completed

    def _next_completion_time(self) -> float:
        return self._in_service[0][0] if self._in_service else math.inf

    def _next_activation_time(self) -> float:
        while self._deferred and self._deferred[0].state != JOB_DEFERRED:
            self._deferred.popleft()  # promoted/flushed out; stale entry
        if not self._deferred:
            return math.inf
        return self._deferred[0].enqueue_time + self.lazy_delay

    def _activate_one(self, now: float) -> None:
        job = self._deferred.popleft()
        job.state = JOB_READY
        job.ready_time = now
        self._deferred_live -= 1
        self._ready.append(job)

    def _gate(self, job: RepairJob) -> float:
        gate = -math.inf
        if self.pipe_rate is not None:
            gate = self._pipe_free
        if self.link is not None:
            gate = max(gate, self.link.gate(job.rack))
        return gate

    def _service_class(self, job: RepairJob, t: float) -> int:
        """0 = serve first.  FIFO collapses every job into one class."""
        if self.discipline != "priority":
            return 0
        if job.urgent:
            return 0
        if self.aging is not None and t - job.enqueue_time >= self.aging:
            return 0
        return 1

    def _next_assignment(self) -> Tuple[float, Optional[RepairJob]]:
        """(earliest assignment time, the job to assign then)."""
        if not self._ready:
            return math.inf, None
        best_t = math.inf
        best_key = None
        best_job = None
        for job in self._ready:
            t = max(job.ready_time, self._gate(job))
            if t > best_t:
                continue
            key = (self._service_class(job, t), job.seq)
            if t < best_t or key < best_key:
                best_t = t
                best_key = key
                best_job = job
        return best_t, best_job

    def _assign(self, job: RepairJob, t: float) -> None:
        self._ready.remove(job)
        pending = self._stripe_jobs.get(job.stripe)
        if pending is not None:
            pending.remove(job)
            if not pending:
                del self._stripe_jobs[job.stripe]
        job.state = JOB_IN_SERVICE
        job.start = t
        rates = []
        if self.pipe_rate is not None:
            rates.append(self.pipe_rate)
            self._pipe_free = t + job.nbytes / self.pipe_rate
        if self.link is not None:
            rates.append(self.link.min_rate)
            self.link.occupy(job.rack, job.nbytes, t)
        duration = job.nbytes / min(rates) if rates else 0.0
        job.completion = t + duration
        heapq.heappush(self._in_service, (job.completion, job.seq, job))
        wait = t - job.enqueue_time
        if wait > BACKLOG_WARN_SECONDS and not self._warned_backlog:
            self._warned_backlog = True
            get_logger("repro.repair").warning(
                "repair-backlog",
                wait_seconds=round(wait, 1),
                ready=len(self._ready),
                deferred=self._deferred_live,
                in_service=len(self._in_service),
            )
            m = metrics()
            if m is not None:
                m.inc("sim.repair.queue_backlogged")

    # ------------------------------------------------------------------
    # Degraded-read latency (observational; no clock is advanced)
    # ------------------------------------------------------------------

    def read_latency(
        self, now: float, nbytes: int, rack: Optional[int] = None
    ) -> float:
        """Seconds a degraded read issued at ``now`` waits + transfers.

        Purely observational: reads share the fabric with repairs but
        are not queued through it, so asking does not perturb the
        repair trajectory.
        """
        wait = 0.0
        rates = []
        if self.pipe_rate is not None:
            rates.append(self.pipe_rate)
            wait = max(wait, self._pipe_free - now)
        if self.link is not None:
            rates.append(self.link.min_rate)
            wait = max(wait, self.link.wait(rack, now))
        if not rates:
            return 0.0
        return wait + nbytes / min(rates)

    # ------------------------------------------------------------------
    # Introspection + checkpointing
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs currently anywhere in the scheduler."""
        return len(self._ready) + self._deferred_live + len(self._in_service)

    def pending_jobs(self) -> List[RepairJob]:
        """Every live job, in seq order (deterministic)."""
        jobs = list(self._ready)
        jobs.extend(j for j in self._deferred if j.state == JOB_DEFERRED)
        jobs.extend(job for _, _, job in self._in_service)
        jobs.sort(key=lambda job: job.seq)
        return jobs

    def state_dict(self) -> Dict[str, object]:
        """Full queue + clock state, checkpoint-serialisable."""
        jobs = self.pending_jobs()
        columns = {
            "stripe": [j.stripe for j in jobs],
            "slot": [j.slot for j in jobs],
            "uid": [j.uid for j in jobs],
            "shard_id": [j.shard_id for j in jobs],
            "enqueue_time": [j.enqueue_time for j in jobs],
            "ready_time": [j.ready_time for j in jobs],
            "ordinal": [j.ordinal for j in jobs],
            "nbytes": [j.nbytes for j in jobs],
            "urgent": [int(j.urgent) for j in jobs],
            "seq": [j.seq for j in jobs],
            "state": [j.state for j in jobs],
            "dest": [-1 if j.dest is None else j.dest for j in jobs],
            "rack": [-1 if j.rack is None else j.rack for j in jobs],
            "start": [j.start for j in jobs],
            "completion": [j.completion for j in jobs],
        }
        state = {
            "jobs": columns,
            "pipe_free": self._pipe_free,
            "seq": self._seq,
            "enqueued_total": self.enqueued_total,
            "deferred_total": self.deferred_total,
            "promoted_total": self.promoted_total,
            "threshold_flushes": self.threshold_flushes,
            "peak_depth": self.peak_depth,
            "warned_backlog": self._warned_backlog,
        }
        if self.link is not None:
            state["link"] = self.link.state_dict()
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Rebuild queues and clocks from :meth:`state_dict` output."""
        self._pipe_free = float(state["pipe_free"])
        self._seq = int(state["seq"])
        self.enqueued_total = int(state["enqueued_total"])
        self.deferred_total = int(state["deferred_total"])
        self.promoted_total = int(state["promoted_total"])
        self.threshold_flushes = int(state["threshold_flushes"])
        self.peak_depth = int(state["peak_depth"])
        self._warned_backlog = bool(state["warned_backlog"])
        if self.link is not None and "link" in state:
            self.link.restore(state["link"])
        self._ready = []
        self._deferred = deque()
        self._deferred_live = 0
        self._in_service = []
        self._stripe_jobs = {}
        columns = state["jobs"]
        for i in range(len(columns["seq"])):
            dest = int(columns["dest"][i])
            rack = int(columns["rack"][i])
            job = RepairJob(
                stripe=int(columns["stripe"][i]),
                slot=int(columns["slot"][i]),
                uid=int(columns["uid"][i]),
                shard_id=int(columns["shard_id"][i]),
                enqueue_time=float(columns["enqueue_time"][i]),
                ordinal=int(columns["ordinal"][i]),
                nbytes=int(columns["nbytes"][i]),
                urgent=bool(columns["urgent"][i]),
                dest=None if dest < 0 else dest,
                rack=None if rack < 0 else rack,
            )
            job.ready_time = float(columns["ready_time"][i])
            job.seq = int(columns["seq"][i])
            job.state = int(columns["state"][i])
            job.start = float(columns["start"][i])
            job.completion = float(columns["completion"][i])
            if job.state == JOB_DEFERRED:
                self._deferred.append(job)
                self._deferred_live += 1
                self._stripe_jobs.setdefault(job.stripe, []).append(job)
            elif job.state == JOB_READY:
                self._ready.append(job)
                self._stripe_jobs.setdefault(job.stripe, []).append(job)
            elif job.state == JOB_IN_SERVICE:
                heapq.heappush(
                    self._in_service, (job.completion, job.seq, job)
                )
            else:
                raise ValueError(f"cannot restore job in state {job.state}")


def scheduler_from_config(config: ClusterConfig) -> Optional[RepairScheduler]:
    """Build the policy scheduler a config asks for, or None.

    Both engines construct their scheduler here, so "which policies are
    active" has exactly one definition (``repair_scheduler_active``).
    """
    if not config.repair_scheduler_active:
        return None
    link = None
    if config.repair_link_gbps is not None:
        link = RepairLinkModel(
            config.num_racks,
            config.repair_link_gbps,
            config.repair_oversubscription,
        )
    return RepairScheduler(
        pipe_bytes_per_sec=config.recovery_bandwidth_bytes_per_sec,
        discipline=config.repair_queue_discipline,
        priority_aging_seconds=config.priority_aging_seconds,
        lazy_repair=config.lazy_repair,
        lazy_delay_seconds=config.lazy_repair_delay_seconds,
        lazy_threshold=config.lazy_repair_threshold,
        link_model=link,
    )
