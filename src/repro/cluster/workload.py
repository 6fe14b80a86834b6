"""Foreground read workload, including degraded reads.

Section 2.1: "Map-reduce jobs are the predominant consumers of the data
stored in the cluster", and recovery traffic competes with them for the
oversubscribed TOR uplinks.  A map task whose input block is offline
performs a *degraded read*: it reconstructs the block contents inline by
downloading a repair plan's worth of data -- paying the same network
multiplier the paper studies, on the read path.

:class:`ReadWorkload` schedules Poisson reads over the stripe store's
data blocks.  Healthy reads transfer one block from its holder to the
reading client; degraded reads execute the protecting code's repair plan
(without relocating anything) and are metered under the
``"degraded-read"`` purpose so they can be reported separately from
reconstruction traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.blockmap import StripeStore
from repro.cluster.config import SECONDS_PER_DAY
from repro.cluster.datanode import NodeStateTable
from repro.cluster.events import EventQueue
from repro.cluster.network import TrafficMeter
from repro.codes.base import ErasureCode
from repro.errors import ConfigError, RepairError


@dataclass
class ReadStats:
    """Counters for the read workload."""

    reads: int = 0
    healthy_reads: int = 0
    degraded_reads: int = 0
    failed_reads: int = 0
    healthy_bytes: int = 0
    degraded_bytes: int = 0
    #: Total and worst-case queueing+transfer latency degraded reads
    #: observe on the repair fabric (integer microseconds; zero unless
    #: the per-link/bandwidth model is active).
    degraded_read_latency_us: int = 0
    degraded_read_latency_max_us: int = 0

    @property
    def degraded_fraction(self) -> float:
        return self.degraded_reads / self.reads if self.reads else 0.0

    @property
    def degraded_read_amplification(self) -> float:
        """Bytes per degraded read relative to bytes per healthy read."""
        if not self.degraded_reads or not self.healthy_reads:
            return 0.0
        per_degraded = self.degraded_bytes / self.degraded_reads
        per_healthy = self.healthy_bytes / self.healthy_reads
        return per_degraded / per_healthy if per_healthy else 0.0


class ReadWorkload:
    """Poisson foreground reads over the data blocks of a stripe store.

    Parameters
    ----------
    store, state, meter, code:
        Shared cluster substrate.
    rng:
        Stream for read times, targets, and client placement.
    reads_per_stripe_per_day:
        Poisson intensity; total rate is ``num_stripes x`` this.
    scheduler:
        Optional :class:`~repro.cluster.repair_policy.RepairScheduler`.
        When present, each degraded read asks it (observationally --
        no clock advances) how long the repair fabric would delay the
        reconstruction download, recorded into the latency stats.
    """

    def __init__(
        self,
        store: StripeStore,
        state: NodeStateTable,
        meter: TrafficMeter,
        code: ErasureCode,
        rng: np.random.Generator,
        reads_per_stripe_per_day: float,
        scheduler=None,
    ):
        if reads_per_stripe_per_day < 0:
            raise ConfigError("read rate must be non-negative")
        self.store = store
        self.state = state
        self.meter = meter
        self.code = code
        self.rng = rng
        self.reads_per_stripe_per_day = reads_per_stripe_per_day
        self.scheduler = scheduler
        self.stats = ReadStats()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def install(self, queue: EventQueue, days: float) -> int:
        """Schedule all reads for the run; returns the count scheduled."""
        total_rate = self.reads_per_stripe_per_day * self.store.num_stripes
        expected = total_rate * days
        if expected <= 0:
            return 0
        count = int(self.rng.poisson(expected))
        times = np.sort(self.rng.uniform(0.0, days * SECONDS_PER_DAY, count))
        stripes = self.rng.integers(0, self.store.num_stripes, count)
        slots = self.rng.integers(0, self.code.k, count)  # data blocks only
        clients = self.rng.integers(0, self.state.num_nodes, count)
        for time, stripe, slot, client in zip(times, stripes, slots, clients):
            queue.schedule(
                float(time),
                self._make_read(int(stripe), int(slot), int(client)),
                label="read",
            )
        return count

    def _make_read(self, stripe: int, slot: int, client: int):
        def handler(queue: EventQueue, time: float) -> None:
            self.perform_read(stripe, slot, client, time)

        return handler

    # ------------------------------------------------------------------
    # Read execution
    # ------------------------------------------------------------------

    def perform_read(
        self, stripe: int, slot: int, client: int, time: float
    ) -> bool:
        """Read one data block; returns False when currently unservable."""
        self.stats.reads += 1
        unit_size = int(self.store.unit_sizes[stripe])
        holder = int(self.store.placement[stripe, slot])
        if not self.store.missing[stripe, slot] and not self.state.is_down(
            holder
        ):
            if holder != client:
                self.meter.charge(time, holder, client, unit_size, purpose="read")
            self.stats.healthy_reads += 1
            self.stats.healthy_bytes += unit_size
            return True
        # Degraded read: run the repair plan toward the client.  Plans
        # come from the shared per-code memo (repair_plan_cached), the
        # same cache the recovery service populates.
        available = tuple(self.store.available_slots(stripe))
        if len(available) < self.code.k:
            self.stats.failed_reads += 1
            return False
        try:
            plan = self.code.repair_plan_cached(slot, available)
        except RepairError:
            self.stats.failed_reads += 1
            return False
        subunit_bytes = unit_size // self.code.substripes_per_unit
        stripe_nodes = self.store.stripe_nodes(stripe)
        read_bytes = 0
        for request in plan.requests:
            source = stripe_nodes[request.node]
            num_bytes = len(request.substripes) * subunit_bytes
            if source != client:
                self.meter.charge(
                    time, source, client, num_bytes, purpose="degraded-read"
                )
            self.stats.degraded_bytes += num_bytes
            read_bytes += num_bytes
        self.stats.degraded_reads += 1
        if self.scheduler is not None:
            rack = self.meter.topology.rack_of(client)
            latency_us = int(
                round(
                    self.scheduler.read_latency(time, read_bytes, rack) * 1e6
                )
            )
            self.stats.degraded_read_latency_us += latency_us
            if latency_us > self.stats.degraded_read_latency_max_us:
                self.stats.degraded_read_latency_max_us = latency_us
        return True
