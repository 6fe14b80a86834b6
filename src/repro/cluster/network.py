"""Network byte accounting.

The paper's headline measurement (Fig. 3b) is "# cross-rack transfer
bytes" per day, attributed to recovery of RS-coded blocks.  The
:class:`TrafficMeter` charges every simulated transfer to:

- a running cross-rack / intra-rack total,
- a per-day cross-rack series (the Fig. 3b line),
- per-switch counters (each TOR switch and the aggregation switch), and
- per-purpose totals (recovery vs other traffic), so foreground traffic
  can share the meters in extended experiments.
"""

from __future__ import annotations

import time as time_module
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.config import SECONDS_PER_DAY
from repro.cluster.topology import Topology
from repro.errors import SimulationError
from repro.observability import get_logger, metrics


def _group_sums(keys: np.ndarray, values: np.ndarray, size: int = 0):
    """Integer-exact grouped sums: unique keys and their value totals.

    ``np.bincount`` would force the byte counts through float64; this
    stays in int64 so meter totals match the scalar path bit-for-bit.
    When the keys are dense non-negative ints below ``size`` (rack ids,
    day numbers) a scatter-add into a dense array skips the sort a
    ``np.unique`` grouping would pay.
    """
    if keys.shape[0] == 0:
        return [], []
    if size and int(keys.min()) >= 0 and int(keys.max()) < size:
        sums = np.zeros(size, dtype=np.int64)
        np.add.at(sums, keys, values)
        present = np.zeros(size, dtype=bool)
        present[keys] = True
        hit = np.flatnonzero(present)
        return hit.tolist(), sums[hit].tolist()
    unique, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(unique.shape[0], dtype=np.int64)
    np.add.at(sums, inverse, values)
    return unique.tolist(), sums.tolist()


@dataclass(frozen=True)
class Transfer:
    """One point-to-point transfer, for detailed inspection in tests."""

    time: float
    src_node: int
    dst_node: int
    num_bytes: int
    cross_rack: bool
    purpose: str


class TrafficMeter:
    """Charges transfers and aggregates them the way the paper reports.

    Parameters
    ----------
    topology:
        Used to classify transfers and name switch paths.
    record_transfers:
        Keep a full transfer log (tests and small sims only; the log
        grows with every transfer).
    """

    def __init__(self, topology: Topology, record_transfers: bool = False):
        self.topology = topology
        self.record_transfers = record_transfers
        self.transfers: List[Transfer] = []
        self.total_bytes = 0
        self.cross_rack_bytes = 0
        self.intra_rack_bytes = 0
        self.num_transfers = 0
        self.bytes_by_purpose: Dict[str, int] = defaultdict(int)
        self.cross_rack_bytes_by_day: Dict[int, int] = defaultdict(int)
        self.bytes_by_switch: Dict[str, int] = defaultdict(int)

    def charge(
        self,
        time: float,
        src_node: int,
        dst_node: int,
        num_bytes: int,
        purpose: str = "recovery",
    ) -> bool:
        """Record one transfer; returns whether it crossed racks."""
        if num_bytes < 0:
            raise SimulationError(f"negative transfer size {num_bytes}")
        if src_node == dst_node:
            raise SimulationError(
                f"node {src_node} cannot transfer to itself"
            )
        num_bytes = int(num_bytes)
        cross = self.topology.crosses_racks(src_node, dst_node)
        self.total_bytes += num_bytes
        self.num_transfers += 1
        self.bytes_by_purpose[purpose] += num_bytes
        if cross:
            self.cross_rack_bytes += num_bytes
            self.cross_rack_bytes_by_day[int(time // SECONDS_PER_DAY)] += num_bytes
        else:
            self.intra_rack_bytes += num_bytes
        for switch in self.topology.switch_path(src_node, dst_node):
            self.bytes_by_switch[switch] += num_bytes
        m = metrics()
        if m is not None:
            m.inc("network.transfers")
            m.inc("network.bytes", num_bytes)
            m.inc(
                "network.cross_rack_bytes"
                if cross
                else "network.intra_rack_bytes",
                num_bytes,
            )
        if self.record_transfers:
            self.transfers.append(
                Transfer(
                    time=time,
                    src_node=src_node,
                    dst_node=dst_node,
                    num_bytes=num_bytes,
                    cross_rack=cross,
                    purpose=purpose,
                )
            )
        return cross

    def charge_batch(
        self,
        times: np.ndarray,
        src_nodes: np.ndarray,
        dst_nodes: np.ndarray,
        num_bytes: np.ndarray,
        purpose: str = "recovery",
    ) -> int:
        """Charge many transfers in one vectorised pass.

        Aggregates exactly what repeated :meth:`charge` calls would --
        cross/intra-rack split, per-day series, per-switch counters, and
        the transfer log -- but with ``np.bincount``-style reductions
        instead of per-transfer Python work.  The scalar :meth:`charge`
        stays as the test oracle.  Returns the number of cross-rack
        transfers in the batch.
        """
        m = metrics()
        wall0 = time_module.perf_counter() if m is not None else 0.0
        times = np.asarray(times, dtype=np.float64)
        src_nodes = np.asarray(src_nodes, dtype=np.int64)
        dst_nodes = np.asarray(dst_nodes, dtype=np.int64)
        num_bytes = np.asarray(num_bytes, dtype=np.int64)
        count = times.shape[0]
        if not (
            src_nodes.shape[0] == dst_nodes.shape[0]
            == num_bytes.shape[0] == count
        ):
            raise SimulationError("charge_batch arrays disagree in length")
        if count == 0:
            return 0
        if np.any(num_bytes < 0):
            bad = int(num_bytes[num_bytes < 0][0])
            raise SimulationError(f"negative transfer size {bad}")
        self_loops = src_nodes == dst_nodes
        if np.any(self_loops):
            node = int(src_nodes[self_loops][0])
            raise SimulationError(f"node {node} cannot transfer to itself")
        src_racks = self.topology.racks_of(src_nodes)
        dst_racks = self.topology.racks_of(dst_nodes)
        cross = src_racks != dst_racks
        cross_sum = int(num_bytes[cross].sum())
        total = int(num_bytes.sum())
        self.total_bytes += total
        self.num_transfers += count
        self.bytes_by_purpose[purpose] += total
        self.cross_rack_bytes += cross_sum
        self.intra_rack_bytes += total - cross_sum
        days = (times[cross] // SECONDS_PER_DAY).astype(np.int64)
        day_size = int(days.max()) + 1 if days.shape[0] else 0
        # The loop variables must not reuse ``total``: the batch total
        # is a live local (it just fed ``intra_rack_bytes`` above), and
        # a shadowing rebind here once corrupted any later use of it.
        for day, day_total in zip(*_group_sums(days, num_bytes[cross], day_size)):
            self.cross_rack_bytes_by_day[day] += day_total
        # TOR accounting: every transfer passes its source TOR; a
        # cross-rack one additionally passes the aggregation switch and
        # the destination TOR (Fig. 1's path).
        tor_racks = np.concatenate([src_racks, dst_racks[cross]])
        tor_bytes = np.concatenate([num_bytes, num_bytes[cross]])
        for rack, rack_total in zip(
            *_group_sums(tor_racks, tor_bytes, self.topology.num_racks)
        ):
            self.bytes_by_switch[f"tor_{rack}"] += rack_total
        if np.any(cross):
            # Key even for zero-byte transfers, like the scalar path's
            # defaultdict increment.
            self.bytes_by_switch["aggregation"] += cross_sum
        if self.record_transfers:
            cross_list = cross.tolist()
            for i in range(count):
                self.transfers.append(
                    Transfer(
                        time=float(times[i]),
                        src_node=int(src_nodes[i]),
                        dst_node=int(dst_nodes[i]),
                        num_bytes=int(num_bytes[i]),
                        cross_rack=cross_list[i],
                        purpose=purpose,
                    )
                )
        if m is not None:
            m.inc("network.transfers", count)
            m.inc("network.bytes", total)
            m.inc("network.cross_rack_bytes", cross_sum)
            m.inc("network.intra_rack_bytes", total - cross_sum)
            m.inc("network.charge_batch.calls")
            m.observe("network.charge_batch.size", count)
            m.observe(
                "network.charge_batch.seconds",
                time_module.perf_counter() - wall0,
            )
        return int(cross.sum())

    def daily_cross_rack_series(
        self,
        num_days: Optional[int] = None,
        *,
        allow_overflow: bool = False,
    ) -> List[int]:
        """Cross-rack bytes per day as a dense list (Fig. 3b's line).

        When ``num_days`` is given and transfers were charged on day
        ``num_days`` or later, the window would silently under-report
        traffic; that is now an error by default.  Callers that
        deliberately report full days only (the simulator: recoveries
        triggered near the horizon complete just past it) pass
        ``allow_overflow=True``; the spilled bytes are still surfaced
        through the metrics registry and a warning on the structured
        logger, never dropped silently.
        """
        if not self.cross_rack_bytes_by_day and num_days is None:
            return []
        last_day = (
            max(self.cross_rack_bytes_by_day) + 1
            if self.cross_rack_bytes_by_day
            else 0
        )
        if num_days is not None and last_day > num_days:
            spilled_days = sorted(
                day
                for day in self.cross_rack_bytes_by_day
                if day >= num_days
            )
            spilled_bytes = sum(
                self.cross_rack_bytes_by_day[day] for day in spilled_days
            )
            if not allow_overflow:
                raise SimulationError(
                    f"daily_cross_rack_series(num_days={num_days}) would "
                    f"silently drop {spilled_bytes} cross-rack bytes "
                    f"recorded on day(s) {spilled_days}; widen the window "
                    f"or pass allow_overflow=True to truncate knowingly"
                )
            m = metrics()
            if m is not None:
                m.inc("network.series_overflow_days", len(spilled_days))
                m.inc("network.series_overflow_bytes", spilled_bytes)
            get_logger("repro.network").warning(
                "traffic-series-overflow",
                num_days=num_days,
                spilled_days=len(spilled_days),
                spilled_bytes=spilled_bytes,
            )
        days = num_days if num_days is not None else last_day
        return [self.cross_rack_bytes_by_day.get(day, 0) for day in range(days)]

    @property
    def aggregation_switch_bytes(self) -> int:
        """Bytes through the aggregation switch (== cross-rack bytes)."""
        return self.bytes_by_switch.get("aggregation", 0)


class RepairLinkModel:
    """Busy-until clocks for the per-link repair bandwidth model.

    One clock per destination TOR uplink plus one for the shared
    aggregation trunk, mirroring the oversubscribed two-tier fabric of
    :class:`repro.analysis.oversubscription.UplinkModel`: each TOR
    carries ``link_gbps`` and the aggregation layer carries the sum of
    TOR capacity divided by the oversubscription factor.  A repair
    download lands on its destination's TOR and (sources being spread
    across racks) the aggregation trunk; each link is occupied for
    ``bytes / its capacity`` and the transfer completes at the rate of
    the slowest link.  Byte *accounting* stays in :class:`TrafficMeter`
    -- this class only answers "when is the path free, and how fast".
    """

    def __init__(
        self, num_racks: int, link_gbps: float, oversubscription: float
    ):
        if num_racks < 1:
            raise SimulationError("link model needs at least one rack")
        self.num_racks = num_racks
        self.tor_rate = link_gbps * 1e9 / 8.0
        self.agg_rate = num_racks * self.tor_rate / oversubscription
        self.tor_free = [0.0] * num_racks
        self.agg_free = 0.0

    def gate(self, rack: Optional[int]) -> float:
        """Earliest time a transfer into ``rack`` can start."""
        if rack is None:
            return self.agg_free
        return max(self.tor_free[rack], self.agg_free)

    def occupy(self, rack: Optional[int], nbytes: float, start: float) -> None:
        """Reserve the path for a transfer starting at ``start``."""
        if rack is not None:
            self.tor_free[rack] = start + nbytes / self.tor_rate
        self.agg_free = start + nbytes / self.agg_rate

    @property
    def min_rate(self) -> float:
        """End-to-end transfer rate (the slowest link on the path)."""
        return min(self.tor_rate, self.agg_rate)

    def wait(self, rack: Optional[int], now: float) -> float:
        """Queueing delay a transfer into ``rack`` would see at ``now``."""
        return max(0.0, self.gate(rack) - now)

    def state_dict(self) -> Dict[str, object]:
        return {"tor_free": list(self.tor_free), "agg_free": self.agg_free}

    def restore(self, state: Dict[str, object]) -> None:
        tor_free = list(state["tor_free"])
        if len(tor_free) != self.num_racks:
            raise SimulationError(
                f"link-model state has {len(tor_free)} TOR clocks; "
                f"topology has {self.num_racks} racks"
            )
        self.tor_free = [float(t) for t in tor_free]
        self.agg_free = float(state["agg_free"])
