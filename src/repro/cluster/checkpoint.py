"""Versioned snapshots of a sharded simulation run.

A checkpoint captures everything :class:`~repro.cluster.shard.ShardedSimulation`
needs to continue a run mid-flight with a bit-identical trajectory:

- the full config (the snapshot is self-describing; resume rebuilds the
  simulation from it),
- the epoch cursor (``next_epoch`` -- the first day not yet applied),
- the rng generator states (recovery flips; placement-policy stream for
  ``destination_draws="stream"`` runs),
- coordinator flip counters and the node-availability replica,
- per-shard mutable state: placement rows, missing bits, per-node unit
  lists (ragged-encoded, order preserved -- the order is part of the
  determinism contract), recovery stats, and traffic-meter aggregates.

What it deliberately does *not* store: the failure timeline (a pure
function of the config, re-resolved on resume), unit sizes' provenance
(stored verbatim per shard), and the corrupt-unit mask (re-derived
from the chaos config).

Format: a single ``np.savez`` archive -- raw arrays keyed
``shard{i}_{name}`` plus one JSON document under ``meta`` for
everything scalar.  Writes go through a temp file and ``os.replace`` so
a crash mid-write never corrupts the previous snapshot.  ``version``
gates the whole format: a mismatch raises
:class:`~repro.errors.CheckpointError` rather than guessing.
"""

from __future__ import annotations

import json
import os
import time as time_module
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.network import TrafficMeter
from repro.cluster.recovery import RecoveryStats
from repro.cluster.topology import Topology
from repro.cluster.workload import ReadStats
from repro.errors import CheckpointError
from repro.observability import metrics

#: Bump on any change to the snapshot layout.  Version 2 added the
#: repair-policy scheduler state, coordinator trajectories, per-shard
#: read stats, and the queue-metric recovery-stats fields; version-1
#: snapshots (no scheduler, no reads) still load -- the new fields
#: default to empty.  Version 3 added the stateful-placement (d3)
#: policy state and the parallel-repair wave counters; v1/v2 snapshots
#: still load with those defaulted.
CHECKPOINT_VERSION = 3

#: Versions this build can read.
_READABLE_VERSIONS = (1, 2, 3)

#: Array-valued keys of one shard's state dict, in archive order.
_SHARD_ARRAY_KEYS = (
    "stripe_ids",
    "placement",
    "missing",
    "unit_sizes",
    "list_nodes",
    "list_counts",
    "list_uids",
)


@dataclass
class SimulationCheckpoint:
    """In-memory form of one snapshot (see module docstring)."""

    config: ClusterConfig
    next_epoch: int
    num_shards: int
    recovery_rng_state: dict
    policy_rng_state: dict
    flagged_events_recovered: int
    flagged_events_skipped: int
    is_up: np.ndarray
    shard_states: List[dict]
    version: int = CHECKPOINT_VERSION
    #: Repair-policy scheduler state (queues + clocks) when the config
    #: activates the scheduler; None otherwise (and in v1 snapshots).
    scheduler_state: Optional[dict] = None
    #: Stateful placement-policy state (d3's cursor, load vector, and
    #: rotation cursors); None for stateless policies and pre-v3
    #: snapshots.
    policy_state: Optional[dict] = None
    #: Coordinator per-node unit trajectories, ragged-encoded as
    #: (nodes, counts, concatenated uids) -- list order IS the store's
    #: query order and part of the determinism contract.
    coord_traj: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    coord_missing: Optional[np.ndarray] = None
    coord_latencies: Optional[np.ndarray] = None
    coord_queue_wait_us: int = 0
    coord_urgent_wait_us: int = 0


# ----------------------------------------------------------------------
# Meter / stats (de)serialisation
# ----------------------------------------------------------------------
#
# Integer-keyed dicts are encoded as sorted (key, value) pair lists so
# the same structures survive JSON (the checkpoint meta document, where
# dict keys must be strings).


def meter_state(meter: TrafficMeter) -> Dict[str, object]:
    """Picklable/JSON-able snapshot of a meter's aggregates.

    The transfer log is deliberately excluded: it is a debugging aid
    whose size scales with every transfer, not run state.
    """
    return {
        "total_bytes": meter.total_bytes,
        "cross_rack_bytes": meter.cross_rack_bytes,
        "intra_rack_bytes": meter.intra_rack_bytes,
        "num_transfers": meter.num_transfers,
        "bytes_by_purpose": sorted(meter.bytes_by_purpose.items()),
        "cross_rack_bytes_by_day": sorted(
            meter.cross_rack_bytes_by_day.items()
        ),
        "bytes_by_switch": sorted(meter.bytes_by_switch.items()),
    }


def restore_meter(
    topology: Topology,
    state: Dict[str, object],
    record_transfers: bool = False,
) -> TrafficMeter:
    meter = TrafficMeter(topology, record_transfers=record_transfers)
    meter.total_bytes = int(state["total_bytes"])
    meter.cross_rack_bytes = int(state["cross_rack_bytes"])
    meter.intra_rack_bytes = int(state["intra_rack_bytes"])
    meter.num_transfers = int(state["num_transfers"])
    for purpose, total in state["bytes_by_purpose"]:
        meter.bytes_by_purpose[str(purpose)] = int(total)
    for day, total in state["cross_rack_bytes_by_day"]:
        meter.cross_rack_bytes_by_day[int(day)] = int(total)
    for switch, total in state["bytes_by_switch"]:
        meter.bytes_by_switch[str(switch)] = int(total)
    return meter


def stats_state(stats: RecoveryStats) -> Dict[str, object]:
    """Picklable/JSON-able snapshot of recovery stats."""
    return {
        "blocks_recovered": stats.blocks_recovered,
        "blocks_recovered_by_day": sorted(
            stats.blocks_recovered_by_day.items()
        ),
        "bytes_downloaded": stats.bytes_downloaded,
        "degraded_histogram": sorted(stats.degraded_histogram.items()),
        "unrecoverable_units": stats.unrecoverable_units,
        "flagged_events_recovered": stats.flagged_events_recovered,
        "flagged_events_skipped": stats.flagged_events_skipped,
        "repair_latencies": list(stats.repair_latencies),
        "cancelled_recoveries": stats.cancelled_recoveries,
        "corrupt_survivors_excluded": stats.corrupt_survivors_excluded,
        "deferred_repairs": stats.deferred_repairs,
        "promoted_repairs": stats.promoted_repairs,
        "queue_peak_depth": stats.queue_peak_depth,
        "queue_wait_us": stats.queue_wait_us,
        "urgent_wait_us": stats.urgent_wait_us,
        "spare_placements": stats.spare_placements,
        "parallel_waves": stats.parallel_waves,
        "wave_extra_units": stats.wave_extra_units,
    }


def restore_stats(state: Dict[str, object]) -> RecoveryStats:
    stats = RecoveryStats()
    stats.blocks_recovered = int(state["blocks_recovered"])
    for day, count in state["blocks_recovered_by_day"]:
        stats.blocks_recovered_by_day[int(day)] = int(count)
    stats.bytes_downloaded = int(state["bytes_downloaded"])
    for count, occurrences in state["degraded_histogram"]:
        stats.degraded_histogram[int(count)] = int(occurrences)
    stats.unrecoverable_units = int(state["unrecoverable_units"])
    stats.flagged_events_recovered = int(state["flagged_events_recovered"])
    stats.flagged_events_skipped = int(state["flagged_events_skipped"])
    stats.repair_latencies = [float(x) for x in state["repair_latencies"]]
    stats.cancelled_recoveries = int(state["cancelled_recoveries"])
    stats.corrupt_survivors_excluded = int(
        state["corrupt_survivors_excluded"]
    )
    # Queue-metric fields arrived with checkpoint version 2; v1
    # snapshots (written before the repair-policy engine) default them.
    stats.deferred_repairs = int(state.get("deferred_repairs", 0))
    stats.promoted_repairs = int(state.get("promoted_repairs", 0))
    stats.queue_peak_depth = int(state.get("queue_peak_depth", 0))
    stats.queue_wait_us = int(state.get("queue_wait_us", 0))
    stats.urgent_wait_us = int(state.get("urgent_wait_us", 0))
    stats.spare_placements = int(state.get("spare_placements", 0))
    # Wave counters arrived with checkpoint version 3.
    stats.parallel_waves = int(state.get("parallel_waves", 0))
    stats.wave_extra_units = int(state.get("wave_extra_units", 0))
    return stats


def read_stats_state(stats: ReadStats) -> Dict[str, int]:
    """Picklable/JSON-able snapshot of read-workload stats."""
    return {
        "reads": stats.reads,
        "healthy_reads": stats.healthy_reads,
        "degraded_reads": stats.degraded_reads,
        "failed_reads": stats.failed_reads,
        "healthy_bytes": stats.healthy_bytes,
        "degraded_bytes": stats.degraded_bytes,
        "degraded_read_latency_us": stats.degraded_read_latency_us,
        "degraded_read_latency_max_us": stats.degraded_read_latency_max_us,
    }


def restore_read_stats(state: Dict[str, object]) -> ReadStats:
    stats = ReadStats()
    stats.reads = int(state["reads"])
    stats.healthy_reads = int(state["healthy_reads"])
    stats.degraded_reads = int(state["degraded_reads"])
    stats.failed_reads = int(state["failed_reads"])
    stats.healthy_bytes = int(state["healthy_bytes"])
    stats.degraded_bytes = int(state["degraded_bytes"])
    stats.degraded_read_latency_us = int(state["degraded_read_latency_us"])
    stats.degraded_read_latency_max_us = int(
        state["degraded_read_latency_max_us"]
    )
    return stats


# ----------------------------------------------------------------------
# Archive I/O
# ----------------------------------------------------------------------


def save_checkpoint(path: str, checkpoint: SimulationCheckpoint) -> None:
    """Write one snapshot atomically (temp file + rename)."""
    if len(checkpoint.shard_states) != checkpoint.num_shards:
        raise CheckpointError(
            f"checkpoint claims {checkpoint.num_shards} shards but carries "
            f"{len(checkpoint.shard_states)} shard states"
        )
    meta = {
        "version": checkpoint.version,
        "config": asdict(checkpoint.config),
        "next_epoch": int(checkpoint.next_epoch),
        "num_shards": int(checkpoint.num_shards),
        "recovery_rng_state": checkpoint.recovery_rng_state,
        "policy_rng_state": checkpoint.policy_rng_state,
        "flagged_events_recovered": int(checkpoint.flagged_events_recovered),
        "flagged_events_skipped": int(checkpoint.flagged_events_skipped),
        "scheduler_state": checkpoint.scheduler_state,
        "policy_state": checkpoint.policy_state,
        "coord_queue_wait_us": int(checkpoint.coord_queue_wait_us),
        "coord_urgent_wait_us": int(checkpoint.coord_urgent_wait_us),
        "shards": [
            {
                "shard_id": int(state["shard_id"]),
                "stats": state["stats"],
                "meter": state["meter"],
                "read_stats": state.get("read_stats"),
            }
            for state in checkpoint.shard_states
        ],
    }
    arrays: Dict[str, np.ndarray] = {
        "meta": np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
        "is_up": np.asarray(checkpoint.is_up, dtype=bool),
    }
    if checkpoint.coord_traj is not None:
        traj_nodes, traj_counts, traj_uids = checkpoint.coord_traj
        arrays["coord_traj_nodes"] = np.asarray(traj_nodes, dtype=np.int64)
        arrays["coord_traj_counts"] = np.asarray(traj_counts, dtype=np.int64)
        arrays["coord_traj_uids"] = np.asarray(traj_uids, dtype=np.int64)
    if checkpoint.coord_missing is not None:
        arrays["coord_missing"] = np.asarray(
            checkpoint.coord_missing, dtype=bool
        )
    if checkpoint.coord_latencies is not None:
        arrays["coord_latencies"] = np.asarray(
            checkpoint.coord_latencies, dtype=np.float64
        )
    for i, state in enumerate(checkpoint.shard_states):
        for key in _SHARD_ARRAY_KEYS:
            arrays[f"shard{i}_{key}"] = np.asarray(state[key])
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp_path, path)
    except OSError as exc:
        raise CheckpointError(
            f"could not write checkpoint to {path!r}: {exc}"
        ) from exc
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def load_checkpoint(path: str) -> SimulationCheckpoint:
    """Read and validate one snapshot; raises :class:`CheckpointError`
    on missing files, malformed archives, or version mismatches."""
    wall0 = time_module.perf_counter()
    try:
        with np.load(path) as archive:
            data = {key: archive[key] for key in archive.files}
    except (OSError, ValueError, KeyError) as exc:
        raise CheckpointError(
            f"could not read checkpoint {path!r}: {exc}"
        ) from exc
    if "meta" not in data:
        raise CheckpointError(
            f"{path!r} is not a simulation checkpoint (no meta document)"
        )
    try:
        meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} carries a malformed meta document: {exc}"
        ) from exc
    version = meta.get("version")
    if version not in _READABLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint {path!r} has version {version!r}; this build "
            f"reads versions {_READABLE_VERSIONS} -- re-create the "
            f"snapshot or use a matching build"
        )
    try:
        config = ClusterConfig(**meta["config"])
    except TypeError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} carries an unreadable config: {exc}"
        ) from exc
    num_shards = int(meta["num_shards"])
    shard_states: List[dict] = []
    for i, shard_meta in enumerate(meta["shards"]):
        state: Dict[str, object] = {
            "shard_id": int(shard_meta["shard_id"]),
            "stats": shard_meta["stats"],
            "meter": shard_meta["meter"],
        }
        if shard_meta.get("read_stats") is not None:
            state["read_stats"] = shard_meta["read_stats"]
        for key in _SHARD_ARRAY_KEYS:
            archive_key = f"shard{i}_{key}"
            if archive_key not in data:
                raise CheckpointError(
                    f"checkpoint {path!r} is missing array {archive_key!r}"
                )
            state[key] = data[archive_key]
        shard_states.append(state)
    if len(shard_states) != num_shards:
        raise CheckpointError(
            f"checkpoint {path!r} claims {num_shards} shards but carries "
            f"{len(shard_states)}"
        )
    coord_traj = None
    if "coord_traj_nodes" in data:
        coord_traj = (
            data["coord_traj_nodes"],
            data["coord_traj_counts"],
            data["coord_traj_uids"],
        )
    checkpoint = SimulationCheckpoint(
        config=config,
        next_epoch=int(meta["next_epoch"]),
        num_shards=num_shards,
        recovery_rng_state=meta["recovery_rng_state"],
        policy_rng_state=meta["policy_rng_state"],
        flagged_events_recovered=int(meta["flagged_events_recovered"]),
        flagged_events_skipped=int(meta["flagged_events_skipped"]),
        is_up=np.asarray(data["is_up"], dtype=bool),
        shard_states=shard_states,
        scheduler_state=meta.get("scheduler_state"),
        policy_state=meta.get("policy_state"),
        coord_traj=coord_traj,
        coord_missing=(
            np.asarray(data["coord_missing"], dtype=bool)
            if "coord_missing" in data
            else None
        ),
        coord_latencies=(
            np.asarray(data["coord_latencies"], dtype=np.float64)
            if "coord_latencies" in data
            else None
        ),
        coord_queue_wait_us=int(meta.get("coord_queue_wait_us", 0)),
        coord_urgent_wait_us=int(meta.get("coord_urgent_wait_us", 0)),
    )
    m = metrics()
    if m is not None:
        m.observe(
            "sim.shard.checkpoint.restore_seconds",
            time_module.perf_counter() - wall0,
        )
    return checkpoint
