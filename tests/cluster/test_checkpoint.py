"""Checkpoint/restore determinism for the sharded epoch engine.

The contract (DESIGN §5h): stopping a run at any epoch boundary,
reloading the snapshot -- possibly in a different process -- and
finishing produces the *bit-identical* trajectory of a straight-through
run.  Snapshots are versioned (``CHECKPOINT_VERSION``); a mismatch is a
loud :class:`~repro.errors.CheckpointError`, never a silent misread.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.cluster.shard import ShardedSimulation
from repro.errors import CheckpointError
from tests.cluster.test_shard import BASE, CODE_PARAMS, fingerprint

#: Shorter horizon than test_shard's BASE: every test here runs the
#: simulation at least twice (straight-through + stop/resume).
CONFIG = replace(BASE, days=8.0)


def straight_through(config):
    return fingerprint(ShardedSimulation(config, num_shards=3).run())


def stop_and_resume(config, tmp_path, stop_day):
    path = str(tmp_path / "snap.ckpt")
    first = ShardedSimulation(config, num_shards=3, checkpoint_path=path)
    assert first.run(stop_after_day=stop_day) is None
    resumed = ShardedSimulation.resume(path)
    result = resumed.run()
    assert result is not None
    return fingerprint(result)


# ----------------------------------------------------------------------
# Round-trip determinism
# ----------------------------------------------------------------------


def test_stop_resume_equals_straight_through(tmp_path):
    assert stop_and_resume(CONFIG, tmp_path, 3) == straight_through(CONFIG)


@pytest.mark.parametrize("code_name", sorted(CODE_PARAMS))
def test_round_trip_across_codes(code_name, tmp_path):
    config = replace(
        CONFIG,
        days=5.0,
        code_name=code_name,
        code_params=CODE_PARAMS[code_name],
    )
    assert stop_and_resume(config, tmp_path, 2) == straight_through(config)


def test_round_trip_with_chaos(tmp_path):
    config = replace(CONFIG, chaos_node_flaps=6, chaos_corrupt_units=25)
    assert stop_and_resume(config, tmp_path, 4) == straight_through(config)


def test_stream_mode_round_trip(tmp_path):
    """Stream draws carry live rng state; the snapshot must restore it."""
    config = replace(CONFIG, destination_draws="stream")
    path = str(tmp_path / "snap.ckpt")
    first = ShardedSimulation(config, num_shards=1, checkpoint_path=path)
    assert first.run(stop_after_day=3) is None
    result = ShardedSimulation.resume(path).run()
    straight = ShardedSimulation(config, num_shards=1).run()
    assert fingerprint(result) == fingerprint(straight)


def test_chained_sessions(tmp_path):
    """Three sessions, two resumes -- the ten-cluster-year shape."""
    path = str(tmp_path / "snap.ckpt")
    sim = ShardedSimulation(CONFIG, num_shards=3, checkpoint_path=path)
    assert sim.run(stop_after_day=2) is None
    assert ShardedSimulation.resume(path).run(stop_after_day=5) is None
    result = ShardedSimulation.resume(path).run()
    assert fingerprint(result) == straight_through(CONFIG)


def test_periodic_checkpoints_do_not_perturb(tmp_path):
    """checkpoint_every_days writes mid-run snapshots; the trajectory
    must be unaffected and the last snapshot must itself resume."""
    path = str(tmp_path / "snap.ckpt")
    sim = ShardedSimulation(
        CONFIG,
        num_shards=3,
        checkpoint_path=path,
        checkpoint_every_days=2,
    )
    result = sim.run()
    assert fingerprint(result) == straight_through(CONFIG)
    # The final periodic snapshot resumes and (with nothing left to do
    # or a tail to finish) lands on the same trajectory.
    resumed = ShardedSimulation.resume(path).run()
    assert fingerprint(resumed) == fingerprint(result)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    stop_day=st.integers(min_value=1, max_value=5),
)
def test_round_trip_any_seed_any_boundary(seed, stop_day, tmp_path):
    config = replace(CONFIG, seed=seed, days=6.0)
    assert stop_and_resume(config, tmp_path, stop_day) == straight_through(
        config
    )


# ----------------------------------------------------------------------
# Snapshot format
# ----------------------------------------------------------------------


def _write_snapshot(tmp_path):
    path = str(tmp_path / "snap.ckpt")
    sim = ShardedSimulation(
        replace(CONFIG, days=4.0),
        num_shards=2,
        checkpoint_path=path,
    )
    assert sim.run(stop_after_day=2) is None
    return path


def test_version_mismatch_raises(tmp_path):
    path = _write_snapshot(tmp_path)
    data = load_checkpoint(path)
    save_checkpoint(path, replace_version(data, CHECKPOINT_VERSION + 1))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def replace_version(checkpoint, version):
    checkpoint.version = version
    return checkpoint


def test_not_a_checkpoint_raises(tmp_path):
    path = str(tmp_path / "junk.npz")
    np.savez(path, stuff=np.arange(3))
    with pytest.raises(CheckpointError, match="meta"):
        load_checkpoint(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "absent.ckpt"))


def test_malformed_meta_raises(tmp_path):
    path = str(tmp_path / "bad.npz")
    blob = np.frombuffer(b"not json at all", dtype=np.uint8)
    np.savez(path, meta=blob)
    with pytest.raises(CheckpointError, match="malformed"):
        load_checkpoint(path)


def test_snapshot_is_self_describing(tmp_path):
    """The snapshot carries the config verbatim: resume needs nothing
    but the path."""
    path = _write_snapshot(tmp_path)
    data = load_checkpoint(path)
    assert data.config == replace(CONFIG, days=4.0)
    assert data.version == CHECKPOINT_VERSION
    assert data.num_shards == 2
    assert 0 < data.next_epoch
    assert data.is_up.dtype == np.bool_
    assert len(data.shard_states) == 2


def test_meta_is_json(tmp_path):
    """The scalar half of the archive is one human-readable JSON doc."""
    path = _write_snapshot(tmp_path)
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
    assert meta["version"] == CHECKPOINT_VERSION
    assert meta["config"]["seed"] == CONFIG.seed
    assert len(meta["shards"]) == 2
