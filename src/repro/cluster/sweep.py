"""Parallel experiment-sweep runner.

Multi-configuration experiments -- the RS vs Piggybacked-RS replay of
§3.2, the unavailability-threshold and placement ablations, seed
replications -- run completely independent simulations, so they
parallelise trivially across processes.  :func:`run_many` is the one
entry point: it maps :class:`~repro.cluster.config.ClusterConfig` values
to :class:`~repro.cluster.simulation.SimulationResult` values in input
order, using a :class:`~concurrent.futures.ProcessPoolExecutor` when
that is worthwhile and falling back to an in-process loop otherwise.

Determinism is unchanged by parallelism: every simulation derives all
its random streams from its own config seed, so a parallel sweep returns
byte-identical results to a serial one.  For *replicated* sweeps (same
config, many seeds), :func:`spawn_seeds` derives statistically
independent child seeds from one master seed via
``numpy.random.SeedSequence.spawn`` -- never by seed arithmetic.

Set ``REPRO_PARALLEL=0`` to force serial execution (useful on CI
machines where process pools are unwelcome).  The variable accepts
exactly ``"1"`` (allow pools, the default) and ``"0"`` (force serial);
anything else -- ``off``, ``no``, ``false`` -- raises
:class:`~repro.errors.ConfigError` instead of being silently read as
"parallel on": a kill switch that only *looks* engaged is worse than no
kill switch.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import SimulationResult, WarehouseSimulation
from repro.errors import ConfigError

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable holding the serial/parallel kill switch.
PARALLEL_ENV = "REPRO_PARALLEL"


def decide_parallel(num_tasks: int, parallel: Optional[bool]) -> bool:
    """Decide whether ``num_tasks`` independent tasks should use a pool.

    ``parallel`` is the caller's explicit request: ``True``/``False``
    win over everything except the trivial one-task case.  ``None``
    consults ``REPRO_PARALLEL`` (unset or empty allows pools, ``"1"``
    allows, ``"0"`` forces serial, anything else raises
    :class:`ConfigError`) and then auto-detects (multiple tasks and
    more than one CPU).
    """
    if parallel is not None:
        return parallel and num_tasks > 1
    raw = os.environ.get(PARALLEL_ENV)
    if raw == "0":
        return False
    if raw not in (None, "", "1"):
        raise ConfigError(
            f"{PARALLEL_ENV}={raw!r} is not a valid value; use '1' to allow "
            f"process pools or '0' to force serial execution"
        )
    return num_tasks > 1 and (os.cpu_count() or 1) > 1


def _run_one(config: ClusterConfig) -> SimulationResult:
    """Worker: one full simulation (module-level so it pickles)."""
    return WarehouseSimulation(config).run()


def _run_one_sharded(config: ClusterConfig) -> SimulationResult:
    """Worker: one simulation on the sharded epoch engine.

    One in-process shard: the same trajectory as the oracle (it IS the
    oracle's equal), just faster.
    """
    from repro.cluster.shard import ShardedSimulation

    return ShardedSimulation(config).run()


#: Engine name -> module-level worker for :func:`run_many`.
ENGINES = {
    "serial": _run_one,
    "sharded": _run_one_sharded,
}


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    *,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
) -> List[_R]:
    """Order-preserving map over a process pool (or in-process).

    ``fn`` must be a module-level callable and ``items`` picklable.
    ``parallel=None`` auto-decides; exceptions raised by ``fn``
    propagate regardless of the execution mode.
    """
    items = list(items)
    if not decide_parallel(len(items), parallel):
        return [fn(item) for item in items]
    workers = max_workers or min(len(items), os.cpu_count() or 1)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    except (OSError, PermissionError):
        # Sandboxes without process spawning: degrade to serial.
        return [fn(item) for item in items]


def run_many(
    configs: Sequence[ClusterConfig],
    *,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    engine: str = "serial",
) -> List[SimulationResult]:
    """Run one simulation per config; results come back in input order.

    ``engine`` selects the per-config simulator: ``"serial"`` (the
    :class:`WarehouseSimulation` oracle) or ``"sharded"`` (the epoch
    engine, byte-identical under hashed destination draws and usually
    faster).  Both return :class:`SimulationResult`.
    """
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown sweep engine {engine!r}; available: {sorted(ENGINES)}"
        )
    return parallel_map(
        ENGINES[engine], configs, parallel=parallel, max_workers=max_workers
    )


def spawn_seeds(master_seed: int, count: int) -> List[int]:
    """Derive ``count`` independent child seeds from one master seed."""
    if count < 0:
        raise ValueError(f"cannot spawn {count} seeds")
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


def replicated_configs(config: ClusterConfig, count: int) -> List[ClusterConfig]:
    """Copies of one config under SeedSequence-spawned child seeds."""
    return [
        replace(config, seed=seed)
        for seed in spawn_seeds(config.seed, count)
    ]
