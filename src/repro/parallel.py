"""Shared process-parallelism policy.

The experiment sweep runner (:mod:`repro.cluster.sweep`) and the
sharded simulator's shard workers (:mod:`repro.cluster.shard`) make the
same decision -- "should this work shard across worker processes?" --
under the same conventions: an explicit ``parallel=`` argument wins,
the ``REPRO_PARALLEL`` environment variable can force serial execution,
and single-task or single-CPU situations never spawn.  This module is
the one implementation both import, so the conventions cannot drift.
(The file data path in :mod:`repro.striping.pipeline` always runs
in-process and does not consult it.)

``REPRO_PARALLEL`` accepts exactly ``"1"`` (allow pools, the default)
and ``"0"`` (force serial).  Anything else -- ``off``, ``no``,
``false`` -- raises :class:`~repro.errors.ConfigError` instead of being
silently read as "parallel on": a kill switch that only *looks* engaged
is worse than no kill switch.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional

from repro.errors import ConfigError

#: Environment variable holding the serial/parallel kill switch.
PARALLEL_ENV = "REPRO_PARALLEL"


def parallel_env_enabled(
    env: Optional[Mapping[str, str]] = None,
) -> bool:
    """Whether ``REPRO_PARALLEL`` permits process pools.

    Unset (or empty) means yes.  ``"1"`` means yes, ``"0"`` means no,
    and every other value raises :class:`ConfigError` loudly.
    """
    raw = (env if env is not None else os.environ).get(PARALLEL_ENV)
    if raw is None or raw == "" or raw == "1":
        return True
    if raw == "0":
        return False
    raise ConfigError(
        f"{PARALLEL_ENV}={raw!r} is not a valid value; use '1' to allow "
        f"process pools or '0' to force serial execution"
    )


def decide_parallel(
    num_tasks: int,
    parallel: Optional[bool],
    env: Optional[Mapping[str, str]] = None,
) -> bool:
    """Decide whether ``num_tasks`` independent tasks should use a pool.

    ``parallel`` is the caller's explicit request: ``True``/``False``
    win over everything except the trivial one-task case.  ``None``
    consults ``REPRO_PARALLEL`` and then auto-detects (multiple tasks
    and more than one CPU).
    """
    if parallel is not None:
        return parallel and num_tasks > 1
    if not parallel_env_enabled(env):
        return False
    return num_tasks > 1 and (os.cpu_count() or 1) > 1
