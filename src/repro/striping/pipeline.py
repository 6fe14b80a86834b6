"""Shared-memory file-encode pipeline with self-healing workers.

Raiding a cold file (Section 2.1) is embarrassingly parallel across
stripes, but a naive process pool would pickle every 256 MiB of block
payload through the task queue and lose more than it gains.  This module
shards the stripes of one file across a :class:`ProcessPoolExecutor`
while keeping **all payload bytes in two** ``multiprocessing.shared_memory``
**segments** -- one holding the file, one receiving the parities.  The
only things pickled are the (tiny) shard descriptors: shm names, the
code object (fresh, empty caches), and stripe index ranges.

Workers rebuild their stripe layouts deterministically from the shared
file bytes (``chunk_bytes`` + ``group_into_stripes`` are pure functions
of the byte count), encode their contiguous stripe range through
:meth:`StripeCodec.encode_stripes` -- hitting the zero-copy ``(s, k, w)``
fast path directly on the shared segment -- and write parity units to
fixed per-stripe offsets.  Results are therefore byte-identical and
identically ordered whether the pipeline runs serial or parallel, with
any worker count -- **and under any fault schedule**: shard writes are
idempotent (fixed offsets, full overwrite), so a shard can be retried
any number of times without affecting the output.

Self-healing: each shard is an independently-tracked future with a
progress timeout.  A worker death (``BrokenProcessPool``) or a stalled
pool triggers a bounded retry with backoff on a fresh pool; after
:data:`MAX_POOL_DEATHS` pool losses the remaining shards are encoded
serially in-process, so ``encode_file`` returns correct bytes even when
every worker the OS gives us dies.  Both shared-memory segments are
unlinked on every exit path.  Worker-side Python errors are wrapped in
:class:`~repro.errors.PipelineError` naming the shard and stripe range
-- they indicate a real bug, not an infrastructure fault, and are
raised rather than retried.

Fault injection: pass a :class:`~repro.faults.FaultPlan` (or set
``REPRO_CHAOS`` -- see :meth:`~repro.faults.FaultPlan.from_env`) and
the plan's worker crashes (real ``os._exit`` in the pool process) and
straggler delays are injected into the shard schedule.  Because the
pipeline self-heals, chaotic output remains byte-identical to serial
output; the chaos tests assert exactly that.

Conventions match :mod:`repro.cluster.sweep` via the shared
:func:`repro.parallel.decide_parallel`: ``REPRO_PARALLEL=0`` forces
serial execution (junk values are rejected loudly), auto-detection
declines to spawn on single-CPU hosts, and sandboxes that refuse
process spawning or shared memory degrade to the serial path instead
of failing.
"""

from __future__ import annotations

import os
import pickle
import queue
import threading
import time as time_module
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.codes.base import ErasureCode
from repro.errors import (
    CorruptionError,
    EncodingError,
    PipelineError,
    RepairError,
)
from repro.faults import FaultPlan
from repro.observability import get_logger, metrics, span
from repro.parallel import decide_parallel as _decide_parallel
from repro.striping.blocks import Block, LogicalFile, chunk_bytes
from repro.striping.checksum import crc32c, crc32c_batch
from repro.striping.codec import StripeCodec
from repro.striping.layout import StripeLayout, group_into_stripes

#: Pool losses tolerated before the remaining shards go serial.
MAX_POOL_DEATHS = 2

#: Default per-wait progress timeout (seconds).  Generous: it only
#: exists to unstick a genuinely hung pool, not to police slow shards.
DEFAULT_PROGRESS_TIMEOUT = 300.0

#: Backoff base between pool restarts (seconds, doubled per death).
RETRY_BACKOFF_SECONDS = 0.05


def _data_slot_lists(
    layouts: Sequence[StripeLayout], blocks: Sequence[Block]
) -> List[List[Optional[Block]]]:
    """Per-stripe data-slot lists (None for virtual slots), in order."""
    slot_lists: List[List[Optional[Block]]] = []
    cursor = 0
    for layout in layouts:
        slots: List[Optional[Block]] = []
        for block_id in layout.data_block_ids:
            if block_id is None:
                slots.append(None)
            else:
                slots.append(blocks[cursor])
                cursor += 1
        slot_lists.append(slots)
    return slot_lists


@dataclass
class EncodeResult:
    """Outcome of :func:`encode_file`.

    Attributes
    ----------
    file:
        The chunked logical file (blocks are views into the caller's
        data in serial mode, or into a private copy in parallel mode).
    layouts:
        One :class:`StripeLayout` per stripe, in file order.
    parities:
        ``parities[t]`` holds stripe ``t``'s ``r`` parity blocks.
    parallel_used, shards:
        Whether a process pool actually ran, and with how many shards
        (1 when serial) -- observability for the determinism tests and
        the benchmark harness.
    retries:
        Shard attempts lost to injected worker crashes (each is retried
        on a fresh pool), a function of the fault plan alone; pool
        rebuilds and stalls are counted by the ``pipeline.*`` metrics.
    serial_fallback_shards:
        Shards that were ultimately encoded in-process after the pool
        died :data:`MAX_POOL_DEATHS` times.
    """

    file: LogicalFile
    layouts: List[StripeLayout]
    parities: List[List[Block]]
    parallel_used: bool
    shards: int
    retries: int = 0
    serial_fallback_shards: int = 0

    @property
    def parity_bytes(self) -> int:
        return sum(p.size for row in self.parities for p in row)


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker needs to encode stripes [start, stop)."""

    shard: int
    in_name: str
    out_name: str
    code_blob: bytes
    file_name: str
    file_size: int
    block_size: int
    start: int
    stop: int
    out_offsets: Tuple[int, ...]
    #: Chaos: crash (os._exit) while ``attempt < crash_attempts``.
    crash: bool = False
    crash_attempts: int = 0
    #: Chaos: straggler delay before encoding, in seconds.
    delay: float = 0.0


def _attach_worker_shm(in_name: str, out_name: str):
    """Attach a worker to the parent's two shared-memory segments.

    The parent owns both segments.  Under "spawn" each worker has its
    own resource tracker, which would try to reclaim them at worker
    exit -- undo the attach-time registration.  Under "fork" the
    tracker process is shared with the parent and its name cache is a
    set, so unregistering here would strip the parent's own entry;
    leave it alone.
    """
    import multiprocessing
    from multiprocessing import resource_tracker, shared_memory

    shm_in = shared_memory.SharedMemory(name=in_name)
    shm_out = shared_memory.SharedMemory(name=out_name)
    if multiprocessing.get_start_method(allow_none=True) != "fork":
        for shm in (shm_in, shm_out):
            try:
                resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
            except (KeyError, ValueError, AttributeError):
                # Unknown name / already unregistered / tracker API
                # drift: the registration we are undoing is gone,
                # which is the state we wanted.
                pass
    return shm_in, shm_out


def _worker_encode_shard(task: _ShardTask, attempt: int = 0) -> int:
    """Encode one shard of the shared file (module-level so it pickles).

    Returns the shard index as a bare acknowledgement -- no payload
    bytes ever cross the task queue.  Output writes are idempotent
    (fixed offsets, full overwrite), so any attempt may be retried.
    """
    if task.crash and attempt < task.crash_attempts:
        # Injected chaos: die the way a real worker dies -- no cleanup,
        # no exception, the parent just sees a broken pool.
        os._exit(17)
    if task.delay > 0:
        time_module.sleep(task.delay)

    shm_in, shm_out = _attach_worker_shm(task.in_name, task.out_name)
    try:
        try:
            code: ErasureCode = pickle.loads(task.code_blob)
            codec = StripeCodec(code)
            data = np.ndarray(
                (task.file_size,), dtype=np.uint8, buffer=shm_in.buf
            )
            file = chunk_bytes(task.file_name, data, block_size=task.block_size)
            layouts = group_into_stripes(
                file.blocks,
                code.k,
                code.r,
                stripe_prefix=f"{task.file_name}/stripe",
            )
            slot_lists = _data_slot_lists(layouts, file.blocks)
            parities = codec.encode_stripes(
                layouts[task.start : task.stop],
                slot_lists[task.start : task.stop],
            )
            out = np.ndarray(
                (shm_out.size,), dtype=np.uint8, buffer=shm_out.buf
            )
            for layout, offset, parity_blocks in zip(
                layouts[task.start : task.stop], task.out_offsets, parities
            ):
                width = codec.padded_width(layout)
                for j, parity in enumerate(parity_blocks):
                    out[offset + j * width : offset + (j + 1) * width] = (
                        parity.payload
                    )
        except Exception as exc:
            # A worker-side Python error is a real bug in the encode
            # path, not an infrastructure fault; surface it with the
            # shard context instead of a bare pickled traceback.
            raise PipelineError(
                f"shard {task.shard} (stripes {task.start}..{task.stop}) "
                f"failed on the worker: {type(exc).__name__}: {exc}"
            ) from exc
    finally:
        shm_in.close()
        shm_out.close()
    return task.shard


def encode_file(
    code: ErasureCode,
    data,
    block_size: int,
    *,
    name: str = "file",
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    progress_timeout: float = DEFAULT_PROGRESS_TIMEOUT,
) -> EncodeResult:
    """Chunk ``data`` into blocks and compute every stripe's parities.

    Serial mode encodes in-process through the codec's fused batch path
    (zero staging copies for the full stripes).  Parallel mode shards
    the stripes over a process pool with payloads in shared memory,
    retrying dead or stalled pools and falling back to in-process
    encoding if the pool keeps dying.  Both modes return byte-identical
    parities in file order.

    ``fault_plan`` injects worker crashes and straggler delays into the
    pooled path (``None`` consults ``REPRO_CHAOS``); the self-healing
    machinery must still produce identical bytes.  ``progress_timeout``
    bounds how long a wave may go without any shard completing before
    the pool is declared stuck.
    """
    if block_size <= 0:
        raise EncodingError(f"block size must be positive, got {block_size}")
    if progress_timeout <= 0:
        raise EncodingError(
            f"progress timeout must be positive, got {progress_timeout}"
        )
    data = np.ascontiguousarray(
        np.asarray(data, dtype=np.uint8).reshape(-1)
    )
    with span("pipeline.encode_file"):
        result = _encode_file_impl(
            code,
            data,
            block_size,
            name,
            parallel,
            max_workers,
            fault_plan,
            progress_timeout,
        )
    m = metrics()
    if m is not None:
        m.inc("pipeline.files")
        m.inc("pipeline.data_bytes", int(data.size))
        m.inc("pipeline.stripes", len(result.layouts))
        m.inc("pipeline.shards", result.shards)
        m.inc("pipeline.retries", result.retries)
        m.inc(
            "pipeline.serial_fallback_shards", result.serial_fallback_shards
        )
        m.inc(
            "pipeline.parallel_runs"
            if result.parallel_used
            else "pipeline.serial_runs"
        )
    return result


def _encode_file_impl(
    code: ErasureCode,
    data: np.ndarray,
    block_size: int,
    name: str,
    parallel: Optional[bool],
    max_workers: Optional[int],
    fault_plan: Optional[FaultPlan],
    progress_timeout: float,
) -> EncodeResult:
    file = chunk_bytes(name, data, block_size=block_size)
    layouts = group_into_stripes(
        file.blocks, code.k, code.r, stripe_prefix=f"{name}/stripe"
    )
    slot_lists = _data_slot_lists(layouts, file.blocks)
    stripes = len(layouts)
    if not _decide_parallel(stripes, parallel):
        codec = StripeCodec(code)
        parities = codec.encode_stripes(layouts, slot_lists)
        return EncodeResult(file, layouts, parities, False, 1)
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    result = _encode_file_pooled(
        code,
        data,
        block_size,
        name,
        file,
        layouts,
        max_workers,
        fault_plan,
        progress_timeout,
    )
    if result is not None:
        return result
    # Pool or shared memory unavailable: degrade to serial.
    get_logger("repro.pipeline").warning(
        "pool-unavailable-serial-fallback", file=name, stripes=stripes
    )
    codec = StripeCodec(code)
    parities = codec.encode_stripes(layouts, slot_lists)
    return EncodeResult(file, layouts, parities, False, 1)


def _encode_shard_serially(
    task: _ShardTask,
    code: ErasureCode,
    layouts: List[StripeLayout],
    slot_lists: List[List[Optional[Block]]],
    out: np.ndarray,
) -> None:
    """In-process fallback: encode one shard into the output buffer.

    Uses the parent's already-chunked layouts/blocks and the same fixed
    offsets a worker would have written, so the result is
    indistinguishable from a pooled shard.
    """
    codec = StripeCodec(code)
    parities = codec.encode_stripes(
        layouts[task.start : task.stop], slot_lists[task.start : task.stop]
    )
    for layout, offset, parity_blocks in zip(
        layouts[task.start : task.stop], task.out_offsets, parities
    ):
        width = codec.padded_width(layout)
        for j, parity in enumerate(parity_blocks):
            out[offset + j * width : offset + (j + 1) * width] = parity.payload


def _encode_file_pooled(
    code: ErasureCode,
    data: np.ndarray,
    block_size: int,
    name: str,
    file: LogicalFile,
    layouts: List[StripeLayout],
    max_workers: Optional[int],
    fault_plan: Optional[FaultPlan],
    progress_timeout: float,
) -> Optional[EncodeResult]:
    """Self-healing process-pool encode; None when this host cannot
    run a pool at all (no shared memory / no process spawning)."""
    from multiprocessing import shared_memory

    codec = StripeCodec(code)
    widths = [codec.padded_width(layout) for layout in layouts]
    offsets = np.concatenate(
        ([0], np.cumsum([code.r * width for width in widths]))
    ).astype(np.int64)
    out_total = int(offsets[-1])
    stripes = len(layouts)
    workers = max_workers or min(stripes, os.cpu_count() or 1)
    workers = max(1, min(workers, stripes))
    bounds = np.linspace(0, stripes, workers + 1).astype(int)
    code_blob = pickle.dumps(code)  # __getstate__ drops memoised caches
    shm_in = shm_out = None
    retries = 0
    serial_fallback_shards = 0
    try:
        shm_in = shared_memory.SharedMemory(
            create=True, size=max(1, data.size)
        )
        shm_out = shared_memory.SharedMemory(
            create=True, size=max(1, out_total)
        )
        m = metrics()
        if m is not None:
            m.inc("pipeline.shm_created", 2)
            m.inc(
                "pipeline.shm_bytes", max(1, data.size) + max(1, out_total)
            )
        np.ndarray((data.size,), dtype=np.uint8, buffer=shm_in.buf)[:] = data
        spans = [
            (int(bounds[w]), int(bounds[w + 1]))
            for w in range(workers)
            if int(bounds[w]) < int(bounds[w + 1])
        ]
        shard_faults = (
            fault_plan.worker_faults(len(spans))
            if fault_plan is not None
            else None
        )
        tasks = []
        for shard, (start, stop) in enumerate(spans):
            fault = shard_faults[shard] if shard_faults is not None else None
            tasks.append(
                _ShardTask(
                    shard=shard,
                    in_name=shm_in.name,
                    out_name=shm_out.name,
                    code_blob=code_blob,
                    file_name=name,
                    file_size=int(data.size),
                    block_size=block_size,
                    start=start,
                    stop=stop,
                    out_offsets=tuple(
                        int(offsets[t]) for t in range(start, stop)
                    ),
                    crash=fault.crash if fault is not None else False,
                    crash_attempts=(
                        fault_plan.crash_attempts
                        if fault is not None and fault.crash
                        else 0
                    ),
                    delay=fault.delay if fault is not None else 0.0,
                )
            )
        serial_state: Dict[str, object] = {}

        def _encode_serially(task: _ShardTask) -> int:
            if not serial_state:
                serial_state["slots"] = _data_slot_lists(layouts, file.blocks)
                serial_state["out"] = np.ndarray(
                    (shm_out.size,), dtype=np.uint8, buffer=shm_out.buf
                )
            _encode_shard_serially(
                task,
                code,
                layouts,
                serial_state["slots"],  # type: ignore[arg-type]
                serial_state["out"],  # type: ignore[arg-type]
            )
            return task.shard

        try:
            retries, serial_fallback_shards, _ = _run_shards_self_healing(
                tasks, _worker_encode_shard, _encode_serially, progress_timeout
            )
        except (OSError, PermissionError, ImportError):
            return None
        parity_bytes = np.ndarray(
            (out_total,), dtype=np.uint8, buffer=shm_out.buf
        ).copy()
    except (OSError, PermissionError, ImportError):
        return None
    finally:
        m = metrics()
        for shm in (shm_in, shm_out):
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except (OSError, FileNotFoundError):
                    pass
                else:
                    if m is not None:
                        m.inc("pipeline.shm_unlinked")
    parities: List[List[Block]] = []
    for t, layout in enumerate(layouts):
        width = widths[t]
        row = []
        for j in range(code.r):
            lo = int(offsets[t]) + j * width
            row.append(
                Block(
                    block_id=layout.parity_block_ids[j],
                    size=width,
                    payload=parity_bytes[lo : lo + width],
                )
            )
        parities.append(row)
    return EncodeResult(
        file,
        layouts,
        parities,
        True,
        len(tasks),
        retries=retries,
        serial_fallback_shards=serial_fallback_shards,
    )


def _run_shards_self_healing(
    tasks: Sequence,
    worker_fn: Callable,
    serial_fn: Callable,
    progress_timeout: float,
) -> Tuple[int, int, Dict[int, object]]:
    """Run every shard to completion, surviving pool deaths and stalls.

    Task-agnostic: ``worker_fn(task, attempt)`` runs in the pool and
    ``serial_fn(task)`` is the in-process fallback once the pool has
    died :data:`MAX_POOL_DEATHS` times; both encode and repair shards
    ride the same machinery.  Tasks need only a ``shard`` attribute
    (encode tasks also carry their injected ``crash`` schedule).

    Returns ``(retries, serial_fallback_shards, results)`` where
    ``retries`` counts consumed injected crashes and ``results`` maps
    shard index to the worker's (or fallback's) return value.  Raises
    :class:`PipelineError` for worker-side Python errors (bugs are not
    retried) and propagates pool-creation failures to the caller's
    degrade-to-serial handling.
    """
    pending: Dict[int, int] = {task.shard: 0 for task in tasks}  # shard -> attempt
    by_shard = {task.shard: task for task in tasks}
    results: Dict[int, object] = {}
    retries = 0
    pool_deaths = 0
    pool: Optional[ProcessPoolExecutor] = None
    futures: Dict[object, int] = {}
    submit_times: Dict[object, float] = {}
    m = metrics()

    def _restart_pool() -> None:
        """Kill the pool; every still-pending shard is resubmitted.

        ``retries`` counts the injected crashes this restart consumes
        (pending shards whose current attempt is scheduled to crash),
        not the shards still pending: how many siblings finished before
        the pool death was noticed depends on scheduling, the fault
        plan's crashes do not.
        """
        nonlocal pool, pool_deaths, retries
        assert pool is not None
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None
        futures.clear()
        submit_times.clear()
        pool_deaths += 1
        for shard in pending:
            task = by_shard[shard]
            if getattr(task, "crash", False) and (
                pending[shard] < task.crash_attempts
            ):
                retries += 1
            pending[shard] += 1
        if m is not None:
            m.inc("pipeline.pool_rebuilds")
            m.inc("pipeline.shard_retries", len(pending))
        time_module.sleep(RETRY_BACKOFF_SECONDS * (2 ** (pool_deaths - 1)))

    try:
        while pending:
            if pool_deaths >= MAX_POOL_DEATHS:
                # The pool has died repeatedly: stop trusting workers
                # and finish the remaining shards in-process.  Shard
                # writes are idempotent, so partially-encoded shards
                # are simply overwritten.
                get_logger("repro.pipeline").warning(
                    "pool-deaths-exhausted-serial-fallback",
                    pool_deaths=pool_deaths,
                    remaining_shards=len(pending),
                )
                for shard in sorted(pending):
                    results[shard] = serial_fn(by_shard[shard])
                serial_count = len(pending)
                pending.clear()
                return retries, serial_count, results
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=len(pending))
                futures = {
                    pool.submit(worker_fn, by_shard[shard], attempt): shard
                    for shard, attempt in sorted(pending.items())
                }
                if m is not None:
                    now = time_module.perf_counter()
                    for future in futures:
                        submit_times[future] = now
            done, __ = wait(
                futures, timeout=progress_timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # No shard finished inside the window: the pool is
                # stuck.  Kill it and retry what is left.
                if m is not None:
                    m.inc("pipeline.pool_stalls")
                get_logger("repro.pipeline").warning(
                    "pool-stalled",
                    timeout_seconds=progress_timeout,
                    pending_shards=len(pending),
                )
                _restart_pool()
                continue
            broken = False
            for future in done:
                shard = futures.pop(future)
                error = future.exception()
                if error is None:
                    pending.pop(shard, None)
                    results[shard] = future.result()
                    if m is not None:
                        started = submit_times.pop(future, None)
                        if started is not None:
                            m.observe(
                                "pipeline.shard_seconds",
                                time_module.perf_counter() - started,
                            )
                elif isinstance(error, PipelineError):
                    raise error
                elif isinstance(error, BrokenProcessPool):
                    broken = True
                else:
                    raise PipelineError(
                        f"shard {shard} failed in the pool: "
                        f"{type(error).__name__}: {error}"
                    ) from error
            if broken:
                # A worker died; every sibling future on this pool is
                # (or will be) broken too.  Restart from scratch with
                # whatever is still pending.
                _restart_pool()
        return retries, 0, results
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# Overlapped streaming encode (read || encode || write)
# ----------------------------------------------------------------------
#
# ``encode_file`` holds the whole file in memory and runs its phases
# back to back: read everything, encode everything, hand back parities.
# For cold-raid ingest the phases have different bottlenecks (disk,
# CPU, disk), so running them in sequence leaves each resource idle two
# thirds of the time.  ``encode_stream`` pipelines them with three
# threads and bounded queues:
#
#     reader --(work)--> encoder --(parity)--> writer
#        ^------(free buffer pool)----'
#
# The native kernel backends release the GIL inside their C/JIT calls,
# so the reader and writer genuinely overlap the encode thread.  Chunks
# are whole stripes (``chunk_stripes * k * block_size`` bytes), which
# makes the streamed parity byte-identical to ``encode_file`` on the
# same bytes: every chunk boundary is a stripe boundary, and the final
# ragged chunk pads exactly like the file tail would.

#: Streaming chunk-size target; chunks round up to whole stripes.
STREAM_CHUNK_TARGET_BYTES = 8 * 1024 * 1024

#: Poll interval for queue operations while shutting down on error.
_STREAM_POLL_SECONDS = 0.05


@dataclass
class StreamEncodeResult:
    """Outcome of :func:`encode_stream`.

    Attributes
    ----------
    stripes, chunks, data_bytes, parity_bytes:
        Work accounted: stripes encoded, chunks pipelined, source bytes
        consumed and parity bytes produced.
    wall_seconds, encode_seconds:
        End-to-end wall time and the part spent inside the codec.
    read_wait_seconds, write_wait_seconds:
        Encoder stalls: waiting for the reader to produce a chunk /
        waiting for the writer to drain one.  High read wait means the
        source is the bottleneck; high write wait, the sink.
    """

    stripes: int
    chunks: int
    data_bytes: int
    parity_bytes: int
    wall_seconds: float
    encode_seconds: float
    read_wait_seconds: float
    write_wait_seconds: float

    @property
    def occupancy(self) -> float:
        """Fraction of wall time the encoder was doing codec work."""
        if self.wall_seconds <= 0:
            return 0.0
        return min(self.encode_seconds / self.wall_seconds, 1.0)


def _iter_source_chunks(source, chunk_size: int, free_buffers):
    """Yield ``(array, length, owned)`` chunks from ``source``.

    ``source`` may be a filesystem path, a readable binary file object,
    or a bytes-like object.  File sources fill pool buffers taken from
    the ``free_buffers`` queue (``owned=True``: the encoder returns them
    after use); bytes-like sources yield zero-copy views
    (``owned=False``).
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            yield from _iter_file_chunks(handle, chunk_size, free_buffers)
    elif hasattr(source, "readinto") or hasattr(source, "read"):
        yield from _iter_file_chunks(source, chunk_size, free_buffers)
    else:
        data = np.frombuffer(memoryview(source).cast("B"), dtype=np.uint8)
        if data.size == 0:
            yield data, 0, False
            return
        for start in range(0, data.size, chunk_size):
            view = data[start : start + chunk_size]
            yield view, int(view.size), False


def _iter_file_chunks(handle, chunk_size: int, free_buffers):
    """Fill pool buffers from a file object until EOF."""
    produced = False
    while True:
        buffer = free_buffers.get()
        view = memoryview(buffer)
        filled = 0
        while filled < chunk_size:
            if hasattr(handle, "readinto"):
                n = handle.readinto(view[filled:chunk_size])
                n = 0 if n is None else int(n)
            else:
                piece = handle.read(chunk_size - filled)
                n = len(piece) if piece else 0
                if n:
                    view[filled : filled + n] = piece
            if n == 0:
                break
            filled += n
        if filled == 0:
            free_buffers.put(buffer)
            if not produced:
                # Empty source: one empty chunk, so the stream encodes
                # the same single empty-block stripe ``encode_file``
                # produces for b"".
                yield np.empty(0, dtype=np.uint8), 0, False
            return
        produced = True
        yield buffer, filled, True
        if filled < chunk_size:
            return


def encode_stream(
    code: ErasureCode,
    source,
    sink,
    block_size: int,
    *,
    name: str = "file",
    chunk_stripes: Optional[int] = None,
    queue_depth: int = 2,
) -> StreamEncodeResult:
    """Encode a byte stream with reads, encodes and writes overlapped.

    ``source`` is a path, a readable binary file object, or a
    bytes-like object; ``sink`` is a path, a writable binary file
    object, or None to discard parities (benchmarking).  Parity bytes
    are written in file order -- for each stripe, its ``r`` parity
    payloads back to back -- and are byte-identical to what
    :func:`encode_file` computes for the same bytes and ``block_size``.

    ``chunk_stripes`` sets the pipeline granularity (default: whole
    stripes totalling about :data:`STREAM_CHUNK_TARGET_BYTES`);
    ``queue_depth`` bounds each inter-thread queue, so memory use is
    ``O(queue_depth * chunk_stripes * k * block_size)``.
    """
    if block_size <= 0:
        raise EncodingError(f"block size must be positive, got {block_size}")
    if queue_depth < 1:
        raise EncodingError(f"queue depth must be >= 1, got {queue_depth}")
    stripe_bytes = code.k * block_size
    if chunk_stripes is None:
        chunk_stripes = max(
            1, -(-STREAM_CHUNK_TARGET_BYTES // stripe_bytes)
        )
    if chunk_stripes < 1:
        raise EncodingError(
            f"chunk_stripes must be >= 1, got {chunk_stripes}"
        )
    chunk_size = chunk_stripes * stripe_bytes

    codec = StripeCodec(code)
    free_buffers: "queue.Queue[np.ndarray]" = queue.Queue()
    for _ in range(queue_depth + 1):
        free_buffers.put(np.empty(chunk_size, dtype=np.uint8))
    work_q: "queue.Queue" = queue.Queue(maxsize=queue_depth)
    write_q: "queue.Queue" = queue.Queue(maxsize=queue_depth)
    stop = threading.Event()
    errors: List[BaseException] = []

    def _put(q, item) -> bool:
        """Put with stop-polling; False when the stream is aborting."""
        while not stop.is_set():
            try:
                q.put(item, timeout=_STREAM_POLL_SECONDS)
                return True
            except queue.Full:
                continue
        return False

    def reader() -> None:
        try:
            for chunk in _iter_source_chunks(source, chunk_size, free_buffers):
                if not _put(work_q, chunk):
                    return
        except Exception as exc:
            errors.append(exc)
            stop.set()
        finally:
            _put(work_q, None)

    def writer() -> None:
        handle = None
        close = False
        try:
            if sink is None:
                pass
            elif isinstance(sink, (str, os.PathLike)):
                handle = open(sink, "wb")
                close = True
            else:
                handle = sink
            while True:
                try:
                    item = write_q.get(timeout=_STREAM_POLL_SECONDS)
                except queue.Empty:
                    if stop.is_set():
                        return
                    continue
                if item is None:
                    return
                if handle is not None:
                    for payload in item:
                        handle.write(memoryview(payload))
        except Exception as exc:
            errors.append(exc)
            stop.set()
            # Keep draining so the encoder never blocks on a full queue.
            while True:
                try:
                    if write_q.get_nowait() is None:
                        return
                except queue.Empty:
                    return
        finally:
            if close and handle is not None:
                handle.close()

    start_wall = time_module.perf_counter()
    encode_seconds = 0.0
    read_wait = 0.0
    write_wait = 0.0
    stripes = 0
    chunks = 0
    data_bytes = 0
    parity_bytes = 0

    reader_thread = threading.Thread(
        target=reader, name="repro-stream-reader", daemon=True
    )
    writer_thread = threading.Thread(
        target=writer, name="repro-stream-writer", daemon=True
    )
    with span("pipeline.encode_stream"):
        reader_thread.start()
        writer_thread.start()
        try:
            while True:
                t0 = time_module.perf_counter()
                # Poll rather than block: a reader that died after
                # ``stop`` was set may never deliver its sentinel.
                item = None
                while True:
                    try:
                        item = work_q.get(timeout=_STREAM_POLL_SECONDS)
                        break
                    except queue.Empty:
                        if stop.is_set():
                            break
                read_wait += time_module.perf_counter() - t0
                if item is None:
                    break
                buffer, length, owned = item
                t0 = time_module.perf_counter()
                chunk_name = f"{name}/chunk_{chunks}"
                file = chunk_bytes(
                    chunk_name, buffer[:length], block_size=block_size
                )
                layouts = group_into_stripes(
                    file.blocks,
                    code.k,
                    code.r,
                    stripe_prefix=f"{chunk_name}/stripe",
                )
                slot_lists = _data_slot_lists(layouts, file.blocks)
                parities = codec.encode_stripes(layouts, slot_lists)
                flat = [p.payload for row in parities for p in row]
                encode_seconds += time_module.perf_counter() - t0
                if owned:
                    free_buffers.put(buffer)
                chunks += 1
                stripes += len(layouts)
                data_bytes += length
                parity_bytes += sum(int(p.size) for p in flat)
                t0 = time_module.perf_counter()
                if not _put(write_q, flat):
                    break
                write_wait += time_module.perf_counter() - t0
        except BaseException:
            stop.set()
            raise
        finally:
            _put(write_q, None)
            if stop.is_set():
                # Unstick a reader blocked on the buffer pool.
                free_buffers.put(np.empty(0, dtype=np.uint8))
            reader_thread.join()
            writer_thread.join()
    wall = time_module.perf_counter() - start_wall
    if errors:
        first = errors[0]
        if isinstance(first, PipelineError):
            raise first
        raise PipelineError(
            f"streaming encode of {name!r} failed: "
            f"{type(first).__name__}: {first}"
        ) from first
    result = StreamEncodeResult(
        stripes=stripes,
        chunks=chunks,
        data_bytes=data_bytes,
        parity_bytes=parity_bytes,
        wall_seconds=wall,
        encode_seconds=encode_seconds,
        read_wait_seconds=read_wait,
        write_wait_seconds=write_wait,
    )
    m = metrics()
    if m is not None:
        m.inc("pipeline.overlap.files")
        m.inc("pipeline.overlap.chunks", result.chunks)
        m.inc("pipeline.overlap.stripes", result.stripes)
        m.inc("pipeline.overlap.data_bytes", result.data_bytes)
        m.inc("pipeline.overlap.parity_bytes", result.parity_bytes)
        m.observe("pipeline.overlap.read_wait_seconds", read_wait)
        m.observe("pipeline.overlap.write_wait_seconds", write_wait)
        m.set_gauge("pipeline.overlap.occupancy", result.occupancy)
    return result


# ----------------------------------------------------------------------
# Repair and degraded-read data path: compiled plans + streaming
# ----------------------------------------------------------------------
#
# Rebuilding a failed shard is the operation the paper measures in the
# wild (180 TB/day of recovery traffic, Section 3); here it gets the
# same treatment the encode path already has.  Three entry points share
# one core:
#
# - ``repair_stream``   -- reader || rebuild || writer over survivor
#                          shard streams, mirroring ``encode_stream``;
# - ``repair_file``     -- whole-file repair of in-memory shards,
#                          serial or over the self-healing process pool;
# - ``decode_file``     -- streaming degraded read: recover the original
#                          file bytes from any >= k surviving shards.
#
# The core (:class:`_StripeRebuilder`) runs every uniform full-width
# run of stripes through ``ErasureCode.bind_repair_batch`` -- the whole
# survivor wave is one pre-marshalled native kernel call -- and a
# ragged tail stripe through the same compiled executor at one stripe,
# with virtual padding slots as shared zero units.  Degraded reads
# decode only the erased data rows and hand surviving data units to
# the sink as views.  The scalar oracle runs only in checksum
# quarantine retries.  Checksum semantics mirror the raid node's
# optimistic repair: rebuild first, verify the rebuilt unit, and only
# on mismatch checksum the survivors, quarantine the corrupt ones,
# re-plan and retry (raising :class:`~repro.errors.CorruptionError`
# when the rebuilt unit fails but every survivor verifies).

#: Shared read-only zero units for virtual padding slots (small LRU).
_ZERO_UNITS: "OrderedDict[int, np.ndarray]" = OrderedDict()

_ZERO_UNIT_CAP = 8


def _shared_zero_unit(width: int) -> np.ndarray:
    zeros = _ZERO_UNITS.get(width)
    if zeros is None:
        zeros = np.zeros(width, dtype=np.uint8)
        zeros.setflags(write=False)
        while len(_ZERO_UNITS) >= _ZERO_UNIT_CAP:
            _ZERO_UNITS.popitem(last=False)
        _ZERO_UNITS[width] = zeros
    else:
        _ZERO_UNITS.move_to_end(width)
    return zeros


class _ShardGeometry:
    """Stored-shard geometry of one striped file, from metadata alone.

    Shard layout is a pure function of ``(name, file_size, block_size)``
    -- the same determinism the pooled encoder exploits -- so repair
    and degraded read can slice survivor shards without ever seeing the
    original file bytes.  A *shard* here is one stripe slot's stored
    bytes across every stripe of the file, back to back: data slots
    store their logical (untrimmed-but-unpadded) block bytes, parity
    slots store the full padded width, and virtual padding slots store
    nothing.
    """

    def __init__(
        self, code: ErasureCode, name: str, file_size: int, block_size: int
    ):
        if block_size <= 0:
            raise EncodingError(
                f"block size must be positive, got {block_size}"
            )
        if file_size < 0:
            raise EncodingError(f"file size must be >= 0, got {file_size}")
        self.code = code
        self.name = name
        self.file_size = int(file_size)
        self.block_size = int(block_size)
        if file_size == 0:
            sizes = [0]
        else:
            full, tail = divmod(self.file_size, self.block_size)
            sizes = [self.block_size] * full + ([tail] if tail else [])
        blocks = [
            Block(block_id=f"{name}/blk_{i}", size=size)
            for i, size in enumerate(sizes)
        ]
        self.layouts = group_into_stripes(
            blocks, code.k, code.r, stripe_prefix=f"{name}/stripe"
        )
        alignment = code.unit_alignment
        self.widths: List[int] = []
        for layout in self.layouts:
            width = layout.stripe_width
            padded = (
                alignment
                if width == 0
                else ((width + alignment - 1) // alignment) * alignment
            )
            self.widths.append(padded)
        self.stripes = len(self.layouts)
        self.max_width = max(self.widths)
        # Leading run of "uniform" stripes -- k real full-size blocks at
        # one shared padded width.  The fused batch kernels run here;
        # anything past it (at most the final stripe group) is ragged.
        uniform = 0
        for layout in self.layouts:
            if all(
                block_id is not None for block_id in layout.data_block_ids
            ) and all(size == self.block_size for size in layout.data_sizes):
                uniform += 1
            else:
                break
        self.uniform_stripes = uniform
        self._offsets: Dict[int, List[int]] = {}

    def is_virtual(self, t: int, slot: int) -> bool:
        layout = self.layouts[t]
        return slot < layout.k and layout.data_block_ids[slot] is None

    def stored_size(self, t: int, slot: int) -> int:
        """Bytes slot ``slot`` stores for stripe ``t`` (0 if virtual)."""
        layout = self.layouts[t]
        if slot < layout.k:
            if layout.data_block_ids[slot] is None:
                return 0
            return int(layout.data_sizes[slot])
        return self.widths[t]

    def shard_offsets(self, slot: int) -> List[int]:
        """Cumulative stored offsets; ``[stripes]`` is the shard size."""
        offsets = self._offsets.get(slot)
        if offsets is None:
            offsets = [0]
            for t in range(self.stripes):
                offsets.append(offsets[-1] + self.stored_size(t, slot))
            self._offsets[slot] = offsets
        return offsets

    def shard_size(self, slot: int) -> int:
        return self.shard_offsets(slot)[self.stripes]


class _StripeRebuilder:
    """Rebuilds one failed slot stripe by stripe, with integrity checks.

    The shared core of :func:`repair_stream`,
    :class:`CompiledFileRepair` and the pooled repair workers.  Uniform
    full-width runs go through the code's fused batch executors (one
    native call per survivor wave), ragged tail stripes through the
    same executors at one stripe; only checksum quarantine retries use
    the scalar oracle path.  Accounting (``bytes_read``,
    ``crc_mismatches``, ``quarantined``) accumulates on the instance
    between :meth:`reset` calls.

    ``checksums`` maps slot index to a per-stripe sequence of CRC32C
    values over each stripe's *stored* bytes.  Verification is strictly
    opt-in: with no checksums the rebuild path never touches a CRC.
    """

    def __init__(
        self,
        code: ErasureCode,
        geometry: _ShardGeometry,
        failed_slot: int,
        slots,
        checksums=None,
    ):
        self.code = code
        self.geometry = geometry
        self.failed_slot = code.validate_node_index(failed_slot)
        self.slots = tuple(sorted(int(slot) for slot in slots))
        for slot in self.slots:
            code.validate_node_index(slot)
        if self.failed_slot in self.slots:
            raise RepairError(
                f"slot {self.failed_slot} cannot be its own repair source"
            )
        self.checksums: Dict[int, List[int]] = {}
        for slot, values in (checksums or {}).items():
            values = list(values)
            if len(values) != geometry.stripes:
                raise RepairError(
                    f"checksums for slot {slot} cover {len(values)} stripes,"
                    f" expected {geometry.stripes}"
                )
            self.checksums[int(slot)] = values
        self.reset()

    def reset(self) -> None:
        self.bytes_read = 0
        self.crc_mismatches = 0
        self.quarantined: List[Tuple[int, int]] = []

    def bind_uniform(
        self, rows_by_slot: Mapping[int, list], out: np.ndarray
    ):
        """Compile one uniform wave against fixed buffers."""
        plan = self.code.repair_plan_cached(self.failed_slot, self.slots)
        return self.code.bind_repair_batch(
            self.failed_slot, rows_by_slot, out, plan
        )

    def repair_uniform_run(
        self,
        t0: int,
        rows_by_slot: Mapping[int, list],
        out: np.ndarray,
        executor=None,
    ) -> None:
        """Repair uniform stripes ``[t0, t0 + len(out))`` into ``out``."""
        stripes, width = out.shape
        plan = self.code.repair_plan_cached(self.failed_slot, self.slots)
        if executor is None:
            executor = self.code.bind_repair_batch(
                self.failed_slot, rows_by_slot, out, plan
            )
        executor()
        self.bytes_read += stripes * plan.bytes_downloaded(width)
        expected = self.checksums.get(self.failed_slot)
        if expected is None:
            return
        size = self.geometry.stored_size(t0, self.failed_slot)
        actual = crc32c_batch(out, lengths=[size] * stripes)
        wanted = np.asarray(expected[t0 : t0 + stripes], dtype=np.uint32)
        for i in np.nonzero(actual != wanted)[0]:
            i = int(i)
            units = {
                slot: np.asarray(rows[i])
                for slot, rows in rows_by_slot.items()
            }
            out[i] = self._quarantine_retry(t0 + i, units, frozenset())

    def repair_stripe(self, t: int, units: Mapping[int, np.ndarray]):
        """Repair one (ragged) stripe ``t``; returns the rebuilt unit.

        ``units`` holds width-padded rows for the provided non-virtual
        slots; virtual padding slots are synthesised as shared zeros.
        """
        layout = self.geometry.layouts[t]
        width = self.geometry.widths[t]
        units = dict(units)
        virtual = frozenset(
            slot
            for slot in range(layout.k)
            if layout.data_block_ids[slot] is None
        )
        for slot in virtual:
            if slot != self.failed_slot:
                units.setdefault(slot, _shared_zero_unit(width))
        plan = self.code.repair_plan_cached(self.failed_slot, units.keys())
        rebuilt = self.code.execute_repair_batch(
            self.failed_slot,
            {slot: [unit] for slot, unit in units.items()},
            plan,
        )[0][0]
        self.bytes_read += self._plan_bytes(plan, width, virtual)
        expected = self.checksums.get(self.failed_slot)
        if expected is not None:
            size = self.geometry.stored_size(t, self.failed_slot)
            if crc32c(rebuilt[:size]) != expected[t]:
                rebuilt = self._quarantine_retry(t, units, virtual)
        return rebuilt

    def _quarantine_retry(self, t, units, virtual) -> np.ndarray:
        """Optimistic-repair fallback after a rebuilt-unit mismatch.

        Mirrors the raid node's integrity loop: checksum the survivors,
        quarantine the corrupt ones, re-plan over the rest, retry; the
        stripe is unrecoverable only when the rebuilt unit fails its
        checksum while every surviving source verifies.
        """
        self.crc_mismatches += 1
        m = metrics()
        if m is not None:
            m.inc("pipeline.repair.crc_mismatches")
        units = dict(units)
        width = self.geometry.widths[t]
        size = self.geometry.stored_size(t, self.failed_slot)
        expected = self.checksums[self.failed_slot][t]
        excluded: set = set()
        while True:
            corrupt = [
                slot
                for slot in sorted(units)
                if slot not in virtual
                and self._survivor_corrupt(t, slot, units[slot])
            ]
            if not corrupt:
                raise CorruptionError(
                    f"stripe {t}: rebuilt unit for slot {self.failed_slot} "
                    f"fails its checksum but every surviving source verifies"
                )
            for slot in corrupt:
                units.pop(slot)
                excluded.add(slot)
                self.quarantined.append((t, slot))
                if m is not None:
                    m.inc("pipeline.repair.quarantined_units")
            plan = self.code.repair_plan_retry(
                self.failed_slot, set(units) | excluded, excluded
            )
            rebuilt, _ = self.code.execute_repair(
                self.failed_slot, units, plan
            )
            self.bytes_read += self._plan_bytes(plan, width, virtual)
            if crc32c(rebuilt[:size]) == expected:
                return rebuilt

    def _survivor_corrupt(self, t: int, slot: int, row) -> bool:
        values = self.checksums.get(slot)
        if values is None:
            return False
        size = self.geometry.stored_size(t, slot)
        return crc32c(np.asarray(row)[:size]) != values[t]

    def _plan_bytes(self, plan, width: int, virtual) -> int:
        """Metered bytes for one executed plan (virtual reads are free)."""
        bytes_read = plan.bytes_downloaded(width)
        subunit = width // self.code.substripes_per_unit
        for request in plan.requests:
            if request.node in virtual:
                bytes_read -= len(request.substripes) * subunit
        return bytes_read


class _ShardBufferSet:
    """One pooled unit of stream memory: survivor row buffers, an
    output buffer and (for repair) the fused executor bound to them.

    Binding the executor to the pool buffers once means steady-state
    chunks pay no per-chunk Python marshalling: the reader refills the
    same memory and the cached executor replays the whole survivor wave
    as a single native call.
    """

    def __init__(self, capacity: int, width: int):
        self.capacity = capacity
        self.width = width
        self.slot_buffers: Dict[int, np.ndarray] = {}
        self.out = np.empty((capacity, max(1, width)), dtype=np.uint8)
        self.executor = None
        self.executor_stripes = 0
        #: True while every row of the current chunk lives in
        #: ``slot_buffers`` at canonical offsets (row ``i`` at
        #: ``i * width``) -- the precondition for executor reuse.
        self.pooled = False

    def slot_buffer(self, slot: int) -> np.ndarray:
        buffer = self.slot_buffers.get(slot)
        if buffer is None:
            buffer = np.empty(self.capacity * max(1, self.width), dtype=np.uint8)
            self.slot_buffers[slot] = buffer
        return buffer


def _read_exact(handle, view: memoryview, slot: int) -> None:
    """Fill ``view`` from ``handle`` completely or fail loudly."""
    filled = 0
    total = len(view)
    while filled < total:
        if hasattr(handle, "readinto"):
            n = handle.readinto(view[filled:])
            n = 0 if n is None else int(n)
        else:
            piece = handle.read(total - filled)
            n = len(piece) if piece else 0
            if n:
                view[filled : filled + n] = piece
        if n == 0:
            raise PipelineError(
                f"survivor source for slot {slot} ended after "
                f"{filled} of {total} expected bytes"
            )
        filled += n


def _stream_shards(
    geometry: _ShardGeometry,
    sources: Mapping[int, object],
    sink,
    name: str,
    chunk_stripes: int,
    queue_depth: int,
    rebuild_chunk: Callable,
):
    """Reader -> rebuild -> writer scaffolding over survivor shards.

    The shared driver behind :func:`repair_stream` and
    :func:`decode_file`.  ``rebuild_chunk(t0, t1, rows_by_slot, bufset)``
    runs on the main thread and returns the byte views to emit for
    stripes ``[t0, t1)``; rows handed to it are width-padded per-stripe
    views (``None`` in stripes where the slot is virtual), either
    zero-copy into bytes-like sources or into pooled buffers refilled
    by the reader thread.

    Returns ``(stripes, chunks, emitted_bytes, wall, rebuild_seconds,
    read_wait, write_wait)``.
    """
    slots = sorted(int(slot) for slot in sources)
    width = geometry.max_width
    free_sets: "queue.Queue[_ShardBufferSet]" = queue.Queue()
    for _ in range(queue_depth + 1):
        free_sets.put(_ShardBufferSet(chunk_stripes, width))
    work_q: "queue.Queue" = queue.Queue(maxsize=queue_depth)
    write_q: "queue.Queue" = queue.Queue(maxsize=queue_depth)
    stop = threading.Event()
    errors: List[BaseException] = []

    def _put(q, item) -> bool:
        while not stop.is_set():
            try:
                q.put(item, timeout=_STREAM_POLL_SECONDS)
                return True
            except queue.Full:
                continue
        return False

    def _take_bufset() -> Optional[_ShardBufferSet]:
        while not stop.is_set():
            try:
                return free_sets.get(timeout=_STREAM_POLL_SECONDS)
            except queue.Empty:
                continue
        return None

    def reader() -> None:
        handles: Dict[int, object] = {}
        views: Dict[int, np.ndarray] = {}
        cursors: Dict[int, int] = {}
        opened: List[object] = []
        try:
            for slot in slots:
                source = sources[slot]
                if isinstance(source, (str, os.PathLike)):
                    handle = open(source, "rb")
                    opened.append(handle)
                    handles[slot] = handle
                elif hasattr(source, "readinto") or hasattr(source, "read"):
                    handles[slot] = source
                else:
                    view = np.frombuffer(
                        memoryview(source).cast("B"), dtype=np.uint8
                    )
                    expected = geometry.shard_size(slot)
                    if view.size != expected:
                        raise PipelineError(
                            f"shard for slot {slot} holds {view.size} bytes,"
                            f" expected {expected}"
                        )
                    views[slot] = view
                    cursors[slot] = 0
            for t0 in range(0, geometry.stripes, chunk_stripes):
                t1 = min(t0 + chunk_stripes, geometry.stripes)
                bufset = _take_bufset()
                if bufset is None:
                    return
                bufset.pooled = True
                rows_by_slot: Dict[int, Sequence[Optional[np.ndarray]]] = {}
                run = t1 - t0
                for slot in slots:
                    rows: "List[Optional[np.ndarray]] | np.ndarray" = []
                    # Every stripe stores a full-width row: the chunk is
                    # one (run, width) block of the shard.
                    contiguous = all(
                        not geometry.is_virtual(t, slot)
                        and geometry.stored_size(t, slot)
                        == geometry.widths[t]
                        == width
                        for t in range(t0, t1)
                    )
                    if slot in views and contiguous:
                        cursor = cursors[slot]
                        rows = views[slot][
                            cursor : cursor + run * width
                        ].reshape(run, width)
                        cursors[slot] = cursor + run * width
                        bufset.pooled = False
                    elif slot in views:
                        view = views[slot]
                        cursor = cursors[slot]
                        for i, t in enumerate(range(t0, t1)):
                            if geometry.is_virtual(t, slot):
                                rows.append(None)
                                continue
                            size = geometry.stored_size(t, slot)
                            stripe_width = geometry.widths[t]
                            if size == stripe_width:
                                rows.append(view[cursor : cursor + size])
                                bufset.pooled = False
                            else:
                                # Short stored row: stage it padded.
                                buffer = bufset.slot_buffer(slot)
                                row = buffer[
                                    i * width : i * width + stripe_width
                                ]
                                row[:size] = view[cursor : cursor + size]
                                row[size:] = 0
                                rows.append(row)
                            cursor += size
                        cursors[slot] = cursor
                    else:
                        handle = handles[slot]
                        buffer = bufset.slot_buffer(slot)
                        if contiguous:
                            flat = buffer[: run * width]
                            _read_exact(handle, memoryview(flat), slot)
                            rows = flat.reshape(run, width)
                        else:
                            for i, t in enumerate(range(t0, t1)):
                                if geometry.is_virtual(t, slot):
                                    rows.append(None)
                                    continue
                                size = geometry.stored_size(t, slot)
                                stripe_width = geometry.widths[t]
                                row = buffer[
                                    i * width : i * width + stripe_width
                                ]
                                if size:
                                    _read_exact(
                                        handle, memoryview(row[:size]), slot
                                    )
                                row[size:] = 0
                                rows.append(row)
                    rows_by_slot[slot] = rows
                if not _put(work_q, (t0, t1, rows_by_slot, bufset)):
                    return
        except Exception as exc:
            errors.append(exc)
            stop.set()
        finally:
            for handle in opened:
                handle.close()
            _put(work_q, None)

    def writer() -> None:
        handle = None
        close = False
        try:
            if sink is None:
                pass
            elif isinstance(sink, (str, os.PathLike)):
                handle = open(sink, "wb")
                close = True
            else:
                handle = sink
            while True:
                try:
                    item = write_q.get(timeout=_STREAM_POLL_SECONDS)
                except queue.Empty:
                    if stop.is_set():
                        return
                    continue
                if item is None:
                    return
                payloads, bufset = item
                if handle is not None:
                    for payload in payloads:
                        handle.write(memoryview(payload))
                # The payloads may be views into the buffer set; only
                # now is it safe to hand the memory back to the reader.
                free_sets.put(bufset)
        except Exception as exc:
            errors.append(exc)
            stop.set()
            while True:
                try:
                    item = write_q.get_nowait()
                except queue.Empty:
                    return
                if item is None:
                    return
                free_sets.put(item[1])
        finally:
            if close and handle is not None:
                handle.close()

    start_wall = time_module.perf_counter()
    rebuild_seconds = 0.0
    read_wait = 0.0
    write_wait = 0.0
    stripes = 0
    chunks = 0
    emitted_bytes = 0

    reader_thread = threading.Thread(
        target=reader, name="repro-repair-reader", daemon=True
    )
    writer_thread = threading.Thread(
        target=writer, name="repro-repair-writer", daemon=True
    )
    reader_thread.start()
    writer_thread.start()
    try:
        while True:
            t0 = time_module.perf_counter()
            item = None
            while True:
                try:
                    item = work_q.get(timeout=_STREAM_POLL_SECONDS)
                    break
                except queue.Empty:
                    if stop.is_set():
                        break
            read_wait += time_module.perf_counter() - t0
            if item is None:
                break
            lo, hi, rows_by_slot, bufset = item
            t0 = time_module.perf_counter()
            payloads = rebuild_chunk(lo, hi, rows_by_slot, bufset)
            rebuild_seconds += time_module.perf_counter() - t0
            chunks += 1
            stripes += hi - lo
            emitted_bytes += sum(int(np.asarray(p).size) for p in payloads)
            t0 = time_module.perf_counter()
            if not _put(write_q, (payloads, bufset)):
                break
            write_wait += time_module.perf_counter() - t0
    except BaseException:
        stop.set()
        raise
    finally:
        _put(write_q, None)
        if stop.is_set():
            # Unstick a reader blocked on the buffer-set pool.
            free_sets.put(_ShardBufferSet(1, 1))
        reader_thread.join()
        writer_thread.join()
    wall = time_module.perf_counter() - start_wall
    if errors:
        first = errors[0]
        if isinstance(first, PipelineError):
            raise first
        raise PipelineError(
            f"streaming reconstruction of {name!r} failed: "
            f"{type(first).__name__}: {first}"
        ) from first
    return (
        stripes,
        chunks,
        emitted_bytes,
        wall,
        rebuild_seconds,
        read_wait,
        write_wait,
    )


@dataclass
class StreamRepairResult:
    """Outcome of :func:`repair_stream`.

    ``bytes_read`` is the plan-metered repair traffic (virtual-slot
    reads are free), the quantity the paper's cross-rack measurements
    aggregate; ``rebuilt_bytes`` is the failed shard's stored size.
    """

    stripes: int
    chunks: int
    rebuilt_bytes: int
    bytes_read: int
    crc_mismatches: int
    quarantined: Tuple[Tuple[int, int], ...]
    wall_seconds: float
    repair_seconds: float
    read_wait_seconds: float
    write_wait_seconds: float

    @property
    def occupancy(self) -> float:
        """Fraction of wall time spent inside the repair kernels."""
        if self.wall_seconds <= 0:
            return 0.0
        return min(self.repair_seconds / self.wall_seconds, 1.0)


@dataclass
class StreamDecodeResult:
    """Outcome of :func:`decode_file` (streaming degraded read)."""

    stripes: int
    chunks: int
    data_bytes: int
    bytes_read: int
    crc_mismatches: int
    quarantined: Tuple[Tuple[int, int], ...]
    wall_seconds: float
    decode_seconds: float
    read_wait_seconds: float
    write_wait_seconds: float

    @property
    def occupancy(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return min(self.decode_seconds / self.wall_seconds, 1.0)


def _stream_geometry_args(
    code: ErasureCode,
    block_size: int,
    file_size: int,
    name: str,
    chunk_stripes: Optional[int],
    queue_depth: int,
) -> Tuple[_ShardGeometry, int]:
    if queue_depth < 1:
        raise EncodingError(f"queue depth must be >= 1, got {queue_depth}")
    geometry = _ShardGeometry(code, name, file_size, block_size)
    if chunk_stripes is None:
        stripe_bytes = code.k * block_size
        chunk_stripes = max(1, -(-STREAM_CHUNK_TARGET_BYTES // stripe_bytes))
    if chunk_stripes < 1:
        raise EncodingError(
            f"chunk_stripes must be >= 1, got {chunk_stripes}"
        )
    return geometry, chunk_stripes


def repair_stream(
    code: ErasureCode,
    sources: Mapping[int, object],
    sink,
    block_size: int,
    failed_slot: int,
    file_size: int,
    *,
    name: str = "file",
    checksums: Optional[Mapping[int, Sequence[int]]] = None,
    chunk_stripes: Optional[int] = None,
    queue_depth: int = 2,
) -> StreamRepairResult:
    """Rebuild one failed shard from survivor shard streams.

    ``sources`` maps survivor slot index to that slot's stored shard --
    a path, a readable binary file object, or a bytes-like object (read
    zero-copy).  ``sink`` receives the failed shard's stored bytes in
    stripe order (path, writable file object, or None to discard).  The
    rebuilt bytes are byte-identical to what the batched
    :meth:`~repro.striping.codec.StripeCodec.repair_blocks` path
    produces for the same stripes.

    Reads, repair kernels and writes overlap via bounded queues, and
    full-size uniform chunks reuse a fused repair executor bound to the
    pooled buffers -- the steady-state chunk cost is one native call.

    ``checksums`` (slot -> per-stripe CRC32C of stored bytes) arms the
    optimistic integrity loop: every rebuilt unit is verified, and a
    mismatch triggers survivor checksumming, quarantine-and-retry, or
    :class:`~repro.errors.CorruptionError` if the survivors all verify.
    """
    geometry, chunk_stripes = _stream_geometry_args(
        code, block_size, file_size, name, chunk_stripes, queue_depth
    )
    failed_slot = code.validate_node_index(failed_slot)
    if failed_slot in {int(slot) for slot in sources}:
        raise RepairError(
            f"slot {failed_slot} cannot be its own repair source"
        )
    rebuilder = _StripeRebuilder(
        code, geometry, failed_slot, sources.keys(), checksums
    )
    m = metrics()

    def rebuild_chunk(t0, t1, rows_by_slot, bufset):
        payloads: List[np.ndarray] = []
        uniform_until = min(t1, geometry.uniform_stripes)
        if uniform_until > t0:
            run = uniform_until - t0
            out = bufset.out[:run]
            uniform_rows = {
                slot: rows[:run] for slot, rows in rows_by_slot.items()
            }
            executor = None
            if (
                bufset.pooled
                and bufset.executor is not None
                and bufset.executor_stripes == run
            ):
                executor = bufset.executor
                if m is not None:
                    m.inc("pipeline.repair.bound_wave_reuses")
            elif bufset.pooled:
                executor = rebuilder.bind_uniform(uniform_rows, out)
                bufset.executor = executor
                bufset.executor_stripes = run
                if m is not None:
                    m.inc("pipeline.repair.bound_waves")
            rebuilder.repair_uniform_run(t0, uniform_rows, out, executor)
            size = geometry.stored_size(t0, failed_slot)
            payloads.extend(out[i, :size] for i in range(run))
        for t in range(max(t0, uniform_until), t1):
            if geometry.is_virtual(t, failed_slot):
                continue
            units = {
                slot: rows[t - t0]
                for slot, rows in rows_by_slot.items()
                if rows[t - t0] is not None
            }
            rebuilt = rebuilder.repair_stripe(t, units)
            payloads.append(rebuilt[: geometry.stored_size(t, failed_slot)])
        return payloads

    with span("pipeline.repair_stream"):
        stripes, chunks, emitted, wall, rebuild_s, read_wait, write_wait = (
            _stream_shards(
                geometry,
                sources,
                sink,
                name,
                chunk_stripes,
                queue_depth,
                rebuild_chunk,
            )
        )
    result = StreamRepairResult(
        stripes=stripes,
        chunks=chunks,
        rebuilt_bytes=emitted,
        bytes_read=rebuilder.bytes_read,
        crc_mismatches=rebuilder.crc_mismatches,
        quarantined=tuple(rebuilder.quarantined),
        wall_seconds=wall,
        repair_seconds=rebuild_s,
        read_wait_seconds=read_wait,
        write_wait_seconds=write_wait,
    )
    if m is not None:
        m.inc("pipeline.repair.streams")
        m.inc("pipeline.repair.stripes", result.stripes)
        m.inc("pipeline.repair.rebuilt_bytes", result.rebuilt_bytes)
        m.inc("pipeline.repair.bytes_read", result.bytes_read)
        m.observe("pipeline.repair.read_wait_seconds", read_wait)
        m.observe("pipeline.repair.write_wait_seconds", write_wait)
        m.set_gauge("pipeline.repair.occupancy", result.occupancy)
    return result


def decode_file(
    code: ErasureCode,
    sources: Mapping[int, object],
    sink,
    block_size: int,
    file_size: int,
    *,
    name: str = "file",
    checksums: Optional[Mapping[int, Sequence[int]]] = None,
    chunk_stripes: Optional[int] = None,
    queue_depth: int = 2,
) -> StreamDecodeResult:
    """Streaming degraded read: recover the original file bytes.

    ``sources`` maps surviving slot index to that slot's stored shard
    (any mix of data and parity slots; each stripe needs ``k``
    recoverable units).  ``sink`` receives the file's bytes in order,
    byte-identical to the data the batched
    :meth:`~repro.striping.codec.StripeCodec.decode_stripe` path
    restores.  ``checksums`` arms per-stripe verification of the
    decoded data units with the same quarantine-and-retry semantics as
    :func:`repair_stream`.
    """
    geometry, chunk_stripes = _stream_geometry_args(
        code, block_size, file_size, name, chunk_stripes, queue_depth
    )
    checks = {
        int(slot): list(values) for slot, values in (checksums or {}).items()
    }
    for slot, values in checks.items():
        if len(values) != geometry.stripes:
            raise RepairError(
                f"checksums for slot {slot} cover {len(values)} stripes,"
                f" expected {geometry.stripes}"
            )
    state = {"crc_mismatches": 0}
    quarantined: List[Tuple[int, int]] = []
    m = metrics()

    def _verify_failures(t, data, layout) -> bool:
        """True when some real data unit fails its checksum."""
        for slot in range(layout.k):
            if layout.data_block_ids[slot] is None:
                continue
            values = checks.get(slot)
            if values is None:
                continue
            size = geometry.stored_size(t, slot)
            if crc32c(np.asarray(data[slot])[:size]) != values[t]:
                return True
        return False

    def _decode_retry(t, units):
        """Drop corrupt survivors (located by checksum) and re-decode."""
        state["crc_mismatches"] += 1
        if m is not None:
            m.inc("pipeline.decode.crc_mismatches")
        layout = geometry.layouts[t]
        units = dict(units)
        excluded: set = set()
        while True:
            corrupt = [
                slot
                for slot in sorted(units)
                if not geometry.is_virtual(t, slot)
                and checks.get(slot) is not None
                and crc32c(
                    np.asarray(units[slot])[: geometry.stored_size(t, slot)]
                )
                != checks[slot][t]
            ]
            if not corrupt:
                raise CorruptionError(
                    f"stripe {t}: decoded data fails its checksums but "
                    f"every surviving source verifies"
                )
            for slot in corrupt:
                units.pop(slot)
                excluded.add(slot)
                quarantined.append((t, slot))
                if m is not None:
                    m.inc("pipeline.decode.quarantined_units")
            data = code.decode(units)
            if not _verify_failures(t, data, layout):
                return data

    def decode_rows(units_by_slot):
        """Data slot -> per-stripe rows: survivors in place, erased
        slots from one compiled kernel over the whole run."""
        data = {
            slot: units_by_slot[slot]
            for slot in range(code.k)
            if slot in units_by_slot
        }
        lost = [slot for slot in range(code.k) if slot not in data]
        if lost:
            decoded = code.decode_batch(units_by_slot, slots=lost)
            for i, slot in enumerate(lost):
                data[slot] = decoded[:, i]
        return data

    def rebuild_chunk(t0, t1, rows_by_slot, bufset):
        payloads: List[np.ndarray] = []
        uniform_until = min(t1, geometry.uniform_stripes)
        if uniform_until > t0:
            run = uniform_until - t0
            uniform_rows = {
                slot: rows[:run] for slot, rows in rows_by_slot.items()
            }
            data = decode_rows(uniform_rows)
            bad: set = set()
            size = geometry.block_size
            for slot in range(code.k):
                values = checks.get(slot)
                if values is None:
                    continue
                actual = crc32c_batch(data[slot], lengths=[size] * run)
                wanted = np.asarray(
                    values[t0 : t0 + run], dtype=np.uint32
                )
                bad.update(int(i) for i in np.nonzero(actual != wanted)[0])
            for i in range(run):
                stripe = [data[slot][i] for slot in range(code.k)]
                if i in bad:
                    stripe = _decode_retry(
                        t0 + i,
                        {
                            slot: np.asarray(rows[i])
                            for slot, rows in uniform_rows.items()
                        },
                    )
                payloads.extend(row[:size] for row in stripe)
        for t in range(max(t0, uniform_until), t1):
            layout = geometry.layouts[t]
            width = geometry.widths[t]
            units = {
                slot: rows[t - t0]
                for slot, rows in rows_by_slot.items()
                if rows[t - t0] is not None
            }
            for slot in range(layout.k):
                if layout.data_block_ids[slot] is None:
                    units.setdefault(slot, _shared_zero_unit(width))
            data = decode_rows({slot: [unit] for slot, unit in units.items()})
            stripe = [data[slot][0] for slot in range(layout.k)]
            if _verify_failures(t, stripe, layout):
                stripe = _decode_retry(t, units)
            for slot in range(layout.k):
                if layout.data_block_ids[slot] is None:
                    continue
                payloads.append(stripe[slot][: layout.data_sizes[slot]])
        return payloads

    with span("pipeline.decode_file"):
        stripes, chunks, emitted, wall, rebuild_s, read_wait, write_wait = (
            _stream_shards(
                geometry,
                sources,
                sink,
                name,
                chunk_stripes,
                queue_depth,
                rebuild_chunk,
            )
        )
    slots = [int(slot) for slot in sources]
    bytes_read = sum(
        geometry.stored_size(t, slot)
        for slot in slots
        for t in range(geometry.stripes)
    )
    result = StreamDecodeResult(
        stripes=stripes,
        chunks=chunks,
        data_bytes=emitted,
        bytes_read=bytes_read,
        crc_mismatches=state["crc_mismatches"],
        quarantined=tuple(quarantined),
        wall_seconds=wall,
        decode_seconds=rebuild_s,
        read_wait_seconds=read_wait,
        write_wait_seconds=write_wait,
    )
    if m is not None:
        m.inc("pipeline.decode.files")
        m.inc("pipeline.decode.stripes", result.stripes)
        m.inc("pipeline.decode.data_bytes", result.data_bytes)
        m.inc("pipeline.decode.bytes_read", result.bytes_read)
        m.observe("pipeline.decode.read_wait_seconds", read_wait)
        m.observe("pipeline.decode.write_wait_seconds", write_wait)
        m.set_gauge("pipeline.decode.occupancy", result.occupancy)
    return result


# ----------------------------------------------------------------------
# Whole-file repair: compiled plans, serial or pooled
# ----------------------------------------------------------------------


@dataclass
class CompiledRepairStats:
    """One :meth:`CompiledFileRepair.run` execution's accounting."""

    stripes: int
    bytes_read: int
    rebuilt_bytes: int
    crc_mismatches: int
    quarantined: Tuple[Tuple[int, int], ...]


class CompiledFileRepair:
    """A whole-file repair compiled to pre-bound native kernel waves.

    For a degraded file whose survivor shards are already in memory,
    every uniform full-width wave is bound once to the shard buffers
    via :meth:`~repro.codes.base.ErasureCode.bind_repair_batch`;
    :meth:`run` then replays the waves as single native calls over the
    *current* shard contents, plus the same compiled kernel at one
    stripe for the ragged tail.  Compile once, run per repair: steady
    state is exactly the fused kernels with no per-stripe Python work.
    This is the shape the repair benchmarks measure, and the pooled
    parallel path ships per-stripe-range instances of it to the workers.

    When a shard's stored row width differs from the padded stripe
    width (block sizes not divisible by the code's unit alignment), the
    wave stages survivors into padded scratch buffers on every run --
    still fused, just with a copy tax.
    """

    def __init__(
        self,
        code: ErasureCode,
        shards: Mapping[int, object],
        failed_slot: int,
        block_size: int,
        file_size: int,
        *,
        name: str = "file",
        checksums: Optional[Mapping[int, Sequence[int]]] = None,
        wave_stripes: Optional[int] = None,
        start: int = 0,
        stop: Optional[int] = None,
        out: Optional[np.ndarray] = None,
    ):
        self.code = code
        self.geometry = _ShardGeometry(code, name, file_size, block_size)
        geometry = self.geometry
        self.failed_slot = code.validate_node_index(failed_slot)
        stop = geometry.stripes if stop is None else int(stop)
        if not 0 <= start <= stop <= geometry.stripes:
            raise RepairError(
                f"stripe range [{start}, {stop}) outside file of "
                f"{geometry.stripes} stripes"
            )
        self.start = int(start)
        self.stop = stop
        self.shard_views: Dict[int, np.ndarray] = {}
        for slot, shard in sorted(shards.items()):
            slot = int(slot)
            if slot == self.failed_slot:
                continue
            if isinstance(shard, np.ndarray):
                view = np.ascontiguousarray(
                    shard.reshape(-1).view(np.uint8)
                )
            else:
                view = np.frombuffer(
                    memoryview(shard).cast("B"), dtype=np.uint8
                )
            expected = geometry.shard_size(slot)
            if view.size != expected:
                raise RepairError(
                    f"shard for slot {slot} holds {view.size} bytes, "
                    f"expected {expected}"
                )
            self.shard_views[slot] = view
        self.rebuilder = _StripeRebuilder(
            code, geometry, failed_slot, self.shard_views.keys(), checksums
        )
        offsets = geometry.shard_offsets(self.failed_slot)
        self.out_size = offsets[self.stop] - offsets[self.start]
        if out is None:
            out = np.empty(self.out_size, dtype=np.uint8)
        else:
            out = out.reshape(-1).view(np.uint8)
            if out.size != self.out_size:
                raise RepairError(
                    f"output buffer holds {out.size} bytes, expected "
                    f"{self.out_size}"
                )
        self.out = out
        self._compile(wave_stripes)

    def _compile(self, wave_stripes: Optional[int]) -> None:
        geometry = self.geometry
        failed = self.failed_slot
        uniform_stop = min(self.stop, geometry.uniform_stripes)
        self._waves: List[Tuple] = []
        self._tail: List[int] = [
            t
            for t in range(max(self.start, uniform_stop), self.stop)
            if not geometry.is_virtual(t, failed)
        ]
        if uniform_stop <= self.start:
            return
        width = geometry.max_width
        run = uniform_stop - self.start
        wave = run if wave_stripes is None else max(1, int(wave_stripes))
        out_offsets = geometry.shard_offsets(failed)
        failed_stored = geometry.stored_size(self.start, failed)
        for w0 in range(self.start, uniform_stop, wave):
            w1 = min(w0 + wave, uniform_stop)
            stripes = w1 - w0
            rows_by_slot: Dict[int, List[np.ndarray]] = {}
            refreshes: List[Tuple[np.ndarray, np.ndarray]] = []
            for slot, view in self.shard_views.items():
                stored = geometry.stored_size(w0, slot)
                lo = geometry.shard_offsets(slot)[w0]
                if stored == width:
                    rows_by_slot[slot] = [
                        view[lo + i * width : lo + (i + 1) * width]
                        for i in range(stripes)
                    ]
                else:
                    staging = np.zeros((stripes, width), dtype=np.uint8)
                    source = view[lo : lo + stripes * stored].reshape(
                        stripes, stored
                    )
                    refreshes.append((staging[:, :stored], source))
                    rows_by_slot[slot] = [staging[i] for i in range(stripes)]
            out_lo = out_offsets[w0] - out_offsets[self.start]
            writeback = None
            if failed_stored == width:
                out_matrix = self.out[
                    out_lo : out_lo + stripes * width
                ].reshape(stripes, width)
            else:
                out_matrix = np.empty((stripes, width), dtype=np.uint8)
                writeback = self.out[
                    out_lo : out_lo + stripes * failed_stored
                ].reshape(stripes, failed_stored)
            executor = self.rebuilder.bind_uniform(rows_by_slot, out_matrix)
            self._waves.append(
                (w0, rows_by_slot, out_matrix, executor, refreshes, writeback)
            )

    def run(self) -> CompiledRepairStats:
        """Execute the compiled repair against current shard contents."""
        rebuilder = self.rebuilder
        rebuilder.reset()
        geometry = self.geometry
        failed = self.failed_slot
        m = metrics()
        for w0, rows_by_slot, out_matrix, executor, refreshes, writeback in (
            self._waves
        ):
            for staging, source in refreshes:
                staging[:] = source
            rebuilder.repair_uniform_run(w0, rows_by_slot, out_matrix, executor)
            if writeback is not None:
                writeback[:] = out_matrix[:, : writeback.shape[1]]
            if m is not None:
                m.inc("pipeline.repair.compiled_waves")
        out_offsets = geometry.shard_offsets(failed)
        base = out_offsets[self.start]
        for t in self._tail:
            units = {}
            for slot, view in self.shard_views.items():
                if geometry.is_virtual(t, slot):
                    continue
                width = geometry.widths[t]
                stored = geometry.stored_size(t, slot)
                lo = geometry.shard_offsets(slot)[t]
                if stored == width:
                    units[slot] = view[lo : lo + width]
                else:
                    row = np.zeros(width, dtype=np.uint8)
                    row[:stored] = view[lo : lo + stored]
                    units[slot] = row
            rebuilt = rebuilder.repair_stripe(t, units)
            size = geometry.stored_size(t, failed)
            lo = out_offsets[t] - base
            self.out[lo : lo + size] = rebuilt[:size]
        return CompiledRepairStats(
            stripes=self.stop - self.start,
            bytes_read=rebuilder.bytes_read,
            rebuilt_bytes=self.out_size,
            crc_mismatches=rebuilder.crc_mismatches,
            quarantined=tuple(rebuilder.quarantined),
        )


def compile_file_repair(
    code: ErasureCode,
    shards: Mapping[int, object],
    failed_slot: int,
    block_size: int,
    file_size: int,
    **kwargs,
) -> CompiledFileRepair:
    """Compile a whole-file repair plan (see :class:`CompiledFileRepair`)."""
    return CompiledFileRepair(
        code, shards, failed_slot, block_size, file_size, **kwargs
    )


@dataclass
class FileRepairResult:
    """Outcome of :func:`repair_file`."""

    rebuilt: np.ndarray
    stripes: int
    bytes_read: int
    crc_mismatches: int
    quarantined: Tuple[Tuple[int, int], ...]
    parallel_used: bool
    shards: int
    retries: int = 0
    serial_fallback_shards: int = 0

    @property
    def rebuilt_bytes(self) -> int:
        return int(self.rebuilt.size)


@dataclass(frozen=True)
class _RepairShardTask:
    """Everything one worker needs to repair stripes [start, stop)."""

    shard: int
    in_name: str
    out_name: str
    code_blob: bytes
    checks_blob: bytes
    file_name: str
    file_size: int
    block_size: int
    failed_slot: int
    slots: Tuple[int, ...]
    in_offsets: Tuple[int, ...]
    start: int
    stop: int


def _worker_repair_shard(task: _RepairShardTask, attempt: int = 0):
    """Repair one stripe range of the shared shards (pickles cleanly).

    Returns ``(bytes_read, crc_mismatches, quarantined)``; the rebuilt
    bytes land at fixed offsets of the output segment, so retries are
    idempotent exactly like encode shards.
    """
    shm_in, shm_out = _attach_worker_shm(task.in_name, task.out_name)
    try:
        try:
            code: ErasureCode = pickle.loads(task.code_blob)
            checksums = pickle.loads(task.checks_blob)
            geometry = _ShardGeometry(
                code, task.file_name, task.file_size, task.block_size
            )
            base = np.ndarray((shm_in.size,), dtype=np.uint8, buffer=shm_in.buf)
            shards = {}
            for slot, offset in zip(task.slots, task.in_offsets):
                size = geometry.shard_size(slot)
                shards[slot] = base[offset : offset + size]
            offsets = geometry.shard_offsets(task.failed_slot)
            out = np.ndarray(
                (shm_out.size,), dtype=np.uint8, buffer=shm_out.buf
            )
            window = out[offsets[task.start] : offsets[task.stop]]
            compiled = CompiledFileRepair(
                code,
                shards,
                task.failed_slot,
                task.block_size,
                task.file_size,
                name=task.file_name,
                checksums=checksums,
                start=task.start,
                stop=task.stop,
                out=window,
            )
            stats = compiled.run()
        except (CorruptionError, RepairError):
            raise
        except Exception as exc:
            raise PipelineError(
                f"repair shard {task.shard} (stripes {task.start}.."
                f"{task.stop}) failed on the worker: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    finally:
        shm_in.close()
        shm_out.close()
    return stats.bytes_read, stats.crc_mismatches, stats.quarantined


def repair_file(
    code: ErasureCode,
    shards: Mapping[int, object],
    failed_slot: int,
    block_size: int,
    file_size: int,
    *,
    name: str = "file",
    checksums: Optional[Mapping[int, Sequence[int]]] = None,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    progress_timeout: float = DEFAULT_PROGRESS_TIMEOUT,
) -> FileRepairResult:
    """Rebuild one failed shard of a whole file held in memory.

    Serial mode compiles the repair once (:class:`CompiledFileRepair`)
    and executes it; parallel mode shards the stripe ranges over the
    same self-healing process pool the encoder uses, with survivor
    shards and the rebuilt output in shared memory.  Both modes return
    byte-identical rebuilt bytes, equal to the streamed and batched
    repair paths.
    """
    geometry = _ShardGeometry(code, name, file_size, block_size)
    failed_slot = code.validate_node_index(failed_slot)
    with span("pipeline.repair_file"):
        result = _repair_file_impl(
            code,
            geometry,
            shards,
            failed_slot,
            block_size,
            file_size,
            name,
            checksums,
            parallel,
            max_workers,
            progress_timeout,
        )
    m = metrics()
    if m is not None:
        m.inc("pipeline.repair.files")
        m.inc("pipeline.repair.stripes", result.stripes)
        m.inc("pipeline.repair.rebuilt_bytes", result.rebuilt_bytes)
        m.inc("pipeline.repair.bytes_read", result.bytes_read)
        m.inc(
            "pipeline.repair.parallel_runs"
            if result.parallel_used
            else "pipeline.repair.serial_runs"
        )
    return result


def _repair_file_impl(
    code,
    geometry,
    shards,
    failed_slot,
    block_size,
    file_size,
    name,
    checksums,
    parallel,
    max_workers,
    progress_timeout,
) -> FileRepairResult:
    if not _decide_parallel(geometry.stripes, parallel):
        return _repair_file_serial(
            code, shards, failed_slot, block_size, file_size, name, checksums
        )
    result = _repair_file_pooled(
        code,
        geometry,
        shards,
        failed_slot,
        block_size,
        file_size,
        name,
        checksums,
        max_workers,
        progress_timeout,
    )
    if result is not None:
        return result
    get_logger("repro.pipeline").warning(
        "repair-pool-unavailable-serial-fallback",
        file=name,
        stripes=geometry.stripes,
    )
    return _repair_file_serial(
        code, shards, failed_slot, block_size, file_size, name, checksums
    )


def _repair_file_serial(
    code, shards, failed_slot, block_size, file_size, name, checksums
) -> FileRepairResult:
    compiled = CompiledFileRepair(
        code,
        shards,
        failed_slot,
        block_size,
        file_size,
        name=name,
        checksums=checksums,
    )
    stats = compiled.run()
    return FileRepairResult(
        rebuilt=compiled.out,
        stripes=stats.stripes,
        bytes_read=stats.bytes_read,
        crc_mismatches=stats.crc_mismatches,
        quarantined=stats.quarantined,
        parallel_used=False,
        shards=1,
    )


def _repair_file_pooled(
    code,
    geometry: _ShardGeometry,
    shards,
    failed_slot,
    block_size,
    file_size,
    name,
    checksums,
    max_workers,
    progress_timeout,
) -> Optional[FileRepairResult]:
    """Self-healing pooled repair; None when this host cannot pool."""
    from multiprocessing import shared_memory

    stripes = geometry.stripes
    slots = sorted(int(slot) for slot in shards if int(slot) != failed_slot)
    sizes = {slot: geometry.shard_size(slot) for slot in slots}
    in_offsets: Dict[int, int] = {}
    cursor = 0
    for slot in slots:
        in_offsets[slot] = cursor
        cursor += sizes[slot]
    out_offsets = geometry.shard_offsets(failed_slot)
    out_total = out_offsets[stripes]
    workers = max_workers or min(stripes, os.cpu_count() or 1)
    workers = max(1, min(workers, stripes))
    bounds = np.linspace(0, stripes, workers + 1).astype(int)
    code_blob = pickle.dumps(code)
    checks_blob = pickle.dumps(checksums)
    shm_in = shm_out = None
    try:
        shm_in = shared_memory.SharedMemory(create=True, size=max(1, cursor))
        shm_out = shared_memory.SharedMemory(
            create=True, size=max(1, out_total)
        )
        m = metrics()
        if m is not None:
            m.inc("pipeline.shm_created", 2)
            m.inc("pipeline.shm_bytes", max(1, cursor) + max(1, out_total))
        base = np.ndarray((max(1, cursor),), dtype=np.uint8, buffer=shm_in.buf)
        parent_views = {}
        for slot in slots:
            shard = shards[slot]
            view = (
                shard.reshape(-1).view(np.uint8)
                if isinstance(shard, np.ndarray)
                else np.frombuffer(memoryview(shard).cast("B"), dtype=np.uint8)
            )
            if view.size != sizes[slot]:
                raise RepairError(
                    f"shard for slot {slot} holds {view.size} bytes, "
                    f"expected {sizes[slot]}"
                )
            lo = in_offsets[slot]
            base[lo : lo + sizes[slot]] = view
            parent_views[slot] = base[lo : lo + sizes[slot]]
        spans = [
            (int(bounds[w]), int(bounds[w + 1]))
            for w in range(workers)
            if int(bounds[w]) < int(bounds[w + 1])
        ]
        tasks = [
            _RepairShardTask(
                shard=shard,
                in_name=shm_in.name,
                out_name=shm_out.name,
                code_blob=code_blob,
                checks_blob=checks_blob,
                file_name=name,
                file_size=int(file_size),
                block_size=int(block_size),
                failed_slot=int(failed_slot),
                slots=tuple(slots),
                in_offsets=tuple(in_offsets[slot] for slot in slots),
                start=start,
                stop=stop,
            )
            for shard, (start, stop) in enumerate(spans)
        ]

        def _repair_serially(task: _RepairShardTask):
            out = np.ndarray(
                (shm_out.size,), dtype=np.uint8, buffer=shm_out.buf
            )
            window = out[out_offsets[task.start] : out_offsets[task.stop]]
            compiled = CompiledFileRepair(
                code,
                parent_views,
                failed_slot,
                block_size,
                file_size,
                name=name,
                checksums=checksums,
                start=task.start,
                stop=task.stop,
                out=window,
            )
            stats = compiled.run()
            return stats.bytes_read, stats.crc_mismatches, stats.quarantined

        try:
            retries, serial_fallback_shards, results = (
                _run_shards_self_healing(
                    tasks,
                    _worker_repair_shard,
                    _repair_serially,
                    progress_timeout,
                )
            )
        except (OSError, PermissionError, ImportError):
            return None
        rebuilt = np.ndarray(
            (out_total,), dtype=np.uint8, buffer=shm_out.buf
        ).copy()
    except (OSError, PermissionError, ImportError):
        return None
    finally:
        m = metrics()
        for shm in (shm_in, shm_out):
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except (OSError, FileNotFoundError):
                    pass
                else:
                    if m is not None:
                        m.inc("pipeline.shm_unlinked")
    bytes_read = sum(int(value[0]) for value in results.values())
    crc_mismatches = sum(int(value[1]) for value in results.values())
    quarantined = tuple(
        sorted(entry for value in results.values() for entry in value[2])
    )
    return FileRepairResult(
        rebuilt=rebuilt,
        stripes=stripes,
        bytes_read=bytes_read,
        crc_mismatches=crc_mismatches,
        quarantined=quarantined,
        parallel_used=True,
        shards=len(tasks),
        retries=retries,
        serial_fallback_shards=serial_fallback_shards,
    )
