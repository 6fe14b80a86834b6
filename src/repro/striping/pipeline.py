"""In-process file data path: encode, repair and degraded read.

Raiding a cold file (Section 2.1) computes each stripe's parities;
recovering a lost block (Section 3) rebuilds one shard from its
survivors.  Every entry point here runs in the calling process over the
codes' fused batch kernels:

- :func:`encode_file` -- chunk an in-memory file into blocks and encode
  every stripe through :meth:`StripeCodec.encode_stripes`, whose full
  stripes take the zero-copy ``(s, k, w)`` fast path;
- :func:`encode_stream` -- the same parities for a source read chunk
  by chunk, in bounded memory;
- :func:`repair_file` -- rebuild one failed shard of an in-memory file
  through one :class:`CompiledFileRepair`;
- :func:`repair_stream` / :func:`decode_file` -- streamed repair and
  degraded read over survivor shard streams.

The streamed entry points are one inline loop on the calling thread:
read a chunk, compute it, write it, then take the next.

All paths produce byte-identical output for the same bytes.  Checksummed
repairs verify every rebuilt unit and quarantine corrupt survivors
before retrying, so a bad survivor surfaces as a quarantine record or a
:class:`~repro.errors.CorruptionError`, never as wrong bytes.
"""

from __future__ import annotations

import os
import time as time_module
from collections import OrderedDict
from contextlib import ExitStack
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
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
from repro.observability import metrics, span
from repro.striping.blocks import Block, LogicalFile, chunk_bytes
from repro.striping.checksum import crc32c, crc32c_batch
from repro.striping.codec import StripeCodec
from repro.striping.layout import StripeLayout, group_into_stripes


def _reject_pool(parallel: Optional[bool]) -> None:
    """Refuse ``parallel=True``: the file pipeline has no process pool.

    ``None`` and ``False`` are accepted so callers written against the
    pooled pipeline keep working; both mean "in-process", the only mode.
    """
    if parallel:
        raise PipelineError(
            "parallel=True is no longer supported: the file pipeline's "
            "process pool was removed; encode_file and repair_file always "
            "run in-process"
        )


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
        The chunked logical file; its blocks are views into the
        caller's data.
    layouts:
        One :class:`StripeLayout` per stripe, in file order.
    parities:
        ``parities[t]`` holds stripe ``t``'s ``r`` parity blocks.
    """

    file: LogicalFile
    layouts: List[StripeLayout]
    parities: List[List[Block]]

    @property
    def parallel_used(self) -> bool:
        """Always False: encoding runs in-process (kept for old callers)."""
        return False

    @property
    def parity_bytes(self) -> int:
        return sum(p.size for row in self.parities for p in row)


def encode_file(
    code: ErasureCode,
    data,
    block_size: int,
    *,
    name: str = "file",
    parallel: Optional[bool] = None,
) -> EncodeResult:
    """Chunk ``data`` into blocks and compute every stripe's parities.

    Encodes in-process through the codec's fused batch path (zero
    staging copies for the full stripes) and returns the parities in
    file order.  ``parallel`` accepts only ``None`` or ``False``;
    ``True`` raises :class:`~repro.errors.PipelineError`.
    """
    _reject_pool(parallel)
    if block_size <= 0:
        raise EncodingError(f"block size must be positive, got {block_size}")
    data = np.ascontiguousarray(
        np.asarray(data, dtype=np.uint8).reshape(-1)
    )
    with span("pipeline.encode_file"):
        file = chunk_bytes(name, data, block_size=block_size)
        layouts = group_into_stripes(
            file.blocks, code.k, code.r, stripe_prefix=f"{name}/stripe"
        )
        parities = StripeCodec(code).encode_stripes(
            layouts, _data_slot_lists(layouts, file.blocks)
        )
    m = metrics()
    if m is not None:
        m.inc("pipeline.files")
        m.inc("pipeline.data_bytes", int(data.size))
        m.inc("pipeline.stripes", len(layouts))
    return EncodeResult(file, layouts, parities)


# ----------------------------------------------------------------------
# Streaming: one inline loop (read -> compute -> write) per call
# ----------------------------------------------------------------------
#
# ``encode_file`` holds the whole file in memory.  ``encode_stream``,
# ``repair_stream`` and ``decode_file`` bound memory instead: each takes
# one stripe-aligned chunk from its source, computes it and writes the
# result to its sink before it takes the next, all on the calling
# thread (:func:`_run_stream`).  The stages are not split over reader
# and writer threads: on one core threads cannot overlap them, and each
# call would pay a thread start, a join and lock hand-offs.  Chunks are
# whole stripes (``chunk_stripes * k * block_size`` bytes), which makes
# the streamed parity byte-identical to ``encode_file`` on the same
# bytes: every chunk boundary is a stripe boundary, and the final
# ragged chunk pads exactly like the file tail would.

#: Streaming chunk-size target; chunks round up to whole stripes.
STREAM_CHUNK_TARGET_BYTES = 8 * 1024 * 1024


def _chunk_stripes(
    code: ErasureCode, block_size: int, chunk_stripes: Optional[int]
) -> int:
    """Stripes per streamed chunk: ``chunk_stripes``, checked, or the
    default of whole stripes totalling about
    :data:`STREAM_CHUNK_TARGET_BYTES`."""
    if chunk_stripes is None:
        return max(1, -(-STREAM_CHUNK_TARGET_BYTES // (code.k * block_size)))
    if chunk_stripes < 1:
        raise EncodingError(
            f"chunk_stripes must be >= 1, got {chunk_stripes}"
        )
    return chunk_stripes


def _stream_failure(what: str, name: str, exc: Exception) -> PipelineError:
    """The error to raise for a failing source or sink: a
    :class:`PipelineError` as is, anything else wrapped in one."""
    if isinstance(exc, PipelineError):
        return exc
    error = PipelineError(
        f"streaming {what} of {name!r} failed: {type(exc).__name__}: {exc}"
    )
    error.__cause__ = exc
    return error


def _run_stream(
    what: str,
    name: str,
    sink,
    open_source: Callable[[ExitStack], Iterator],
    process: Callable[[object], Sequence[np.ndarray]],
) -> Tuple[int, int, float, float, float, float]:
    """Take a chunk, process it, write its payloads; repeat to the end.

    ``open_source(stack)`` returns an iterator of chunks and opens any
    file it reads on ``stack``; ``process(chunk)`` returns the
    byte-like payloads to write to ``sink`` (a path, a writable binary
    file object, or None to discard).  A chunk's payloads are written
    before the next chunk is taken, so the source may refill one buffer
    per chunk and payloads may view it.

    A failing source or sink -- opening, reading, writing or closing --
    raises :class:`PipelineError` (``"streaming {what} of {name!r}
    failed: ..."`` unless it already was one); errors from ``process``
    propagate unchanged.  Every file opened here is closed either way.

    Returns ``(chunks, emitted_bytes, wall, process_seconds,
    read_seconds, write_seconds)``.
    """
    clock = time_module.perf_counter
    start = clock()
    process_seconds = read_seconds = write_seconds = 0.0
    chunks = emitted = 0
    with ExitStack() as stack:
        try:
            handle = sink
            if isinstance(sink, (str, os.PathLike)):
                handle = stack.enter_context(open(sink, "wb"))
            source = open_source(stack)
        except Exception as exc:
            raise _stream_failure(what, name, exc)
        while True:
            t0 = clock()
            try:
                chunk = next(source, None)
            except Exception as exc:
                raise _stream_failure(what, name, exc)
            t1 = clock()
            read_seconds += t1 - t0
            if chunk is None:
                break
            payloads = process(chunk)
            t2 = clock()
            process_seconds += t2 - t1
            chunks += 1
            try:
                for payload in payloads:
                    view = memoryview(payload)
                    emitted += view.nbytes
                    if handle is not None:
                        handle.write(view)
            except Exception as exc:
                raise _stream_failure(what, name, exc)
            write_seconds += clock() - t2
        try:
            stack.close()
        except Exception as exc:
            raise _stream_failure(what, name, exc)
    return (
        chunks,
        emitted,
        clock() - start,
        process_seconds,
        read_seconds,
        write_seconds,
    )


@dataclass
class StreamEncodeResult:
    """Outcome of :func:`encode_stream`.

    Attributes
    ----------
    stripes, chunks, data_bytes, parity_bytes:
        Work accounted: stripes encoded, chunks streamed, source bytes
        consumed and parity bytes produced.
    wall_seconds, encode_seconds:
        End-to-end wall time and the part spent inside the codec.
    read_wait_seconds, write_wait_seconds:
        Time spent reading source chunks / writing parities to the
        sink.  A large read share of the wall time means the source is
        the bottleneck; a large write share, the sink.
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


def _fill(handle, view: memoryview) -> int:
    """Read from ``handle`` into ``view`` until it is full or at EOF;
    returns the bytes read."""
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
            break
        filled += n
    return filled


def _iter_source_chunks(stack: ExitStack, source, chunk_size: int):
    """Yield ``source`` as consecutive uint8 chunks of ``chunk_size``.

    ``source`` may be a filesystem path (opened on ``stack``), a
    readable binary file object, or a bytes-like object.  File sources
    refill one chunk buffer, so a chunk is valid only until the next is
    taken; bytes-like sources yield zero-copy views.  An empty source
    yields one empty chunk, so the stream encodes the same single
    empty-block stripe ``encode_file`` produces for ``b""``.
    """
    if isinstance(source, (str, os.PathLike)):
        source = stack.enter_context(open(source, "rb"))
    if hasattr(source, "readinto") or hasattr(source, "read"):
        buffer = np.empty(chunk_size, dtype=np.uint8)
        view = memoryview(buffer)
        filled = _fill(source, view)
        yield buffer[:filled]
        while filled == chunk_size:
            filled = _fill(source, view)
            if filled:
                yield buffer[:filled]
        return
    data = np.frombuffer(memoryview(source).cast("B"), dtype=np.uint8)
    for start in range(0, max(data.size, 1), chunk_size):
        yield data[start : start + chunk_size]


def encode_stream(
    code: ErasureCode,
    source,
    sink,
    block_size: int,
    *,
    name: str = "file",
    chunk_stripes: Optional[int] = None,
) -> StreamEncodeResult:
    """Encode a byte stream chunk by chunk in bounded memory.

    ``source`` is a path, a readable binary file object, or a
    bytes-like object; ``sink`` is a path, a writable binary file
    object, or None to discard parities (benchmarking).  Parity bytes
    are written in file order -- for each stripe, its ``r`` parity
    payloads back to back -- and are byte-identical to what
    :func:`encode_file` computes for the same bytes and ``block_size``.

    Each chunk is read, encoded and its parities written before the
    next is read, on the calling thread.  ``chunk_stripes`` sets the
    chunk (default: whole stripes totalling about
    :data:`STREAM_CHUNK_TARGET_BYTES`), so memory use is
    ``O(chunk_stripes * k * block_size)``.  A failing source or sink
    raises :class:`~repro.errors.PipelineError`.
    """
    if block_size <= 0:
        raise EncodingError(f"block size must be positive, got {block_size}")
    chunk_size = _chunk_stripes(code, block_size, chunk_stripes) * (
        code.k * block_size
    )
    codec = StripeCodec(code)
    stripes = data_bytes = 0

    def encode_chunk(item) -> List[np.ndarray]:
        nonlocal stripes, data_bytes
        index, chunk = item
        chunk_name = f"{name}/chunk_{index}"
        file = chunk_bytes(chunk_name, chunk, block_size=block_size)
        layouts = group_into_stripes(
            file.blocks, code.k, code.r, stripe_prefix=f"{chunk_name}/stripe"
        )
        parities = codec.encode_stripes(
            layouts, _data_slot_lists(layouts, file.blocks)
        )
        stripes += len(layouts)
        data_bytes += int(chunk.size)
        return [p.payload for row in parities for p in row]

    with span("pipeline.encode_stream"):
        chunks, parity_bytes, wall, encode_s, read_s, write_s = _run_stream(
            "encode",
            name,
            sink,
            lambda stack: enumerate(
                _iter_source_chunks(stack, source, chunk_size)
            ),
            encode_chunk,
        )
    result = StreamEncodeResult(
        stripes=stripes,
        chunks=chunks,
        data_bytes=data_bytes,
        parity_bytes=parity_bytes,
        wall_seconds=wall,
        encode_seconds=encode_s,
        read_wait_seconds=read_s,
        write_wait_seconds=write_s,
    )
    m = metrics()
    if m is not None:
        m.inc("pipeline.overlap.files")
        m.inc("pipeline.overlap.chunks", result.chunks)
        m.inc("pipeline.overlap.stripes", result.stripes)
        m.inc("pipeline.overlap.data_bytes", result.data_bytes)
        m.inc("pipeline.overlap.parity_bytes", result.parity_bytes)
        m.observe("pipeline.overlap.read_wait_seconds", read_s)
        m.observe("pipeline.overlap.write_wait_seconds", write_s)
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
# - ``repair_stream``   -- read, rebuild and write survivor shard
#                          streams chunk by chunk, through the same
#                          inline loop as ``encode_stream``;
# - ``repair_file``     -- whole-file repair of in-memory shards
#                          through one :class:`CompiledFileRepair`;
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

    Shard layout is a pure function of ``(name, file_size, block_size)``,
    so repair and degraded read can slice survivor shards without ever seeing the
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

    The shared core of :func:`repair_stream` and
    :class:`CompiledFileRepair`.  Uniform
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
    """A stream's reusable chunk memory: survivor row buffers, an output
    buffer and (for repair) the fused executor bound to them.

    Binding the executor to these buffers once means steady-state
    chunks pay no per-chunk Python marshalling: each chunk refills the
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
    filled = _fill(handle, view)
    if filled < len(view):
        raise PipelineError(
            f"survivor source for slot {slot} ended after "
            f"{filled} of {len(view)} expected bytes"
        )


def _shard_chunks(
    stack: ExitStack,
    geometry: _ShardGeometry,
    sources: Mapping[int, object],
    chunk_stripes: int,
):
    """Yield ``(t0, t1, rows_by_slot, bufset)`` for each chunk of stripes.

    The source side of :func:`repair_stream` and :func:`decode_file`.
    Rows are width-padded per-stripe views (``None`` in stripes where
    the slot is virtual), either zero-copy into bytes-like sources or
    into the one :class:`_ShardBufferSet`, which every chunk refills
    from file sources -- so a chunk's rows, and payloads that view
    them, are valid only until the next chunk is taken.  Path sources
    are opened on ``stack``.
    """
    slots = sorted(int(slot) for slot in sources)
    width = geometry.max_width
    bufset = _ShardBufferSet(min(chunk_stripes, geometry.stripes), width)
    handles: Dict[int, object] = {}
    views: Dict[int, np.ndarray] = {}
    cursors: Dict[int, int] = {}
    for slot in slots:
        source = sources[slot]
        if isinstance(source, (str, os.PathLike)):
            handles[slot] = stack.enter_context(open(source, "rb"))
        elif hasattr(source, "readinto") or hasattr(source, "read"):
            handles[slot] = source
        else:
            view = np.frombuffer(memoryview(source).cast("B"), dtype=np.uint8)
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
        bufset.pooled = True
        rows_by_slot: Dict[int, Sequence[Optional[np.ndarray]]] = {}
        run = t1 - t0
        for slot in slots:
            rows: "List[Optional[np.ndarray]] | np.ndarray" = []
            # Every stripe stores a full-width row: the chunk is one
            # (run, width) block of the shard.
            contiguous = all(
                not geometry.is_virtual(t, slot)
                and geometry.stored_size(t, slot) == geometry.widths[t] == width
                for t in range(t0, t1)
            )
            if slot in views and contiguous:
                cursor = cursors[slot]
                rows = views[slot][cursor : cursor + run * width].reshape(
                    run, width
                )
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
                        row = buffer[i * width : i * width + stripe_width]
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
                        row = buffer[i * width : i * width + stripe_width]
                        if size:
                            _read_exact(handle, memoryview(row[:size]), slot)
                        row[size:] = 0
                        rows.append(row)
            rows_by_slot[slot] = rows
        yield t0, t1, rows_by_slot, bufset


@dataclass
class StreamRepairResult:
    """Outcome of :func:`repair_stream`.

    ``bytes_read`` is the plan-metered repair traffic (virtual-slot
    reads are free), the quantity the paper's cross-rack measurements
    aggregate; ``rebuilt_bytes`` is the failed shard's stored size.
    ``wall_seconds`` splits into ``repair_seconds`` (rebuilding and
    verifying chunks), ``read_wait_seconds`` (staging survivor rows
    from the sources) and ``write_wait_seconds`` (sink writes).
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
        """Fraction of wall time spent rebuilding and verifying chunks."""
        if self.wall_seconds <= 0:
            return 0.0
        return min(self.repair_seconds / self.wall_seconds, 1.0)


@dataclass
class StreamDecodeResult:
    """Outcome of :func:`decode_file` (streaming degraded read).

    ``wall_seconds`` splits into ``decode_seconds`` (decoding and
    verifying chunks), ``read_wait_seconds`` (staging survivor rows
    from the sources) and ``write_wait_seconds`` (sink writes).
    """

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
) -> StreamRepairResult:
    """Rebuild one failed shard from survivor shard streams.

    ``sources`` maps survivor slot index to that slot's stored shard --
    a path, a readable binary file object, or a bytes-like object (read
    zero-copy).  ``sink`` receives the failed shard's stored bytes in
    stripe order (path, writable file object, or None to discard).  The
    rebuilt bytes are byte-identical to what the batched
    :meth:`~repro.striping.codec.StripeCodec.repair_blocks` path
    produces for the same stripes.

    Each chunk of stripes is read, rebuilt and written before the next
    is read, on the calling thread, and full-size uniform chunks reuse
    a fused repair executor bound to the one set of chunk buffers --
    the steady-state chunk cost is one native call.  A short or failing
    source or sink raises :class:`~repro.errors.PipelineError`.

    ``checksums`` (slot -> per-stripe CRC32C of stored bytes) arms the
    optimistic integrity loop: every rebuilt unit is verified, and a
    mismatch triggers survivor checksumming, quarantine-and-retry, or
    :class:`~repro.errors.CorruptionError` if the survivors all verify.
    """
    geometry = _ShardGeometry(code, name, file_size, block_size)
    chunk_stripes = _chunk_stripes(code, block_size, chunk_stripes)
    failed_slot = code.validate_node_index(failed_slot)
    if failed_slot in {int(slot) for slot in sources}:
        raise RepairError(
            f"slot {failed_slot} cannot be its own repair source"
        )
    rebuilder = _StripeRebuilder(
        code, geometry, failed_slot, sources.keys(), checksums
    )
    m = metrics()

    def rebuild_chunk(chunk) -> List[np.ndarray]:
        t0, t1, rows_by_slot, bufset = chunk
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
        chunks, emitted, wall, rebuild_s, read_wait, write_wait = _run_stream(
            "reconstruction",
            name,
            sink,
            lambda stack: _shard_chunks(stack, geometry, sources, chunk_stripes),
            rebuild_chunk,
        )
    result = StreamRepairResult(
        stripes=geometry.stripes,
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

    Like :func:`repair_stream`, each chunk of stripes is read, decoded
    and written before the next is read, on the calling thread; erased
    data rows of a uniform chunk come from one compiled kernel call and
    surviving data rows go to the sink as views.  A short or failing
    source or sink raises :class:`~repro.errors.PipelineError`.
    """
    geometry = _ShardGeometry(code, name, file_size, block_size)
    chunk_stripes = _chunk_stripes(code, block_size, chunk_stripes)
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

    def rebuild_chunk(chunk) -> List[np.ndarray]:
        t0, t1, rows_by_slot, _ = chunk
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
        chunks, emitted, wall, rebuild_s, read_wait, write_wait = _run_stream(
            "reconstruction",
            name,
            sink,
            lambda stack: _shard_chunks(stack, geometry, sources, chunk_stripes),
            rebuild_chunk,
        )
    result = StreamDecodeResult(
        stripes=geometry.stripes,
        chunks=chunks,
        data_bytes=emitted,
        bytes_read=sum(geometry.shard_size(int(slot)) for slot in sources),
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
# Whole-file repair: one compiled plan, run in-process
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
    """A whole-file repair compiled to one pre-bound native kernel wave.

    For a degraded file whose survivor shards are already in memory,
    the leading run of uniform full-width stripes is bound once to the
    shard buffers via
    :meth:`~repro.codes.base.ErasureCode.bind_repair_batch`; :meth:`run`
    then replays that wave as a single native call over the *current*
    shard contents, plus the same compiled kernel at one stripe for the
    ragged tail.  Compile once, run per repair: steady state is exactly
    the fused kernels with no per-stripe Python work.
    :func:`repair_file` and the repair benchmarks both run this class.

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
    ):
        self.code = code
        self.geometry = _ShardGeometry(code, name, file_size, block_size)
        geometry = self.geometry
        self.failed_slot = code.validate_node_index(failed_slot)
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
        self.out_size = geometry.shard_size(self.failed_slot)
        self.out = np.empty(self.out_size, dtype=np.uint8)
        self._compile()

    def _compile(self) -> None:
        geometry = self.geometry
        failed = self.failed_slot
        stripes = geometry.uniform_stripes
        self._wave: Optional[Tuple] = None
        self._tail: List[int] = [
            t
            for t in range(stripes, geometry.stripes)
            if not geometry.is_virtual(t, failed)
        ]
        if stripes == 0:
            return
        width = geometry.max_width
        rows_by_slot: Dict[int, List[np.ndarray]] = {}
        refreshes: List[Tuple[np.ndarray, np.ndarray]] = []
        for slot, view in self.shard_views.items():
            stored = geometry.stored_size(0, slot)
            if stored == width:
                rows_by_slot[slot] = [
                    view[i * width : (i + 1) * width] for i in range(stripes)
                ]
            else:
                staging = np.zeros((stripes, width), dtype=np.uint8)
                source = view[: stripes * stored].reshape(stripes, stored)
                refreshes.append((staging[:, :stored], source))
                rows_by_slot[slot] = [staging[i] for i in range(stripes)]
        failed_stored = geometry.stored_size(0, failed)
        writeback = None
        if failed_stored == width:
            out_matrix = self.out[: stripes * width].reshape(stripes, width)
        else:
            out_matrix = np.empty((stripes, width), dtype=np.uint8)
            writeback = self.out[: stripes * failed_stored].reshape(
                stripes, failed_stored
            )
        executor = self.rebuilder.bind_uniform(rows_by_slot, out_matrix)
        self._wave = (rows_by_slot, out_matrix, executor, refreshes, writeback)

    def run(self) -> CompiledRepairStats:
        """Execute the compiled repair against current shard contents."""
        rebuilder = self.rebuilder
        rebuilder.reset()
        geometry = self.geometry
        failed = self.failed_slot
        if self._wave is not None:
            rows_by_slot, out_matrix, executor, refreshes, writeback = (
                self._wave
            )
            for staging, source in refreshes:
                staging[:] = source
            rebuilder.repair_uniform_run(0, rows_by_slot, out_matrix, executor)
            if writeback is not None:
                writeback[:] = out_matrix[:, : writeback.shape[1]]
            m = metrics()
            if m is not None:
                m.inc("pipeline.repair.compiled_waves")
        out_offsets = geometry.shard_offsets(failed)
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
            lo = out_offsets[t]
            self.out[lo : lo + size] = rebuilt[:size]
        return CompiledRepairStats(
            stripes=geometry.stripes,
            bytes_read=rebuilder.bytes_read,
            rebuilt_bytes=self.out_size,
            crc_mismatches=rebuilder.crc_mismatches,
            quarantined=tuple(rebuilder.quarantined),
        )


@dataclass
class FileRepairResult:
    """Outcome of :func:`repair_file`."""

    rebuilt: np.ndarray
    stripes: int
    bytes_read: int
    crc_mismatches: int
    quarantined: Tuple[Tuple[int, int], ...]

    @property
    def rebuilt_bytes(self) -> int:
        return int(self.rebuilt.size)


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
) -> FileRepairResult:
    """Rebuild one failed shard of a whole file held in memory.

    Compiles the repair once (:class:`CompiledFileRepair`) and runs it
    in-process; the rebuilt bytes equal the streamed and batched repair
    paths'.  ``parallel`` accepts only ``None`` or ``False``; ``True``
    raises :class:`~repro.errors.PipelineError`.
    """
    _reject_pool(parallel)
    with span("pipeline.repair_file"):
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
    result = FileRepairResult(
        rebuilt=compiled.out,
        stripes=stats.stripes,
        bytes_read=stats.bytes_read,
        crc_mismatches=stats.crc_mismatches,
        quarantined=stats.quarantined,
    )
    m = metrics()
    if m is not None:
        m.inc("pipeline.repair.files")
        m.inc("pipeline.repair.stripes", result.stripes)
        m.inc("pipeline.repair.rebuilt_bytes", result.rebuilt_bytes)
        m.inc("pipeline.repair.bytes_read", result.bytes_read)
    return result
