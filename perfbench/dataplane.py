"""Data-plane part of the benchmark: encode, repair, stream repair, read.

Every file op goes through a public entry point of
:mod:`repro.striping.pipeline` in-process (``parallel=False``): encode
with :func:`encode_file`, whole-file repair with :func:`repair_file`,
streamed repair with :func:`repair_stream` and degraded reads with
:func:`decode_file`, the last three with CRC32C checksums armed.

Inputs are a pool of files built from the seed.  Sizes are drawn by
stratified sampling (one draw per equal-probability stratum of the size
distribution), so two seeds give different files with nearly the same
size mix -- the spread between seeds then measures the program, not the
luck of the draw.  Every output is checked outside the clock, and every
repair's bytes read is checked against the code's own
:class:`~repro.codes.base.RepairPlan` for the erasure pattern.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.codes.piggyback import PiggybackedRSCode
from repro.codes.rs import ReedSolomonCode
from repro.striping import pipeline
from repro.striping.checksum import crc32c

OPS = ("encode", "repair", "stream_repair", "degraded_read")
#: Tail index of the ``"heavy"`` size distribution.
PARETO_ALPHA = 0.6


@dataclass(frozen=True)
class DataSpec:
    """The file mix of one workload.

    ``sizes`` is ``"bulk"`` (``full_stripes`` full stripes plus a ragged
    tail of up to one stripe) or ``"heavy"`` (a truncated Pareto with
    index ``PARETO_ALPHA`` from ``min_bytes`` up to ``full_stripes``
    stripes).  ``patterns`` is ``"cached"`` (a few erasure patterns per
    code, inside the codes' 16-entry packed-table caches) or ``"all"``
    (every 1- and 2-slot pattern, 105 per (10, 4) code).  Each round
    reads every file ``reads`` times; the degraded-read percentiles
    need the samples.
    """

    unit: int
    files: int
    sizes: str
    full_stripes: int
    patterns: str
    min_bytes: int = 0
    reads: int = 2


class ArraySink:
    """Preallocated in-memory sink for the streaming entry points."""

    def __init__(self, size: int):
        self.buf = np.zeros(size, dtype=np.uint8)
        self._view = memoryview(self.buf)
        self.pos = 0

    def write(self, data) -> int:
        data = memoryview(data).cast("B")
        end = self.pos + data.nbytes
        self._view[self.pos : end] = data
        self.pos = end
        return data.nbytes


@dataclass
class FileCase:
    """One pooled file: payload, stored shards and their checksums."""

    code: object
    name: str
    unit: int
    payload: np.ndarray
    shards: Dict[int, np.ndarray]
    checksums: Dict[int, List[int]]
    layouts: list
    widths: List[int]
    patterns: Dict[str, List[Tuple[int, ...]]]
    per_round: Dict[str, int]
    sink: ArraySink


def make_codes() -> list:
    """RS(10,4) and Piggybacked-RS(10,4), the HDFS-RAID pair."""
    return [ReedSolomonCode(10, 4), PiggybackedRSCode(10, 4)]


def _file_sizes(spec: DataSpec, rng: np.random.Generator, k: int) -> List[int]:
    """One size per equal-probability stratum, smallest first."""
    stripe = k * spec.unit
    strata = (np.arange(spec.files) + rng.random(spec.files)) / spec.files
    if spec.sizes == "bulk":
        return [
            spec.full_stripes * stripe + 1 + int(q * (stripe - 1))
            for q in strata
        ]
    lo, hi, a = spec.min_bytes, spec.full_stripes * stripe, PARETO_ALPHA
    tail = 1.0 - (lo / hi) ** a
    return [int(lo * (1.0 - q * tail) ** (-1.0 / a)) for q in strata]


def _all_patterns(n: int) -> List[Tuple[int, ...]]:
    singles = [(s,) for s in range(n)]
    return singles + list(itertools.combinations(range(n), 2))


def _cached_patterns(code, rng) -> Dict[str, List[tuple]]:
    """Few single-slot repairs and four read patterns per code.

    Every round does one data-slot and one parity-slot repair per entry
    point, and one read missing a data slot and one missing a data and
    a parity slot, so all rounds do the same kind of work.  Ten repair
    and four decode patterns fit the codes' 16-entry packed caches.
    """
    d = [int(s) for s in rng.permutation(code.k)]
    p = [int(s) for s in code.k + rng.permutation(code.r)]
    return {
        "repair": [(d[0],), (p[0],), (d[1],), (p[1],), (d[2],), (p[2],)],
        "stream_repair": [(d[3],), (p[3],), (d[4],), (p[0],), (d[5],), (p[1],)],
        "degraded_read": [(d[6],), (d[7], p[2]), (d[8],), (d[9], p[3])],
    }


def _stored_shards(code, result) -> Tuple[Dict[int, np.ndarray], List[int]]:
    """Per-slot stored bytes (data: block bytes; parity: padded width)."""
    parts: Dict[int, list] = {slot: [] for slot in range(code.n)}
    widths: List[int] = []
    blocks = iter(result.file.blocks)
    for layout, parities in zip(result.layouts, result.parities):
        width = layout.stripe_width
        align = code.unit_alignment
        widths.append(max(align, -(-width // align) * align))
        for slot in range(layout.real_data_count):
            parts[slot].append(next(blocks).payload)
        for j, parity in enumerate(parities):
            parts[code.k + j].append(parity.payload)
    shards = {
        slot: (
            np.concatenate(chunks)
            if chunks
            else np.zeros(0, dtype=np.uint8)
        )
        for slot, chunks in parts.items()
    }
    return shards, widths


def _unit_checksums(code, layouts, widths, shards) -> Dict[int, List[int]]:
    sums: Dict[int, List[int]] = {}
    for slot in range(code.n):
        offset, values = 0, []
        for layout, width in zip(layouts, widths):
            if slot < code.k:
                size = (
                    layout.data_sizes[slot]
                    if layout.data_block_ids[slot] is not None
                    else 0
                )
            else:
                size = width
            values.append(crc32c(shards[slot][offset : offset + size]))
            offset += size
        sums[slot] = values
    return sums


def build_pool(spec: DataSpec, codes: list, rng) -> List[FileCase]:
    """The workload's files with their reference shards and checksums.

    The reference parities come from one ``encode_file`` call per file;
    they are checked indirectly by every repair of a parity slot and
    every degraded read that decodes through a parity.
    """
    sizes = _file_sizes(spec, rng, codes[0].k)
    every = {code.name: _all_patterns(code.n) for code in codes}
    pool: List[FileCase] = []
    # Codes alternate over the sorted sizes, so each code gets the same
    # size mix whatever the seed; the pool order is then shuffled.
    for i in rng.permutation(len(sizes)):
        code, size = codes[i % len(codes)], sizes[i]
        name = f"f{i}"
        payload = np.frombuffer(rng.bytes(size), dtype=np.uint8)
        result = pipeline.encode_file(code, payload, spec.unit, name=name, parallel=False)
        shards, widths = _stored_shards(code, result)
        if spec.patterns == "cached":
            patterns = _cached_patterns(code, rng)
        else:
            patterns = {}
            for kind in OPS[1:]:
                patterns[kind] = list(every[code.name])
                rng.shuffle(patterns[kind])
        pool.append(
            FileCase(
                code=code,
                name=name,
                unit=spec.unit,
                payload=payload,
                shards=shards,
                checksums=_unit_checksums(code, result.layouts, widths, shards),
                layouts=result.layouts,
                widths=widths,
                patterns=patterns,
                per_round={"encode": 1, "repair": 2, "stream_repair": 2,
                           "degraded_read": spec.reads},
                sink=ArraySink(max(size, max(s.size for s in shards.values()))),
            )
        )
    return pool


def _repair_target(case: FileCase, pattern: Tuple[int, ...]):
    """(failed slot, extra missing slot or None) for one repair.

    The failed slot is the first pattern slot that stores bytes in this
    file; a pattern made only of padding slots repairs parity slot 0.
    """
    real = [s for s in pattern if case.shards[s].size]
    failed = real[0] if real else case.code.k
    extra = [s for s in pattern if s != failed]
    return failed, (extra[0] if extra else None)


class Accounting:
    """Expected repair bytes from the codes' own repair plans."""

    def __init__(self):
        self._plans: Dict[tuple, object] = {}
        self._expected: Dict[tuple, int] = {}

    def _plan(self, code, failed: int, available: frozenset):
        key = (code.name, failed, available)
        plan = self._plans.get(key)
        if plan is None:
            plan = code.repair_plan(failed, sorted(available))
            self._plans[key] = plan
        return plan

    def repair_bytes(self, case: FileCase, failed: int, sources) -> int:
        """Bytes a repair of ``failed`` from ``sources`` must read.

        Per stripe: the plan over the sources plus that stripe's padding
        slots (which the pipeline supplies as zeros), metered at the
        stripe's padded width, with reads of padding slots free.
        """
        key = (case.name, failed, tuple(sorted(sources)))
        cached = self._expected.get(key)
        if cached is not None:
            return cached
        code = case.code
        total = 0
        for layout, width in zip(case.layouts, case.widths):
            virtual = frozenset(
                s for s in range(code.k) if layout.data_block_ids[s] is None
            )
            if failed in virtual:
                continue
            available = (frozenset(sources) | virtual) - {failed}
            plan = self._plan(code, failed, available)
            sub = width // plan.substripes_per_unit
            total += plan.bytes_downloaded(width) - sum(
                len(req.substripes) * sub
                for req in plan.requests
                if req.node in virtual
            )
        self._expected[key] = total
        return total


@dataclass
class RoundResult:
    """Sums and samples of one pass over the pool."""

    seconds: Dict[str, float]
    nbytes: Dict[str, int]
    read_latencies_ms: List[float]
    bytes_read: int
    rebuilt: int
    attempted: int
    failed: int


def _op(kind: str, case: FileCase, pattern: Tuple[int, ...], accounting):
    """``(call, verify)`` for one op; ``verify(out)`` gives ``(bytes done,
    output correct, repair bytes read, bytes rebuilt)``."""
    code, size, unit, shards = case.code, case.payload.size, case.unit, case.shards
    if kind == "encode":
        call = lambda: pipeline.encode_file(
            code, case.payload, unit, name=case.name, parallel=False
        )
        return call, lambda out: (size, _parities_match(case, out), 0, 0)
    if kind == "degraded_read":
        sources = {s: shards[s] for s in shards if s not in pattern}
        call = lambda: pipeline.decode_file(
            code, sources, case.sink, unit, size,
            name=case.name, checksums=case.checksums,
        )
        verify = lambda out: (
            size,
            case.sink.pos == size
            and np.array_equal(case.sink.buf[:size], case.payload)
            and not out.crc_mismatches,
            0,
            0,
        )
        return call, verify
    lost, extra = _repair_target(case, pattern)
    sources = {s: shards[s] for s in shards if s not in (lost, extra)}
    if kind == "repair":
        call = lambda: pipeline.repair_file(
            code, sources, lost, unit, size,
            name=case.name, checksums=case.checksums, parallel=False,
        )
        rebuilt = lambda out: out.rebuilt
    else:
        call = lambda: pipeline.repair_stream(
            code, sources, case.sink, unit, lost, size,
            name=case.name, checksums=case.checksums,
        )
        rebuilt = lambda out: case.sink.buf[: case.sink.pos]

    def verify(out):
        got = rebuilt(out)
        ok = (
            np.array_equal(got, shards[lost])
            and out.bytes_read == accounting.repair_bytes(case, lost, sources)
            and not out.crc_mismatches
        )
        return int(got.size), ok, out.bytes_read, int(got.size)

    return call, verify


def run_round(
    pool: List[FileCase],
    round_index: int,
    accounting: Accounting,
    op_hook=None,
) -> RoundResult:
    """One pass over the pool.

    Each file is encoded once and then, with the next patterns of its
    lists, repaired whole-file twice, repaired streamed twice and read
    degraded ``per_round["degraded_read"]`` times.  Outputs and repair byte
    counts are checked after the clock stops; a mismatch or an
    exception counts the op as failed.  ``op_hook(kind, case)``, if
    given, returns a context manager entered around each timed call
    (the traced run's op span).
    """
    seconds = dict.fromkeys(OPS, 0.0)
    nbytes = dict.fromkeys(OPS, 0)
    latencies: List[float] = []
    bytes_read = rebuilt = attempted = failed = 0
    clock = time.perf_counter
    for case in pool:
        for kind in OPS:
            patterns = case.patterns.get(kind, [()])
            count = case.per_round[kind]
            for j in range(count):
                pattern = patterns[(count * round_index + j) % len(patterns)]
                call, verify = _op(kind, case, pattern, accounting)
                case.sink.pos = 0
                attempted += 1
                try:
                    with op_hook(kind, case) if op_hook else nullcontext():
                        start = clock()
                        out = call()
                        elapsed = clock() - start
                    done, ok, read, built = verify(out)
                except Exception as exc:  # counted as a failed op
                    failed += 1
                    print(f"{kind} {case.name} {pattern} failed: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                if not ok:
                    failed += 1
                    print(f"{kind} {case.name} {pattern}: wrong output",
                          file=sys.stderr)
                seconds[kind] += elapsed
                nbytes[kind] += done
                bytes_read += read
                rebuilt += built
                if kind == "degraded_read":
                    latencies.append(elapsed * 1e3)
    return RoundResult(
        seconds, nbytes, latencies, bytes_read, rebuilt, attempted, failed
    )


def _parities_match(case: FileCase, result) -> bool:
    k = case.code.k
    offsets = dict.fromkeys(range(k, case.code.n), 0)
    for parities in result.parities:
        for j, parity in enumerate(parities):
            slot = k + j
            ref = case.shards[slot]
            lo = offsets[slot]
            hi = lo + parity.payload.size
            if not np.array_equal(parity.payload, ref[lo:hi]):
                return False
            offsets[slot] = hi
    return all(offsets[s] == case.shards[s].size for s in offsets)


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def summarize(rounds: List[RoundResult], accounting_rounds: int) -> dict:
    """End-to-end data metrics of one run.

    Every round does the same kinds of work, so a rate is the median of
    the rounds' rates: co-tenant load on a shared host makes single ops
    and rounds 10-30% slower at random, which moves a median over many
    rounds far less than a best-of.  The latency percentiles are over
    every degraded read of the run.  ``repair_read_amplification`` sums
    the first ``accounting_rounds`` rounds only, whose patterns are
    fixed by the seed, so it repeats exactly across runs of one seed
    whatever the machine's speed.
    """

    def rate(kind):
        values = [
            r.nbytes[kind] / r.seconds[kind] / 1e6
            for r in rounds
            if r.seconds[kind] > 0
        ]
        return float(np.median(values)) if values else math.nan

    latencies = [x for r in rounds for x in r.read_latencies_ms]
    head = rounds[:accounting_rounds]
    read = sum(r.bytes_read for r in head)
    built = sum(r.rebuilt for r in head)
    return {
        "encode_MBps": rate("encode"),
        "repair_MBps": rate("repair"),
        "stream_repair_MBps": rate("stream_repair"),
        "degraded_read_MBps": rate("degraded_read"),
        "degraded_read_p50_ms": percentile(latencies, 50),
        "degraded_read_p99_ms": percentile(latencies, 99),
        "repair_read_amplification": read / built if built else math.nan,
        "_read_samples": len(latencies),
    }
