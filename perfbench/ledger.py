"""Traced run: spans around each layer's public calls, and the ledger.

The wrappers are installed from this file for the length of a traced
run only; the program itself is unchanged.  Each span records a name,
layer, start, end, its parent span on the same thread and the id of
the benchmark op (file op or simulation run) it belongs to.  Spans are
kept in memory and written out once, with the metrics-registry
snapshot, when the run ends.

A layer's self time is the time its spans cover minus the time their
child spans on the same thread cover.  Spans opened on the streaming
pipeline's reader and writer threads overlap the main thread, so they
are recorded but never subtracted from it.

``trace.unattributed_s`` is the time inside the benchmark's op spans
that no layer span covers.  ``trace.overhead.<metric>`` is the traced
half of a run's figure over the untraced half's, minus one.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

import numpy as np

import repro.cluster.shard as shard_mod
import repro.striping.codec as codec_mod
import repro.striping.pipeline as pipeline_mod
from repro.cluster.blockmap import StripeStore
from repro.cluster.network import TrafficMeter
from repro.cluster.placement import PlacementPolicy
from repro.cluster.recovery import RecoveryService
from repro.cluster.repair_policy import RepairScheduler
from repro.cluster.shard import ShardedSimulation, ShardState
from repro.cluster.simulation import WarehouseSimulation
from repro.codes.base import ErasureCode
from repro.observability import get_registry, reset

KERNEL = ("encode_batch", "parity_batch", "decode_batch", "execute_repair_batch")
PLAN = ("repair_plan_cached", "memoized_decode_matrix")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if ".overhead." in name or name.endswith(("_ratio", "_share", "occupancy")):
        return "ratio"
    if name.endswith("_MBps"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"


def _subclasses(cls):
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)) and value:
        return _nbytes(value[0])
    return 0


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: List[tuple] = []  # (name, layer, start, end, parent, op, main, nbytes)
        self.results: Dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._lock = threading.Lock()
        self.op = 0
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        with self._lock:  # reader and writer threads open spans too
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        record = [0]
        try:
            yield record
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (
                name,
                layer,
                start,
                end,
                parent,
                self.op,
                threading.current_thread() is self._main,
                record[0],
            )

    def op_span(self, kind: str, case):
        """Root span of one benchmark op (entered by the workload loop)."""
        self.op += 1
        return self.span(f"op.{kind}", "op")

    # -- wrappers ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, layer, count_bytes=None, keep=None):
        """``fn`` inside a span; ``keep(out)`` records a summary of the
        result under ``fn``'s name."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, layer) as record:
                out = fn(*args, **kwargs)
                if count_bytes is not None:
                    record[0] = count_bytes(args, out)
            if keep is not None:
                tracer.results[fn.__name__].append(keep(out))
            return out

        return wrapper

    def _wrap_methods(self, base, names, layer, label, count_bytes=None):
        for cls in _subclasses(base):
            for attr in names:
                if attr in cls.__dict__:
                    self._patch(
                        cls,
                        attr,
                        self._wrap(
                            cls.__dict__[attr],
                            f"{layer}.{label}",
                            layer,
                            count_bytes,
                        ),
                    )

    def install(self) -> None:
        out_bytes = lambda args, out: _nbytes(out)
        self._wrap_methods(ErasureCode, KERNEL, "codes", "kernel", out_bytes)
        self._wrap_methods(ErasureCode, PLAN, "codes", "plan")
        tracer = self

        def bind_wrapper(fn):
            @functools.wraps(fn)
            def bind(self_code, failed, rows, out, *args, **kwargs):
                execute = fn(self_code, failed, rows, out, *args, **kwargs)
                nbytes = int(np.asarray(out).nbytes)

                def traced_execute():
                    with tracer.span("codes.kernel", "codes") as record:
                        record[0] = nbytes
                        return execute()

                return traced_execute

            return bind

        for cls in _subclasses(ErasureCode):
            if "bind_repair_batch" in cls.__dict__:
                self._patch(
                    cls,
                    "bind_repair_batch",
                    bind_wrapper(cls.__dict__["bind_repair_batch"]),
                )
        in_bytes = lambda args, out: _nbytes(np.asarray(args[0]))
        for module in (pipeline_mod, codec_mod):
            for attr in ("crc32c", "crc32c_batch"):
                if attr in module.__dict__:
                    self._patch(
                        module,
                        attr,
                        self._wrap(
                            module.__dict__[attr], "striping.crc", "striping",
                            in_bytes,
                        ),
                    )
        repaired = lambda out: (
            out.bytes_read, out.rebuilt_bytes, out.crc_mismatches
        )
        streamed = lambda out: (
            out.wall_seconds,
            getattr(out, "repair_seconds", None)
            or getattr(out, "decode_seconds", 0.0),
            out.read_wait_seconds,
            out.write_wait_seconds,
        )
        keeps = {
            "encode_file": None,
            "repair_file": repaired,
            "repair_stream": lambda out: repaired(out) + streamed(out),
            "decode_file": streamed,
        }
        for attr, keep in keeps.items():
            self._patch(
                pipeline_mod,
                attr,
                self._wrap(
                    pipeline_mod.__dict__[attr], "striping.op", "striping",
                    keep=keep,
                ),
            )
        self._patch(
            StripeStore,
            "__init__",
            self._wrap(StripeStore.__dict__["__init__"], "cluster.store_build", "cluster"),
        )
        self._wrap_methods(PlacementPolicy, ("place_many",), "cluster", "store_build")
        self._wrap_methods(
            PlacementPolicy,
            ("replacement_nodes", "hashed_replacement_nodes"),
            "cluster",
            "destination_draw",
        )
        self._patch(
            shard_mod,
            "resolve_timeline",
            self._wrap(shard_mod.resolve_timeline, "cluster.timeline", "cluster"),
        )
        for owner, attr, label in (
            (ShardState, "apply_epoch", "epoch_apply"),
            (RecoveryService, "recover_node_batch", "recovery"),
            (TrafficMeter, "charge_batch", "charge_batch"),
            (RepairScheduler, "submit", "scheduler"),
            (RepairScheduler, "advance", "scheduler"),
        ):
            self._patch(
                owner,
                attr,
                self._wrap(owner.__dict__[attr], f"cluster.{label}", "cluster"),
            )
        for owner in (WarehouseSimulation, ShardedSimulation):
            self._patch(
                owner,
                "run",
                self._wrap(
                    owner.__dict__["run"], "cluster.run", "cluster",
                    keep=lambda out: (
                        out.stats.blocks_recovered,
                        out.stats.bytes_downloaded,
                        out.meter.cross_rack_bytes,
                        out.stats.queue_peak_depth,
                    ),
                ),
            )
        reset()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the ledger ----------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name, main-thread spans only."""
        child: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[6] and span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        out: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is None or not span[6]:
                continue
            out[span[0]] += span[3] - span[2] - child[index]
        return out

    def top_bytes(self, name: str) -> int:
        """Bytes of ``name`` spans not nested in another ``name`` span."""
        total = 0
        for span in self.spans:
            if span is None or span[0] != name:
                continue
            parent = span[4]
            if parent >= 0 and self.spans[parent][0] == name:
                continue
            total += span[7]
        return total

    def total(self, name: str) -> float:
        """Wall seconds of outermost ``name`` spans (all threads)."""
        total = 0.0
        for span in self.spans:
            if span is None or span[0] != name:
                continue
            parent = span[4]
            if parent >= 0 and self.spans[parent][0] == name:
                continue
            total += span[3] - span[2]
        return total

    def ledger(self) -> Dict[str, float]:
        """The per-layer metrics of the traced part of the run."""
        selfs = self.self_times()
        snap = get_registry().snapshot()
        counters = snap["counters"]
        hists = snap["histograms"]

        def counter(name):
            return float(counters.get(name, 0))

        def ratio(num, den):
            return num / den if den else 0.0

        def rate(nbytes, seconds):
            return nbytes / seconds / 1e6 if seconds > 0 else 0.0

        hits = sum(v for k, v in counters.items()
                   if k.startswith("cache.") and k.endswith(".hits"))
        misses = sum(v for k, v in counters.items()
                     if k.startswith("cache.") and k.endswith(".misses"))
        def table(rows, width):
            return np.array(rows or [(0,) * width], dtype=float).reshape(-1, width)

        kept = self.results
        repairs = table(
            kept["repair_file"] + [r[:3] for r in kept["repair_stream"]], 3
        )
        streams = table(
            [r[3:] for r in kept["repair_stream"]] + kept["decode_file"], 4
        )
        runs = table(kept["run"], 4)
        run_s = self.total("cluster.run")
        charge = hists.get("network.charge_batch.size", {})
        crc_s = selfs["striping.crc"]
        kernel_s = selfs["codes.kernel"]
        return {
            "codes.kernel_s": kernel_s,
            "codes.kernel_MBps": rate(self.top_bytes("codes.kernel"), self.total("codes.kernel")),
            "codes.plan_build_s": selfs["codes.plan"],
            "codes.plan_cache_hit_ratio": ratio(hits, hits + misses),
            "striping.crc_s": crc_s,
            "striping.crc_MBps": rate(self.top_bytes("striping.crc"), self.total("striping.crc")),
            "striping.self_s": selfs["striping.op"],
            "striping.encode_staged_share": ratio(
                counter("codec.encode.staged_stripes"), counter("codec.encode.stripes")
            ),
            "striping.stream_occupancy": ratio(streams[:, 1].sum(), streams[:, 0].sum()),
            "striping.stream_read_wait_s": float(streams[:, 2].sum()),
            "striping.stream_write_wait_s": float(streams[:, 3].sum()),
            "striping.bound_wave_reuse_ratio": ratio(
                counter("pipeline.repair.bound_wave_reuses"),
                counter("pipeline.repair.bound_waves"),
            ),
            "striping.bytes_read": float(repairs[:, 0].sum()),
            "striping.rebuilt_bytes": float(repairs[:, 1].sum()),
            "striping.crc_mismatches": float(repairs[:, 2].sum()),
            "cluster.store_build_s": selfs["cluster.store_build"],
            "cluster.timeline_s": selfs["cluster.timeline"],
            "cluster.epoch_apply_s": selfs["cluster.epoch_apply"],
            "cluster.recovery_s": selfs["cluster.recovery"],
            "cluster.plan_cache_hit_ratio": ratio(
                counter("recovery.plan_cache.hits"),
                counter("recovery.plan_cache.hits") + counter("recovery.plan_cache.misses"),
            ),
            "cluster.destination_draw_s": selfs["cluster.destination_draw"],
            "cluster.charge_batch_s": selfs["cluster.charge_batch"],
            "cluster.charge_batch_calls": counter("network.charge_batch.calls"),
            "cluster.charge_batch_mean_size": float(charge.get("mean", 0.0)),
            "cluster.scheduler_s": selfs["cluster.scheduler"],
            "cluster.scheduler_jobs": counter("sim.repair.queue_enqueued"),
            "cluster.queue_peak_depth": float(runs[:, 3].max()),
            "cluster.self_s": selfs["cluster.run"],
            "cluster.events_per_s": ratio(counter("simulation.events"), run_s),
            "cluster.block_recoveries_per_s": ratio(runs[:, 0].sum(), run_s),
            "cluster.cross_rack_bytes": float(runs[:, 2].sum()),
            "cluster.bytes_downloaded": float(runs[:, 1].sum()),
            "trace.unattributed_s": sum(
                v for k, v in selfs.items() if k.startswith("op.")
            ),
        }

    def write(self, path: str, meta: dict) -> None:
        """Write every span and the registry snapshot as one JSON file."""
        doc = {
            "meta": meta,
            "fields": ["name", "layer", "start", "end", "parent", "op", "main_thread", "bytes"],
            "spans": [s for s in self.spans if s is not None],
            "registry": get_registry().snapshot(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
