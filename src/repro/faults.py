"""Seeded deterministic fault injection: the chaos engine.

The integrity layer (checksummed units, quarantine-and-retry repair,
scrubbing) exists to survive faults that never occur in clean unit
tests: silent bit rot, torn writes, nodes flapping in the middle of a
recovery wave.  :class:`FaultPlan` injects exactly those faults,
*deterministically*: every decision derives from
``SeedSequence(seed, hash(scope))``, so the same plan produces the same
faults in the same places on every run -- chaos you can put in CI and
bisect when it fails.  Faults are always explicit: a plan is built in
code, by ``repro chaos --spec`` (:meth:`FaultPlan.parse`), or from the
``chaos_*`` fields of :class:`~repro.cluster.config.ClusterConfig`.

Entry points
------------

- :func:`inject_cluster_faults` -- apply the plan's bit-flips and
  truncations to stored stripe units of a mini-HDFS cluster.
- :meth:`FaultPlan.flap_events` -- extra unavailability events for the
  cluster-scale simulator.
- :func:`run_chaos_scenario` -- the end-to-end acceptance harness: a
  cluster with corrupt units, a dead node, and a mid-recovery flap,
  converging to byte-identical data.

The faults themselves are physical, not mocked: a bit-flip XORs a byte
of a stored payload, and a truncation zeroes the tail (a torn write:
the unit keeps its length, loses its content).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.observability import metrics

@dataclass(frozen=True)
class UnitFault:
    """One injected stored-unit corruption."""

    kind: str  # "bit-flip" | "truncation"
    stripe_id: str
    slot: int
    byte_offset: int


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, fully deterministic set of faults to inject.

    Every fault site is a pure function of ``(seed, scope)`` -- two
    plans with the same seed inject byte-identical faults, which is
    what makes chaos runs reproducible and diffable.
    """

    seed: int
    #: Stored units whose payload gets one byte XOR-flipped.
    bit_flips: int = 1
    #: Stored units whose payload tail gets zeroed (torn write).
    truncations: int = 1
    #: Nodes that go down (and come back) mid-recovery-wave.
    node_flaps: int = 1

    def __post_init__(self):
        for name in ("bit_flips", "truncations", "node_flaps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"FaultPlan.{name} must be >= 0")

    # ------------------------------------------------------------------
    # Deterministic randomness
    # ------------------------------------------------------------------

    def rng(self, *scope) -> np.random.Generator:
        """A generator unique to ``(seed, scope)`` and nothing else.

        The scope tuple is hashed (sha256 of its repr) into the
        SeedSequence, so distinct scopes get statistically independent
        streams and the same scope always gets the same stream.
        """
        digest = hashlib.sha256(repr(scope).encode()).digest()
        entropy = int.from_bytes(digest[:8], "big")
        return np.random.default_rng(
            np.random.SeedSequence([int(self.seed), entropy])
        )

    # ------------------------------------------------------------------
    # Cluster faults
    # ------------------------------------------------------------------

    def unit_fault_sites(
        self, stripe_slots: Sequence[Tuple[str, int, int]]
    ) -> List[UnitFault]:
        """Choose corruption sites among ``(stripe_id, slot, size)``.

        Draws ``bit_flips + truncations`` distinct sites (clipped to
        what exists; zero-length units are skipped) and a deterministic
        byte offset inside each.
        """
        candidates = [
            (stripe_id, slot, size)
            for stripe_id, slot, size in stripe_slots
            if size > 0
        ]
        total = min(self.bit_flips + self.truncations, len(candidates))
        if total == 0:
            return []
        rng = self.rng("units", len(candidates))
        picks = rng.choice(len(candidates), size=total, replace=False)
        faults = []
        for count, index in enumerate(picks.tolist()):
            stripe_id, slot, size = candidates[index]
            kind = "bit-flip" if count < min(self.bit_flips, total) else "truncation"
            offset = int(rng.integers(0, size))
            faults.append(
                UnitFault(
                    kind=kind,
                    stripe_id=stripe_id,
                    slot=slot,
                    byte_offset=offset,
                )
            )
        return faults

    def corrupt_unit_indices(
        self, count: int, num_stripes: int, width: int
    ) -> List[Tuple[int, int]]:
        """Distinct ``(stripe, slot)`` pairs to mark corrupt.

        For the metadata-level simulator, where corruption is a mask
        over the stripe store rather than damaged bytes: the recovery
        service must plan around these units.
        """
        total = min(count, num_stripes * width)
        if total <= 0:
            return []
        rng = self.rng("sim-corrupt", num_stripes, width)
        uids = rng.choice(num_stripes * width, size=total, replace=False)
        m = metrics()
        if m is not None:
            m.inc("faults.injected.sim_corrupt_unit", total)
        return [
            (int(uid) // width, int(uid) % width) for uid in uids.tolist()
        ]

    def flap_events(
        self, num_nodes: int, days: float, threshold_seconds: float
    ) -> List["UnavailabilityEvent"]:
        """Extra unavailability events: nodes that flap mid-simulation.

        Each flap is longer than ``threshold_seconds`` so the cluster
        flags it (Section 2.2's 15-minute rule) and recovery actually
        runs against it.
        """
        from repro.cluster.config import SECONDS_PER_DAY
        from repro.cluster.traces import UnavailabilityEvent

        if num_nodes <= 0 or self.node_flaps <= 0:
            return []
        rng = self.rng("flaps", num_nodes)
        horizon = max(days * SECONDS_PER_DAY - 2 * threshold_seconds, 1.0)
        events = []
        for __ in range(self.node_flaps):
            node = int(rng.integers(0, num_nodes))
            time = float(rng.uniform(0, horizon))
            duration = float(threshold_seconds * (1.5 + rng.uniform(0, 1)))
            events.append(
                UnavailabilityEvent(time=time, node=node, duration=duration)
            )
        m = metrics()
        if m is not None:
            m.inc("faults.injected.node_flap", len(events))
        return events

    # ------------------------------------------------------------------
    # Construction from a spec string
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, raw: str) -> "FaultPlan":
        """Parse ``"<seed>"`` or ``"<seed>:key=value,key=value"``.

        This is the plan ``repro chaos`` builds from ``--seed`` and
        ``--spec``; keys are the integer fields of :class:`FaultPlan`.
        Junk raises :class:`~repro.errors.ConfigError` loudly -- a
        chaos switch that silently does nothing would defeat its
        purpose.
        """
        head, __, tail = raw.partition(":")
        try:
            seed = int(head)
        except ValueError:
            raise ConfigError(
                f"fault plan {raw!r}: expected '<seed>' or "
                f"'<seed>:key=val,...' with an integer seed"
            ) from None
        allowed = sorted(f.name for f in fields(cls) if f.name != "seed")
        overrides: Dict[str, int] = {}
        if tail:
            for pair in tail.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or key not in allowed:
                    raise ConfigError(
                        f"--spec {tail!r}: unknown or malformed override "
                        f"{pair!r}; valid keys: {', '.join(allowed)}"
                    )
                try:
                    overrides[key] = int(value)
                except ValueError:
                    raise ConfigError(
                        f"--spec {tail!r}: {key} needs an integer value, "
                        f"got {value!r}"
                    ) from None
        return cls(seed=seed, **overrides)


# ----------------------------------------------------------------------
# Applying cluster faults
# ----------------------------------------------------------------------


def inject_cluster_faults(namenode, plan: FaultPlan) -> List[UnitFault]:
    """Corrupt stored stripe units of a mini-HDFS cluster per the plan.

    Corruption replaces the node's stored block with a privately-copied,
    damaged payload (like a disk going bad under one copy): the logical
    file's reference bytes are untouched, only what the datanode serves
    changes.  Returns the faults actually applied, in injection order.
    """
    sites = []
    for stripe_id in sorted(namenode.stripes):
        entry = namenode.stripes[stripe_id]
        for slot, block_id in enumerate(entry.layout.all_block_ids()):
            if block_id is None or slot not in entry.locations:
                continue
            node = entry.locations[slot]
            datanode = namenode.datanodes.get(node)
            if datanode is None or block_id not in datanode.blocks:
                continue
            sites.append((stripe_id, slot, datanode.blocks[block_id].size))
    faults = plan.unit_fault_sites(sites)
    from repro.striping.blocks import Block

    m = metrics()
    for fault in faults:
        if m is not None:
            m.inc(
                "faults.injected.bit_flip"
                if fault.kind == "bit-flip"
                else "faults.injected.truncation"
            )
        entry = namenode.stripes[fault.stripe_id]
        block_id = entry.layout.all_block_ids()[fault.slot]
        node = entry.locations[fault.slot]
        stored = namenode.datanodes[node].blocks[block_id]
        damaged = np.array(stored.payload, dtype=np.uint8, copy=True)
        if fault.kind == "bit-flip":
            damaged[fault.byte_offset] ^= 0x40
        else:
            damaged[fault.byte_offset :] = 0
            if fault.byte_offset == 0 and damaged.size:
                # A fully-zeroed unit can coincide with real zeros;
                # flip one byte so the fault is unambiguous.
                damaged[0] ^= 0x01
        namenode.datanodes[node].blocks[block_id] = Block(
            block_id=block_id,
            size=stored.size,
            payload=damaged,
            checksum=stored.checksum,
        )
    return faults


# ----------------------------------------------------------------------
# The end-to-end chaos scenario
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosReport:
    """Everything a chaos run observed, equality-comparable.

    Two runs with the same plan must produce equal reports -- the
    determinism acceptance test compares them directly.
    """

    code_name: str
    seed: int
    #: Faults injected into the cluster, in order.
    faults: Tuple[UnitFault, ...]
    #: (stripe_id, slot, reason) of every quarantined unit, in order.
    quarantined: Tuple[Tuple[str, int, str], ...]
    #: Scrub passes (plus recovery waves) until the cluster was clean.
    rounds_to_converge: int
    #: Recovered file bytes identical to what was written.
    data_intact: bool

    @property
    def clean(self) -> bool:
        return self.data_intact


def run_chaos_scenario(
    code_name: str = "rs",
    *,
    seed: int = 20130901,
    plan: Optional[FaultPlan] = None,
    code_params: Optional[Dict[str, int]] = None,
    file_bytes: int = 6_000,
    block_size: int = 250,
    num_racks: int = 20,
    nodes_per_rack: int = 2,
) -> ChaosReport:
    """Run the full fault-injection acceptance scenario for one code.

    Write and raid a seeded file on a mini-HDFS cluster, inject the plan's
    bit-flips and truncations into stored units, kill one node, then
    run recovery with a mid-wave node flap.  Scrub-and-recover rounds
    repeat until the cluster is clean; the file must read back
    byte-identical, with every corruption surfaced as a quarantine
    record.
    """
    from repro.cluster.namenode import NameNode
    from repro.cluster.placement import DistinctRackPlacement
    from repro.cluster.raidnode import RaidNode
    from repro.cluster.scrubber import Scrubber
    from repro.cluster.topology import Topology
    from repro.codes.registry import create_code

    plan = plan if plan is not None else FaultPlan(seed=seed)
    params = code_params if code_params is not None else {"k": 4, "r": 2}
    data = plan.rng("payload", code_name).integers(
        0, 256, size=file_bytes, dtype=np.uint8
    )

    # Cluster with corruption, a dead node, and a flap.
    topology = Topology(num_racks=num_racks, nodes_per_rack=nodes_per_rack)
    namenode = NameNode(topology, DistinctRackPlacement(topology, seed=seed))
    code = create_code(code_name, **params)
    raidnode = RaidNode(namenode, code)
    scrubber = Scrubber(raidnode)
    namenode.write_file("chaos-file", data, block_size=block_size)
    raidnode.raid_file("chaos-file")

    faults = inject_cluster_faults(namenode, plan)

    # Kill a node that holds stripe members, so recovery has real work.
    populated = sorted(
        node_id
        for node_id, datanode in namenode.datanodes.items()
        if datanode.blocks
    )
    dead_node = populated[
        int(plan.rng("dead-node", len(populated)).integers(0, len(populated)))
    ]
    namenode.kill_node(dead_node)

    # Mid-recovery flap: a second node goes down partway through the
    # wave and comes back before the next round.
    flap_node: Optional[int] = None
    if plan.node_flaps > 0:
        candidates = [node for node in populated if node != dead_node]
        if candidates:
            flap_node = candidates[
                int(
                    plan.rng("flap-node", len(candidates)).integers(
                        0, len(candidates)
                    )
                )
            ]

    flap_state = {"down": False, "done": plan.node_flaps == 0}

    def on_progress(completed: int) -> None:
        if flap_node is None or flap_state["done"]:
            return
        if not flap_state["down"] and completed >= 1:
            namenode.kill_node(flap_node)
            flap_state["down"] = True
        elif flap_state["down"]:
            namenode.revive_node(flap_node)
            flap_state["down"] = False
            flap_state["done"] = True

    raidnode.reconstruct_all_missing(on_progress=on_progress)
    if flap_state["down"]:
        namenode.revive_node(flap_node)  # type: ignore[arg-type]
        flap_state["down"] = False

    # Converge: scrub finds checksum corruption, recovery rebuilds
    # whatever the flap left missing; repeat until clean.
    rounds = 0
    for rounds in range(1, 6):
        raidnode.reconstruct_all_missing()
        report = scrubber.scrub()
        if (
            report.corrupt_units_found == 0
            and not report.unverifiable_stripes
            and report.stripes_clean == report.stripes_checked
        ):
            break

    recovered = namenode.read_file("chaos-file")
    return ChaosReport(
        code_name=code_name,
        seed=plan.seed,
        faults=tuple(faults),
        quarantined=tuple(
            (record.stripe_id, record.slot, record.reason)
            for record in raidnode.quarantine_log
        ),
        rounds_to_converge=rounds,
        data_intact=bool(np.array_equal(recovered, data)),
    )
