#!/usr/bin/env python3
"""The HDFS-RAID lifecycle of Section 2.1, with real bytes.

Hot data arrives 3-way replicated; after three months without access the
RAID policy erasure-codes it ((10,4) RS in production, Piggybacked-RS
here); machines then fail and blocks are reconstructed across racks.
This example drives the mini-HDFS layer through that whole lifecycle and
verifies byte-identical reads at every stage.

Run:  python examples/hdfs_cold_data_raiding.py
"""

import time

import numpy as np

from repro.analysis.report import format_bytes
from repro.cluster.namenode import NameNode
from repro.cluster.network import TrafficMeter
from repro.cluster.placement import DistinctRackPlacement
from repro.cluster.raidnode import RaidNode
from repro.cluster.scrubber import Scrubber
from repro.cluster.topology import Topology
from repro.codes.piggyback import PiggybackedRSCode
from repro.striping.pipeline import encode_file

BLOCK_SIZE = 256 * 1024  # 256 KiB stand-in for 256 MB


def physical_bytes(namenode: NameNode) -> int:
    return sum(node.used_bytes for node in namenode.datanodes.values())


def main() -> None:
    rng = np.random.default_rng(7)
    topology = Topology(num_racks=20, nodes_per_rack=4)
    namenode = NameNode(topology, DistinctRackPlacement(topology, seed=7))
    meter = TrafficMeter(topology, record_transfers=True)
    raidnode = RaidNode(namenode, PiggybackedRSCode(10, 4), meter)

    print("== 0. the raid node's file-encode pipeline ==")
    # The same batched data plane the raid node uses below, run
    # standalone through the zero-copy batch path.
    sample = rng.integers(0, 256, size=40 * BLOCK_SIZE, dtype=np.uint8)
    start = time.perf_counter()
    encoded = encode_file(PiggybackedRSCode(10, 4), sample, BLOCK_SIZE)
    elapsed = time.perf_counter() - start
    print(f"  encoded {format_bytes(sample.size)} into "
          f"{len(encoded.layouts)} stripes "
          f"({format_bytes(encoded.parity_bytes)} parity) in "
          f"{elapsed * 1e3:.0f} ms -- {sample.size / elapsed / 1e6:.0f} MB/s")

    print("\n== 1. hot data arrives, 3-way replicated ==")
    files = {}
    for i in range(3):
        name = f"hive/warehouse/events/part-{i:05d}"
        data = rng.integers(0, 256, size=23 * BLOCK_SIZE + 1000, dtype=np.uint8)
        namenode.write_file(name, data, BLOCK_SIZE, replication=3)
        files[name] = data
    logical = sum(len(d) for d in files.values())
    print(f"  logical data : {format_bytes(logical)}")
    print(f"  stored bytes : {format_bytes(physical_bytes(namenode))} "
          f"({physical_bytes(namenode) / logical:.2f}x)")

    print("\n== 2. three months pass; the RAID policy erasure-codes it ==")
    for name in files:
        stripes = raidnode.raid_file(name)
        print(f"  {name}: {len(stripes)} stripes")
    print(f"  stored bytes : {format_bytes(physical_bytes(namenode))} "
          f"({physical_bytes(namenode) / logical:.2f}x -- the paper's 1.4x)")
    for name, data in files.items():
        assert np.array_equal(namenode.read_file(name), data)
    print("  all files still byte-identical: OK")

    print("\n== 3. machines fail; blocks are reconstructed cross-rack ==")
    victims = sorted(
        namenode.datanodes.values(), key=lambda d: -len(d.blocks)
    )[:3]
    for victim in victims:
        lost = namenode.kill_node(victim.node_id)
        print(f"  killed node {victim.node_id} "
              f"(rack {victim.rack_id}, {len(lost)} blocks lost)")
    rebuilt = raidnode.reconstruct_all_missing(time=900.0)
    recovery_bytes = meter.bytes_by_purpose["recovery"]
    print(f"  reconstructed {rebuilt} blocks, "
          f"moving {format_bytes(recovery_bytes)} across racks")
    for name, data in files.items():
        assert np.array_equal(namenode.read_file(name), data)
    print("  all files still byte-identical: OK")

    print("\n== 4. degraded read during an outage ==")
    name, data = next(iter(files.items()))
    entry = namenode.stripes[namenode.files[name].stripe_ids[0]]
    block_id = entry.layout.data_block_ids[4]
    namenode.kill_node(entry.locations[4])
    payload = raidnode.degraded_read(block_id, time=1000.0)
    assert np.array_equal(payload, data[4 * BLOCK_SIZE: 5 * BLOCK_SIZE])
    print(f"  read {block_id} through its stripe while its node is down: OK")

    print("\n== 5. scrubbing catches silent corruption ==")
    # Heal the outage from stage 4 first so every stripe is scrubbable.
    raidnode.reconstruct_all_missing(time=1500.0)
    scrubber = Scrubber(raidnode)
    victim_entry = namenode.stripes[namenode.files[name].stripe_ids[1]]
    victim_block = victim_entry.layout.all_block_ids()[2]
    victim_node = victim_entry.locations[2]
    namenode.datanodes[victim_node].blocks[victim_block].payload[0] ^= 0x08
    report = scrubber.scrub(time=2000.0)
    print(f"  scrubbed {report.stripes_checked} stripes: "
          f"{report.corrupt_units_found} corrupt unit found and repaired "
          f"({len(report.unverifiable_stripes)} degraded stripes skipped)")
    assert np.array_equal(namenode.read_file(name), data)
    print("  file byte-identical after repair: OK")

    print("\n== traffic summary ==")
    for purpose, count in sorted(meter.bytes_by_purpose.items()):
        print(f"  {purpose:<14}: {format_bytes(count)}")
    print(f"  cross-rack    : {format_bytes(meter.cross_rack_bytes)} "
          f"(through the aggregation switch: "
          f"{format_bytes(meter.aggregation_switch_bytes)})")


if __name__ == "__main__":
    main()
