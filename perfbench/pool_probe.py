"""Measure what the benchmark leaves out: the library's default pool.

Run from the repository root::

    python3 perfbench/pool_probe.py --runs 8

``encode_file`` with ``parallel=None`` (the library default) picks a
process pool when the host has more than one CPU.  This times it
against the in-process path on 40 MiB RS(10,4) files, alternating the
two, and prints each side's MB/s per run and median.  The figures are
recorded in ``not_measured.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=8)
    parser.add_argument("--mib", type=int, default=40)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy as np

    from repro.codes.rs import ReedSolomonCode
    from repro.striping.pipeline import encode_file

    code = ReedSolomonCode(10, 4)
    data = np.frombuffer(
        np.random.default_rng(40).bytes(args.mib << 20), dtype=np.uint8
    )
    rates = {"default": [], "in_process": []}
    pooled = []
    for i in range(args.runs):
        order = ("default", "in_process") if i % 2 == 0 else ("in_process", "default")
        for side in order:
            start = time.perf_counter()
            result = encode_file(
                code, data, 1 << 20, parallel=None if side == "default" else False
            )
            rates[side].append(data.size / (time.perf_counter() - start) / 1e6)
            if side == "default":
                pooled.append(result.parallel_used)
    print(json.dumps({
        "file_MiB": args.mib,
        "runs": args.runs,
        "default_pool_used": all(pooled),
        "default_MBps": [round(r, 1) for r in rates["default"]],
        "in_process_MBps": [round(r, 1) for r in rates["in_process"]],
        "default_median_MBps": round(statistics.median(rates["default"]), 1),
        "in_process_median_MBps": round(statistics.median(rates["in_process"]), 1),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
