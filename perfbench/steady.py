"""Steadiness report: two interleaved sets of runs of the same code.

Run from the repository root::

    python3 perfbench/steady.py --runs 5 --split

For every seed and workload it runs ``run.py`` once for set A and once
for set B, alternating which set goes first, each in a fresh process;
with ``--split`` set B runs the next ``--runs`` seeds instead of set
A's, so the two sets together cover ``2 * --runs`` seeds.
It prints, per workload and end-to-end metric, each set's median and
quartiles, the spread (quartile distance over median) of each set and
the shift between the two medians and the spread over both sets
together, and names every metric whose spread or worsening shift
breaks its bound from ``BENCHMARK.json``.  Without
``--split`` the accounting metrics must repeat exactly for a seed; any
difference is named as drift.  Exits 1 when anything is named.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

EXACT = ("repair_read_amplification", "sim_xrack_MB_per_block")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", help="also write every run's metrics here")
    parser.add_argument("--split", action="store_true",
                        help="set B runs the next --runs seeds, not set A's")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two runs)")
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    sets = {w: ([], []) for w in names}
    for i, seed in enumerate(seeds):
        for workload in names:
            for which in (0, 1) if i % 2 == 0 else (1, 0):
                run_seed = seed + args.runs if args.split and which else seed
                sets[workload][which].append(
                    run_once(workload, run_seed, seconds)
                )
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1))
    broken = []
    for workload in names:
        a_runs, b_runs = sets[workload]
        b_first = seeds.start + (args.runs if args.split else 0)
        print(f"\n{workload}  ({len(a_runs)} runs per set; seeds "
              f"{seeds.start}..{seeds.stop - 1} and "
              f"{b_first}..{b_first + args.runs - 1})")
        print(f"  {'metric':28s} {'A median [q1, q3]':>34s} {'A spr':>6s}"
              f" {'B median [q1, q3]':>34s} {'B spr':>6s} {'shift':>7s}"
              f" {'A+B spr':>6s} bound")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in a_runs]
            b = [r[name] for r in b_runs]
            ma, qa1, qa3, sa = spread(a)
            mb, qb1, qb3, sb = spread(b)
            both = spread(a + b)[3]
            shift = (mb - ma) / ma if ma else 0.0
            worse = shift if metric["better"] == "lower" else -shift
            flags = []
            if max(sa, sb, both) > bound:
                flags.append("SPREAD")
            if worse > bound:
                flags.append("SHIFT")
            if name in EXACT and a != b and not args.split:
                flags.append("DRIFT")
            if flags:
                broken.append(f"{workload}/{name}: {'+'.join(flags)}")
            print(f"  {name:28s} {ma:12.5g} [{qa1:9.5g}, {qa3:9.5g}] {sa:6.3f}"
                  f" {mb:12.5g} [{qb1:9.5g}, {qb3:9.5g}] {sb:6.3f}"
                  f" {shift:+7.3f} {both:6.3f} {bound:.2f} {' '.join(flags)}")
    print()
    if broken:
        print("outside bounds: " + ", ".join(broken))
        return 1
    print("every metric within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
