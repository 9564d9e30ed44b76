#!/usr/bin/env python3
"""The in-process CPU time of each `verify` block: its median over a range of seeds.

    python tools/block_times.py [--seeds 43-57] [--tree PATH] [--against TREE [--runs 5]]

The script imports the package under the tree's src/ (default: this repository's), runs
`run_suite` once to warm it up, then times every block of verify's table `verify.BLOCKS` (the
blocks that `run_suite` runs) at each seed with `time.process_time` (CPU time of this process,
so a busy host moves it less than wall time), and `run_suite` itself once per seed.  It prints
one line per block, named by its function, the costliest first: the median CPU milliseconds
over the seeds and the block's share of the median `run_suite`; then the `run_suite` line.
`--tree` times another checkout's src/ that has the table, so that two trees can be compared
with the same script.

`--against TREE` compares the two trees.  The host's speed drifts between runs minutes apart,
so the script times them alternately: `--runs` pairs of runs, each run one process of this
script on one tree, the tree that goes first alternating from pair to pair.  It prints, per
block and for `run_suite`, the median over the runs of each tree's median CPU milliseconds (the
tree of `--tree` first, TREE second, TREE's costliest block first) and the pairs in which the
first tree read less.

Exit status: 0, or 2 on a usage error (or when a timed run fails).
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
from seed_sweep import parse_seeds, use_tree  # noqa: E402 - the seed and tree options of tools/


def cpu_ms(fn, *args) -> float:
    start = time.process_time()
    fn(*args)
    return 1e3 * (time.process_time() - start)


def block_times(verify, seeds) -> dict:
    """{block: [CPU ms at each seed]} for each block of `verify.BLOCKS`, and "run_suite": [CPU ms
    of the whole suite at each seed], after one warm-up `run_suite`."""
    verify.run_suite(seeds[0])
    blocks = [block for blocks in verify.BLOCKS.values() for block in blocks]
    times = {block.__name__: [] for block in blocks}
    times["run_suite"] = []
    for seed in seeds:
        for block in blocks:
            times[block.__name__].append(cpu_ms(block, seed))
        times["run_suite"].append(cpu_ms(verify.run_suite, seed))
    return times


def read_table(text: str) -> dict:
    """{block: CPU ms} and "run_suite": CPU ms, from the table that one run prints."""
    lines = text.strip().splitlines()
    return {line.split()[0]: float(line.split()[1]) for line in lines[1:]}


def compare(parser, args) -> int:
    """Time the two trees in alternating runs, one process each, and print both medians."""
    trees = [args.tree, args.against]
    for tree in trees:
        if not os.path.isdir(os.path.join(os.path.abspath(tree), "src", "kernelconnect")):
            parser.error(f"{tree} has no src/kernelconnect")
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    runs = [[], []]
    for i in range(args.runs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--seeds", args.seeds,
                                   "--tree", trees[side]], capture_output=True, text=True)
            if proc.returncode != 0:
                parser.error(f"the run on {trees[side]} failed: {proc.stderr.strip()}")
            runs[side].append(read_table(proc.stdout))
    names = sorted({*runs[0][0], *runs[1][0]},
                   key=lambda name: (name == "run_suite", -runs[1][0].get(name, 0.0), name))
    width = max(map(len, names))
    print(f"{'block':{width}}  cpu_ms  against  wins   (medians of {args.runs} alternating runs)")
    for name in names:
        this, other = ([run.get(name, float("nan")) for run in side] for side in runs)
        wins = sum(a < b for a, b in zip(this, other))
        print(f"{name:{width}}  {statistics.median(this):6.2f}  {statistics.median(other):7.2f}"
              f"  {wins}/{args.runs}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="43-57", help="seeds, e.g. 43-57 or 1,4,7-9")
    parser.add_argument("--tree", default=os.path.dirname(_HERE),
                        help="the checkout whose src/kernelconnect is timed")
    parser.add_argument("--against", default=None,
                        help="a second checkout, timed in runs that alternate with --tree's")
    parser.add_argument("--runs", type=int, default=5, help="pairs of runs with --against")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"cannot read seeds {args.seeds!r}")
    if not seeds:
        parser.error("no seeds")
    if args.against is not None:
        return compare(parser, args)
    use_tree(parser, args.tree)
    from kernelconnect import verify

    medians = {name: statistics.median(t) for name, t in block_times(verify, seeds).items()}
    total = medians.pop("run_suite")
    width = max(map(len, medians))
    print(f"{'block':{width}}  cpu_ms  share")
    for name, ms in sorted(medians.items(), key=lambda item: -item[1]):
        print(f"{name:{width}}  {ms:6.2f}  {ms / total:5.1%}")
    print(f"{'run_suite':{width}}  {total:6.2f}  median CPU ms over {len(seeds)} seeds "
          f"{seeds[0]}..{seeds[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
