#!/usr/bin/env python3
"""The in-process CPU time of each `verify` block: its median over a range of seeds.

    python tools/block_times.py [--seeds 43-57] [--tree PATH]

The script imports the package under the tree's src/ (default: this repository's), runs
`run_suite` once to warm it up, then times every block of the report at each seed with
`time.process_time` (CPU time of this process, so a busy host moves it less than wall
time), and `run_suite` itself once per seed.  It prints one line per block, the costliest
first: the median CPU milliseconds over the seeds and the block's share of the median
`run_suite`; then the `run_suite` line.  `--tree` times another checkout's src/, so that
two trees can be compared with the same script.

Exit status: 0, or 2 on a usage error.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
from seed_sweep import parse_seeds, use_tree  # noqa: E402 - the seed and tree options of tools/

# block -> (verify's function, whether it takes the seed), in run_suite's order
BLOCKS = {
    "admissibility": ("_admissibility_checks", True),
    "universality": ("_universality_checks", True),
    "backend_agreement": ("_backend_agreement_checks", True),
    "fock_form": ("_fock_form_check", True),
    "disk_sign": ("_disk_sign_checks", True),
    "leibniz": ("_leibniz_checks", True),
    "transport": ("_transport_checks", False),
    "grassmann_agreement": ("_grassmann_checks", True),
    "homogeneous": ("_homogeneous_checks", True),
    "reductive": ("_reductive_checks", True),
    "stinespring": ("_stinespring_checks", True),
}


def cpu_ms(fn, *args) -> float:
    start = time.process_time()
    fn(*args)
    return 1e3 * (time.process_time() - start)


def block_times(verify, seeds) -> dict:
    """{block: [CPU ms at each seed]}, and "run_suite": [CPU ms of the whole suite at each
    seed], after one warm-up `run_suite`."""
    verify.run_suite(seeds[0])
    times = {name: [] for name in BLOCKS}
    times["run_suite"] = []
    for seed in seeds:
        for name, (fn, seeded) in BLOCKS.items():
            times[name].append(cpu_ms(getattr(verify, fn), *((seed,) if seeded else ())))
        times["run_suite"].append(cpu_ms(verify.run_suite, seed))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="43-57", help="seeds, e.g. 43-57 or 1,4,7-9")
    parser.add_argument("--tree", default=os.path.dirname(_HERE),
                        help="the checkout whose src/kernelconnect is timed")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"cannot read seeds {args.seeds!r}")
    if not seeds:
        parser.error("no seeds")
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
