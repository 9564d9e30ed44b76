#!/usr/bin/env python3
"""The package modules a cold CLI run imports, their uncached import times, and its wall time.

    python tools/cold_start.py [--runs 5] [--tree PATH] [--against TREE]

For `--help` and the four commands that the benchmark runs cold (`verify all`, `kernel gram` on
64 disk points, `connect transport` at 512 steps and `grassmann verify --n 6 --k 3`), the script
runs `python -X importtime -m kernelconnect ...` `--runs` times and prints, per command, the
median self time of each `kernelconnect` module the command imported, in import order, and the
median wall time of the run (the importtime report's own printing included, well under 1 ms).

Every run compiles the package from source, as the benchmark's runs do: the tree's
src/kernelconnect/*.py are copied into a fresh temporary directory, which the run imports with
PYTHONDONTWRITEBYTECODE=1, so that neither the tree's own __pycache__ nor one written by an
earlier run serves it, and the tree is never written.  numpy and the standard library keep
their installed bytecode, as in the benchmark (an empty PYTHONPYCACHEPREFIX would compile them
too: `import numpy` alone reads about 0.65 s instead of 0.2 s on a 2-core host).

`--against TREE` compares two checkouts.  The host's speed drifts, so every command runs on the
two trees back to back, the tree that goes first alternating from pair to pair; the script
prints both trees' medians (the tree of `--tree` first) and the pairs in which the first read
less.

Exit status: 0, or 2 on a usage error (or when a run exits nonzero).
"""

from __future__ import annotations

import argparse
import cmath
import glob
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))

# 64 points spread over the disk |s| <= 0.9 (a sunflower spiral), as `kernel gram` reads them
_DISK = ";".join(f"{z.real:.6f}{z.imag:+.6f}i" for z in
                 (cmath.rect(0.9 * ((j + 0.5) / 64) ** 0.5, 2.39996 * j) for j in range(64)))
COMMANDS = (
    ("--help",),
    ("verify", "all", "--seed", "0"),
    ("kernel", "gram", "--kernel", "bergman-disk:nu=2", f"--points={_DISK}", "--format", "csv"),
    ("connect", "transport", "--kernel", "bergman-disk:nu=2", "--start=0.1+0.2i",
     "--end=-0.3+0.4i", "--steps", "512"),
    ("grassmann", "verify", "--n", "6", "--k", "3", "--seed", "0"),
)


def label(argv) -> str:
    return " ".join(argv[:2]) if argv[0] != "--help" else argv[0]


def copy_package(tree: str, into: str) -> str:
    """Copy the tree's src/kernelconnect/*.py, and nothing else, into `into`; return `into`."""
    os.makedirs(package := os.path.join(into, "kernelconnect"))
    for path in glob.glob(os.path.join(os.path.abspath(tree), "src", "kernelconnect", "*.py")):
        shutil.copy(path, package)
    return into


def self_times(stderr: str) -> dict:
    """{module: self ms} of every `kernelconnect` module in a `-X importtime` report, in order."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            us, _, name = line.removeprefix("import time:").split("|")
            if name.strip().partition(".")[0] == "kernelconnect":
                times[name.strip()] = int(us) / 1e3
    return times


def cold_run(path: str, argv) -> dict:
    """{module: self ms, ..., "wall": ms} of one uncached run of the package copied at `path`;
    raises RuntimeError when the command exits nonzero."""
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "kernelconnect", *argv],
                          capture_output=True, text=True, env=env, cwd=path)
    wall = 1e3 * (time.perf_counter() - start)
    if proc.returncode != 0:
        raise RuntimeError(f"`{label(argv)}` exited {proc.returncode}: {proc.stderr[-300:]}")
    return {**self_times(proc.stderr), "wall": wall}


def measure(paths, runs: int) -> list:
    """Per path, {(command, module or "wall"): [ms of each run]}: each command runs on every
    path back to back, the path that goes first alternating from run to run."""
    times = [{} for _ in paths]
    for i in range(runs):
        for argv in COMMANDS:
            for side in range(len(paths)) if i % 2 == 0 else reversed(range(len(paths))):
                for name, ms in cold_run(paths[side], argv).items():
                    times[side].setdefault((label(argv), name), []).append(ms)
    return times


def rows(times) -> list:
    """The (command, module) keys of all trees: by command, modules in import order, wall last."""
    keys = list(dict.fromkeys(key for side in times for key in side))
    order = [label(argv) for argv in COMMANDS]
    return sorted(keys, key=lambda key: (order.index(key[0]), key[1] == "wall"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs of each command (pairs with "
                        "--against)")
    parser.add_argument("--tree", default=os.path.dirname(_HERE),
                        help="the checkout whose src/kernelconnect is run")
    parser.add_argument("--against", default=None,
                        help="a second checkout, run back to back with --tree's")
    args = parser.parse_args(argv)
    trees = [args.tree] + ([args.against] if args.against is not None else [])
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "src", "kernelconnect", "__init__.py")):
            parser.error(f"{tree} has no src/kernelconnect")
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    with tempfile.TemporaryDirectory() as scratch:
        paths = [copy_package(tree, os.path.join(scratch, str(i))) for i, tree in enumerate(trees)]
        try:
            times = measure(paths, args.runs)
        except RuntimeError as exc:
            parser.error(str(exc))
    width = max(len(label(argv)) for argv in COMMANDS)
    mwidth = max(len(key[1]) for key in rows(times))
    head = f"{'command':{width}}  {'module':{mwidth}}  {'ms':>7}"
    if len(trees) > 1:
        head += f"  {'against':>7}  wins"
    print(f"{head}   (medians of {args.runs} uncached runs)")
    for key in rows(times):
        medians = [statistics.median(side[key]) if key in side else float("nan") for side in times]
        line = f"{key[0]:{width}}  {key[1]:{mwidth}}  {medians[0]:7.2f}"
        if len(times) > 1:
            wins = sum(a < b for a, b in zip(times[0].get(key, []), times[1].get(key, [])))
            line += f"  {medians[1]:7.2f}  {wins}/{args.runs}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
