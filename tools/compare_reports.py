#!/usr/bin/env python3
"""Compare the `verify all` and `grassmann verify` reports of two source trees, seed by seed.

    python tools/compare_reports.py PARENT_TREE CHANGE_TREE [--seeds 0-59]

Each tree is a checkout of this repository (the package under its src/).  For every
seed the script runs each of `python -m kernelconnect verify all --seed S` and
`python -m kernelconnect grassmann verify --n 6 --k 3 --seed S` (`verify all` reaches
Gr(2, 4) only) from both trees, and lists every check whose residual, verdict or
presence differs, every other report key that differs, and every command whose exit
code differs.  A change that must keep the reports byte-identical passes when the
script prints only its summary line; given one tree twice, it checks that each
command's output is deterministic.

Exit status: 0 when stdout and exit code agree at every seed, 1 otherwise, 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from seed_sweep import parse_seeds  # noqa: E402 - the seed option of tools/

COMMANDS = (("verify", "all"), ("grassmann", "verify", "--n", "6", "--k", "3"))


def run_report(tree: str, command: tuple, seed: int) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-m", "kernelconnect", *command, "--seed", str(seed)],
                          capture_output=True, text=True, env=env, cwd=tree)
    return proc.returncode, proc.stdout or proc.stderr


def differences(old: str, new: str) -> list[str]:
    """What differs between two reports: checks by name, then the other top-level keys."""
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        tails = [(text.strip().splitlines() or [""])[-1] for text in (old, new)]
        return [f"output is not a JSON report on one side: {tails[0]!r} -> {tails[1]!r}"]
    out = []
    checks_a = {c["name"]: c for c in a.pop("checks", [])}
    checks_b = {c["name"]: c for c in b.pop("checks", [])}
    for name in sorted(checks_a.keys() | checks_b.keys()):
        ca, cb = checks_a.get(name), checks_b.get(name)
        if ca is None or cb is None:
            out.append(f"{name}: only in the {'change' if ca is None else 'parent'}")
        elif ca != cb:
            fields = [f"{key} {ca.get(key)!r} -> {cb.get(key)!r}" for key in sorted(ca | cb)
                      if ca.get(key) != cb.get(key)]
            out.append(f"{name}: " + ", ".join(fields))
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            out.append(f"{key}: {a.get(key)!r} -> {b.get(key)!r}")
    return out or ["stdout differs in layout only"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the tree to compare against")
    parser.add_argument("change", help="the tree under test")
    parser.add_argument("--seeds", default="0-59", help="seeds, e.g. 0-59 or 1,4,7-9")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"cannot read seeds {args.seeds!r}")
    for tree in (args.parent, args.change):
        if not os.path.isdir(os.path.join(tree, "src", "kernelconnect")):
            parser.error(f"{tree} has no src/kernelconnect")
    differing = 0
    for seed in seeds:
        lines = []
        for command in COMMANDS:
            name = " ".join(command[:2])
            (code_a, out_a), (code_b, out_b) = (run_report(tree, command, seed)
                                                for tree in (args.parent, args.change))
            lines += [] if code_a == code_b else [f"{name}: exit code {code_a} -> {code_b}"]
            if out_a != out_b:
                lines += [f"{name}: {line}" for line in differences(out_a, out_b)]
        differing += bool(lines)
        for line in lines:
            print(f"seed {seed}: {line}")
    print(f"{len(seeds)} seeds: {len(seeds) - differing} identical, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
