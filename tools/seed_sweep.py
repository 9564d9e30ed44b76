#!/usr/bin/env python3
"""Sweep `verify` over a range of seeds: each check's worst residual/tolerance and its seed.

    python tools/seed_sweep.py [--seeds 0-599] [--modules connections,grassmann] [--tree PATH]

For every seed the script calls `run_suite(seed, modules)` in this process, with
RuntimeWarning raised as an error, so a seed where numpy meets an overflow or a NaN fails
the way `python -W error::RuntimeWarning -m kernelconnect verify` does.  It prints one line
per check: the worst residual/tolerance over the seeds, the seed where it occurs, and the
number of seeds where the check failed.  A check with tolerance 0 passes when its residual
is negative; its worst residual is printed instead of a ratio.  Every seed where run_suite
raises is listed with its error.  `--tree` sweeps the package under another checkout's src/
(default: this repository's), so that two trees can be swept with the same script.

Exit status: 0 when every check passed at every seed and no seed raised, 1 otherwise, 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

_HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    """'0-599' or '1,4,7-9' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def use_tree(parser, tree: str) -> None:
    """Put the tree's src/ first on sys.path, or exit with a usage error if it has no package."""
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isdir(os.path.join(src, "kernelconnect")):
        parser.error(f"{tree} has no src/kernelconnect")
    sys.path.insert(0, src)


def sweep(run_suite, seeds, modules=None) -> tuple[dict, list]:
    """{check: (worst score, its seed, seeds failed, whether the score is a ratio)} and the
    (seed, error) of every seed where run_suite raised.  A check's score is residual / tolerance,
    or the residual itself when the tolerance is 0; the first seed with the highest score, or
    with a NaN, is kept."""
    worst, raised = {}, []
    for seed in seeds:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                report = run_suite(seed, modules)
        except Exception as exc:  # noqa: BLE001 - any error is a finding at this seed
            raised.append((seed, f"{type(exc).__name__}: {exc}"))
            continue
        for check in report["checks"]:
            tol = check["tolerance"]
            score = check["residual"] / tol if tol > 0 else check["residual"]
            best, at, failed, _ = worst.get(check["name"], (None, None, 0, None))
            if best is None or score > best or (score != score and best == best):  # NaN: worst
                best, at = score, seed
            worst[check["name"]] = (best, at, failed + (not check["passed"]), tol > 0)
    return worst, raised


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-599", help="seeds, e.g. 0-599 or 1,4,7-9")
    parser.add_argument("--modules", default=None,
                        help="comma-separated verify modules (default: all)")
    parser.add_argument("--tree", default=os.path.dirname(_HERE),
                        help="the checkout whose src/kernelconnect is swept")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"cannot read seeds {args.seeds!r}")
    use_tree(parser, args.tree)
    from kernelconnect.verify import MODULE_NAMES, run_suite

    modules = args.modules.split(",") if args.modules else None
    unknown = set(modules or ()) - set(MODULE_NAMES)
    if unknown:
        parser.error(f"unknown modules {sorted(unknown)}; choose from {list(MODULE_NAMES)}")
    worst, raised = sweep(run_suite, seeds, modules)
    width = max((len(name) for name in worst), default=5)
    print(f"{'check':{width}}  worst      seed  failed")
    for name, (score, seed, failed, _) in sorted(worst.items()):
        print(f"{name:{width}}  {score:<9.3g}  {seed:<4}  {failed}")
    for seed, error in raised:
        print(f"seed {seed} raised: {error}")
    failing = sum(failed > 0 for _, _, failed, _ in worst.values())
    ratios = [(score, name) for name, (score, _, _, ratio) in worst.items() if ratio]
    top, name = max(ratios, key=lambda r: (r[0] != r[0], r[0]), default=(float("nan"), "none"))
    print(f"{len(seeds)} seeds, {len(worst)} checks: {failing} failed at some seed, "
          f"{len(raised)} seeds raised; worst residual/tolerance {top:.3g} ({name})")
    return 1 if failing or raised else 0


if __name__ == "__main__":
    sys.exit(main())
