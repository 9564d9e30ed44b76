#!/usr/bin/env python3
"""Fuzz the command line: seeded random argument lists, each run through `cli.main` in process.

    python tools/fuzz_cli.py [--seed 0] [--draws 200]

Each draw picks one subcommand of `cli._COMMANDS`, or `verify`, and fills its options from small
pools of values, each a list of valid values and a list of invalid ones, about as long:
- kernel specs of every family, with bad fields, NaN, 0 and huge values;
- points inside and outside the domain, of the wrong dimension, or not literals;
- --steps from -1 to 1024, --n up to 8, --probes up to 20, and --tol with 0, -1, nan and inf;
- one past each size limit of `cli`: fock:dim=17, --steps 32769, --n 65, --probes 257, a
  --points of 1025 points and a 49 x 49 Choi CSV, all invalid (a valid size at a limit costs
  seconds per draw), and one below each lower bound: --steps 0, --n 1, --probes 0, --seed -1;
- two valid Choi CSVs, and a ragged, a non-Hermitian, a 49 x 49, a missing one and 1e154 I,
  whose unitality residual overflows.
A value is drawn from the valid list four times in five, so that about a third of the draws
get past the parsers.  A required option is sometimes left out and an unknown one sometimes
added.  `main` runs with
stdout and stderr captured and RuntimeWarning raised as an error.  A draw fails when `main`
exits with a code other than 0, 1 or 2, when an exception escapes it, or when an exit 0
writes NaN or Infinity.  Every failing draw is printed with its argv.  An option of
`cli._COMMANDS` that has no pool here fails its draws, so a new option needs a pool.

Exit status: 0 when every draw passed, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import re
import shlex
import sys
import tempfile
import traceback
import warnings

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import numpy as np  # noqa: E402

import kernelconnect as kc  # noqa: E402
from kernelconnect import cli  # noqa: E402

# a non-finite number as the CLI writes it: JSON's NaN and Infinity, and %g's nan and inf,
# which a complex cell may follow with its i
_NON_FINITE = re.compile(r"(?<![A-Za-z_])(NaN|-?Infinity|nan|inf)(?![A-Za-hj-z_])")

_POINTS = ("--point", "--point2", "--start", "--end")
_C2 = ["0,0", "0.1+0.2i,-0.3i", "1,0.5i", "-3,2e-3i"]  # fock:dim=2's valid points and directions
_CSVS = ("choi-2x2.csv", "choi-3x2.csv", "ragged.csv", "non-hermitian.csv", "choi-49x49.csv",
         "overflow.csv", "missing.csv")  # the last is never written
# option -> (valid values, invalid ones); a valid point is inside the disk and the half-plane,
# and so a point of every kernel but fock:dim=2
_VALUES = {
    "--kernel": (["bergman-disk:nu=1", "bergman-disk:nu=2", "bergman-disk:nu=2.5",
                  "bergman-halfplane:nu=1", "bergman-halfplane:nu=3", "fock:dim=1", "fock:dim=2"],
                 ["bergman-disk:nu=0", "bergman-disk:nu=nan", "bergman-disk:nu=1e308",
                  "bergman-disk:nu=inf", "bergman-disk:mu=2", "bergman-disk:nu=2,nu=3",
                  "bergman-disk", "bergman-halfplane:nu=1024", "bergman-halfplane:nu=-1",
                  "fock:dim=0", "fock:dim=-1", "fock:dim=2.5", "fock:dim=17", "nope:nu=1", ""]),
    "--point": (["0.5+0.2i", "-0.4+0.3i", "0.3i", "0.2+0.9i"],
                ["0", "1+2i", "0.9999999", "1.5", "-1i", "1e-320", "0,0,0", "nan", "inf", "1e308",
                 "abc", "", "0,,1", "1e308,0"]),
    "--direction": (["1", "0", "1e4", "1e-300", "-0.5i", "0.3+0.1i"],
                    ["1e305", "1,0.5i,-1", "nan", "x", ""]),
    "--vector": (["1", "0.5i", "-2+1e-3i"], ["1,0", "nan", "x"]),
    "--section": (["constant", "linear"], ["quadratic"]),
    "--steps": (["1", "2", "3", "7", "16", "100", "1024"], ["-1", "0", "x", "32769"]),
    "--n": (["2", "3", "4", "6", "8"], ["-1", "0", "1", "65"]),
    "--k": (["1", "2", "3"], ["-1", "0", "8"]),
    "--probes": (["1", "5", "20"], ["-1", "0", "257"]),
    "--seed": (["0", "1", "42"], ["-1", "x"]),
    "--tol": (["1e-6", "1", "1e-300"], ["0", "-1", "nan", "inf"]),
    "--format": (["json", "csv"], ["xml"]),
}
_VALUES.update(dict.fromkeys(_POINTS[1:], _VALUES["--point"]))


def _pick(rng: random.Random, option: str, files: dict, argv: list) -> str:
    """A value of the option, valid four times in five, after the arguments argv."""
    if option == "--points":  # one to four points, the first sometimes repeated; or 1025
        pts = [_pick(rng, "--point", files, argv) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.05:
            return ";".join(pts[:1] * 1025)
        return ";".join(pts + pts[:1] * (rng.random() < 0.2))
    if option == "--choi":
        valid, invalid = [files[name] for name in _CSVS[:2]], [files[name] for name in _CSVS[2:]]
    elif option == "--output":
        valid, invalid = [files["out.json"]], [os.path.join(files["nope"], "out.json")]
    else:
        valid, invalid = _VALUES[option]
        if "fock:dim=2" in argv and option in _POINTS + ("--direction",):
            valid = _C2
    return rng.choice(valid if rng.random() < 0.8 else invalid)


def draw(rng: random.Random, files: dict) -> list:
    """One argument list: a subcommand of cli._COMMANDS, or verify, and its options."""
    leaves = [(command, name, spec) for command, (_, subs) in cli._COMMANDS.items()
              for name, spec in subs.items()]
    if rng.random() < 1 / (len(leaves) + 1):
        targets = rng.sample(["all", "kernels", "rkhs", "connections", "nope"], rng.randint(0, 2))
        return ["verify", *targets, "--seed", _pick(rng, "--seed", files, [])]
    command, name, (_, _, tol, fmt, options) = rng.choice(leaves)
    names = list(options) + ["--tol"] * (tol is not None) + ["--format"] * (fmt is not None)
    argv = [command, name]
    for option in names:  # a required option is left out one time in ten
        if rng.random() < (0.9 if options.get(option, {}).get("required") else 0.5):
            argv += [option, _pick(rng, option, files, argv)]
    if rng.random() < 0.05:
        argv += ["--output", _pick(rng, "--output", files, argv)]
    return argv + ["--bogus"] * (rng.random() < 0.03)


def failure(argv: list, output: str) -> str | None:
    """Why one run of cli.main(argv) fails the fuzz, or None; `output` is the --output path that
    the pools may name, read back after an exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("error", RuntimeWarning)
        if os.path.exists(output):
            os.remove(output)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: exit 2 on a usage error, 0 after --help
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - anything that escapes main is a finding
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            return (f"{type(exc).__name__} escaped main: {exc} "
                    f"(raised at {os.path.basename(frame.filename)}:{frame.lineno})")
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    written = out.getvalue()
    if code == 0 and os.path.exists(output):
        with open(output) as fh:
            written += fh.read()
    if code == 0 and (hit := _NON_FINITE.search(written)):
        return f"exit 0 wrote a non-finite number: {hit.group()!r}"
    return None


def fuzz(seed: int, draws: int) -> list:
    """The (argv, reason) of every failing draw of `draws` at `seed`."""
    rng, failures = random.Random(seed), []
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, name) for name in _CSVS + ("out.json", "nope")}
        for name, (n, m, r) in (("choi-2x2.csv", (2, 2, 3)), ("choi-3x2.csv", (3, 2, 3)),
                                ("non-hermitian.csv", (2, 2, 2)), ("choi-49x49.csv", (7, 7, 49))):
            choi = kc.random_unital_cpmap(n, m, r, np.random.default_rng(n)).choi
            if name == "non-hermitian.csv":  # C + 0.3 (E_01 - E_10), whose Hermitian part is C
                choi[0, 1] += 0.3
                choi[1, 0] -= 0.3
            with open(files[name], "w") as fh:
                fh.write(kc.matrix_to_csv_text(choi))
        with open(files["ragged.csv"], "w") as fh:
            fh.write("1,0\n0\n")
        with open(files["overflow.csv"], "w") as fh:
            fh.write(kc.matrix_to_csv_text(1e154 * np.eye(4)))
        for _ in range(draws):
            try:
                argv = draw(rng, files)
            except KeyError as exc:
                failures.append(([], f"no pool for option {exc}"))
                continue
            reason = failure(argv, files["out.json"])
            if reason is not None:
                failures.append((argv, reason))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the draws")
    parser.add_argument("--draws", type=int, default=200, help="number of argument lists")
    args = parser.parse_args(argv)
    if args.draws < 0:
        parser.error(f"--draws must be >= 0, got {args.draws}")
    failures = fuzz(args.seed, args.draws)
    for args_, reason in failures:
        print(f"FAIL kernelconnect {shlex.join(args_)}: {reason}")
    print(f"{args.draws} draws at seed {args.seed}: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
