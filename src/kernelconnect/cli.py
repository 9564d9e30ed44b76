"""Command-line front end: kernel spec parsing and residual-report emission.

Exit codes are a stable contract: 0 = all residuals within tolerance,
1 = a residual check failed, 2 = usage/config error.  A fixed seed makes
every report byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

import kernelconnect as kc  # a handler's first kc.<name> imports the layer that it runs

# the parser reads DEFAULT_TOL, and main catches NumericsError: --help loads no other layer
from .numerics import (DEFAULT_TOL, NumericsError, _csv_rows, _normals, matrix_to_csv_text,
                       parse_complex, read_matrix_csv)

__all__ = ["main", "parse_kernel_spec", "KERNEL_SPEC_GRAMMAR"]

# family -> ({field: its grammar type}, the maker called with the parsed fields by name); a
# maker resolves kc.<name> when called, so that the parser loads no kernel layer
_KERNEL_SPECS = {
    "bergman-disk": ({"nu": "real"}, lambda nu: kc.make_bergman_disk(nu)),
    "bergman-halfplane": ({"nu": "real"}, lambda nu: kc.make_bergman_halfplane(nu)),
    "fock": ({"dim": "int"}, lambda dim: kc.make_fock(np.eye(_within("fock:dim", dim, high=16)))),
}
_FIELD_TYPES = {"real": float, "int": int}

KERNEL_SPEC_GRAMMAR = "kernel spec grammar: " + " | ".join(
    f"{family}:" + ",".join(f"{field}=<{kind}>" for field, kind in fields.items())
    for family, (fields, _) in _KERNEL_SPECS.items())


class UsageError(ValueError):
    """Bad command-line input; reported with the accepted grammar, exit code 2."""


def _within(name: str, value, low=None, high=None):
    """value, or a UsageError naming the option or field and its bound; --points counts points."""
    size = len([p for p in value.split(";") if p.strip()]) if isinstance(value, str) else value
    if low is not None and size < low:
        raise UsageError(f"{name} must be >= {low}, got {size}")
    if high is not None and size > high:
        raise UsageError(f"{name} must be at most {high}, got {size}")
    return value


def parse_kernel_spec(spec: str) -> kc.Kernel:
    """Build a kernel from its canonical spec string (see KERNEL_SPEC_GRAMMAR): its family's
    fields, each named once."""
    family, sep, body = spec.partition(":")
    if not sep or family not in _KERNEL_SPECS:
        raise UsageError(f"unknown kernel spec {spec!r}; {KERNEL_SPEC_GRAMMAR}")
    kinds, make = _KERNEL_SPECS[family]
    fields = [(key.strip(), eq, value.strip()) for key, eq, value in
              (part.partition("=") for part in body.split(","))]
    if not all(eq for _, eq, _ in fields) or sorted(k for k, _, _ in fields) != sorted(kinds):
        raise UsageError(f"kernel spec {spec!r} must set exactly {', '.join(kinds)}, each once "
                         f"as field=value; {KERNEL_SPEC_GRAMMAR}")
    try:
        return make(**{key: _FIELD_TYPES[kinds[key]](value) for key, _, value in fields})
    except ValueError as exc:
        raise UsageError(f"cannot parse kernel spec {spec!r}: {exc}; "
                         f"{KERNEL_SPEC_GRAMMAR}") from exc


def _load_cpmap(path: str, n: int | None):
    try:
        choi = read_matrix_csv(path)
    except (OSError, NumericsError) as exc:  # unreadable, empty, ragged or unparsable
        raise UsageError(f"cannot read Choi CSV {path!r}: {exc}") from exc
    if choi.shape[0] != choi.shape[1]:
        raise UsageError(f"Choi matrix is not square: shape {choi.shape}")
    size = _within("--choi size", choi.shape[0], high=48)
    if n is None:
        n = int(round(np.sqrt(size)))
        if n * n != size:
            raise UsageError(
                f"Choi matrix of size {size} is not a perfect square; pass n= explicitly")
    if size % n != 0:
        raise UsageError(f"Choi size {size} is not divisible by n={n}")
    return kc.CPMap(input_dim=n, output_dim=size // n, choi=choi)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([parse_complex(p) for p in text.split(",")])
    except NumericsError as exc:
        raise UsageError(str(exc)) from exc


def _parse_point(k: kc.Kernel, text: str, base=None) -> np.ndarray:
    """Parse a point of k's domain, or a direction there when a base point is given."""
    v = _parse_vector(text)
    try:
        if base is None:
            k.domain.stack((v,))
        else:
            k.domain.jets((base,), (v,))
    except kc.DomainError as exc:
        raise UsageError(str(exc)) from exc
    return v


def _parse_points(k: kc.Kernel, text: str) -> list:
    points = [_parse_point(k, part) for part in text.split(";") if part.strip()]
    if not points:
        raise UsageError(f"--points needs at least one point, got {text!r}")
    return points


def _matrix_json(m) -> list:
    """format_complex of each entry, one % of a row template per row."""
    return [line.split(",") for line in _csv_rows(np.atleast_2d(m))]


def _vector_json(v) -> list:
    return _matrix_json(np.atleast_1d(v)[None])[0]


def _emit(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj, path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _emit_matrix(args, key: str, m, **fields) -> None:
    """--format csv: the matrix m alone; json: m under `key`, beside the other fields."""
    if args.format == "csv":
        _emit(matrix_to_csv_text(m), args.output)
    else:
        _emit_json({key: _matrix_json(m), **fields}, args.output)


def _builtin_section(name: str, k: kc.Kernel) -> kc.Section:
    ones = np.ones(k.fiber_dim, dtype=complex)
    if name == "constant":
        return kc.Section(F=lambda s: ones)
    if name == "linear":
        return kc.Section(F=lambda s: (1.0 + np.sum(np.asarray(s, dtype=complex))) * ones)
    raise UsageError(f"unknown section {name!r}; use constant | linear")


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the process exit code)

# Commands that evaluate a kernel or a derivative: where a value overflows, the library's
# finiteness check raises `... is not finite` (exit 1) without a RuntimeWarning before it
_overflow_checked = np.errstate(over="ignore", invalid="ignore")


@_overflow_checked
def _cmd_kernel_eval(args) -> int:
    k = parse_kernel_spec(args.kernel)
    s = _parse_point(k, args.point)
    t = _parse_point(k, args.point2) if args.point2 else s
    _emit_matrix(args, "value", k(s, t), kernel=k.name)
    return 0


@_overflow_checked
def _cmd_kernel_gram(args) -> int:
    k = parse_kernel_spec(args.kernel)
    pts = _parse_points(k, args.points)
    gram = kc.gram_matrix(k, pts)
    is_psd, min_eig = kc.positivity_certificate(gram, tol=args.tol)
    _emit_matrix(args, "gram", gram, kernel=k.name, is_psd=is_psd, min_eigenvalue=min_eig,
                 tolerance=args.tol)
    return 0 if is_psd else 1


@_overflow_checked
def _cmd_rkhs_gram(args) -> int:
    k = parse_kernel_spec(args.kernel)
    pts = _parse_points(k, args.points)
    try:
        r = kc.build_rkhs(k, pts)
    except NumericsError:  # a Gram that is not PSD: a verdict on the kernel, exit 1
        raise
    except ValueError as exc:  # coinciding sample points: bad input, exit 2
        raise UsageError(str(exc)) from exc
    lo, hi = float(r.eigenvalues[0]), float(r.eigenvalues[-1])  # condition number: lo > 0 only
    _emit_matrix(args, "gram", r.gram, kernel=r.kernel.name, min_eig=lo,
                 condition_number=hi / lo if lo > 0 else None)
    return 0


@_overflow_checked
def _cmd_connect_covderiv(args) -> int:
    k = parse_kernel_spec(args.kernel)
    s = _parse_point(k, args.point)
    x = _parse_point(k, args.direction, base=s)
    sigma = _builtin_section(args.section, k)
    values = {name: kc.make_evaluator(k, name)(sigma, s, x)
              for name in ("closed-form", "direct", "sampled")}
    # norms of the values over a power of two m >= 1 near their largest entry: exact, no overflow
    m = 2.0 ** max(0, int(np.frexp(max(abs(v).max() for v in values.values()))[1]) - 1)
    u = {name: v / m for name, v in values.items()}
    spread = m * max(float(np.linalg.norm(u[a] - u[b])) for a in u for b in u)
    scale = max(1.0, m * max(float(np.linalg.norm(v)) for v in u.values()))
    _emit_json({
        "closed": _vector_json(values["closed-form"]),
        "direct": _vector_json(values["direct"]),
        "sampled": _vector_json(values["sampled"]),
        "max_disagreement": spread,
        "tolerance": args.tol,
    }, args.output)
    return 0 if spread < args.tol * scale else 1


@_overflow_checked
def _cmd_connect_transport(args) -> int:
    k = parse_kernel_spec(args.kernel)
    start = _parse_point(k, args.start)
    end = _parse_point(k, args.end)
    v0 = _parse_vector(args.vector) if args.vector else np.ones(k.fiber_dim, dtype=complex)
    if v0.shape != (k.fiber_dim,):
        raise UsageError(f"--vector must have {k.fiber_dim} entries, got {v0.size}")
    curve = kc.Curve(gamma=lambda t: (1.0 - t) * start + t * end, velocity=lambda t: end - start,
                     batch=lambda t: ((1.0 - t)[:, None] * start + t[:, None] * end,
                                      np.broadcast_to(end - start, (len(t), len(start)))))
    rungs = sorted({max(1, args.steps // d) for d in (8, 4, 2, 1)})
    coarse = rungs[-2] if len(rungs) > 1 else 2  # --steps 1 has no coarser rung: 2 steps stand in
    ladder = {n: kc.connections._transport(k, curve, v0, n) for n in sorted({*rungs, coarse})}
    final, ends = ladder[args.steps]  # metric_drift: v* kappa(s, s) v, which exact transport keeps
    start_norm, end_norm = (np.vdot(v, kss @ v).real for v, kss in zip((v0, final), ends))
    drift = abs(end_norm - start_norm) / start_norm if start_norm else 0.0
    # step doubling at the rate the ladder shows, at most RK4's (steps / coarse)^4
    own_error = float(np.linalg.norm(final - ladder[coarse][0]))
    if len(rungs) > 2 and own_error > 0:  # two rungs show no rate: keep the difference
        seen = float(np.linalg.norm(ladder[coarse][0] - ladder[rungs[-3]][0])) / own_error
        own_error /= max(min(seen, (args.steps / coarse) ** 4) - 1.0, 1.0)
    table = [(n, float(np.linalg.norm(ladder[n][0] - final))) for n in rungs[:-1]]
    table.append((args.steps, own_error))
    if args.format == "csv":
        lines = _csv_rows(final[None])
        lines += [f"{n},{err:.17g}" for n, err in table]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit_json({
            "vector": _vector_json(final),
            "steps": args.steps,
            "convergence": [{"steps": n, "error": err} for n, err in table],
            "metric_drift": float(drift),
            "tolerance": args.tol,
        }, args.output)
    return 0 if dict(table)[args.steps] < args.tol else 1


def _cmd_grassmann_verify(args) -> int:
    if not 1 <= args.k <= args.n - 1:
        raise UsageError(f"--k must be between 1 and n-1 = {args.n - 1}, got {args.k}")
    rep = kc.grassmann.grassmann_agreement(args.n, args.k, probes=args.probes, seed=args.seed)
    worst = max(rep.values())
    _emit_json({**rep, "n": args.n, "k": args.k, "probes": args.probes, "seed": args.seed,
                "tolerance": args.tol, "passed": worst < args.tol}, args.output)
    return 0 if worst < args.tol else 1


@_overflow_checked
def _cmd_cp_dilate(args) -> int:
    psi = _load_cpmap(args.choi, args.n)
    triple = kc.stinespring_dilate(psi)
    iso = triple.isometry_residual()
    dil = kc.verify_dilation(psi, triple)
    _emit_matrix(args, "v", triple.v, r=triple.r, input_dim=psi.input_dim,
                 output_dim=psi.output_dim, isometry_residual=iso, dilation_residual=dil,
                 tolerance=args.tol)
    return 0 if max(iso, dil) < args.tol else 1


@_overflow_checked
def _cmd_cp_kernel(args) -> int:
    psi = _load_cpmap(args.choi, args.n)
    k = kc.cp_kernel(psi)
    u1 = kc.random_unitary(psi.input_dim, seed=args.seed)
    u2 = kc.random_unitary(psi.input_dim, seed=args.seed + 1)
    _emit_matrix(args, "value", k(u1, u2), kernel=k.name, seed=args.seed)
    return 0


@_overflow_checked
def _cmd_cp_covderiv(args) -> int:
    psi = _load_cpmap(args.choi, args.n)
    k = kc.cp_kernel(psi)
    u = kc.random_unitary(psi.input_dim, seed=args.seed)
    (a,) = _normals(np.random.default_rng(args.seed + 1), 1, (psi.input_dim,) * 2)
    a = 0.5 * (a - a.conj().T)
    w0 = np.ones(psi.output_dim, dtype=complex)

    def sigma_fn(v):
        return w0 + psi.apply(v) @ (0.5 * w0)

    formula = kc.cp_covariant_derivative(psi, sigma_fn, u, a)
    generic = kc.covariant_derivative_direct(k, kc.Section(F=sigma_fn), u, a)
    spread = float(np.linalg.norm(formula - generic))
    _emit_json({
        "formula": _vector_json(formula),
        "generic": _vector_json(generic),
        "max_disagreement": spread,
        "seed": args.seed,
        "tolerance": args.tol,
    }, args.output)
    return 0 if spread < args.tol else 1


def _cmd_verify(args) -> int:
    modules = None if not args.target or "all" in args.target else args.target
    unknown = set(modules or ()) - set(kc.MODULE_NAMES)
    if unknown:
        raise UsageError(f"unknown modules: {sorted(unknown)}; choose from {kc.MODULE_NAMES}")
    report = kc.run_suite(seed=args.seed, modules=modules)
    _emit_json(report, args.output)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Argument parser


_REQUIRED = {"required": True}
_POINTS = {"required": True, "max": 1024}
_SEED = {"type": int, "default": 42, "min": 0}
_CP_N = {"type": int, "min": 1}
_OUTPUT = {"help": "write to this path instead of stdout"}

# command -> (help, {subcommand: (help, handler, --tol default or None (no verdict), --format
#   default or None (no CSV form), {option: keywords, a "min" and a "max" its bounds for main})})
_COMMANDS = {
    "kernel": ("evaluate kernels and Gram matrices", {
        "eval": ("evaluate kappa(s, t)", _cmd_kernel_eval, None, "json", {
            "--kernel": _REQUIRED,
            "--point": {"required": True, "help": "comma-separated a+bi literals"},
            "--point2": {"help": "second point (defaults to --point)"}}),
        "gram": ("block Gram matrix with PSD certificate", _cmd_kernel_gram, DEFAULT_TOL, "json", {
            "--kernel": _REQUIRED,
            "--points": {**_POINTS,
                         "help": "semicolon-separated points, each comma-separated a+bi"}}),
    }),
    "rkhs": ("finite-sample Hilbert space diagnostics", {
        "gram": ("emit the sampled Gram matrix", _cmd_rkhs_gram, None, "csv", {
            "--kernel": _REQUIRED, "--points": _POINTS}),
    }),
    "connect": ("covariant derivatives and transport", {
        "covderiv": ("compare the three backends at a probe", _cmd_connect_covderiv, 1e-6, None, {
            "--kernel": _REQUIRED, "--point": _REQUIRED, "--direction": _REQUIRED,
            "--section": {"default": "constant", "help": "constant | linear"}}),
        "transport": ("parallel transport along a segment", _cmd_connect_transport, 1e-6, "json", {
            "--kernel": _REQUIRED, "--start": _REQUIRED, "--end": _REQUIRED,
            "--vector": {"help": "initial fiber vector (default: ones)"},
            "--steps": {"type": int, "default": 256, "min": 1, "max": 32768}}),
    }),
    "grassmann": ("projector-manifold connection suites", {
        "verify": ("three-way covariant-derivative agreement", _cmd_grassmann_verify, 1e-6, None, {
            "--n": {"type": int, "default": 4, "min": 2, "max": 64},
            "--k": {"type": int, "default": 2},
            "--probes": {"type": int, "default": 20, "min": 1, "max": 256}, "--seed": _SEED}),
    }),
    "cp": ("completely positive maps and dilations", {
        "dilate": ("minimal isometric dilation from a Choi CSV", _cmd_cp_dilate, 1e-10, "json", {
            "--choi": _REQUIRED, "--n": {**_CP_N, "help": "input dimension (default: sqrt)"}}),
        "kernel": ("evaluate the group-indexed CP kernel", _cmd_cp_kernel, None, "json", {
            "--choi": _REQUIRED, "--n": _CP_N, "--seed": _SEED}),
        "covderiv": ("CP connection formula vs generic pipeline", _cmd_cp_covderiv, 1e-6, None, {
            "--choi": _REQUIRED, "--n": _CP_N, "--seed": _SEED}),
    }),
}


def _add_options(p: argparse.ArgumentParser, options: dict, fn) -> None:
    """Add each option to p without its "min" and "max", which p records as its limits for main,
    beside its handler fn."""
    for option, keywords in options.items():
        p.add_argument(option, **{k: v for k, v in keywords.items() if k not in ("min", "max")})
    p.set_defaults(fn=fn, limits={o: (w.get("min"), w.get("max")) for o, w in options.items()
                           if "min" in w or "max" in w})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelconnect",
        description="Connections and covariant derivatives induced by "
                    "reproducing kernels, with cross-validation suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, subcommands) in _COMMANDS.items():
        leaves = sub.add_parser(command, help=help_).add_subparsers(dest="subcommand",
                                                                    required=True)
        for name, (help_, fn, tol, fmt, options) in subcommands.items():
            p = leaves.add_parser(name, help=help_)
            _add_options(p, options, fn)
            if fmt is not None:
                p.add_argument("--format", choices=("json", "csv"), default=fmt)
            p.add_argument("--output", **_OUTPUT)
            if tol is not None:
                p.add_argument("--tol", type=float, default=tol,
                               help="residual tolerance for the pass/fail verdict")

    ver = sub.add_parser("verify", help="run the cross-validation suites")
    ver.add_argument("target", nargs="*", default=[],
                     help=f"'all' or module names: {', '.join(kc.MODULE_NAMES)}")
    _add_options(ver, {"--seed": _SEED, "--output": _OUTPUT}, _cmd_verify)

    return parser


# options whose value may be a negative complex literal such as -0.4+0.3i
_LITERAL_OPTIONS = ("--point", "--point2", "--points", "--direction", "--start", "--end",
                    "--vector")


def _join_literal_values(argv) -> list:
    """Rewrite `--end -0.4+0.3i` as `--end=-0.4+0.3i`, which argparse reads as a value."""
    out = []
    for tok in argv:
        if out and out[-1] in _LITERAL_OPTIONS and tok.startswith("-"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _join_literal_values(sys.argv[1:] if argv is None else argv))
        tol = getattr(args, "tol", None)
        if tol is not None and not (np.isfinite(tol) and tol > 0):
            raise UsageError(f"tolerance must be finite and > 0, got {tol}")
        for option, (low, high) in args.limits.items():
            if (value := getattr(args, option[2:])) is not None:  # an unset cp --n: from the size
                _within(option, value, low, high)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ValueError, KeyError, MemoryError) as exc:
        # residual machinery failed outright, or numpy could not allocate: a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
