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

from . import verify
from .connections import (
    Curve,
    Section,
    _transport,
    covariant_derivative_direct,
    make_evaluator,
)
from .cpmaps import (
    CPMap,
    cp_covariant_derivative,
    cp_kernel,
    random_unitary,
    stinespring_dilate,
    verify_dilation,
)
from .kernels import (
    DomainError,
    Kernel,
    gram_matrix,
    make_bergman_disk,
    make_bergman_halfplane,
    make_fock,
    positivity_certificate,
)
from .numerics import (
    DEFAULT_TOL,
    NumericsError,
    format_complex,
    matrix_to_csv_text,
    parse_complex,
    read_matrix_csv,
)
from .rkhs import build_rkhs, universality_residual

__all__ = ["main", "parse_kernel_spec", "KERNEL_SPEC_GRAMMAR"]

KERNEL_SPEC_GRAMMAR = (
    "kernel spec grammar: bergman-disk:nu=<real> | bergman-halfplane:nu=<real> "
    "| fock:dim=<int>"
)


class UsageError(ValueError):
    """Bad command-line input; reported with the accepted grammar, exit code 2."""


def _parse_fields(body: str) -> dict:
    fields = {}
    for part in body.split(","):
        if "=" not in part:
            raise UsageError(f"malformed kernel option {part!r}; {KERNEL_SPEC_GRAMMAR}")
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def parse_kernel_spec(spec: str) -> Kernel:
    """Build a kernel from its canonical spec string (see KERNEL_SPEC_GRAMMAR)."""
    head, sep, body = spec.partition(":")
    try:
        if head == "bergman-disk" and sep:
            return make_bergman_disk(float(_parse_fields(body)["nu"]))
        if head == "bergman-halfplane" and sep:
            return make_bergman_halfplane(float(_parse_fields(body)["nu"]))
        if head == "fock" and sep:
            return make_fock(np.eye(int(_parse_fields(body)["dim"])))
    except UsageError:
        raise
    except (KeyError, ValueError) as exc:
        raise UsageError(f"cannot parse kernel spec {spec!r}: {exc}; "
                         f"{KERNEL_SPEC_GRAMMAR}") from exc
    raise UsageError(f"unknown kernel spec {spec!r}; {KERNEL_SPEC_GRAMMAR}")


def _load_cpmap(path: str, n: int | None):
    try:
        choi = read_matrix_csv(path)
    except (OSError, NumericsError) as exc:  # unreadable, empty, ragged or unparsable
        raise UsageError(f"cannot read Choi CSV {path!r}: {exc}") from exc
    if choi.shape[0] != choi.shape[1]:
        raise UsageError(f"Choi matrix is not square: shape {choi.shape}")
    size = choi.shape[0]
    if n is None:
        n = int(round(np.sqrt(size)))
        if n * n != size:
            raise UsageError(
                f"Choi matrix of size {size} is not a perfect square; pass n= explicitly")
    if n < 1:
        raise UsageError(f"input dimension n must be >= 1, got {n}")
    if size % n != 0:
        raise UsageError(f"Choi size {size} is not divisible by n={n}")
    return CPMap(input_dim=n, output_dim=size // n, choi=choi)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([parse_complex(p) for p in text.split(",")])
    except NumericsError as exc:
        raise UsageError(str(exc)) from exc


def _parse_point(k: Kernel, text: str, base=None) -> np.ndarray:
    """Parse a point of k's domain, or a direction there when a base point is given."""
    v = _parse_vector(text)
    try:
        if base is None:
            k.domain.check_point(v)
        else:
            k.domain.check_tangent(base, v)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    return v


def _parse_points(k: Kernel, text: str) -> list:
    points = [_parse_point(k, part) for part in text.split(";") if part.strip()]
    if not points:
        raise UsageError(f"--points needs at least one point, got {text!r}")
    return points


def _vector_json(v) -> list:
    return [format_complex(z) for z in np.atleast_1d(np.asarray(v, dtype=complex))]


def _matrix_json(m) -> list:
    return [[format_complex(z) for z in row] for row in np.atleast_2d(m)]


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


def _builtin_section(name: str, k: Kernel) -> Section:
    ones = np.ones(k.fiber_dim, dtype=complex)
    if name == "constant":
        return Section(F=lambda s: ones)
    if name == "linear":
        return Section(F=lambda s: (1.0 + np.sum(np.asarray(s, dtype=complex))) * ones)
    raise UsageError(f"unknown section {name!r}; use constant | linear")


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the process exit code)


def _cmd_kernel_eval(args) -> int:
    k = parse_kernel_spec(args.kernel)
    s = _parse_point(k, args.point)
    t = _parse_point(k, args.point2) if args.point2 else s
    value = k(s, t)
    if args.format == "csv":
        _emit(matrix_to_csv_text(value), args.output)
    else:
        _emit_json({"kernel": k.name, "value": _matrix_json(value)}, args.output)
    return 0


def _cmd_kernel_gram(args) -> int:
    k = parse_kernel_spec(args.kernel)
    pts = _parse_points(k, args.points)
    gram = gram_matrix(k, pts)
    is_psd, min_eig = positivity_certificate(gram, tol=args.tol)
    if args.format == "csv":
        _emit(matrix_to_csv_text(gram), args.output)
    else:
        _emit_json({"kernel": k.name, "gram": _matrix_json(gram),
                    "is_psd": is_psd, "min_eigenvalue": min_eig,
                    "tolerance": args.tol}, args.output)
    return 0 if is_psd else 1


def _spectrum_json(r) -> dict:
    """min_eig and the condition number lambda_max / lambda_min (None unless lambda_min > 0)."""
    lo, hi = float(r.eigenvalues[0]), float(r.eigenvalues[-1])
    return {"min_eig": lo, "condition_number": hi / lo if lo > 0 else None}


def _cmd_rkhs_gram(args) -> int:
    k = parse_kernel_spec(args.kernel)
    r = build_rkhs(k, _parse_points(k, args.points))
    if args.format == "json":
        _emit_json({"kernel": k.name, "gram": _matrix_json(r.gram), **_spectrum_json(r)},
                   args.output)
    else:
        _emit(matrix_to_csv_text(r.gram), args.output)
    return 0


def _cmd_rkhs_universality(args) -> int:
    k = parse_kernel_spec(args.kernel)
    r = build_rkhs(k, _parse_points(k, args.points))
    residual = universality_residual(r)
    _emit_json({"residual": residual, **_spectrum_json(r),
                "tolerance": args.tol, "passed": residual < args.tol}, args.output)
    return 0 if residual < args.tol else 1


def _cmd_connect_covderiv(args) -> int:
    k = parse_kernel_spec(args.kernel)
    s = _parse_point(k, args.point)
    x = _parse_point(k, args.direction, base=s)
    sigma = _builtin_section(args.section, k)
    values = {name: make_evaluator(k, name)(sigma, s, x)
              for name in ("closed-form", "direct", "sampled")}
    spread = max(float(np.linalg.norm(values[a] - values[b]))
                 for a in values for b in values)
    scale = max(1.0, *(float(np.linalg.norm(v)) for v in values.values()))
    _emit_json({
        "closed": _vector_json(values["closed-form"]),
        "direct": _vector_json(values["direct"]),
        "sampled": _vector_json(values["sampled"]),
        "max_disagreement": spread,
        "tolerance": args.tol,
    }, args.output)
    return 0 if spread < args.tol * scale else 1


def _cmd_connect_transport(args) -> int:
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    k = parse_kernel_spec(args.kernel)
    start = _parse_point(k, args.start)
    end = _parse_point(k, args.end)
    v0 = _parse_vector(args.vector) if args.vector else np.ones(k.fiber_dim, dtype=complex)
    if v0.shape != (k.fiber_dim,):
        raise UsageError(f"--vector must have {k.fiber_dim} entries, got {v0.size}")
    curve = Curve(gamma=lambda t: (1.0 - t) * start + t * end,
                  velocity=lambda t: end - start)
    rungs = sorted({max(1, args.steps // d) for d in (8, 4, 2, 1)})
    coarse = rungs[-2] if len(rungs) > 1 else 2  # --steps 1 has no coarser rung: 2 steps stand in
    every = sorted({*rungs, coarse})
    vectors, ends = _transport(k, curve, v0, every)  # one jet for the whole ladder
    ladder = dict(zip(every, vectors))
    final = ladder[args.steps]  # metric_drift: v* kappa(s, s) v, which exact transport keeps
    start_norm, end_norm = (np.vdot(v, kss @ v).real for v, kss in zip((v0, final), ends))
    drift = abs(end_norm - start_norm) / start_norm if start_norm else 0.0
    # step doubling at the rate the ladder shows, at most RK4's (steps / coarse)^4
    own_error = float(np.linalg.norm(final - ladder[coarse]))
    if len(rungs) > 2 and own_error > 0:  # two rungs show no rate: keep the difference
        seen = float(np.linalg.norm(ladder[coarse] - ladder[rungs[-3]])) / own_error
        own_error /= max(min(seen, (args.steps / coarse) ** 4) - 1.0, 1.0)
    table = [(n, float(np.linalg.norm(ladder[n] - final))) for n in rungs[:-1]]
    table.append((args.steps, own_error))
    if args.format == "csv":
        lines = [",".join(format_complex(z) for z in final)]
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
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    if not 1 <= args.k <= args.n - 1:
        raise UsageError(f"--k must be between 1 and n-1 = {args.n - 1}, got {args.k}")
    if args.probes < 1:
        raise UsageError(f"--probes must be >= 1, got {args.probes}")
    rep = verify.grassmann_agreement(args.n, args.k, probes=args.probes, seed=args.seed)
    worst = max(rep.values())
    out = dict(rep)
    out.update({"n": args.n, "k": args.k, "probes": args.probes,
                "seed": args.seed, "tolerance": args.tol,
                "passed": worst < args.tol})
    _emit_json(out, args.output)
    return 0 if worst < args.tol else 1


def _cmd_cp_dilate(args) -> int:
    psi = _load_cpmap(args.choi, args.n)
    triple = stinespring_dilate(psi)
    iso = triple.isometry_residual()
    dil = verify_dilation(psi, triple)
    if args.format == "csv":
        _emit(matrix_to_csv_text(triple.v), args.output)
    else:
        _emit_json({
            "r": triple.r,
            "input_dim": psi.input_dim,
            "output_dim": psi.output_dim,
            "isometry_residual": iso,
            "dilation_residual": dil,
            "v": _matrix_json(triple.v),
            "tolerance": args.tol,
        }, args.output)
    return 0 if max(iso, dil) < args.tol else 1


def _cmd_cp_kernel(args) -> int:
    psi = _load_cpmap(args.choi, args.n)
    k = cp_kernel(psi)
    u1 = random_unitary(psi.input_dim, seed=args.seed)
    u2 = random_unitary(psi.input_dim, seed=args.seed + 1)
    value = k(u1, u2)
    if args.format == "csv":
        _emit(matrix_to_csv_text(value), args.output)
    else:
        _emit_json({"kernel": k.name, "seed": args.seed,
                    "value": _matrix_json(value)}, args.output)
    return 0


def _cmd_cp_covderiv(args) -> int:
    psi = _load_cpmap(args.choi, args.n)
    k = cp_kernel(psi)
    u = random_unitary(psi.input_dim, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    a = rng.standard_normal((psi.input_dim,) * 2) + 1j * rng.standard_normal(
        (psi.input_dim,) * 2)
    a = 0.5 * (a - a.conj().T)
    w0 = np.ones(psi.output_dim, dtype=complex)

    def sigma_fn(v):
        return w0 + psi.apply(v) @ (0.5 * w0)

    formula = cp_covariant_derivative(psi, sigma_fn, u, a)
    generic = covariant_derivative_direct(k, Section(F=sigma_fn), u, a)
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
    unknown = set(modules or ()) - set(verify.MODULE_NAMES)
    if unknown:
        raise UsageError(f"unknown modules: {sorted(unknown)}; choose from {verify.MODULE_NAMES}")
    report = verify.run_suite(seed=args.seed, modules=modules)
    _emit_json(report, args.output)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Argument parser


def _add_common(p, tol_default, formats: bool = True) -> None:
    """--output always; --format when the command has a CSV form; --tol when it has a verdict."""
    if formats:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write to this path instead of stdout")
    if tol_default is not None:
        p.add_argument("--tol", type=float, default=tol_default,
                       help="residual tolerance for the pass/fail verdict")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelconnect",
        description="Connections and covariant derivatives induced by "
                    "reproducing kernels, with cross-validation suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel", help="evaluate kernels and Gram matrices")
    ksub = kernel.add_subparsers(dest="subcommand", required=True)
    kev = ksub.add_parser("eval", help="evaluate kappa(s, t)")
    kev.add_argument("--kernel", required=True)
    kev.add_argument("--point", required=True, help="comma-separated a+bi literals")
    kev.add_argument("--point2", default=None, help="second point (defaults to --point)")
    _add_common(kev, None)
    kev.set_defaults(fn=_cmd_kernel_eval)
    kgr = ksub.add_parser("gram", help="block Gram matrix with PSD certificate")
    kgr.add_argument("--kernel", required=True)
    kgr.add_argument("--points", required=True,
                     help="semicolon-separated points, each comma-separated a+bi")
    _add_common(kgr, DEFAULT_TOL)
    kgr.set_defaults(fn=_cmd_kernel_gram)

    rkhs = sub.add_parser("rkhs", help="finite-sample Hilbert space diagnostics")
    rsub = rkhs.add_subparsers(dest="subcommand", required=True)
    rgr = rsub.add_parser("gram", help="emit the sampled Gram matrix")
    rgr.add_argument("--kernel", required=True)
    rgr.add_argument("--points", required=True)
    _add_common(rgr, None)
    rgr.set_defaults(fn=_cmd_rkhs_gram, format="csv")
    run = rsub.add_parser("universality", help="fiber-projection reproduction residual")
    run.add_argument("--kernel", required=True)
    run.add_argument("--points", required=True)
    _add_common(run, DEFAULT_TOL, formats=False)
    run.set_defaults(fn=_cmd_rkhs_universality)

    connect = sub.add_parser("connect", help="covariant derivatives and transport")
    csub = connect.add_subparsers(dest="subcommand", required=True)
    ccd = csub.add_parser("covderiv", help="compare the three backends at a probe")
    ccd.add_argument("--kernel", required=True)
    ccd.add_argument("--point", required=True)
    ccd.add_argument("--direction", required=True)
    ccd.add_argument("--section", default="constant", help="constant | linear")
    _add_common(ccd, 1e-6, formats=False)
    ccd.set_defaults(fn=_cmd_connect_covderiv)
    ctr = csub.add_parser("transport", help="parallel transport along a segment")
    ctr.add_argument("--kernel", required=True)
    ctr.add_argument("--start", required=True)
    ctr.add_argument("--end", required=True)
    ctr.add_argument("--vector", default=None, help="initial fiber vector (default: ones)")
    ctr.add_argument("--steps", type=int, default=256)
    _add_common(ctr, 1e-6)
    ctr.set_defaults(fn=_cmd_connect_transport)

    grass = sub.add_parser("grassmann", help="projector-manifold connection suites")
    gsub = grass.add_subparsers(dest="subcommand", required=True)
    gve = gsub.add_parser("verify", help="three-way covariant-derivative agreement")
    gve.add_argument("--n", type=int, default=4)
    gve.add_argument("--k", type=int, default=2)
    gve.add_argument("--probes", type=int, default=20)
    gve.add_argument("--seed", type=int, default=42)
    _add_common(gve, 1e-6, formats=False)
    gve.set_defaults(fn=_cmd_grassmann_verify)

    cp = sub.add_parser("cp", help="completely positive maps and dilations")
    psub = cp.add_subparsers(dest="subcommand", required=True)
    pdi = psub.add_parser("dilate", help="minimal isometric dilation from a Choi CSV")
    pdi.add_argument("--choi", required=True)
    pdi.add_argument("--n", type=int, default=None, help="input dimension (default: sqrt)")
    _add_common(pdi, 1e-10)
    pdi.set_defaults(fn=_cmd_cp_dilate)
    pke = psub.add_parser("kernel", help="evaluate the group-indexed CP kernel")
    pke.add_argument("--choi", required=True)
    pke.add_argument("--n", type=int, default=None)
    pke.add_argument("--seed", type=int, default=42)
    _add_common(pke, None)
    pke.set_defaults(fn=_cmd_cp_kernel)
    pcd = psub.add_parser("covderiv", help="CP connection formula vs generic pipeline")
    pcd.add_argument("--choi", required=True)
    pcd.add_argument("--n", type=int, default=None)
    pcd.add_argument("--seed", type=int, default=42)
    _add_common(pcd, 1e-6, formats=False)
    pcd.set_defaults(fn=_cmd_cp_covderiv)

    ver = sub.add_parser("verify", help="run the cross-validation suites")
    ver.add_argument("target", nargs="*", default=[],
                     help=f"'all' or module names: {', '.join(verify.MODULE_NAMES)}")
    ver.add_argument("--seed", type=int, default=42)
    _add_common(ver, None, formats=False)
    ver.set_defaults(fn=_cmd_verify)

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
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ValueError, KeyError) as exc:
        # residual machinery failed outright: report as a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
