"""Command-line front end: kernel spec parsing and residual-report emission.

Exit codes are a stable contract: 0 = all residuals within tolerance,
1 = a residual check failed, 2 = usage/config error.  A fixed seed makes
every report byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import verify
from .connections import (
    Curve,
    Section,
    covariant_derivative_direct,
    make_evaluator,
    parallel_transport,
)
from .cpmaps import (
    cp_covariant_derivative,
    cp_kernel,
    cpmap_from_choi,
    random_unitary,
    stinespring_dilate,
    verify_dilation,
)
from .grassmann import universal_kernel
from .kernels import (
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
    "| fock:dim=<int> | universal:n=<int>[,k=<int>] | cp:<choi.csv>[,n=<int>]"
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
        if head == "universal" and sep:
            fields = _parse_fields(body)
            n = int(fields["n"])
            k = int(fields.get("k", n // 2))
            return universal_kernel(n, k)
        if head == "cp" and sep:
            path, _, rest = body.partition(",")
            n = int(_parse_fields(rest)["n"]) if rest else None
            return cp_kernel(_load_cpmap(path, n))
    except UsageError:
        raise
    except (KeyError, ValueError) as exc:
        raise UsageError(f"cannot parse kernel spec {spec!r}: {exc}; "
                         f"{KERNEL_SPEC_GRAMMAR}") from exc
    raise UsageError(f"unknown kernel spec {spec!r}; {KERNEL_SPEC_GRAMMAR}")


def _load_cpmap(path: str, n: int | None):
    try:
        choi = read_matrix_csv(path)
    except OSError as exc:
        raise UsageError(f"cannot read Choi CSV {path!r}: {exc}") from exc
    size = choi.shape[0]
    if n is None:
        n = int(round(np.sqrt(size)))
        if n * n != size:
            raise UsageError(
                f"Choi matrix of size {size} is not a perfect square; pass n= explicitly")
    if size % n != 0:
        raise UsageError(f"Choi size {size} is not divisible by n={n}")
    return cpmap_from_choi(choi, input_dim=n, output_dim=size // n)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([parse_complex(p) for p in text.split(",")])
    except NumericsError as exc:
        raise UsageError(str(exc)) from exc


def _parse_points(text: str) -> list:
    return [_parse_vector(part) for part in text.split(";") if part.strip()]


def _vector_json(v) -> list:
    return [format_complex(z) for z in np.atleast_1d(np.asarray(v, dtype=complex))]


def _matrix_json(m) -> list:
    return [[format_complex(z) for z in row] for row in np.atleast_2d(m)]


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
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


def _global_tol() -> float:
    raw = os.environ.get("KERNEL_CONNECT_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise UsageError(f"KERNEL_CONNECT_TOL must be a float, got {raw!r}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the process exit code)


def _cmd_kernel_eval(args) -> int:
    k = parse_kernel_spec(args.kernel)
    s = _parse_vector(args.point)
    t = _parse_vector(args.point2) if args.point2 else s
    value = k(s, t)
    if args.format == "csv":
        _emit(matrix_to_csv_text(value), args.output)
    else:
        _emit_json({"kernel": k.name, "value": _matrix_json(value)}, args.output)
    return 0


def _cmd_kernel_gram(args) -> int:
    k = parse_kernel_spec(args.kernel)
    pts = _parse_points(args.points)
    gram = gram_matrix(k, pts)
    is_psd, min_eig = positivity_certificate(gram, tol=args.tol)
    if args.format == "csv":
        _emit(matrix_to_csv_text(gram), args.output)
    else:
        _emit_json({"kernel": k.name, "gram": _matrix_json(gram),
                    "is_psd": is_psd, "min_eigenvalue": min_eig,
                    "tolerance": args.tol}, args.output)
    return 0 if is_psd else 1


def _cmd_rkhs_gram(args) -> int:
    k = parse_kernel_spec(args.kernel)
    r = build_rkhs(k, _parse_points(args.points))
    if args.format == "json":
        _emit_json({"kernel": k.name, "gram": _matrix_json(r.gram)}, args.output)
    else:
        _emit(matrix_to_csv_text(r.gram), args.output)
    return 0


def _cmd_rkhs_universality(args) -> int:
    k = parse_kernel_spec(args.kernel)
    r = build_rkhs(k, _parse_points(args.points))
    _, min_eig = positivity_certificate(r.gram, tol=args.tol)
    residual = universality_residual(r)
    _emit_json({"residual": residual, "min_eig": min_eig,
                "tolerance": args.tol, "passed": residual < args.tol}, args.output)
    return 0 if residual < args.tol else 1


def _cmd_connect_covderiv(args) -> int:
    k = parse_kernel_spec(args.kernel)
    s = _parse_vector(args.point)
    x = _parse_vector(args.direction)
    sigma = _builtin_section(args.section, k)
    values = {name: make_evaluator(k, name)(sigma, s, x)
              for name in ("closed-form", "direct", "sampled")}
    spread = max(float(np.linalg.norm(values[a] - values[b]))
                 for a in values for b in values)
    _emit_json({
        "closed": _vector_json(values["closed-form"]),
        "direct": _vector_json(values["direct"]),
        "sampled": _vector_json(values["sampled"]),
        "max_disagreement": spread,
        "tolerance": args.tol,
    }, args.output)
    return 0 if spread < args.tol else 1


def _cmd_connect_transport(args) -> int:
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    k = parse_kernel_spec(args.kernel)
    start = _parse_vector(args.start)
    end = _parse_vector(args.end)
    v0 = _parse_vector(args.vector) if args.vector else np.ones(k.fiber_dim, dtype=complex)
    curve = Curve(gamma=lambda t: (1.0 - t) * start + t * end,
                  velocity=lambda t: end - start)
    reference = parallel_transport(k, curve, v0, steps=8 * args.steps)
    ladder = {n: parallel_transport(k, curve, v0, steps=n)
              for n in sorted({max(1, args.steps // d) for d in (8, 4, 2, 1)})}
    table = [(n, float(np.linalg.norm(v - reference))) for n, v in ladder.items()]
    final = ladder[args.steps]
    if args.format == "csv":
        lines = [",".join(format_complex(z) for z in final)]
        lines += [f"{n},{err:.17g}" for n, err in table]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit_json({
            "vector": _vector_json(final),
            "steps": args.steps,
            "convergence": [{"steps": n, "error": err} for n, err in table],
        }, args.output)
    return 0


def _cmd_grassmann_verify(args) -> int:
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    if not 1 <= args.k <= args.n - 1:
        raise UsageError(f"--k must be between 1 and n-1 = {args.n - 1}, got {args.k}")
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
    try:
        report = verify.run_suite(seed=args.seed, modules=modules)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit_json(report, args.output)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Argument parser


def _add_common(p, tol_default: float) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write to this path instead of stdout")
    p.add_argument("--tol", type=float, default=tol_default,
                   help="residual tolerance for the pass/fail verdict")


def build_parser(tol_default: float) -> argparse.ArgumentParser:
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
    _add_common(kev, tol_default)
    kev.set_defaults(fn=_cmd_kernel_eval)
    kgr = ksub.add_parser("gram", help="block Gram matrix with PSD certificate")
    kgr.add_argument("--kernel", required=True)
    kgr.add_argument("--points", required=True,
                     help="semicolon-separated points, each comma-separated a+bi")
    _add_common(kgr, tol_default)
    kgr.set_defaults(fn=_cmd_kernel_gram)

    rkhs = sub.add_parser("rkhs", help="finite-sample Hilbert space diagnostics")
    rsub = rkhs.add_subparsers(dest="subcommand", required=True)
    rgr = rsub.add_parser("gram", help="emit the sampled Gram matrix")
    rgr.add_argument("--kernel", required=True)
    rgr.add_argument("--points", required=True)
    _add_common(rgr, tol_default)
    rgr.set_defaults(fn=_cmd_rkhs_gram, format="csv")
    run = rsub.add_parser("universality", help="fiber-projection reproduction residual")
    run.add_argument("--kernel", required=True)
    run.add_argument("--points", required=True)
    _add_common(run, tol_default)
    run.set_defaults(fn=_cmd_rkhs_universality)

    connect = sub.add_parser("connect", help="covariant derivatives and transport")
    csub = connect.add_subparsers(dest="subcommand", required=True)
    ccd = csub.add_parser("covderiv", help="compare the three backends at a probe")
    ccd.add_argument("--kernel", required=True)
    ccd.add_argument("--point", required=True)
    ccd.add_argument("--direction", required=True)
    ccd.add_argument("--section", default="constant", help="constant | linear")
    _add_common(ccd, 1e-6)
    ccd.set_defaults(fn=_cmd_connect_covderiv)
    ctr = csub.add_parser("transport", help="parallel transport along a segment")
    ctr.add_argument("--kernel", required=True)
    ctr.add_argument("--start", required=True)
    ctr.add_argument("--end", required=True)
    ctr.add_argument("--vector", default=None, help="initial fiber vector (default: ones)")
    ctr.add_argument("--steps", type=int, default=256)
    _add_common(ctr, tol_default)
    ctr.set_defaults(fn=_cmd_connect_transport)

    grass = sub.add_parser("grassmann", help="projector-manifold connection suites")
    gsub = grass.add_subparsers(dest="subcommand", required=True)
    gve = gsub.add_parser("verify", help="three-way covariant-derivative agreement")
    gve.add_argument("--n", type=int, default=4)
    gve.add_argument("--k", type=int, default=2)
    gve.add_argument("--probes", type=int, default=20)
    gve.add_argument("--seed", type=int, default=42)
    _add_common(gve, 1e-6)
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
    _add_common(pke, tol_default)
    pke.set_defaults(fn=_cmd_cp_kernel)
    pcd = psub.add_parser("covderiv", help="CP connection formula vs generic pipeline")
    pcd.add_argument("--choi", required=True)
    pcd.add_argument("--n", type=int, default=None)
    pcd.add_argument("--seed", type=int, default=42)
    _add_common(pcd, 1e-6)
    pcd.set_defaults(fn=_cmd_cp_covderiv)

    ver = sub.add_parser("verify", help="run the cross-validation suites")
    ver.add_argument("target", nargs="*", default=[],
                     help=f"'all' or module names: {', '.join(verify.MODULE_NAMES)}")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--output", default=None)
    ver.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        tol_default = _global_tol()
        parser = build_parser(tol_default)
        args = parser.parse_args(argv)
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
