"""The four benchmark workloads, driven through kernelconnect's public functions.

Each workload has
  setup(kc, seed, i, tiny) -> inputs     kernels, samples, sections and CP maps of pass i
  run(kc, inputs, tr, gate) -> output    one pass; output["digest"] is its canonical bytes
  cli(kc, inputs) -> argv                its CLI command, run cold as `python -m kernelconnect`
  check_cli(kc, inputs, output, proc, tr, gate)
Every call into the library goes through `tr.call`, so a traced pass records
one span per call.  Every output is compared with a reference on `gate`:
residuals against pinned tolerances, bytes against bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

REF_SEED = 42  # the CLI's default seed; max_margin is evaluated on this input
H = 1e-4  # stencil step of the pointwise backends (verify's backend-agreement step)


class Gate:
    """Counts operations and their failures.

    An operation fails when it raises, when a residual is at or above its
    tolerance, when a CLI run exits nonzero, or when an output differs from
    its reference bytes.  `consistent` turns false only for the last kind
    (and for exceptions): the program contradicted itself, as opposed to
    reporting a residual it computed honestly.
    """

    def __init__(self, inject: bool = False):
        self.attempted = 0
        self.failed = 0
        self.consistent = True
        self.failures: list[str] = []
        self.margins: list[tuple[float, str]] = []
        self._inject = inject

    def _op(self, name: str, ok: bool) -> None:
        if self._inject:  # smoke test: the first operation is made to fail
            self._inject = False
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def check(self, name: str, residual: float, tolerance: float, claimed=None) -> None:
        """A residual gate; `claimed` is the program's own verdict, if it gave one."""
        residual = float(residual)
        ok = residual < tolerance
        if claimed is not None and bool(claimed) != ok:
            self.consistent = False
        if tolerance > 0:
            self.margins.append((residual / tolerance, name))
        self._op(name, ok)

    def require(self, name: str, ok: bool) -> None:
        self._op(name, bool(ok))

    def same(self, name: str, ok: bool) -> None:
        """An output that must equal its reference exactly."""
        if not ok:
            self.consistent = False
        self._op(name, bool(ok))

    def error(self, name: str) -> None:
        self.consistent = False
        self._op(name, False)


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest().encode()


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _cnormal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# Scalar built-in kernels: families, seeded samples and closed-form oracles.
# The oracles restate each kernel's formula in vectorized numpy, so they share
# no code with the library's evaluation path.

SCALAR = {  # family -> (spec, nu or dim)
    "disk": ("bergman-disk:nu=2", 2),
    "halfplane": ("bergman-halfplane:nu=1", 1),
    "fock": ("fock:dim=3", 3),
}


def _scalar_kernel(kc, family):
    _, p = SCALAR[family]
    if family == "disk":
        return kc.make_bergman_disk(p)
    if family == "halfplane":
        return kc.make_bergman_halfplane(p)
    return kc.make_fock(np.eye(p))


def _scalar_points(family, rng, n) -> list:
    if family == "disk":  # |s| <= 0.9, uniform in area
        z = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        return [np.array([v]) for v in z]
    if family == "halfplane":
        z = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(0.3, 1.5, n)
        return [np.array([v]) for v in z]
    return [0.5 * _cnormal(rng, SCALAR["fock"][1]) for _ in range(n)]


def _oracle(family, s_pts, t_pts) -> np.ndarray:
    """kappa(s, t) for all pairs, shape (len(s_pts), len(t_pts))."""
    s = np.array(s_pts)
    t = np.array(t_pts)
    nu = SCALAR[family][1]
    if family == "disk":
        return (1.0 - s[:, :1] * np.conj(t[:, 0])[None, :]) ** (-nu)
    if family == "halfplane":
        return 0.25 * (2.0j) ** nu * (s[:, :1] - np.conj(t[:, 0])[None, :]) ** (-nu)
    return np.exp(s @ np.conj(t).T)


def _form_oracle(family, s, x) -> complex:
    """The connection form d2kappa(s,s)(x) / kappa(s,s) of each family."""
    nu = SCALAR[family][1]
    if family == "disk":
        return nu * s[0] * np.conj(x[0]) / (1.0 - abs(s[0]) ** 2)
    if family == "halfplane":
        return nu * np.conj(x[0]) / (s[0] - np.conj(s[0]))
    return complex(np.dot(s, np.conj(x)))


def _poly_section(kc, rng, dim):
    """1 + c.z + d.conj(z) + 0.1 (c.z)(d.conj(z)), with its analytic differential."""
    c = _cnormal(rng, dim)
    d = _cnormal(rng, dim)

    def f(s):
        z = np.asarray(s, dtype=complex)
        return np.array([1.0 + c @ z + d @ np.conj(z) + 0.1 * (c @ z) * (d @ np.conj(z))])

    def df(s, x):
        z = np.asarray(s, dtype=complex)
        w = np.asarray(x, dtype=complex)
        return np.array([c @ w + d @ np.conj(w)
                         + 0.1 * ((c @ w) * (d @ np.conj(z)) + (c @ z) * (d @ np.conj(w)))])

    return kc.Section(F=f, dF=df)


def _segment(kc, start, end):
    # the same curve `connect transport` builds, so results agree bit for bit
    return kc.Curve(gamma=lambda t: (1.0 - t) * start + t * end,
                    velocity=lambda t: end - start)


def _metric_norm(family, s, v) -> float:
    """v* kappa(s,s) v, which parallel transport of a metric connection conserves."""
    return float(np.real(np.conj(v[0]) * _oracle(family, [s], [s])[0, 0] * v[0]))


def _points_arg(kc, pts) -> str:
    return ";".join(",".join(kc.format_complex(z) for z in p) for p in pts)


# ---------------------------------------------------------------------------
# verify-all: the report users run, split by module as `run_suite` allows.


def verify_setup(kc, seed, i, tiny):
    return seed + i


def verify_run(kc, seed, tr, gate):
    checks, extras, notes = [], {}, []
    for module in kc.MODULE_NAMES:
        rep = tr.call("verify.run_suite", kc.run_suite, seed, modules=[module], tag=module)
        gate.same(f"verify/{module}/verdict",
                  rep["passed"] == all(c["passed"] for c in rep["checks"]))
        checks += rep["checks"]
        notes = rep["notes"]
        extras.update({k: v for k, v in rep.items()
                       if k not in ("seed", "modules", "checks", "notes", "passed")})
    checks.sort(key=lambda c: c["name"])
    for c in checks:
        gate.check(f"verify/{c['name']}", c["residual"], c["tolerance"], claimed=c["passed"])
    tr.count("verify.checks", len(checks))
    report = {"seed": seed, "modules": sorted(kc.MODULE_NAMES), "checks": checks,
              "notes": notes, "passed": all(c["passed"] for c in checks), **extras}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return {"digest": text.encode(), "passed": report["passed"]}


def verify_cli(kc, seed):
    return ["verify", "all", "--seed", str(seed)]


def verify_check_cli(kc, seed, out, proc, tr, gate):
    gate.require("cli/verify/exit_code", proc.returncode == 0)
    # exit code contract: 0 when every residual passes, 1 otherwise
    gate.same("cli/verify/exit_code_matches_report", proc.returncode == (0 if out["passed"] else 1))
    gate.same("cli/verify/report_bytes", proc.stdout == out["digest"])


# ---------------------------------------------------------------------------
# rkhs-sample: finite-sample Hilbert-space work on the scalar built-ins.


def rkhs_setup(kc, seed, i, tiny):
    rng = _rng(seed, i)
    n_large, n_small, n_off = (8, 4, 2) if tiny else (64, 12, 8)
    out = {}
    for family in SCALAR:
        out[family] = {
            "kernel": _scalar_kernel(kc, family),
            "large": _scalar_points(family, rng, n_large),
            "small": _scalar_points(family, rng, n_small),
            "off": _scalar_points(family, rng, n_off),
            "coef": _cnormal(rng, n_large),
        }
    return out


def rkhs_run(kc, inp, tr, gate):
    parts = []
    result = {}
    for family, d in inp.items():
        k, pts, coef = d["kernel"], d["large"], d["coef"]
        n = len(pts)
        g = tr.call("kernels.gram_matrix", kc.gram_matrix, k, pts)
        want = _oracle(family, pts, pts)
        gate.check(f"rkhs-sample/gram_vs_formula/{family}", _rel(g, want), 1e-12)
        is_psd, lam_min = tr.call("kernels.positivity_certificate", kc.positivity_certificate, g)
        gate.require(f"rkhs-sample/gram_psd/{family}", is_psd)
        r = tr.call("rkhs.build_rkhs", kc.build_rkhs, k, pts)
        gate.same(f"rkhs-sample/build_gram_matches/{family}", np.array_equal(r.gram, g))
        tr.count("kernels.gram_entries", 2 * n * n)
        tr.count("kernels.gram_bytes", g.nbytes + r.gram.nbytes)

        if family == "disk":  # the Gram export `kernel gram --format csv` writes
            text = tr.call("numerics.matrix_to_csv_text", kc.matrix_to_csv_text, g)
            back = tr.call("numerics.matrix_from_csv_text", kc.matrix_from_csv_text, text)
            gate.same("rkhs-sample/csv_round_trip", np.array_equal(back, g))
            result["csv"] = text.encode()

        f = kc.RKHSElement(r, coef)
        values = np.array([tr.call("rkhs.evaluate_element", kc.evaluate_element, f, s)[0]
                           for s in d["off"]])
        rows = _oracle(family, d["off"], pts)
        scale = np.abs(rows) @ np.abs(coef)
        gate.check(f"rkhs-sample/evaluate_vs_formula/{family}",
                   np.max(np.abs(values - rows @ coef) / scale), 1e-12)

        # projecting onto the fiber at t_j must reproduce f(t_j) = (G c)_j
        fvals = want @ coef
        res = 0.0
        for j in range(min(4, n)):
            proj = tr.call("rkhs.project_fiber", kc.project_fiber, r, pts[j], f)
            c_j = proj.coefficients[j]
            res = max(res, abs(want[j, j] * c_j - fvals[j]) / (np.abs(want[j]) @ np.abs(coef)))
            parts.append(proj.coefficients)
        gate.check(f"rkhs-sample/projection_reproduces_value/{family}", res, 1e-12)

        rs = tr.call("rkhs.build_rkhs", kc.build_rkhs, k, d["small"])
        m = len(d["small"])
        tr.count("kernels.gram_entries", m * m)
        tr.count("kernels.gram_bytes", rs.gram.nbytes)
        univ = tr.call("rkhs.universality_residual", kc.universality_residual, rs)
        gate.check(f"rkhs-sample/universality/{family}", univ, 1e-8)
        rep = tr.call("kernels.admissibility_report", kc.admissibility_report, k, d["small"])
        top = np.max(np.abs(rs.gram))
        gate.check(f"rkhs-sample/admissibility_sigma_vs_embedding/{family}",
                   abs(rep["min_sigma"] - rep["embedding_lower_bound"]) / top, 1e-12)
        gate.check(f"rkhs-sample/admissibility_symmetry/{family}",
                   rep["hermitian_symmetry_residual"] / top, 1e-12)
        parts += [g, lam_min, values, univ, sorted(rep.items())]
    result["digest"] = _digest(*parts)
    return result


def rkhs_cli(kc, inp):
    return ["kernel", "gram", "--kernel", SCALAR["disk"][0],
            "--points=" + _points_arg(kc, inp["disk"]["large"]), "--format", "csv"]


def rkhs_check_cli(kc, inp, out, proc, tr, gate):
    gate.require("cli/kernel-gram/exit_code", proc.returncode == 0)
    gate.same("cli/kernel-gram/csv_bytes", proc.stdout == out["csv"])


# ---------------------------------------------------------------------------
# pointwise: single-point kernel, connection-form, covariant-derivative and
# transport calls on the scalar built-ins.

TRANSPORT_STEPS = (32, 64)  # RK4; a wrong connection form drifts by O(1)


def pointwise_setup(kc, seed, i, tiny):
    rng = _rng(seed, i)
    probes = 4 if tiny else 100
    out = {}
    for family in SCALAR:
        k = _scalar_kernel(kc, family)
        dim = k.domain.dim
        pts = _scalar_points(family, rng, probes + 2)
        dirs = [_cnormal(rng, dim) for _ in range(probes)]
        out[family] = {
            "kernel": k,
            "probes": list(zip(pts[:probes], dirs)),
            "segment": (pts[probes], pts[probes + 1]),
            "section": _poly_section(kc, rng, dim),
            "f": _poly_section(kc, rng, dim).F,
            "sampled": kc.make_evaluator(k, "sampled", h=H),
            "direct": kc.make_evaluator(k, "direct", h=H),
        }
    return out


def _form_at(kc, k, s, x):
    return kc.connection_form(k, s, h=H)(x)


def pointwise_run(kc, inp, tr, gate):
    parts = []
    for family, d in inp.items():
        k, sigma, probes = d["kernel"], d["section"], d["probes"]
        values, forms = [], []
        res_cd = res_ds = 0.0
        for j, (s, x) in enumerate(probes):
            t = probes[j - 1][0]
            values.append(tr.call("kernels.Kernel.__call__", k, s, t, tag=family)[0, 0])
            forms.append(tr.call("connections.connection_form", _form_at, kc, k, s, x)[0, 0])
            closed = tr.call("connections.covariant_derivative_closed_form",
                             kc.covariant_derivative_closed_form, k, sigma, s, x, h=H)
            direct = tr.call("connections.covariant_derivative_direct",
                             kc.covariant_derivative_direct, k, sigma, s, x, h=H)
            sampled = tr.call("connections.ConnectionEvaluator.__call__", d["sampled"],
                              sigma, s, x, tag="sampled")
            res_cd = max(res_cd, float(np.linalg.norm(closed - direct)))
            res_ds = max(res_ds, float(np.linalg.norm(direct - sampled)))
            parts += [closed, direct, sampled]
        pts = [s for s, _ in probes]
        want = np.array([_oracle(family, [s], [probes[j - 1][0]])[0, 0]
                         for j, s in enumerate(pts)])
        gate.check(f"pointwise/eval_vs_formula/{family}", _rel(values, want), 1e-12)
        want = np.array([_form_oracle(family, s, x) for s, x in probes])
        gate.check(f"pointwise/form_vs_formula/{family}", _rel(forms, want), 1e-12)
        gate.check(f"pointwise/closed_vs_direct/{family}", res_cd, 1e-8)
        gate.check(f"pointwise/direct_vs_sampled/{family}", res_ds, 1e-6)

        leib = tr.call("connections.leibniz_residual", kc.leibniz_residual, d["direct"],
                       lambda s: d["f"](s)[0], sigma, probes[:8], h=H)
        gate.check(f"pointwise/leibniz_direct/{family}", leib, 1e-6)

        start, end = d["segment"]
        v0 = np.ones(1, dtype=complex)
        ends = []
        for steps in TRANSPORT_STEPS:
            ends.append(tr.call("connections.parallel_transport", kc.parallel_transport, k,
                                _segment(kc, start, end), v0, steps, per=steps))
            tr.count("connections.rk4_stages", 4 * steps)
        n0 = _metric_norm(family, start, v0)
        gate.check(f"pointwise/transport_norm_drift/{family}",
                   abs(_metric_norm(family, end, ends[-1]) - n0) / n0, 1e-4)
        gate.check(f"pointwise/transport_step_halving/{family}",
                   abs(ends[0][0] - ends[1][0]) / abs(ends[1][0]), 1e-3)
        parts += [np.array(values), np.array(forms), leib, *ends]
    return {"digest": _digest(*parts)}


CLI_TRANSPORT_STEPS = 512


def pointwise_cli(kc, inp):
    start, end = inp["disk"]["segment"]
    return ["connect", "transport", "--kernel", SCALAR["disk"][0],
            "--start=" + _points_arg(kc, [start]), "--end=" + _points_arg(kc, [end]),
            "--steps", str(CLI_TRANSPORT_STEPS)]


def pointwise_check_cli(kc, inp, out, proc, tr, gate):
    gate.require("cli/connect-transport/exit_code", proc.returncode == 0)
    d = inp["disk"]
    start, end = d["segment"]
    v = kc.parallel_transport(d["kernel"], _segment(kc, start, end),
                              np.ones(1, dtype=complex), CLI_TRANSPORT_STEPS)
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        gate.same("cli/connect-transport/vector", False)
        return
    gate.same("cli/connect-transport/vector",
              report.get("vector") == [kc.format_complex(z) for z in v])
    n0 = _metric_norm("disk", start, np.ones(1))
    gate.check("cli/connect-transport/norm_drift",
               abs(_metric_norm("disk", end, v) - n0) / n0, 1e-8)


# ---------------------------------------------------------------------------
# geometry: matrix-valued kernels on projector manifolds and on U(n).

GRASS_N, GRASS_K = 6, 3
AGREEMENT_PROBES = 20  # the CLI's default, so the pass result is the CLI's reference


def geometry_setup(kc, seed, i, tiny):
    rng = _rng(seed, i)
    n_points, n_probes = (4, 2) if tiny else (8, 8)
    seeds = iter(int(v) for v in rng.integers(0, 2**31, size=1000))
    base = kc.coordinate_projector(GRASS_N, GRASS_K)

    def conj(u, p):
        return kc.HermitianProjector(u @ p.p @ u.conj().T, p.rank)

    points = [base] + [conj(kc.random_unitary(GRASS_N, next(seeds)), base)
                       for _ in range(n_points - 1)]
    grass_probes = []
    for _ in range(n_probes):
        g = kc.random_unitary(GRASS_N, next(seeds))
        x = kc.random_grass_tangent(base, rng).generator
        grass_probes.append((g, x))
    v0 = _cnormal(rng, GRASS_N)

    p1 = kc.coordinate_projector(3, 1)
    z0 = _cnormal(rng, 3)
    hom_probes = [(kc.random_unitary(3, next(seeds)), kc.random_grass_tangent(p1, rng).generator)
                  for _ in range(n_probes)]

    maps = [kc.random_unital_cpmap(3, 2, n_kraus=4, rng=rng) for _ in range(n_probes)]
    psi = maps[0]
    w0 = _cnormal(rng, 2)
    pairs = [(kc.random_unitary(3, next(seeds)), kc.random_unitary(3, next(seeds)))
             for _ in range(n_probes)]
    cp_dirs = []
    for _ in range(n_probes):
        a = _cnormal(rng, 3, 3)
        cp_dirs.append(0.5 * (a - a.conj().T))
    return {
        "q": kc.universal_kernel(GRASS_N, GRASS_K), "base": base, "points": points,
        "grass_probes": grass_probes, "f": lambda pt: pt.p @ v0,
        "agreement_seed": next(seeds),
        "p1": p1, "hk": kc.homogeneous_kernel(3, p1), "phi": lambda u: p1.p @ (u.conj().T @ z0),
        "hom_probes": hom_probes,
        "maps": maps, "psi": psi, "ck": kc.cp_kernel(psi), "pairs": pairs, "cp_dirs": cp_dirs,
        "sigma_cp": lambda u: w0 + psi.apply(u) @ (0.5 * w0),
    }


def geometry_run(kc, inp, tr, gate):
    q, points, f = inp["q"], inp["points"], inp["f"]
    parts = []

    r = tr.call("rkhs.build_rkhs", kc.build_rkhs, q, points)
    n = len(points) * GRASS_K
    tr.count("kernels.gram_entries", n * n)
    tr.count("kernels.gram_bytes", r.gram.nbytes)
    univ = tr.call("rkhs.universality_residual", kc.universality_residual, r)
    gate.check("geometry/universality/universal", univ, 1e-8)

    # gauge-invariant oracle: B_a kappa(a, b) B_b* = P_a P_b
    res = 0.0
    for a, b in zip(points, points[1:] + points[:1]):
        kab = tr.call("kernels.Kernel.__call__", q, a, b, tag="universal")
        ba = tr.call("grassmann.fiber_basis", kc.fiber_basis, a)
        bb = tr.call("grassmann.fiber_basis", kc.fiber_basis, b)
        res = max(res, float(np.linalg.norm(ba @ kab @ bb.conj().T - a.p @ b.p)),
                  float(np.linalg.norm(ba @ ba.conj().T - a.p)))
        parts.append(kab)
    gate.check("geometry/universal_kernel_vs_projectors", res, 1e-12)

    sigma = kc.Section(F=kc.grassmann.grass_section_coordinates(f))
    res = 0.0
    for g, x in inp["grass_probes"]:
        point = kc.HermitianProjector(g @ inp["base"].p @ g.conj().T, GRASS_K)
        tangent = kc.GrassTangent(point, g @ x @ g.conj().T)
        univ_d = tr.call("grassmann.universal_covariant_derivative",
                         kc.universal_covariant_derivative, f, point, tangent)
        red = tr.call("grassmann.reductive_covariant_derivative",
                      kc.reductive_covariant_derivative, f, g, x, inp["base"])
        b = tr.call("grassmann.fiber_basis", kc.fiber_basis, point)
        generic = b @ tr.call("connections.covariant_derivative_direct",
                              kc.covariant_derivative_direct, q, sigma, point, tangent,
                              tag="universal")
        res = max(res, float(np.linalg.norm(univ_d - red)),
                  float(np.linalg.norm(univ_d - generic)), float(np.linalg.norm(red - generic)))
        parts.append(univ_d)
    gate.check("geometry/grassmann_three_way", res, 1e-6)

    rep = tr.call("verify.grassmann_agreement", kc.verify.grassmann_agreement, GRASS_N, GRASS_K,
                  probes=AGREEMENT_PROBES, seed=inp["agreement_seed"])
    gate.check("geometry/agreement/three_way", rep["three_way_residual"], 1e-6)
    gate.check("geometry/agreement/metric_compatibility",
               rep["metric_compatibility_residual"], 1e-6)

    p1, phi = inp["p1"], inp["phi"]
    b1 = kc.fiber_basis(p1)
    sigma_h = kc.Section(F=lambda u: b1.conj().T @ phi(u))
    res = 0.0
    for u, x in inp["hom_probes"]:
        formula = tr.call("grassmann.homogeneous_covariant_derivative",
                          kc.homogeneous_covariant_derivative, phi, p1, u, x)
        generic = tr.call("connections.covariant_derivative_direct",
                          kc.covariant_derivative_direct, inp["hk"], sigma_h, u, x,
                          tag="homogeneous")
        res = max(res, float(np.linalg.norm(b1.conj().T @ formula - generic)))
        parts.append(formula)
    gate.check("geometry/homogeneous_vs_generic", res, 1e-6)

    iso = dil = 0.0
    for m in inp["maps"]:
        triple = tr.call("cpmaps.stinespring_dilate", kc.stinespring_dilate, m)
        iso = max(iso, triple.isometry_residual())
        dil = max(dil, kc.verify_dilation(m, triple))
        parts.append(triple.v)
    gate.check("geometry/stinespring_isometry", iso, 1e-12)
    gate.check("geometry/stinespring_dilation", dil, 1e-10)

    psi, ck = inp["psi"], inp["ck"]
    triple = kc.stinespring_dilate(psi)
    res = 0.0
    for u1, u2 in inp["pairs"]:
        value = tr.call("kernels.Kernel.__call__", ck, u1, u2, tag="cp")
        want = triple.v.conj().T @ triple.lam(u1.conj().T @ u2) @ triple.v
        res = max(res, float(np.linalg.norm(value - want)))
        parts.append(value)
    gate.check("geometry/cp_kernel_vs_dilation", res, 1e-10)

    sigma_cp = inp["sigma_cp"]
    res = 0.0
    for (u, _), a in zip(inp["pairs"], inp["cp_dirs"]):
        lhs = tr.call("cpmaps.cp_covariant_derivative", kc.cp_covariant_derivative,
                      psi, sigma_cp, u, a)
        rhs = tr.call("connections.covariant_derivative_direct", kc.covariant_derivative_direct,
                      ck, kc.Section(F=sigma_cp), u, a, tag="cp")
        res = max(res, float(np.linalg.norm(lhs - rhs)))
        parts.append(lhs)
    gate.check("geometry/cp_covariant_derivative_vs_generic", res, 1e-6)

    pull = tr.call("cpmaps.pullback_identity_residual", kc.pullback_identity_residual,
                   psi, triple, inp["pairs"])
    gate.check("geometry/pullback_identity", pull, 1e-10)

    parts += [univ, sorted(rep.items()), pull]
    return {"digest": _digest(*parts), "agreement": rep}


def geometry_cli(kc, inp):
    return ["grassmann", "verify", "--n", str(GRASS_N), "--k", str(GRASS_K),
            "--seed", str(inp["agreement_seed"])]


def geometry_check_cli(kc, inp, out, proc, tr, gate):
    gate.require("cli/grassmann-verify/exit_code", proc.returncode == 0)
    tol = 1e-6  # the command's default --tol
    rep = out["agreement"]
    want = dict(rep)
    want.update({"n": GRASS_N, "k": GRASS_K, "probes": AGREEMENT_PROBES,
                 "seed": inp["agreement_seed"], "tolerance": tol,
                 "passed": max(rep.values()) < tol})
    text = json.dumps(want, indent=2, sort_keys=True) + "\n"
    gate.same("cli/grassmann-verify/report_bytes", proc.stdout == text.encode())


@dataclass(frozen=True)
class Workload:
    """`passes_per_s` and `cli_per_s` size a run: a run of S seconds makes
    round(S * rate) passes and CLI runs, which takes about S seconds on the
    reference machine described in README.md."""

    name: str
    setup: Callable
    run: Callable
    cli: Callable
    check_cli: Callable
    passes_per_s: float
    cli_per_s: float


WORKLOADS = {w.name: w for w in (
    Workload("verify-all", verify_setup, verify_run, verify_cli, verify_check_cli, 0.25, 0.21),
    Workload("rkhs-sample", rkhs_setup, rkhs_run, rkhs_cli, rkhs_check_cli, 0.667, 0.233),
    Workload("pointwise", pointwise_setup, pointwise_run, pointwise_cli, pointwise_check_cli,
             0.5, 0.167),
    Workload("geometry", geometry_setup, geometry_run, geometry_cli, geometry_check_cli,
             1.4, 0.333),
)}
