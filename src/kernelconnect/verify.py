"""Cross-validation suites: every closed-form connection formula in the
library checked against independent numeric oracles at desk scale.

Each check is a named residual with a pinned tolerance; `run_suite` returns a
deterministic report (fixed seed => identical output) that the CLI serializes
to JSON.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import cpmaps, grassmann
from .connections import (
    Curve,
    Section,
    connection_form,
    covariant_derivative_direct,
    leibniz_residual,
    make_evaluator,
    parallel_transport,
)
from .numerics import directional_derivative
from .kernels import (
    VectorDomain,
    admissibility_report,
    make_bergman_disk,
    make_bergman_halfplane,
    make_fock,
    make_rank_one_kernel,
)
from .rkhs import build_rkhs, universality_residual

__all__ = ["run_suite", "grassmann_agreement", "MODULE_NAMES", "DISK_SIGN_NOTE"]

MODULE_NAMES = ("kernels", "rkhs", "connections", "grassmann", "cpmaps")

DISK_SIGN_NOTE = (
    "disk and half-plane connection forms ship with the sign confirmed by the "
    "direct-derivative oracle (+nu s conj(x)/(1-|s|^2) on the disk, value 4/3 "
    "at nu=2, s=0.5, x=1); conventions that differentiate the first kernel "
    "slot instead of the second yield the opposite sign for these two "
    "families, and that discrepancy is documented here rather than reproduced"
)


# h = 1e-4 keeps stencil truncation ~1e-12 even at |s| = 0.9 on the disk,
# where derivatives of (1 - conj(t)s)^(-nu) grow steeply
PROBE_STEP = 1e-4


def _disk_probes(rng, count, rmax=0.9):
    pts = []
    for _ in range(count):
        r = rmax * np.sqrt(rng.uniform())
        th = rng.uniform(0.0, 2.0 * np.pi)
        s = np.array([r * np.exp(1j * th)])
        x = np.array([rng.standard_normal() + 1j * rng.standard_normal()])
        pts.append((s, x))
    return pts


def _halfplane_probes(rng, count):
    pts = []
    for _ in range(count):
        s = np.array([rng.uniform(-1.0, 1.0) + 1j * rng.uniform(0.3, 1.5)])
        x = np.array([rng.standard_normal() + 1j * rng.standard_normal()])
        pts.append((s, x))
    return pts


def _fock_probes(rng, count, dim):
    pts = []
    for _ in range(count):
        s = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        pts.append((0.7 * s, x))
    return pts


def _scalar_test_section(dim, rng):
    c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    def f(s):
        z = np.asarray(s, dtype=complex)
        return np.array([1.0 + c @ z + d @ np.conj(z) + 0.1 * (c @ z) * (d @ np.conj(z))])

    def df(s, x):
        z = np.asarray(s, dtype=complex)
        w = np.asarray(x, dtype=complex)
        return np.array([c @ w + d @ np.conj(w)
                         + 0.1 * ((c @ w) * (d @ np.conj(z)) + (c @ z) * (d @ np.conj(w)))])

    return Section(F=f, dF=df)


def _check(name, module, residual, tolerance):
    return {
        "name": name,
        "module": module,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual < tolerance),
    }


# ---------------------------------------------------------------------------
# Individual blocks


def _backend_agreement_checks(seed):
    rng = np.random.default_rng(seed)
    kernels = [(make_bergman_disk(nu), _disk_probes(rng, 50)) for nu in (1, 2, 3)]
    for nu in (1, 2):
        kernels.append((make_bergman_halfplane(nu), _halfplane_probes(rng, 50)))
    kernels.append((make_fock(np.eye(3)), _fock_probes(rng, 50, 3)))

    checks = []
    for k, probes in kernels:
        dim = k.domain.dim
        sigma = _scalar_test_section(dim, rng)
        closed = make_evaluator(k, "closed-form", h=PROBE_STEP)
        direct = make_evaluator(k, "direct", h=PROBE_STEP)
        sampled = make_evaluator(k, "sampled", h=PROBE_STEP)
        res_cd = 0.0
        res_ds = 0.0
        for s, x in probes:
            d = direct(sigma, s, x)
            res_cd = max(res_cd, float(np.linalg.norm(closed(sigma, s, x) - d)))
            res_ds = max(res_ds, float(np.linalg.norm(sampled(sigma, s, x) - d)))
        checks.append(_check(f"backend_agreement/closed_vs_direct/{k.name}",
                             "connections", res_cd, 1e-8))
        checks.append(_check(f"backend_agreement/direct_vs_sampled/{k.name}",
                             "connections", res_ds, 1e-6))
    return checks


def _fock_form_check(seed):
    rng = np.random.default_rng(seed + 1)
    k = make_fock(np.eye(3))
    res = 0.0
    for s, x in _fock_probes(rng, 100, 3):
        alpha = connection_form(k, s)(x)[0, 0]
        expected = np.dot(s, np.conj(x))
        res = max(res, abs(alpha - expected))
    return [_check("fock/connection_form_matches_formula", "connections", res, 1e-8)]


def _disk_sign_checks(seed):
    rng = np.random.default_rng(seed + 2)
    k = make_bergman_disk(2)
    sigma = Section(F=lambda s: np.array([1.0 + 0j]), dF=lambda s, x: np.array([0.0 + 0j]))
    oracle = covariant_derivative_direct(k, sigma, np.array([0.5]), np.array([1.0]))
    res_value = abs(oracle[0] - 4.0 / 3.0)
    res_grid = 0.0
    for s, x in _disk_probes(rng, 40):
        alpha = connection_form(k, s)(x)[0, 0]
        direct = covariant_derivative_direct(k, sigma, s, x, h=PROBE_STEP)[0]
        res_grid = max(res_grid, abs(alpha - direct))
    return [
        _check("disk_sign/direct_oracle_value", "connections", res_value, 1e-6),
        _check("disk_sign/closed_form_matches_oracle_grid", "connections", res_grid, 1e-8),
    ]


def _universality_checks(seed):
    rng = np.random.default_rng(seed + 3)
    cases = []
    disk_pts = [np.array([z]) for z in
                (0.0, 0.3, -0.3, 0.2 + 0.4j, -0.1 - 0.5j, 0.6, 0.45j, -0.25 + 0.25j)]
    cases.append(("bergman-disk:nu=2", make_bergman_disk(2), disk_pts))
    half_pts = [np.array([z]) for z in
                (1j, 0.5 + 0.8j, -0.4 + 1.2j, 0.2 + 0.5j, -1.0 + 0.9j, 0.7 + 1.5j)]
    cases.append(("bergman-halfplane:nu=1", make_bergman_halfplane(1), half_pts))
    fock_pts = [0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
                for _ in range(6)]
    cases.append(("fock:dim=2", make_fock(np.eye(2)), fock_pts))

    q = grassmann.universal_kernel(4, 2)
    base = grassmann.coordinate_projector(4, 2)
    grass_pts = [base]
    for i in range(4):
        u = cpmaps.random_unitary(4, seed=seed + 100 + i)
        grass_pts.append(grassmann.HermitianProjector(u @ base.p @ u.conj().T, 2))
    cases.append(("universal:n=4,k=2", q, grass_pts))

    checks = []
    for name, k, pts in cases:
        r = build_rkhs(k, pts)
        checks.append(_check(f"universality/{name}", "rkhs",
                             universality_residual(r), 1e-8))
    return checks


def _admissibility_checks(seed):
    rng = np.random.default_rng(seed + 4)
    checks = []

    deg = make_rank_one_kernel(
        lambda s: np.array([1.0, complex(np.asarray(s).flat[0])]),
        fiber_dim=2, domain=VectorDomain(1, name="C"), name="rank-one-degenerate")
    pts = [np.array([z]) for z in (0.1, 0.4 - 0.2j, -0.3 + 0.1j, 0.25j)]
    rep = admissibility_report(deg, pts)
    worst = max(abs(rep["min_sigma"]), abs(rep["embedding_lower_bound"]))
    checks.append(_check("admissibility/rank_one_both_vanish", "kernels", worst, 1e-8))

    builtins = [
        (make_bergman_disk(2), [np.array([z]) for z in (0.0, 0.4, -0.3 + 0.2j, 0.5j)]),
        (make_bergman_halfplane(1), [np.array([z]) for z in (0.4j, 0.3 + 0.4j, -0.2 + 0.35j)]),
        (make_fock(np.eye(2)),
         [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]),
    ]
    for k, sample in builtins:
        rep = admissibility_report(k, sample)
        margin = min(rep["min_sigma"], rep["embedding_lower_bound"]) - 0.5
        checks.append(_check(f"admissibility/positive_margin/{k.name}", "kernels",
                             -margin, 0.0))
    return checks


def grassmann_agreement(n: int, k: int, probes: int, seed: int) -> dict:
    """Three-way covariant-derivative agreement on rank-k projectors in C^n.

    Compares the projected-differential formula, the reductive-splitting
    formula and the generic kernel pipeline on random probes, and checks
    metric compatibility; returns the two max residuals.
    """
    rng = np.random.default_rng(seed + 5)
    base = grassmann.coordinate_projector(n, k)
    q = grassmann.universal_kernel(n, k)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def f_ambient(pt):
        return pt.p @ v0

    def g_ambient(pt):
        return pt.p @ w0

    pair_res = 0.0
    metric_res = 0.0
    for i in range(probes):
        g = cpmaps.random_unitary(n, seed=seed + 200 + i)
        x = grassmann.random_grass_tangent(base, rng).generator
        point = grassmann.HermitianProjector(g @ base.p @ g.conj().T, k)
        a = g @ x @ g.conj().T
        tangent = grassmann.GrassTangent(point, a)

        univ = grassmann.universal_covariant_derivative(f_ambient, point, tangent)
        red = grassmann.reductive_covariant_derivative(f_ambient, g, x, base)
        b = grassmann.fiber_basis(point)
        sigma = Section(F=grassmann.grass_section_coordinates(f_ambient))
        generic = b @ covariant_derivative_direct(q, sigma, point, tangent)

        pair_res = max(pair_res,
                       float(np.linalg.norm(univ - red)),
                       float(np.linalg.norm(univ - generic)),
                       float(np.linalg.norm(red - generic)))

        gamma = q.domain.curve(point, tangent)
        d_inner = directional_derivative(
            lambda t: np.array([np.vdot(g_ambient(gamma(t)), f_ambient(gamma(t)))]))[0]
        nabla_g = grassmann.universal_covariant_derivative(g_ambient, point, tangent)
        expected = np.vdot(nabla_g, f_ambient(point)) + np.vdot(g_ambient(point), univ)
        metric_res = max(metric_res, abs(d_inner - expected))

    return {
        "three_way_residual": pair_res,
        "metric_compatibility_residual": float(metric_res),
    }


def _grassmann_checks(seed):
    rep = grassmann_agreement(4, 2, probes=20, seed=seed)
    return [
        _check("grassmann/three_way_agreement", "grassmann",
               rep["three_way_residual"], 1e-6),
        _check("grassmann/metric_compatibility", "grassmann",
               rep["metric_compatibility_residual"], 1e-6),
    ]


def _homogeneous_checks(seed):
    rng = np.random.default_rng(seed + 6)
    n = 3
    p = grassmann.coordinate_projector(n, 1)
    hk = grassmann.homogeneous_kernel(n, p)
    b = grassmann.fiber_basis(p)
    z0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def phi(u):
        return p.p @ (u.conj().T @ z0)

    sigma = Section(F=lambda u: b.conj().T @ phi(u))
    res = 0.0
    for i in range(20):
        u = cpmaps.random_unitary(n, seed=seed + 300 + i)
        x = grassmann.random_grass_tangent(p, rng).generator
        formula = grassmann.homogeneous_covariant_derivative(phi, p, u, x)
        generic = covariant_derivative_direct(hk, sigma, u, x)
        res = max(res, float(np.linalg.norm(b.conj().T @ formula - generic)))
    return [_check("homogeneous/formula_vs_generic", "grassmann", res, 1e-6)]


def _stinespring_checks(seed):
    rng = np.random.default_rng(seed + 7)
    iso_res = 0.0
    dil_res = 0.0
    rank_mismatch = 0
    for _ in range(20):
        psi = cpmaps.random_unital_cpmap(3, 2, n_kraus=4, rng=rng)
        triple = cpmaps.stinespring_dilate(psi)
        iso_res = max(iso_res, triple.isometry_residual())
        dil_res = max(dil_res, cpmaps.verify_dilation(psi, triple))
        values = np.linalg.eigvalsh(psi.choi)
        independent_rank = int(np.sum(values > 1e-10 * values[-1]))
        if triple.r != independent_rank:
            rank_mismatch += 1

    psi = cpmaps.random_unital_cpmap(3, 2, n_kraus=4, rng=rng)
    triple = cpmaps.stinespring_dilate(psi)
    pairs = [(cpmaps.random_unitary(3, seed=seed + 400 + i),
              cpmaps.random_unitary(3, seed=seed + 450 + i)) for i in range(8)]
    pull_res = cpmaps.pullback_identity_residual(psi, triple, pairs)

    ck = cpmaps.cp_kernel(psi)
    w0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)

    # section on the unitary group: constant part plus a Psi-transported part
    def sigma_fn(u):
        return w0 + psi.apply(u) @ (0.5 * w0)

    sigma = Section(F=sigma_fn)
    cov_res = 0.0
    for i in range(20):
        u = cpmaps.random_unitary(3, seed=seed + 500 + i)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.5 * (a - a.conj().T)
        lhs = cpmaps.cp_covariant_derivative(psi, sigma_fn, u, a)
        rhs = covariant_derivative_direct(ck, sigma, u, a)
        cov_res = max(cov_res, float(np.linalg.norm(lhs - rhs)))

    return [
        _check("stinespring/isometry", "cpmaps", iso_res, 1e-12),
        _check("stinespring/dilation_identity", "cpmaps", dil_res, 1e-10),
        _check("stinespring/rank_equals_choi_rank", "cpmaps", float(rank_mismatch), 1.0),
        _check("stinespring/pullback_identity", "cpmaps", pull_res, 1e-10),
        _check("stinespring/covariant_derivative_vs_generic", "cpmaps", cov_res, 1e-6),
    ]


def _leibniz_checks(seed):
    rng = np.random.default_rng(seed + 8)
    cases = [
        (make_bergman_disk(2), _disk_probes(rng, 30)),
        (make_bergman_halfplane(1), _halfplane_probes(rng, 30)),
        (make_fock(np.eye(2)), _fock_probes(rng, 30, 2)),
    ]
    checks = []
    for k, probes in cases:
        dim = k.domain.dim
        sigma = _scalar_test_section(dim, rng)
        a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

        def f(s, a=a, b=b):
            z = np.asarray(s, dtype=complex)
            return 0.5 + a @ z + b @ np.conj(z)

        for backend in ("closed-form", "direct", "sampled"):
            nabla = make_evaluator(k, backend, h=PROBE_STEP)
            res = leibniz_residual(nabla, f, sigma, probes, h=PROBE_STEP)
            checks.append(_check(f"leibniz/{k.name}/{backend}", "connections", res, 1e-6))
    return checks


def _transport_checks():
    k = make_bergman_disk(1)
    curve = Curve(gamma=lambda t: np.array([0.5 * t]),
                  velocity=lambda t: np.array([0.5 + 0j]))
    # alpha = s conj(x)/(1 - |s|^2) along s = t/2 integrates to -log(0.75)/2,
    # so transport carries 1 to exactly sqrt(0.75)
    exact = np.sqrt(0.75)
    steps = [64, 128, 256, 512]
    errors = [abs(parallel_transport(k, curve, np.array([1.0 + 0j]), steps=n)[0] - exact)
              for n in steps]
    slope = -np.polyfit(np.log2(steps), np.log2(errors), 1)[0]
    return [
        _check("transport/error_vs_exact", "connections", errors[-1], 1e-8),
        _check("transport/observed_order", "connections", 3.7 - slope, 0.0),
    ], float(slope)


def _reductive_checks(seed):
    rs = grassmann.ReductiveStructure(grassmann.coordinate_projector(4, 2))
    unitaries = []
    for i in range(20):
        u1 = cpmaps.random_unitary(2, seed=seed + 600 + 2 * i)
        u2 = cpmaps.random_unitary(2, seed=seed + 601 + 2 * i)
        unitaries.append(scipy.linalg.block_diag(u1, u2))
    res = grassmann.reductive_axioms_residual(rs, unitaries, n_probes=20, seed=seed)
    return [_check("reductive/axioms_residual", "grassmann", res, 1e-12)]


def run_suite(seed: int = 42, modules=None) -> dict:
    """Run the verification checks and return a deterministic report.

    `modules` restricts to a subset of MODULE_NAMES.
    """
    wanted = set(MODULE_NAMES if modules is None else modules)
    unknown = wanted - set(MODULE_NAMES)
    if unknown:
        raise ValueError(f"unknown modules: {sorted(unknown)}; choose from {MODULE_NAMES}")

    checks = []
    extras = {}
    if "kernels" in wanted:
        checks += _admissibility_checks(seed)
    if "rkhs" in wanted:
        checks += _universality_checks(seed)
    if "connections" in wanted:
        checks += _backend_agreement_checks(seed)
        checks += _fock_form_check(seed)
        checks += _disk_sign_checks(seed)
        checks += _leibniz_checks(seed)
        transport, slope = _transport_checks()
        checks += transport
        extras["transport_observed_order"] = slope
    if "grassmann" in wanted:
        checks += _grassmann_checks(seed)
        checks += _homogeneous_checks(seed)
        checks += _reductive_checks(seed)
    if "cpmaps" in wanted:
        checks += _stinespring_checks(seed)

    checks.sort(key=lambda c: c["name"])
    report = {
        "seed": seed,
        "modules": sorted(wanted),
        "checks": checks,
        "notes": [DISK_SIGN_NOTE],
        "passed": all(c["passed"] for c in checks),
    }
    report.update(extras)
    return report
