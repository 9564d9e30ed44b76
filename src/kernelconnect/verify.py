"""Cross-validation suites: every closed-form connection formula in the
library checked against independent numeric oracles at desk scale.

Each check is a named residual with a pinned tolerance; `run_suite` returns a
deterministic report (fixed seed => identical output) that the CLI serializes
to JSON.  `grassmann_agreement`, re-exported here, lives in grassmann.py, so that
`grassmann verify` loads none of verify, cpmaps and rkhs.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import MODULE_NAMES, cpmaps, grassmann
from .connections import (
    Curve,
    Section,
    _leibniz,
    _transport,
    connection_forms,
    make_evaluator,
)
from .kernels import (
    VectorDomain,
    admissibility_report,
    feature_kernel,
    make_bergman_disk,
    make_bergman_halfplane,
    make_fock,
)
from .grassmann import grassmann_agreement
from .numerics import _max_norm, _normals, _random_unitaries, random_unitary

__all__ = ["run_suite", "grassmann_agreement", "MODULE_NAMES", "DISK_SIGN_NOTE"]

DISK_SIGN_NOTE = (
    "disk and half-plane connection forms ship with the sign confirmed by the "
    "direct-derivative oracle (+nu s conj(x)/(1-|s|^2) on the disk, value 4/3 "
    "at nu=2, s=0.5, x=1); conventions that differentiate the first kernel "
    "slot instead of the second yield the opposite sign for these two "
    "families, and that discrepancy is documented here rather than reproduced"
)


def _probes(rng, count, point, dim=1, scale=1.0):
    """`count` probes: the (L, d) points scale * point(rng, count) and (L, d) directions, standard
    complex normal vectors in C^dim, each from one draw."""
    return scale * point(rng, count), _normals(rng, count, dim)


def _disk(rng, count):  # uniform in the disk of radius 0.9, (count, 1) from one draw
    u = rng.uniform((0.0, 0.0), (1.0, 2.0 * np.pi), (count, 2))
    return 0.9 * np.sqrt(u[:, :1]) * np.exp(1j * u[:, 1:])


def _halfplane(rng, count):
    u = rng.uniform((-1.0, 0.3), (1.0, 1.5), (count, 2))
    return u[:, :1] + 1j * u[:, 1:]


def _scalar_test_section(dim, rng, const=1.0, q=0.1):
    """sigma(z) = const + c.z + d.conj(z) + q (c.z)(d.conj(z)): `batch` and dF in real arithmetic,
    on a point or an (..., d) stack, each entry with its one-point bits; F its one-point case."""
    (cr, dr), (ci, di) = (cd := _normals(rng, 2, dim)).real, cd.imag

    def dots(z):  # c.z and d.conj(z), part by part
        zr, zi = z.real, z.imag
        return ((cr * zr - ci * zi).sum(-1), (cr * zi + ci * zr).sum(-1),
                (dr * zr + di * zi).sum(-1), (di * zr - dr * zi).sum(-1))

    def batch(z):
        ar, ai, br, bi = dots(z)
        out = np.empty(z.shape[:-1] + (1,), dtype=complex)
        out.real[..., 0] = const + ar + br + q * (ar * br - ai * bi)
        out.imag[..., 0] = ai + bi + q * (ar * bi + ai * br)
        return out

    def df(s, x):  # c.x + d.conj(x) + q ((c.x)(d.conj(s)) + (c.s)(d.conj(x)))
        (ar, ai, br, bi), (er, ei, fr, fi) = (dots(np.asarray(v, complex)) for v in (s, x))
        out = np.empty(np.shape(ar) + (1,), dtype=complex)
        out.real[..., 0] = er + fr + q * ((er * br - ei * bi) + (ar * fr - ai * fi))
        out.imag[..., 0] = ei + fi + q * ((er * bi + ei * br) + (ar * fi + ai * fr))
        return out

    return Section(F=lambda s: batch(np.asarray(s, dtype=complex).reshape(1, dim))[0], dF=df,
                   batch=batch)


def _check(name, residual, tolerance):  # run_suite stamps its module
    return {"name": name, "residual": float(residual), "tolerance": float(tolerance),
            "passed": bool(residual < tolerance)}


# ---------------------------------------------------------------------------
# Individual blocks


def _backend_agreement_checks(seed):
    rng = np.random.default_rng(seed)
    kernels = [(make_bergman_disk(nu), _probes(rng, 50, _disk)) for nu in (1, 2, 3)]
    for nu in (1, 2):
        kernels.append((make_bergman_halfplane(nu), _probes(rng, 50, _halfplane)))
    kernels.append((make_fock(np.eye(3)), _probes(rng, 50, partial(_normals, dim=3), 3, 0.7)))

    checks = []
    for k, probes in kernels:
        sigma = _scalar_test_section(k.domain.dim, rng)
        closed, direct, sampled = (make_evaluator(k, b).evaluate(sigma, *probes)
                                   for b in ("closed-form", "direct", "sampled"))
        checks.append(_check(f"backend_agreement/closed_vs_direct/{k.name}",
                             _max_norm(closed - direct), 1e-8))
        checks.append(_check(f"backend_agreement/direct_vs_sampled/{k.name}",
                             _max_norm(sampled - direct), 1e-6))
    return checks


def _fock_form_check(seed):
    rng = np.random.default_rng(seed + 1)
    k = make_fock(np.eye(3))
    s, x = _probes(rng, 100, partial(_normals, dim=3), 3, 0.7)
    res = np.max(np.abs(connection_forms(k, s, x)[:, 0, 0] - (s * np.conj(x)).sum(-1)))
    return [_check("fock/connection_form_matches_formula", res, 1e-8)]


def _disk_sign_checks(seed):
    rng = np.random.default_rng(seed + 2)
    k = make_bergman_disk(2)
    sigma = Section(F=lambda s: np.array([1.0 + 0j]), dF=lambda s, x: np.array([0.0 + 0j]))
    oracle = make_evaluator(k, "direct")
    res_value = abs(oracle(sigma, np.array([0.5]), np.array([1.0]))[0] - 4.0 / 3.0)
    probes = _probes(rng, 40, _disk)
    direct = oracle.evaluate(sigma, *probes)[:, 0]
    res_grid = np.max(np.abs(connection_forms(k, *probes)[:, 0, 0] - direct))
    return [_check("disk_sign/direct_oracle_value", res_value, 1e-6),
            _check("disk_sign/closed_form_matches_oracle_grid", res_grid, 1e-8)]


def _admissibility_checks(seed):
    rng = np.random.default_rng(seed + 4)
    checks = []

    # kappa(s, t) = a(s) a(t)*, a(s) = (1, s): the feature map is the 1 x 2 row a(s)*
    deg = feature_kernel(lambda s: np.array([[1.0, np.conj(s[0])]]), 2, VectorDomain(1, name="C"),
                         "rank-one-degenerate")
    pts = [np.array([z]) for z in (0.1, 0.4 - 0.2j, -0.3 + 0.1j, 0.25j)]
    worst = abs(admissibility_report(deg, pts)["min_sigma"])
    checks.append(_check("admissibility/rank_one_both_vanish", worst, 1e-8))

    builtins = [
        (make_bergman_disk(2), [np.array([z]) for z in (0.0, 0.4, -0.3 + 0.2j, 0.5j)]),
        (make_bergman_halfplane(1), [np.array([z]) for z in (0.4j, 0.3 + 0.4j, -0.2 + 0.35j)]),
        (make_fock(np.eye(2)), _normals(rng, 4, 2)),
    ]
    for k, sample in builtins:
        margin = admissibility_report(k, sample)["min_sigma"] - 0.5
        checks.append(_check(f"admissibility/positive_margin/{k.name}", -margin, 0.0))
    return checks


def _grassmann_checks(seed):
    rep = grassmann_agreement(4, 2, probes=20, seed=seed)
    return [_check("grassmann/three_way_agreement", rep["three_way_residual"], 1e-6),
            _check("grassmann/metric_compatibility", rep["metric_compatibility_residual"], 1e-6)]


def _homogeneous_checks(seed):
    rng = np.random.default_rng(seed + 6)
    n = 3
    p = grassmann.coordinate_projector(n, 1)
    hk = grassmann.homogeneous_kernel(n, p)
    b = grassmann.fiber_basis(p)
    (z0,) = _normals(rng, 1, n)

    def phi(u):  # P u* z0 at u, or at each member of an (..., n, n) stack with its one-point bits
        return (p.p @ (u.conj().swapaxes(-1, -2) @ z0)[..., None])[..., 0]

    def coords(u):  # B* phi(u), the same way
        return (b.conj().T @ phi(u)[..., None])[..., 0]

    us = _random_unitaries(n, range(seed + 300, seed + 320))
    xs = grassmann._random_generators(p, rng, len(us))
    generic = make_evaluator(hk, "direct").evaluate(Section(F=coords, batch=coords), us, xs)
    formulas = grassmann._homogeneous(Section(F=phi, batch=phi), p, us, xs)
    res = _max_norm((b.conj().T @ formulas[..., None])[..., 0] - generic)
    return [_check("homogeneous/formula_vs_generic", res, 1e-6)]


def _stinespring_checks(seed):
    rng = np.random.default_rng(seed + 7)
    *maps, psi = cpmaps._random_unital_cpmaps(3, 2, 4, rng, 21)  # 20 dilated, one for the kernel
    values = np.linalg.eigvalsh(np.array([p.choi for p in maps]))
    independent_ranks = (values > 1e-10 * values[:, -1:]).sum(-1)
    rank_mismatch = np.count_nonzero(independent_ranks != [p.choi_rank for p in maps])
    (triples, iso_res), triple = cpmaps._dilate(maps), cpmaps.stinespring_dilate(psi)
    dil_res = cpmaps._dilation_residual(maps, triples)
    u = _random_unitaries(3, [*range(seed + 400, seed + 408), *range(seed + 450, seed + 458),
                              *range(seed + 500, seed + 520)])
    pull_res = cpmaps.pullback_identity_residual(psi, triple, list(zip(u[:8], u[8:16])))

    (w0,) = _normals(rng, 1, 2)

    # section on the unitary group: constant part plus a Psi-transported part
    def sigma_fn(u):
        return w0 + psi.apply(u) @ (0.5 * w0)

    sigma = Section(F=sigma_fn, batch=sigma_fn)  # Psi applies to a stack, member by member
    us = u[16:]
    a = _normals(rng, len(us), (3, 3))
    xs = 0.5 * (a - a.conj().swapaxes(-1, -2))
    generic = make_evaluator(cpmaps.cp_kernel(psi), "direct").evaluate(sigma, us, xs)
    cov_res = _max_norm(cpmaps._cp_covariant(psi, sigma, us, xs) - generic)

    return [_check("stinespring/isometry", iso_res, 1e-12),
            _check("stinespring/dilation_identity", dil_res, 1e-10),
            _check("stinespring/rank_equals_choi_rank", float(rank_mismatch), 1.0),
            _check("stinespring/pullback_identity", pull_res, 1e-10),
            _check("stinespring/covariant_derivative_vs_generic", cov_res, 1e-6)]


def _leibniz_checks(seed):
    rng = np.random.default_rng(seed + 8)
    cases = [
        (make_bergman_disk(2), _probes(rng, 30, _disk)),
        (make_bergman_halfplane(1), _probes(rng, 30, _halfplane)),
        (make_fock(np.eye(2)), _probes(rng, 30, partial(_normals, dim=2), 2, 0.7)),
    ]
    checks = []
    for k, probes in cases:
        sigma = _scalar_test_section(k.domain.dim, rng)
        f = _scalar_test_section(k.domain.dim, rng, 0.5, 0.0)  # 0.5 + a.z + b.conj(z)
        backends = ("closed-form", "direct", "sampled")
        residuals = _leibniz([make_evaluator(k, b) for b in backends], f, sigma, list(zip(*probes)))
        checks += [_check(f"leibniz/{k.name}/{b}", r, 1e-6) for b, r in zip(backends, residuals)]
    return checks


def _transport_checks(seed):  # exact transport: no random draw, so the seed is unused
    k = make_bergman_disk(1)
    curve = Curve(gamma=lambda t: np.array([0.5 * t]), velocity=lambda t: np.array([0.5 + 0j]),
                  batch=lambda t: ((0.5 * t)[:, None], np.full((len(t), 1), 0.5 + 0j)))
    # alpha = s conj(x)/(1 - |s|^2) along s = t/2 integrates to -log(0.75)/2,
    # so transport carries 1 to exactly sqrt(0.75)
    exact, steps = np.sqrt(0.75), [64, 128, 256, 512]
    errors = [abs(_transport(k, curve, np.array([1.0 + 0j]), n)[0][0] - exact) for n in steps]
    slope = -np.polyfit(np.log2(steps), np.log2(errors), 1)[0]
    return [_check("transport/error_vs_exact", errors[-1], 1e-8),
            _check("transport/observed_order", 3.7 - slope, 0.0)], float(slope)


def _reductive_checks(seed):
    # a rotated projector: at a coordinate one with block unitaries every product is exact
    u = random_unitary(4, seed=seed + 700)
    base = grassmann.coordinate_projector(4, 2)
    (point,) = grassmann._orbit(u, base.p, grassmann.fiber_basis(base), 2)
    blocks = _random_unitaries(2, range(seed + 600, seed + 640))  # u1, u2 of 20 unitaries
    unitaries = np.zeros((20, 4, 4), dtype=complex)
    unitaries[:, :2, :2], unitaries[:, 2:, 2:] = blocks[0::2], blocks[1::2]
    res = grassmann.reductive_axioms_residual(point, u @ unitaries @ u.conj().T, n_probes=20,
                                              seed=seed)
    return [_check("reductive/axioms_residual", res, 1e-12)]


# module -> its blocks in run_suite's order, each a function of the seed that returns its checks
# (_transport_checks: its checks and the observed order)
BLOCKS = {
    "kernels": (_admissibility_checks,),
    "rkhs": (),  # none yet: the module stays a target that reports no checks
    "connections": (_backend_agreement_checks, _fock_form_check, _disk_sign_checks,
                    _leibniz_checks, _transport_checks),
    "grassmann": (_grassmann_checks, _homogeneous_checks, _reductive_checks),
    "cpmaps": (_stinespring_checks,),
}


def run_suite(seed: int = 42, modules=None) -> dict:
    """Run the verification checks and return a deterministic report.

    `modules` restricts to a subset of MODULE_NAMES.
    """
    wanted = set(MODULE_NAMES if modules is None else modules)
    unknown = wanted - set(MODULE_NAMES)
    if unknown:
        raise ValueError(f"unknown modules: {sorted(unknown)}; choose from {MODULE_NAMES}")

    checks, extras = [], {}
    for module, blocks in BLOCKS.items():
        for block in blocks if module in wanted else ():
            found = block(seed)
            if block is _transport_checks:  # the one block with a figure beside its checks
                found, extras["transport_observed_order"] = found
            checks += [dict(c, module=module) for c in found]

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
