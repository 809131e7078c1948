"""Checks of each workload's outputs against the oracles.

Each check reads what the CLI wrote (CSV files, JSON sidecars and the JSON
it printed) and compares it with ``oracles`` or with a property the method
must have.  Nothing is compared with a stored copy of earlier output.
Failures are collected as messages; notes record what was checked and which
cells were set aside as tolerance traps.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles

# A cell whose deciding value (a membership quadratic, or the distance to
# the edge gamma = 2(1+beta)/L) is this close to zero, relative to its
# terms, may go either way under rounding; such cells are counted, not
# judged.
DECIDING_TOL = 1e-12
RATE_TOL = 1e-10
# Where the companion matrix is (nearly) defective the eigenvalues carry
# errors of order sqrt(machine epsilon).
DEFECTIVE_DISC = 1e-12
DEFECTIVE_RATE_TOL = 1e-7
CERTIFICATE_TOL = 1e-7
HIGHS_SAMPLE = 24


class Report:
    def __init__(self):
        self.failures: list[str] = []
        self.notes: dict = {}

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)


def read_parameters(path) -> dict:
    """The parameter echo of a CLI output's JSON sidecar."""
    with open(str(path) + ".meta.json") as fh:
        return json.load(fh)["parameters"]


def read_grid_csv(path):
    """Columns gamma, beta, value (NaN allowed) and tag of a sweep CSV."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "gamma,beta,value,tag":
        raise ValueError(f"unexpected header {header!r} in {path}")
    num = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2), ndmin=2)
    tags = np.loadtxt(path, delimiter=",", skiprows=1, usecols=3, dtype=str, ndmin=1)
    return num[:, 0], num[:, 1], num[:, 2], tags


def read_trace_csv(path):
    """(t, points (n, 2), dist_to_cycle) of a cycle-demo trace CSV."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1, usecols=(0, 1, 2, 3))
    return data[:, 0].astype(int), data[:, 1:3], data[:, 3]


def first_members(gamma, beta, mu, ell, k_max):
    """Oracle smallest roots-of-unity period per cell (0 if none) and trap mask.

    A cell is a trap when a quadratic up to its deciding period, or its
    distance to the edge, is within DECIDING_TOL of zero, relative to the
    size of the terms that make it up.
    """
    quads, scales = [], []
    for k in range(3, k_max + 1):
        terms = oracles.rou_quadratic_terms(gamma, beta, mu, ell, k)
        quads.append(sum(terms))
        scales.append(sum(np.abs(t) for t in terms))
    quads, scales = np.stack(quads), np.stack(scales)
    edge = oracles.convergence_edge(beta, ell)
    closure = (gamma > 0) & (beta >= 0) & (beta < 1) & (gamma <= edge)
    hit = quads <= 0
    first = np.where(closure & hit.any(axis=0), hit.argmax(axis=0) + 3, 0)
    upto = np.where(first > 0, first, k_max)
    periods = np.arange(3, k_max + 1)[:, None]
    near = (np.abs(quads) <= DECIDING_TOL * scales) & (periods <= upto)
    trap = near.any(axis=0) | (np.abs(gamma - edge) <= DECIDING_TOL * edge)
    return first, trap


def check_lp_sweep(rep: Report, out, printed, seed):
    """Member certificates, none cells against the quadratic, HiGHS sample."""
    # The certificates come from the program; run.py has put src/ on the path.
    from hbcycles.cycle_lp import lp_feasible
    from hbcycles.quad_rates import FunctionClass, HbParams

    path = out / "lp.csv"
    params = read_parameters(path)
    mu, ell, k_max = params["mu"], params["L"], params["k_max"]
    gamma, beta, value, tags = read_grid_csv(path)
    first, trap = first_members(gamma, beta, mu, ell, k_max)
    edge = oracles.convergence_edge(beta, ell)
    on_edge = np.abs(gamma - edge) <= DECIDING_TOL * edge
    fclass = FunctionClass(mu, ell)
    worst = -math.inf
    highs_pairs = []
    for i in np.flatnonzero(tags == "member"):
        g, b, k = float(gamma[i]), float(beta[i]), int(value[i])
        cert = lp_feasible(HbParams(g, b), fclass, k)
        rep.expect(cert is not None, f"lp-sweep: no certificate at ({g}, {b}, K={k})")
        if cert is None:
            continue
        viol, scale = oracles.interpolation_violations(
            cert.points, oracles.cycle_gradients(cert.points, g, b), np.zeros(k), mu, ell)
        rel = float(viol.max()) / scale
        worst = max(worst, rel)
        rep.expect(rel <= CERTIFICATE_TOL,
                   f"lp-sweep: certificate at ({g}, {b}, K={k}) violates by {rel:.3g}")
        # LP and roots-of-unity regions agree, except at traps.  The traps
        # include the edge gamma = 2(1+beta)/L, where x_t = (-1)^t cycles at
        # every even K.
        rep.expect(first[i] == k or trap[i],
                   f"lp-sweep: member ({g}, {b}) at K={k}, quadratic says {first[i]}")
        highs_pairs.append((i, k))
    for i in np.flatnonzero(tags == "none"):
        rep.expect(first[i] == 0 or trap[i],
                   f"lp-sweep: none cell ({gamma[i]}, {beta[i]}) is a K={first[i]} member")
    # Outside the convergence region the CLI tags "none" without an LP.
    rng = np.random.default_rng(seed)
    none_cells = np.flatnonzero((tags == "none") & (gamma > 0) & (gamma <= edge))
    sample = rng.choice(len(none_cells) * (k_max - 2), size=HIGHS_SAMPLE, replace=False)
    highs_pairs += [(none_cells[s // (k_max - 2)], 3 + s % (k_max - 2)) for s in sample]
    min_none = math.inf
    for i, k in highs_pairs:
        g, b = float(gamma[i]), float(beta[i])
        margin = oracles.highs_margin(oracles.cycle_lp_matrix(g, b, mu, ell, k))
        if tags[i] == "member":
            rep.expect(margin <= 1e-9, f"lp-sweep: HiGHS margin {margin} > 0 at member "
                                       f"({g}, {b}, K={k})")
        else:
            min_none = min(min_none, margin)
            rep.expect(margin > 0.0, f"lp-sweep: HiGHS margin {margin} <= 0 at none "
                                     f"({g}, {b}, K={k})")
    rep.notes["lp-sweep"] = {
        "cells": int(len(tags)),
        "tags": {t: int(np.sum(tags == t)) for t in sorted(set(tags))},
        "edge_members": int(np.sum(on_edge & (tags == "member"))),
        "worst_certificate_violation": worst,
        "highs_checks": len(highs_pairs),
        "min_highs_margin_none": min_none,
    }


def check_tube(rep: Report, out, printed, seed):
    """Every seeded run stays in the tube; the init-only run decays at rho(mu)."""
    robust = json.loads(printed["robustness"])
    rep.expect(robust["runs"] > 0 and robust["stayed_in_tube"] == robust["runs"],
               f"tube: {robust['stayed_in_tube']} of {robust['runs']} runs stayed in the tube")
    params = read_parameters(out / "decay.csv")
    decay = json.loads(printed["decay"])
    rho = float(oracles.companion_radius(params["gamma"], params["beta"], params["mu"]))
    rate = decay["residual_decay_rate"]
    rep.expect(rate is not None and abs(rate - rho) <= 2e-2,
               f"tube: decay rate {rate} against spectral radius {rho}")
    rep.expect(decay["stayed_in_tube"] is True, "tube: init-only run left the tube")
    t, pts, dist = read_trace_csv(out / "decay.csv")
    angle = 2.0 * math.pi * t / params["K"]
    ref = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    rep.expect(len(t) == params["steps"] + 2, f"tube: {len(t)} trace rows")
    rep.expect(np.allclose(np.linalg.norm(pts - ref, axis=1), dist, rtol=0, atol=1e-12),
               "tube: trace distances disagree with the roots-of-unity cycle")
    rep.expect(float(dist.max()) <= decay["r_max"], "tube: trace leaves the r_max ball")
    rep.notes["tube"] = {"stayed": robust["stayed_in_tube"], "decay_rate": rate,
                         "oracle_rho": rho}


def check_smooth(rep: Report, out, printed, seed):
    """Trace rows on the scaled cycle; verdict; tau scales as 1/lambda."""
    taus = {}
    worst = 0.0
    for name, text in printed.items():
        demo = json.loads(text)
        params = read_parameters(out / f"{name}.csv")
        lam = params["scale"]
        rep.expect(demo["verdict"] == "cycles", f"smooth-cycle: verdict {demo['verdict']} "
                                                f"at lambda={lam:g}")
        t, pts, _ = read_trace_csv(out / f"{name}.csv")
        rep.expect(len(t) == params["steps"] + 2,
                   f"smooth-cycle: {len(t)} trace rows at lambda={lam:g}")
        angle = 2.0 * math.pi * t / params["K"]
        ref = lam * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        dev = float(np.linalg.norm(pts - ref, axis=1).max())
        worst = max(worst, dev / lam)
        rep.expect(dev <= 1e-9 * lam, f"smooth-cycle: deviation {dev} at lambda={lam:g}")
        taus[lam] = demo["tau_estimate"]
    lo, hi = min(taus), max(taus)
    ratio = taus[lo] / taus[hi]
    rep.expect(abs(ratio / (hi / lo) - 1.0) <= 1e-6,
               f"smooth-cycle: tau ratio {ratio} against {hi / lo}")
    rep.notes["smooth-cycle"] = {"worst_relative_deviation": worst, "tau_ratio": ratio}


def check_rate_sweep(rep: Report, path):
    params = read_parameters(path)
    mu, ell = params["mu"], params["L"]
    gamma, beta, value, tags = read_grid_csv(path)
    rho = oracles.quadratic_rate(gamma, beta, mu, ell)
    disc = np.minimum(np.abs(oracles.companion_discriminant(gamma, beta, mu)),
                      np.abs(oracles.companion_discriminant(gamma, beta, ell)))
    tol = np.where(disc <= DEFECTIVE_DISC, DEFECTIVE_RATE_TOL, RATE_TOL)
    diverge = tags == "NoConvergence"
    rep.expect(np.all(np.isnan(value[diverge])), "rate: NoConvergence cell with a rate")
    rep.expect(np.all(rho[diverge] >= 1.0 - RATE_TOL), "rate: NoConvergence cell contracts")
    err = np.abs(value - rho)
    bad = ~diverge & ~(err <= tol)
    rep.expect(not bad.any(), f"rate: {int(bad.sum())} cells off the oracle, worst "
                              f"{float(err[~diverge].max()):.3g}")
    # Each region's rate is the one its name says.
    expected = {"Lazy": oracles.companion_radius(gamma, beta, mu),
                "KnifesEdge": oracles.companion_radius(gamma, beta, ell),
                "Robust": np.sqrt(np.maximum(beta, 0.0))}
    for tag, ref in expected.items():
        cells = tags == tag
        wrong = cells & ~(np.abs(value - ref) <= tol)
        rep.expect(not wrong.any(), f"rate: {int(wrong.sum())} {tag} cells off their rate")
    rep.expect(set(tags) <= set(expected) | {"NoConvergence"}, "rate: unknown tag")
    # The SVG raster has one rect per cell plus one legend swatch per tag.
    with open(str(path) + ".svg") as fh:
        svg = fh.read()
    rects = svg.count("<rect ")
    rep.expect(svg.startswith("<svg ") and svg.rstrip().endswith("</svg>"),
               "svg: not a complete document")
    rep.expect(rects == len(tags) + len(set(tags)), f"svg: {rects} rects for {len(tags)} cells")
    return {"cells": int(len(tags)), "worst_error": float(err[~diverge].max()),
            "defective_cells": int(np.sum(~diverge & (disc <= DEFECTIVE_DISC)))}


def check_rou_sweep(rep: Report, path):
    params = read_parameters(path)
    mu, ell, k_max = params["mu"], params["L"], params["k_max"]
    gamma, beta, value, tags = read_grid_csv(path)
    first, trap = first_members(gamma, beta, mu, ell, k_max)
    period = np.where(np.isnan(value), 0, value).astype(int)
    rep.expect(np.array_equal(tags == "member", period > 0), "rou-region: tag and period differ")
    bad = (period != first) & ~trap
    rep.expect(not bad.any(), f"rou-region: {int(bad.sum())} periods off the quadratic")
    return {"cells": int(len(tags)), "members": int(np.sum(period > 0)),
            "trap_cells": int(trap.sum())}


def check_overlay(rep: Report, path):
    """Empty fast-sublevel / non-cycling intersection, recomputed by the oracles."""
    with open(str(path) + ".meta.json") as fh:
        meta = json.load(fh)
    params, verdict = meta["parameters"], meta["verdict"]
    mu, ell, big_c, k_max = params["mu"], params["L"], params["C"], params["k_max"]
    rep.expect(verdict["empty_intersection"] is True and verdict["sls_cells"] > 0,
               f"sls-overlay mu={mu:g}: verdict {verdict}")
    gamma, beta, rho_csv, tags = read_grid_csv(path)
    ck = big_c * mu / ell
    target = (1.0 - ck) / (1.0 + ck)
    rho = oracles.quadratic_rate(gamma, beta, mu, ell)
    fast = (rho < 1.0) & (rho <= target)
    first, trap = first_members(gamma, beta, mu, ell, k_max)
    trap |= np.abs(rho - target) <= DEFECTIVE_RATE_TOL
    sls_tag = np.isin(tags, ("both", "sls-only"))
    cyc_tag = np.isin(tags, ("both", "cycle-only"))
    rep.expect(int(sls_tag.sum()) == verdict["sls_cells"],
               f"sls-overlay mu={mu:g}: sls_cells disagrees with the CSV")
    rep.expect(not np.any(tags == "sls-only"), f"sls-overlay mu={mu:g}: sls-only cells")
    rep.expect(not np.any((sls_tag != fast) & ~trap),
               f"sls-overlay mu={mu:g}: sublevel cells off the oracle rate")
    rep.expect(not np.any((cyc_tag != (first > 0)) & ~trap),
               f"sls-overlay mu={mu:g}: cycling cells off the quadratic")
    rep.expect(not np.any(fast & (first == 0) & ~trap),
               f"sls-overlay mu={mu:g}: oracle finds a fast non-cycling cell")
    return {"sls_cells": verdict["sls_cells"], "trap_cells": int(trap.sum())}


def check_landscape(rep: Report, out, printed, seed):
    rep.notes["landscape"] = {
        "rate": check_rate_sweep(rep, out / "rate.csv"),
        "rou-region": check_rou_sweep(rep, out / "rou.csv"),
        "overlay-3": check_overlay(rep, out / "overlay-3.csv"),
        "overlay-4": check_overlay(rep, out / "overlay-4.csv"),
    }
