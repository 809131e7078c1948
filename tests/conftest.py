"""Shared oracles and fixtures.

The brute-force rate oracle evaluates the spectral radius of the 2x2
companion matrix over a lambda grid and is kept independent of the
closed-form implementation it checks.  The numpy heavy-ball loop and the
(1, 2)-array counterexample gradient are the bit-for-bit references of
the float step of ``run`` and of the float gradient kernel.  The
sequential perturbed run is the one-point-per-step loop that the batched
tube engine must reproduce, and the (n, K, 2) all-edge projection kernel
and the per-edge array form of the cell margin are the oracles of their
sector-indexed forms: the same
bits inside the polygon and on edge interiors (the same edge, the same
expressions), and agreement to rounding elsewhere.  The
row-at-a-time CSV writers, the SVG renderer that re-reads its CSV and the
full-grid membership loop are the output and membership code the array
forms must reproduce byte for byte.
The rational closed form of beta_minus and the one-sided membership search
are second derivations of what ``rou_region`` computes.
"""

import csv
import math

import numpy as np
import pytest

from hbcycles.cli import _TAG_COLORS
from hbcycles.hb_engine import noise_budget
from hbcycles.quad_rates import BOUNDARY_TOL, FunctionClass, HbParams
from hbcycles.rou_region import (
    CounterexampleFunction,
    beta_minus,
    membership_polynomial,
    polygon_project_batch,
    rou_cycle,
)


def companion_spectral_radius(gamma, beta, lam):
    """Spectral radius of [[1+beta-gamma*lam, -beta], [1, 0]]."""
    half_trace = (1.0 + beta - gamma * lam) / 2.0
    disc = half_trace * half_trace - beta
    if disc >= 0.0:
        root = np.sqrt(disc)
        return max(abs(half_trace + root), abs(half_trace - root))
    return np.sqrt(beta)


def brute_force_rate(gamma, beta, mu, L, n_lambda=101):
    """Worst spectral radius over a lambda grid including both endpoints."""
    lams = np.linspace(mu, L, n_lambda)
    return max(companion_spectral_radius(gamma, beta, lam) for lam in lams)


def brute_force_rate_grid(gammas, betas, mu, L, n_lambda=101):
    """Vectorized brute-force oracle over broadcast (gamma, beta) arrays."""
    g = np.asarray(gammas, dtype=float)[..., None]
    b = np.asarray(betas, dtype=float)[..., None]
    lam = np.linspace(mu, L, n_lambda)
    half_trace = (1.0 + b - g * lam) / 2.0
    disc = half_trace**2 - b
    real = disc >= 0
    root = np.sqrt(np.where(real, disc, 0.0))
    radius = np.where(real,
                      np.maximum(np.abs(half_trace + root), np.abs(half_trace - root)),
                      np.sqrt(np.where(real, 1.0, np.maximum(b, 0.0))))
    return radius.max(axis=-1)


def central_difference_grad(value_fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (value_fn(x + e) - value_fn(x - e)) / (2.0 * h)
    return out


@pytest.fixture(scope="session")
def fig4_setup():
    """The standard period-7 demonstration point and its counterexample."""
    from hbcycles.rou_region import build_counterexample

    c = FunctionClass(0.005, 1.0)
    p = HbParams(3.5, 0.75)
    ce = build_counterexample(p, c, 7)
    return p, c, ce


@pytest.fixture(scope="session")
def interior_setup():
    """A strictly interior period-7 member (off the convergence-region edge)."""
    from hbcycles.rou_region import build_counterexample

    c = FunctionClass(0.005, 1.0)
    p = HbParams(3.3, 0.75)
    ce = build_counterexample(p, c, 7)
    return p, c, ce


def sequential_perturbed_run(ce, c, p, k, noise, steps):
    """One perturbed run, one point per step: the reference for the batch.

    The per-step loop the engine ran before it was batched, with the same
    draw order: normal(4) for the start, then per step the gamma, beta,
    angle and radius uniforms.  Returns (iterates, params_used, max_dev,
    stayed), max_dev the largest ||z_t - cycle[t mod K]||.
    """
    budget = noise_budget(p, c, ce)
    rng = np.random.default_rng(noise.seed)
    cyc = rou_cycle(k)
    fn = CounterexampleFunction(ce, c)
    offset = rng.normal(size=4)
    offset *= noise.init_radius * budget["init_norm"] / np.linalg.norm(offset)
    zs = np.empty((steps + 2, 2))
    zs[0] = cyc.points[0] + offset[:2]
    zs[1] = cyc.points[1] + offset[2:]
    params = np.empty((steps, 2))
    adversarial = noise.mode == "adversarial-sign"
    for t in range(1, steps + 1):
        grad = fn.grad(zs[t])
        momentum = zs[t] - zs[t - 1]
        if adversarial:
            base_next = zs[t] - p.gamma * grad + p.beta * momentum
            residual = base_next - cyc.points[(t + 1) % k]
            rnorm = np.linalg.norm(residual)
            direction = residual / rnorm if rnorm > 0 else np.array([1.0, 0.0])
            align_g = float(np.dot(grad, direction))
            align_m = float(np.dot(momentum, direction))
            dgamma = -noise.gamma_jitter * (1.0 if align_g >= 0 else -1.0)
            dbeta = noise.beta_jitter * (1.0 if align_m >= 0 else -1.0)
            dgrad = -noise.grad_noise * direction
        else:
            dgamma = rng.uniform(-noise.gamma_jitter, noise.gamma_jitter)
            dbeta = rng.uniform(-noise.beta_jitter, noise.beta_jitter)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            radius = noise.grad_noise * math.sqrt(rng.uniform())
            dgrad = radius * np.array([math.cos(angle), math.sin(angle)])
        gamma_t = p.gamma + dgamma
        beta_t = p.beta + dbeta
        params[t - 1] = (gamma_t, beta_t)
        zs[t + 1] = zs[t] - gamma_t * (grad + dgrad) + beta_t * momentum
    max_dev = float(np.max(np.linalg.norm(
        zs - cyc.points[np.arange(steps + 2) % k], axis=1)))
    return zs, params, max_dev, max_dev <= ce.r_max * (1.0 + 1e-12)


def numpy_run(oracle, p, x0, x1, steps):
    """``hb_engine.run`` as first written, one numpy row expression per
    step: the reference for the float step.  Returns (iterates,
    params_used, grad_calls, truncated)."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    zs = np.empty((steps + 2, x0.shape[0]))
    zs[0], zs[1] = x0, x1
    params = np.tile([p.gamma, p.beta], (steps, 1))
    calls = 0
    for t in range(1, steps + 1):
        g = np.asarray(oracle(zs[t]), dtype=float)
        calls += 1
        if not np.all(np.isfinite(g)):
            return zs[:t + 1].copy(), params[:t - 1], calls, True
        zs[t + 1] = zs[t] - p.gamma * g + p.beta * (zs[t] - zs[t - 1])
    return zs, params, calls, False


def numpy_counterexample_grad(ce, c):
    """The one-point counterexample gradient as numpy arithmetic on a
    (1, 2) array around ``polygon_project_batch``: the reference for the
    float kernel."""
    def grad(x):
        x = np.asarray(x, dtype=float)[None, :]
        gap = x - polygon_project_batch(ce, x)
        return (c.ell * x - (c.ell - c.mu) * gap)[0]
    return grad


def polygon_project(ce, x):
    """Exact closest point of one point ``x`` on the polygon."""
    return polygon_project_batch(ce, np.asarray(x, dtype=float)[None, :])[0]


def rational_beta_minus(k, c):
    """``beta_minus`` from its rational closed form.

    The form is 0/0 where 1 - 2*kappa + kappa^2 cos^2 vanishes (kappa = 1/2
    with K = 4); there it defers to ``beta_minus`` itself, which
    ``test_beta_minus_at_the_rational_zero_over_zero`` checks against this
    form at neighbouring kappa.
    """
    kap = c.kappa
    ct = math.cos(2.0 * math.pi / k)
    num = (kap * ct * ct + (1.0 - kap) ** 2 * ct - kap
           + (1.0 - kap) * (1.0 - ct) * math.sqrt(2.0 * kap * (1.0 + ct)))
    den = 1.0 - 2.0 * kap + kap * kap * ct * ct
    if abs(den) < 1e-9:
        return beta_minus(k, c)
    return num / den


def rou_member_any_lower_only(p, c, k_max):
    """One-sided ``rou_member_any`` (gamma >= gamma_minus suffices).

    Valid when kappa <= ((3 - sqrt(5))/4)^2, where the union of the per-K
    bands collapses to single intervals reaching the region's right edge.
    """
    if not (0.0 <= p.beta < 1.0
            and 0.0 < p.gamma <= 2.0 * (1.0 + p.beta) / c.ell + BOUNDARY_TOL):
        return None
    for k in range(3, k_max + 1):
        # beta >= beta_minus(K) excludes the spurious branch where the
        # quadratic has two negative roots (region still empty).
        if p.beta < rational_beta_minus(k, c):
            continue
        q = membership_polynomial(p.beta, k, c)
        if q.gamma_minus is not None and p.gamma >= q.gamma_minus:
            return k
    return None


def projection_case(ce, x):
    """Which smooth piece a point belongs to: ('in',), ('v', t) or ('e', t)."""
    proj = polygon_project(ce, x)
    if np.allclose(proj, x, rtol=0.0, atol=1e-13):
        return ("in",)
    d_vertex = np.linalg.norm(ce.hull - proj, axis=1)
    t = int(np.argmin(d_vertex))
    if d_vertex[t] <= 1e-12:
        return ("v", t)
    along = ce.hull[(np.arange(len(ce.hull)) + 1) % len(ce.hull)] - ce.hull
    rel = proj - ce.hull
    s = np.einsum("ij,ij->i", rel, along) / np.einsum("ij,ij->i", along, along)
    inside = (s > 0) & (s < 1) & (np.linalg.norm(rel - s[:, None] * along, axis=1) < 1e-10)
    return ("e", int(np.argmax(inside)))


def edge_sq(ce):
    """Squared edge lengths of the polygon."""
    return np.einsum("ij,ij->i", ce.edges, ce.edges)


def ray_points(ce, scale):
    """Points on the rays between the polygon's cones: multiples of every
    vertex at about ``scale``, on both sides of the origin, the origin and
    a point just off it."""
    factors = scale * np.array([1e-3, 0.5, 1.0, 2.0, -1.0]) / ce.hull_radius
    return np.concatenate([(factors[:, None, None] * ce.hull).reshape(-1, 2),
                           [(0.0, 0.0), (-5.9e-18, 0.0)]])


def stacked_projection(ce, x):
    """The projection kernel as first written, from (n, K, 2) temporaries.

    Scans all K edges: returns the closest points, the inside flags, the
    argmin edge of each row, its clamped edge parameter and each row's
    squared distance to the polygon boundary.  The sector kernel keeps its
    inside, candidate and distance expressions.
    """
    rel = x[:, None, :] - ce.hull[None, :, :]
    cross = ce.edges[None, :, 0] * rel[:, :, 1] - ce.edges[None, :, 1] * rel[:, :, 0]
    inside = np.all(cross >= 0.0, axis=1)
    t = np.einsum("nkj,kj->nk", rel, ce.edges) / edge_sq(ce)[None, :]
    np.clip(t, 0.0, 1.0, out=t)
    cand = ce.hull[None, :, :] + t[:, :, None] * ce.edges[None, :, :]
    d2 = np.einsum("nkj,nkj->nk", cand - x[:, None, :], cand - x[:, None, :])
    rows = np.arange(len(x))
    best = np.argmin(d2, axis=1)
    proj = cand[rows, best]
    proj[inside] = x[inside]
    return proj, inside, best, t[rows, best], d2[rows, best]


def array_cell_margin(ce, x):
    """The cell margin as first written: the best score over every feature
    cell, from per-edge arrays, at one point ``x`` of shape (2,)."""
    length = np.sqrt(edge_sq(ce))
    rel = x - ce.hull
    inward = (ce.edges[:, 0] * rel[:, 1] - ce.edges[:, 1] * rel[:, 0]) / length
    along = np.einsum("kj,kj->k", rel, ce.edges) / length  # past the start normal
    before_end = length - along
    slab = np.minimum(np.minimum(-inward, along), before_end)
    wedge = np.minimum(-np.roll(before_end, 1), -along)
    return float(max(inward.min(), slab.max(), wedge.max()))


def rowwise_write_csv(path, rows) -> None:
    """Sweep CSV one (gamma, beta, value, tag) row at a time."""
    def fmt(x):
        return format(float(x), ".17g")

    with open(path, "w", newline="") as fh:
        fh.write("gamma,beta,value,tag\n")
        for gamma, beta, value, tag in rows:
            fh.write(f"{fmt(gamma)},{fmt(beta)},{fmt(value)},{tag}\n")


def parsed_render_svg(csv_path, svg_path) -> None:
    """SVG raster of a sweep CSV, parsed into lists and indexed by dicts."""
    gammas, betas, tags = [], [], []
    with open(csv_path) as fh:
        header = fh.readline()
        if header.strip() != "gamma,beta,value,tag":
            raise ValueError(f"unexpected CSV header in {csv_path}")
        for line in fh:
            g, b, _, tag = line.rstrip("\n").split(",")
            gammas.append(float(g))
            betas.append(float(b))
            tags.append(tag)
    xs = sorted(set(gammas))
    ys = sorted(set(betas))
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    cell_w, cell_h, legend_h = 4, 4, 18
    width, height = cell_w * len(xs), cell_h * len(ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height + legend_h}" shape-rendering="crispEdges">'
    ]
    for g, b, tag in zip(gammas, betas, tags):
        color = _TAG_COLORS.get(tag, "#999999")
        x = xi[g] * cell_w
        y = height - (yi[b] + 1) * cell_h
        parts.append(f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                     f'fill="{color}"/>')
    for i, tag in enumerate(sorted(set(tags))):
        x = 4 + i * 110
        color = _TAG_COLORS.get(tag, "#999999")
        parts.append(f'<rect x="{x}" y="{height + 4}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{x + 14}" y="{height + 13}" font-size="10" '
                     f'font-family="monospace">{tag}</text>')
    parts.append("</svg>")
    with open(svg_path, "w", newline="") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def rowwise_write_trace_csv(trace, path, cycle=None) -> None:
    """Trace CSV one ``csv.writer`` row and one 1-D norm at a time."""
    zs = trace.iterates
    d = zs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", *(f"x{i}" for i in range(d)),
                         "dist_to_cycle", "gamma_t", "beta_t"])
        for t, z in enumerate(zs):
            if cycle is not None:
                dist = format(float(np.linalg.norm(z - cycle[t % len(cycle)])), ".17g")
            else:
                dist = ""
            if t >= 2 and t - 2 < len(trace.params_used):
                gamma_t = format(trace.params_used[t - 2, 0], ".17g")
                beta_t = format(trace.params_used[t - 2, 1], ".17g")
            else:
                gamma_t = beta_t = ""
            writer.writerow([t, *(format(v, ".17g") for v in z),
                             dist, gamma_t, beta_t])


def full_grid_member_any_grid(gammas, betas, c, k_max):
    """Smallest member period per cell, the quadratic evaluated on the whole
    grid at every period."""
    g, b = np.broadcast_arrays(np.asarray(gammas, dtype=float),
                               np.asarray(betas, dtype=float))
    out = np.zeros(g.shape, dtype=np.int32)
    admissible = (g > 0) & (b < 1) & (g <= 2.0 * (1.0 + b) / c.ell + BOUNDARY_TOL)
    mg = c.mu * g
    kap = c.kappa
    for k in range(3, k_max + 1):
        undecided = admissible & (out == 0)
        if not undecided.any():
            break
        ct = math.cos(2.0 * math.pi / k)
        a = b - ct + kap * (1.0 - b * ct)
        c0 = 2.0 * kap * (1.0 - ct) * (1.0 + b * b - 2.0 * b * ct)
        val = mg * mg - 2.0 * a * mg + c0
        out[undecided & (val <= 0.0)] = k
    return out
