"""Shared oracles and fixtures.

The brute-force rate oracle evaluates the spectral radius of the 2x2
companion matrix over a lambda grid and is kept independent of the
closed-form implementation it checks.  The sequential perturbed run is
the one-point-per-step loop that the batched tube engine must reproduce,
and the (n, K, 2) projection kernel is the one the per-coordinate kernel
must reproduce bit for bit.
"""

import math

import numpy as np
import pytest

from hbcycles.hb_engine import noise_budget
from hbcycles.quad_rates import FunctionClass, HbParams
from hbcycles.rou_region import CounterexampleFunction, polygon_project, rou_cycle


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


def stacked_polygon_project_batch(ce, x):
    """Closest points on the polygon from (n, K, 2) temporaries.

    The projection kernel as first written; ``polygon_project_batch`` keeps
    its candidate, distance, argmin and inside expressions.
    """
    rel = x[:, None, :] - ce.hull[None, :, :]
    cross = ce.edges[None, :, 0] * rel[:, :, 1] - ce.edges[None, :, 1] * rel[:, :, 0]
    inside = np.all(cross >= 0.0, axis=1)
    t = np.einsum("nkj,kj->nk", rel, ce.edges) / ce._edge_sq[None, :]
    np.clip(t, 0.0, 1.0, out=t)
    cand = ce.hull[None, :, :] + t[:, :, None] * ce.edges[None, :, :]
    d2 = np.einsum("nkj,nkj->nk", cand - x[:, None, :], cand - x[:, None, :])
    proj = cand[np.arange(len(x)), np.argmin(d2, axis=1)]
    proj[inside] = x[inside]
    return proj
