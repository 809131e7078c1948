"""Reference computations the benchmark checks the hbcycles outputs against.

Everything here is written from the mathematics, with numpy and scipy's
HiGHS only; nothing imports hbcycles.  The objects are:

* the pairwise interpolation inequalities of the class of L-smooth,
  mu-strongly convex functions (Taylor, Hendrickx, Glineur, 2017);
* the gradients a K-periodic heavy-ball trajectory forces;
* the cycle-LP matrix, built by evaluating those inequalities on the
  harmonic cycles, and its optimal margin from HiGHS;
* the roots-of-unity membership quadratic;
* the spectral radius of the heavy-ball companion matrix, by eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np


def interpolation_violations(x, g, f, mu: float, ell: float):
    """Violations V[i, j] of the smooth strongly convex interpolation conditions.

    Some L-smooth, mu-strongly convex function takes values f and gradients
    g at the points x exactly when, for every i != j,

        f_i >= f_j + <g_j, x_i - x_j>
               + 1/(2(1 - mu/L)) * (|g_i - g_j|^2 / L + mu |x_i - x_j|^2
                                    - 2 (mu/L) <g_i - g_j, x_i - x_j>).

    V[i, j] is the right-hand side minus f_i, so the data interpolate when
    V <= 0 off the diagonal.  The diagonal is set to -inf.  The second value
    returned is the largest magnitude of any single term, the scale for a
    relative tolerance.
    """
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    g = np.asarray(g, dtype=float).reshape(len(g), -1)
    f = np.asarray(f, dtype=float)
    kappa = mu / ell
    dx = x[:, None, :] - x[None, :, :]
    dg = g[:, None, :] - g[None, :, :]
    linear = np.einsum("jd,ijd->ij", g, dx)
    curvature = (np.einsum("ijd,ijd->ij", dg, dg) / ell
                 + mu * np.einsum("ijd,ijd->ij", dx, dx)
                 - 2.0 * kappa * np.einsum("ijd,ijd->ij", dg, dx)) / (2.0 * (1.0 - kappa))
    v = f[None, :] - f[:, None] + linear + curvature
    np.fill_diagonal(v, -np.inf)
    scale = max(float(np.abs(f).max()), float(np.abs(linear).max()),
                float(np.abs(curvature).max()), 1e-300)
    return v, scale


def cycle_gradients(points, gamma: float, beta: float) -> np.ndarray:
    """Gradients that make heavy ball visit ``points`` periodically.

    x_{t+1} = x_t - gamma g_t + beta (x_t - x_{t-1}) with indices mod K gives
    g_t = ((1 + beta) x_t - x_{t+1} - beta x_{t-1}) / gamma.
    """
    x = np.asarray(points, dtype=float)
    return ((1.0 + beta) * x - np.roll(x, -1, axis=0) - beta * np.roll(x, 1, axis=0)) / gamma


def harmonic_cycle(k: int, ell: int) -> np.ndarray:
    """Points (cos 2 pi ell t/K, sin 2 pi ell t/K), or (-1)^t at ell = K/2."""
    t = np.arange(k)
    if 2 * ell == k:
        return np.where(t % 2 == 0, 1.0, -1.0)[:, None]
    angle = 2.0 * math.pi * ell * t / k
    return np.stack([np.cos(angle), np.sin(angle)], axis=1)


def cycle_lp_matrix(gamma: float, beta: float, mu: float, ell: float, k: int) -> np.ndarray:
    """Matrix P[i-1, ell-1]: violation of pair (i, 0) on the ell-th harmonic cycle.

    A symmetric K-cycle with zero values is an orthogonal sum of harmonic
    cycles scaled by sqrt(nu_ell); the violations are quadratic in the
    points with no cross terms between orthogonal blocks, so the cycle
    interpolates exactly when P nu <= 0 for some nu >= 0, sum nu = 1.  By
    the cyclic symmetry the pairs (i, 0), i = 1..K-1, cover every pair.
    """
    cols = []
    for ell_ in range(1, k // 2 + 1):
        pts = harmonic_cycle(k, ell_)
        v, _ = interpolation_violations(pts, cycle_gradients(pts, gamma, beta),
                                        np.zeros(k), mu, ell)
        cols.append(v[1:, 0])
    return np.stack(cols, axis=1)


def highs_margin(pm: np.ndarray) -> float:
    """min t subject to P nu <= t, sum nu = 1, nu >= 0, solved by HiGHS."""
    from scipy.optimize import linprog

    rows, m = pm.shape
    scale = max(float(np.abs(pm).max()), 1.0)
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    a_ub = np.hstack([pm / scale, -np.ones((rows, 1))])
    a_eq = np.hstack([np.ones((1, m)), np.zeros((1, 1))])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(rows), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * m + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return scale * float(res.fun)


def rou_quadratic_terms(gamma, beta, mu: float, ell: float, k: int):
    """The three terms of the roots-of-unity membership quadratic in mu*gamma.

    On x_t = e^{2 pi i t/K} the forced gradients are alpha x_t with
    alpha = ((1+beta)(1-cos) - i (1-beta) sin) / gamma.  The binding
    interpolation condition is the pair (t-1, t); multiplied by the positive
    factor gamma^2 L kappa (1-kappa) / (1 - cos) it reads

        (mu gamma)^2 - 2 mu gamma (beta - cos + kappa (1 - beta cos))
            + 2 kappa (1 - cos)(1 + beta^2 - 2 beta cos)  <=  0.

    Returns the square, linear and constant terms (vectorized); the period-K
    cycle exists where their sum is nonpositive.
    """
    kappa = mu / ell
    cos = math.cos(2.0 * math.pi / k)
    beta = np.asarray(beta, dtype=float)
    mg = mu * np.asarray(gamma, dtype=float)
    return (mg * mg,
            -2.0 * mg * (beta - cos + kappa * (1.0 - beta * cos)),
            2.0 * kappa * (1.0 - cos) * (1.0 + beta * beta - 2.0 * beta * cos))


def rou_quadratic(gamma, beta, mu: float, ell: float, k: int):
    """Value of the roots-of-unity membership quadratic (see the terms)."""
    square, linear, constant = rou_quadratic_terms(gamma, beta, mu, ell, k)
    return square + linear + constant


def convergence_edge(beta, ell: float):
    """Largest step-size of the quadratic convergence region, 2(1+beta)/L."""
    return 2.0 * (1.0 + np.asarray(beta, dtype=float)) / ell


def companion_radius(gamma, beta, lam):
    """Spectral radius of [[1+beta-gamma*lam, -beta], [1, 0]] by eigenvalues."""
    gamma, beta, lam = np.broadcast_arrays(np.asarray(gamma, dtype=float),
                                           np.asarray(beta, dtype=float),
                                           np.asarray(lam, dtype=float))
    mats = np.zeros(gamma.shape + (2, 2))
    mats[..., 0, 0] = 1.0 + beta - gamma * lam
    mats[..., 0, 1] = -beta
    mats[..., 1, 0] = 1.0
    return np.abs(np.linalg.eigvals(mats)).max(axis=-1)


def quadratic_rate(gamma, beta, mu: float, ell: float):
    """Worst spectral radius over Hessian eigenvalues lam in [mu, L].

    The radius is sqrt(beta) while the eigenvalues are complex and grows
    with |1 + beta - gamma lam| once they are real; that modulus is convex
    in lam, so the worst case sits at lam = mu or lam = L.
    """
    return np.maximum(companion_radius(gamma, beta, mu),
                      companion_radius(gamma, beta, ell))


def companion_discriminant(gamma, beta, lam):
    """(1 + beta - gamma lam)^2 - 4 beta: zero where the two eigenvalues meet."""
    u = 1.0 + np.asarray(beta, dtype=float) - np.asarray(gamma, dtype=float) * lam
    return u * u - 4.0 * np.asarray(beta, dtype=float)
