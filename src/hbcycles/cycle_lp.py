"""General cycle existence for heavy ball as a linear feasibility problem.

A K-periodic trajectory forces the gradient at every visited point (the
recursion can be inverted), and the existence of a smooth strongly convex
function with those gradients reduces to pairwise interpolation
inequalities.  Lifting to the Gram matrix of the centered points makes the
inequalities linear; averaging a solution over cyclic shifts makes the Gram
matrix circulant with zero function values; and decomposing circulant PSD
matrices into rank-2 harmonic blocks turns the whole question into a tiny
linear program in the nonnegative harmonic weights.  Feasible weights
reconstruct an explicit symmetric cycle in dimension K-1.

The lift matrices are derived programmatically from the gradient stencil
(transcribing closed-form entries would invite errors).  Their identity with
the direct vector-space evaluation is algebraic in (p, c, K), so the test
suite checks it and no call repeats the check.  The cosine and lag tables of
the harmonic blocks depend on the period alone and are cached for the
most recently used periods.

Weak duality makes non-existence cheap to prove: any row weighting y >= 0
gives t* >= min_ell (y^T P)_ell / sum(y).  ``lp_margin`` with a prior dual
moves the last solve's optimal dual onto this period's rows by signed lag
(the identity at the same period); when its bound, less its rounding error,
clears ``INDETERMINATE_TOL`` the solve is skipped.

``lp_matrices`` builds P for many cells at one period in closed form, from
one DFT of the gradient stencil, with a bound on each cell's rounding error;
``screen_periods`` reads both verdicts off single entries of it:

- a column whose maximum is at most ``FEASIBILITY_TOL`` is the feasible
  nu = e_ell, the regular (ell = 1) or star polygon cycle: a member;
- a row whose minimum is above ``INDETERMINATE_TOL`` is the dual y = e_i,
  the lag-i interpolation inequalities summed around the cycle: the period
  is ruled out.

Each threshold is moved by the cell's rounding bound, so a screened verdict
holds for the exact P; the pairs neither screen decides are solved.  The
screen reads row K-1 (lag -1) of every cell first, O(K) entries a cell,
and builds the full (K-1) x (K//2) matrix only for the cells that row does
not rule out: a ruled-out row has no entry low enough for a member column,
so the verdicts equal those of the full screen, at a fraction of the cost
(on the bench and README sweep grids row K-1 rules out every pair that
some row does; near beta = 1 at larger kappa another row may be needed).

The tolerances of the cycle tests, in one place:

- ``FEASIBILITY_TOL``: a margin t* at most this is a cycle ("member");
- ``INDETERMINATE_TOL``: a margin at most this, but above
  ``FEASIBILITY_TOL``, is too close to call ("indeterminate");
- ``SCREEN_SLACK``: the margin, in units of the LP scale max(1, max|P|), by
  which the bound of the prior dual, mapped by lag, must clear
  ``INDETERMINATE_TOL`` to skip a solve (it absorbs the roundings
  ``dual_lower_bound`` leaves out); the lp-region rows with skipped solves
  equal those of solving every pair on the bench and README grids and on
  four more sweep grids;
- ``LP_MATRIX_ROUNDING``: the relative factor of ``lp_matrices``' rounding
  bound per cell, which moves each screen threshold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quad_rates import _UNIT_ROUNDOFF, FunctionClass, HbParams
from .rou_region import _check_period
from .simplex import solve_canonical

FEASIBILITY_TOL = 1e-9
INDETERMINATE_TOL = 1e-8
# The bound of the prior dual, mapped by lag, must clear INDETERMINATE_TOL
# by this much times the LP scale max(1, max|P|), which absorbs the few
# roundings of the bound that its gamma_n term leaves out (see
# dual_lower_bound).  So the exact t* of P is above INDETERMINATE_TOL
# whenever the bound skips a solve.  The simplex reports t* only up to its
# own tolerances; that a skipped solve would have reported a margin on the
# same side is checked, not proven: the lp-region CSV and sidecar match
# those of solving every pair on the bench 16 x 16 and README 60 x 60 grids
# (k-max 25, mu 0.01, L 1), the 200 x 200 defaults, mu 1e-4 and mu 0.2 with
# L 2 (100 x 100, k-max 60) and mu 0.3 (50 x 50).
SCREEN_SLACK = 1e-10
# lp_matrices' error bound per cell is this times the cell's magnitude (see
# there): 212 units of roundoff to first order, rounded up to 256 to cover
# the second-order terms and the rounding of the bound itself.
LP_MATRIX_ROUNDING = 256 * _UNIT_ROUNDOFF
# Periods whose cosine and lag tables stay cached: each holds O(K^2)
# entries, so unbounded caches grow as k-max^3 over a sweep (853 MB at k-max
# 600, 274 MB at 400 against 76 MB with this bound).
_PERIOD_TABLES = 32


def cycle_gradients(points: np.ndarray, p: HbParams) -> np.ndarray:
    """The unique gradients making heavy ball cycle over ``points``.

    Inverting the recursion with K-periodic indices gives
    g_t = ((1+beta) x_t - x_{t+1} - beta x_{t-1}) / gamma.
    """
    if p.gamma == 0.0:
        raise ZeroDivisionError("gamma must be nonzero to invert the recursion")
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    idx = np.arange(len(pts))
    ahead = pts[(idx + 1) % len(pts)]
    behind = pts[idx - 1]
    return ((1.0 + p.beta) * pts - ahead - p.beta * behind) / p.gamma


def interpolation_residuals(points, grads, values, c: FunctionClass) -> np.ndarray:
    """Pairwise interpolation residuals for the smooth strongly convex class.

    Entry (i, j) is

        f_j + <g_j, x_i - x_j> + ||g_i - g_j||^2 / (2L)
            + mu / (2(1-kappa)) ||x_i - g_i/L - x_j + g_j/L||^2 - f_i,

    nonpositive for all i != j exactly when some function in the class
    interpolates all triplets.  The diagonal is zero.
    """
    if c.mu >= c.ell:
        raise ValueError("interpolation residuals need mu < ell")
    x = np.asarray(points, dtype=float)
    g = np.asarray(grads, dtype=float)
    f = np.asarray(values, dtype=float)
    if not (len(x) == len(g) == len(f)):
        raise ValueError("points, grads and values must have equal length")
    if x.ndim == 1:
        x = x[:, None]
    if g.ndim == 1:
        g = g[:, None]

    dx = x[:, None, :] - x[None, :, :]          # x_i - x_j
    dg = g[:, None, :] - g[None, :, :]          # g_i - g_j
    z = x - g / c.ell
    dz = z[:, None, :] - z[None, :, :]
    lin = np.einsum("jd,ijd->ij", g, dx)
    quad_g = np.einsum("ijd,ijd->ij", dg, dg) / (2.0 * c.ell)
    quad_z = np.einsum("ijd,ijd->ij", dz, dz) * c.mu / (2.0 * (1.0 - c.kappa))
    return f[None, :] - f[:, None] + lin + quad_g + quad_z


def _check_cycle_lp(gamma, c: FunctionClass, k: int) -> None:
    """Every cycle-LP entry point's checks; ``gamma`` is one step size or an array."""
    _check_period(k, 3)
    if c.mu >= c.ell:
        raise ValueError("cycle feasibility needs mu < ell")
    if (np.asarray(gamma) == 0.0).any():
        raise ZeroDivisionError("gamma must be nonzero")


def _circulant(first: np.ndarray) -> np.ndarray:
    """The circulant matrix whose row i is ``first`` shifted right by i."""
    idx = np.arange(len(first))
    return first[(idx[None, :] - idx[:, None]) % len(first)]


def _gradient_stencils(k: int, p: HbParams) -> np.ndarray:
    """Row i: coefficients of g_i over the cycle points (K-periodic indices).

    The stencil of g_i is the stencil of g_0 shifted by i, so the rows form
    a circulant matrix.
    """
    u0 = np.zeros(k)
    u0[0] = (1.0 + p.beta) / p.gamma
    u0[1 % k] -= 1.0 / p.gamma
    u0[-1] -= p.beta / p.gamma
    return _circulant(u0)


def lift_matrices(p: HbParams, c: FunctionClass, k: int) -> np.ndarray:
    """The (K-1, K, K) array whose row i-1 is the matrix M_{i,0} with
    <G, M_{i,0}> = interpolation RHS of the pair (i, 0) at zero values.

    ``G`` is the Gram matrix of the (centered) cycle points.  No call checks
    the matrices against the direct evaluation; the test suite does.
    """
    if p.gamma == 0.0:
        raise ZeroDivisionError("gamma must be nonzero")
    if c.mu >= c.ell:
        raise ValueError("lift matrices need mu < ell")
    _check_period(k, 2)
    # With u_i the stencil of g_i, v = e_i - e_0, w = u_i - u_0 and
    # z = v - w/L, the residual of the pair (i, 0) is
    # <u_0, v>_G + ||w||_G^2 / 2L + mu ||z||_G^2 / (2(1-kappa)) = <G, Y^T C Y>
    # with Y the rows (u_0, v, w, z); one batched product builds all K-1.
    stencils = _gradient_stencils(k, p)
    u0 = stencils[0]
    e = np.eye(k)
    v = e[1:] - e[0]
    w = stencils[1:] - u0
    z = (e[1:] - stencils[1:] / c.ell) - (e[0] - u0 / c.ell)
    y = np.stack([np.broadcast_to(u0, v.shape), v, w, z], axis=1)
    coef = np.diag([0.0, 0.0, 1.0 / (2.0 * c.ell), c.mu / (2.0 * (1.0 - c.kappa))])
    coef[0, 1] = coef[1, 0] = 0.5
    return np.swapaxes(y, 1, 2) @ (coef @ y)


def symmetrize_gram(g0: np.ndarray) -> np.ndarray:
    """Average a Gram matrix over simultaneous cyclic shifts of its indices.

    The result is circulant and inherits positive semidefiniteness and the
    lifted feasibility constraints (cyclically shifting a cycle is again a
    cycle, and the constraint set is convex).
    """
    g = np.asarray(g0, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(g, g.T, atol=1e-10 * max(1.0, np.abs(g).max())):
        raise ValueError("expected a symmetric matrix")
    # Entry (i, j) depends on j - i alone; row 0 is each wrapped diagonal's mean.
    idx = np.arange(g.shape[0])
    return _circulant(g[idx[:, None], (idx[:, None] + idx) % len(idx)].mean(axis=0))


@dataclass(frozen=True)
class HarmonicGram:
    """Rank-<=2 circulant block: entries cos(2*pi*ell*|i-j|/k)."""

    ell: int
    k: int
    h: np.ndarray


def harmonic_gram(k: int, ell: int) -> HarmonicGram:
    """The ell-th harmonic Gram block of size k.

    For 1 <= ell <= floor(k/2); symmetric, circulant, PSD, zero row sums.
    At ell = k/2 (k even) it degenerates to the rank-1 checkerboard
    (-1)^|i-j|.
    """
    _check_period(k, 2)
    if not 1 <= ell <= k // 2:
        raise ValueError(f"need 1 <= ell <= k//2, got ell={ell}, k={k}")
    table, lags = _lag_table(k)
    return HarmonicGram(ell, k, table[ell - 1, lags].reshape(k, k))


def decompose_circulant(g: np.ndarray) -> np.ndarray:
    """Nonnegative harmonic weights nu with g = sum_ell nu_ell H_ell.

    ``g`` must be symmetric circulant with zero row sums; the weights come
    from the inverse DFT of the first row g_0.  A weight below
    -1e-9 max(1, max|g_0|) means ``g`` is not PSD-with-zero-row-sums and raises.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected a square matrix")
    k = g.shape[0]
    first = g[0]
    scale = max(1.0, np.abs(first).max())
    if not np.allclose(g, _circulant(first), atol=1e-9 * scale):
        raise ValueError("matrix is not circulant")
    if not np.allclose(g, g.T, atol=1e-9 * scale):
        raise ValueError("matrix is not symmetric")
    spectrum = np.fft.fft(first).real
    if abs(spectrum[0]) > 1e-7 * scale * k:
        raise ValueError("matrix must have zero row sums")

    # Harmonic ell and K - ell share a block; at ell = K/2 it is alone.
    nu = 2.0 * spectrum[1:k // 2 + 1] / k
    if k % 2 == 0:
        nu[-1] = spectrum[k // 2] / k
    if np.any(nu < -1e-9 * scale):
        raise ValueError(f"not decomposable with nonnegative weights: min nu = {nu.min()}")
    return np.maximum(nu, 0.0)


def reconstruct_symmetric_cycle(nu: np.ndarray, k: int) -> np.ndarray:
    """Explicit (K, K-1) cycle whose Gram matrix is sum_ell nu_ell H_ell.

    Block ell traces the ell-th harmonic circle with radius sqrt(nu_ell);
    for even K the last weight contributes a one-dimensional (+-1)^t block.
    """
    _check_period(k, 2)
    nu = np.asarray(nu, dtype=float)
    m = k // 2
    if nu.shape != (m,):
        raise ValueError(f"expected {m} weights for period {k}")
    t = np.arange(k)
    radius = np.sqrt(np.maximum(nu, 0.0))
    angle = 2.0 * np.pi * np.arange(1, (k + 1) // 2)[:, None] * t / k
    circles = radius[:len(angle), None, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    cols = list(circles.reshape(-1, k))
    if k % 2 == 0:
        cols.append(radius[m - 1] * (-1.0) ** t)
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class CycleCertificate:
    """Feasible harmonic weights and the symmetric cycle they reconstruct."""

    nu: np.ndarray      # (floor(K/2),) nonnegative, sums to 1
    points: np.ndarray  # (K, K-1) cycle with Gram matrix sum_ell nu_ell H_ell
    margin: float       # minimized constraint margin t* (<= tolerance)


@functools.lru_cache(maxsize=_PERIOD_TABLES)
def _lag_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Entry (ell, d) cos(2 pi ell d / K), the value of H_ell at lag d, and
    the lag |a-b| of every entry (a, b) of a K x K matrix; read-only, as the
    cache hands them to every caller (about 12 K^2 bytes per period)."""
    _check_period(k, 2)  # before caching: a float K shares np.int64 K's key
    idx = np.arange(k)
    lags = np.abs(idx[:, None] - idx[None, :]).ravel()
    table = np.cos(2.0 * np.pi * np.arange(1, k // 2 + 1)[:, None] * idx / k)
    lags.setflags(write=False)
    table.setflags(write=False)
    return table, lags


def build_lp_matrix(p: HbParams, c: FunctionClass, k: int) -> np.ndarray:
    """Constraint matrix P with entries <M_{i,0}, H_ell>."""
    table, lags = _lag_table(k)
    return lift_matrices(p, c, k).reshape(k - 1, k * k) @ table[:, lags].T


@functools.lru_cache(maxsize=_PERIOD_TABLES)
def _dft_table(k: int) -> tuple[np.ndarray, ...]:
    """Per period, with theta_ell = 2 pi ell / K for ell = 1..K//2 and
    phi_{i, ell} = 2 pi (i ell mod K) / K for i = 1..K-1: 1 - cos theta,
    sin theta, 1 - cos phi and sin phi; read-only, as the cache hands them
    to every caller (about 8 K^2 bytes per period)."""
    ells = np.arange(1, k // 2 + 1)
    theta = 2.0 * np.pi * ells / k
    phi = 2.0 * np.pi * (np.outer(np.arange(1, k), ells) % k) / k
    tables = (1.0 - np.cos(theta), np.sin(theta), 1.0 - np.cos(phi), np.sin(phi))
    for table in tables:
        table.setflags(write=False)
    return tables


def lp_matrices(gammas, betas, c: FunctionClass, k: int,
                rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The period-``k`` matrices P of many cells, (n, K-1, K//2), in closed
    form, and for each cell a bound on the rounding error of its entries.
    ``rows`` selects rows of P (default all K-1): each entry is computed
    alone, so a selected row has the bits it has in the full matrix.

    With w = exp(2 pi i / K), the row-0 gradient stencil has the DFT
    u0_ell = ((1+beta) - w^ell - beta w^-ell) / gamma, and with
    d = w^(i ell) - 1,

        P[i, ell] = Re(u0 conj(d)) + |d|^2 (|u0|^2 / 2L + q |1 - u0/L|^2 / 2)
                  = a_ell (1 - cos phi) + Im(u0_ell) sin phi,
        a_ell = |u0|^2 / L + q |1 - u0/L|^2 - Re(u0),

    with q = mu / (1 - kappa) = mu L / (L - mu): the matrix of
    ``build_lp_matrix`` without the Gram lift.

    The bound: the period tables are within eta = 32u of the exact sines and
    cosines (u the unit roundoff; three roundings of the angle, at most
    2 pi 3u, and numpy's float64 sin and cos within 4 ulp).  With
    rho = (2|1+beta| + |1-beta|) / |gamma|, which bounds |Re u0| + |Im u0|,
    and the magnitude m = rho^2/L + 2 q (1 + rho/L)^2 + rho, which bounds
    every term of a_ell, a first-order running-error count of the formula
    gives |P_float - P| <= (m + rho)(5 eta + 52u) = 212u (m + rho) for every
    entry; ``LP_MATRIX_ROUNDING`` rounds 212u up.
    """
    g = np.asarray(gammas, dtype=float)[:, None]
    b = np.asarray(betas, dtype=float)[:, None]
    _check_cycle_lp(g, c, k)
    one_minus_cos, sin, one_minus_cos_phi, sin_phi = _dft_table(k)
    q = c.mu * c.ell / (c.ell - c.mu)
    re = (1.0 + b) * one_minus_cos / g
    im = -(1.0 - b) * sin / g
    z = 1.0 - re / c.ell
    a = (re * re + im * im) / c.ell + q * (z * z + (im / c.ell) ** 2) - re
    pm = a[:, None, :] * one_minus_cos_phi[rows]
    pm += im[:, None, :] * sin_phi[rows]
    rho = (2.0 * np.abs(1.0 + b[:, 0]) + np.abs(1.0 - b[:, 0])) / np.abs(g[:, 0])
    magnitude = rho * rho / c.ell + 2.0 * q * (1.0 + rho / c.ell) ** 2 + rho
    return pm, LP_MATRIX_ROUNDING * (magnitude + rho)


# Matrix entries per screen block: ``screen_periods`` builds P for this many
# // ((K-1)(K//2)) cells at a time, at least one, so each array stays near a
# megabyte up to K = 513 (26 cells at K = 100, 16 x 16 cells at K <= 25);
# its row K-1 alone for this many // (K//2) cells.
_SCREEN_ENTRIES = 2 ** 17


def _cells_per_block(entries: int) -> int:
    """Cells of ``entries`` matrix entries each in one screen block."""
    return max(1, _SCREEN_ENTRIES // max(1, entries))


def screen_periods(gammas, betas, c: FunctionClass, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, whether a single harmonic proves a period-``k`` cycle and
    whether a single row's dual rules period ``k`` out, on ``lp_matrices``.

    A column ell whose maximum is at most ``FEASIBILITY_TOL`` less the
    rounding bound is a feasible nu = e_ell with exact margin within
    ``FEASIBILITY_TOL``.  A row i whose minimum exceeds ``INDETERMINATE_TOL``
    plus the bound is the weak-duality certificate y = e_i: the exact t* is
    above ``INDETERMINATE_TOL``.  At most one of the two holds for a cell.

    Row K-1 (lag -1) is screened first, on every cell, at O(K) entries per
    cell; on the bench and README sweep grids it rules out every pair that
    some row rules out.  The full P, O(K^2) entries, is built only for the
    cells it leaves.  A cell it rules out has no column at or below
    ``FEASIBILITY_TOL`` less the bound, and the full screen would rule it
    out too, so the verdicts are those of screening all of P.  Each cell's
    verdicts depend on that cell alone, whatever the block size.
    """
    gammas = np.asarray(gammas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    _check_period(k, 3)  # the block sizes need an integer K
    member = np.zeros(len(gammas), dtype=bool)
    ruled_out = np.zeros(len(gammas), dtype=bool)
    size = _cells_per_block(k // 2)
    for start in range(0, len(gammas), size):
        block = slice(start, start + size)
        row, err = lp_matrices(gammas[block], betas[block], c, k, rows=slice(-1, None))
        ruled_out[block] = row[:, 0].min(axis=1) > INDETERMINATE_TOL + err
    left = np.flatnonzero(~ruled_out)
    size = _cells_per_block((k - 1) * (k // 2))
    for start in range(0, len(left), size):
        cells = left[start:start + size]
        pm, err = lp_matrices(gammas[cells], betas[cells], c, k)
        member[cells] = (pm.max(axis=1) <= FEASIBILITY_TOL - err[:, None]).any(axis=1)
        ruled_out[cells] = pm.min(axis=2).max(axis=1) > INDETERMINATE_TOL + err
    return member, ruled_out


def dual_lower_bound(pm: np.ndarray, y: np.ndarray) -> float:
    """Proven lower bound on the margin t* of the cycle LP with matrix ``pm``.

    For any row weights y >= 0 (not all zero), weak duality gives
    t* >= min_ell (y^T P)_ell / sum(y): summing y_i (P nu)_i <= y_i t over
    the rows of a feasible (nu, t).  Each float inner product of n = K-1
    terms is within gamma_n (y^T |P|)_ell of the exact one, with
    gamma_n = n u / (1 - n u) and u the unit roundoff, whatever the
    summation order; that term is subtracted.  What is left unbounded, the
    rounding of that term, of the minimum's division by sum(y) and of the
    subtraction, is a few units of roundoff of max|P|: ``SCREEN_SLACK``
    covers it.
    """
    n = len(y)
    gamma_n = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    lower = y @ pm - gamma_n * (y @ np.abs(pm))
    return float(lower.min() / y.sum())


def _lp_scale(pm: np.ndarray) -> float:
    return max(float(np.abs(pm).max()), 1.0)


def _solve_cycle_lp(pm: np.ndarray, p: HbParams) -> tuple[float, np.ndarray, np.ndarray]:
    """Margin t*, optimal weights and dual row weights of:
    min t s.t. P nu <= t, sum nu = 1, nu >= 0, for the matrix ``pm``
    (``p`` only names the cell in the error a failed solve raises).

    The constraint matrix is divided by its largest magnitude before the
    solve (a single positive scalar, so the geometry is untouched) and the
    margin is scaled back; entries of P grow like 1/gamma^2 and would
    otherwise wreck the simplex tolerances at small step-sizes.

    The simplex starts from the best pure harmonic, nu = e_j with j the
    column of least maximum, t = that maximum, and every slack basic but the
    binding row's: the primal-feasible (and always nonsingular) basis the
    simplex requires.

    The dual weights are y = -(row prices) of the K-1 inequality rows,
    clipped at 0 and normalized to sum 1 (the t columns make the unclipped
    prices sum to 1 at the optimum); there ``dual_lower_bound(pm, y)`` is t*.
    """
    scale = _lp_scale(pm)
    pm = pm / scale
    n_rows, m = pm.shape
    # Variables: [nu (m), t+, t-, slack (n_rows)].
    n_var = m + 2 + n_rows
    a_eq = np.zeros((n_rows + 1, n_var))
    b_eq = np.zeros(n_rows + 1)
    a_eq[:n_rows, :m] = pm
    a_eq[:n_rows, m] = -1.0
    a_eq[:n_rows, m + 1] = 1.0
    a_eq[:n_rows, m + 2:] = np.eye(n_rows)
    a_eq[n_rows, :m] = 1.0
    b_eq[n_rows] = 1.0
    cost = np.zeros(n_var)
    cost[m] = 1.0
    cost[m + 1] = -1.0
    col_max = pm.max(axis=0)
    j = int(np.argmin(col_max))
    binding = int(np.argmax(pm[:, j]))
    t_col = m if col_max[j] >= 0.0 else m + 1
    slacks = [m + 2 + i for i in range(n_rows) if i != binding]
    res = solve_canonical(cost, a_eq, b_eq, basis=[j, t_col, *slacks])
    if res.status != "optimal":
        raise RuntimeError(
            f"LP solve failed: status={res.status} after {res.iterations} iterations "
            f"(period {n_rows + 1}, gamma={p.gamma}, beta={p.beta})")
    y = np.maximum(-res.dual[:n_rows], 0.0)
    return scale * res.objective, res.x[:m], y / y.sum()


def _lag_mapped_dual(y: np.ndarray, k: int) -> np.ndarray:
    """Row weights ``y`` of a period-K' LP (K' = len(y) + 1) moved onto the
    K-1 rows of period ``k`` by signed lag.

    Row i of period K' is lag i when 2i <= K' and lag i - K' otherwise (row
    K'-j is lag -j).  The weight on lag l goes to row l mod K: weights on
    lags that are 0 mod K are dropped, and weights landing on one row add.
    At K = K' every row keeps its weight, bit for bit.
    """
    k_from = len(y) + 1
    lags = np.arange(1, k_from)
    lags[k_from // 2:] -= k_from
    lags %= k
    return np.bincount(lags, weights=y, minlength=k)[1:]


def lp_margin(p: HbParams, c: FunctionClass, k: int,
              prior: list[np.ndarray] | None = None) -> float:
    """Optimal margin t* of the period-``k`` cycle feasibility LP.

    Nonpositive (up to tolerance) exactly when a period-``k`` cycle exists.
    The sum-to-one normalization replaces the homogeneous nu != 0
    constraint; the problem is scale-invariant so nothing is lost.

    ``prior`` is an optional caller-owned holder of the dual weights of the
    last solve, at most one array; their period is their length plus one.
    Before any solve they are moved onto this period's rows by
    ``_lag_mapped_dual`` (the identity at the same period), and when their
    ``dual_lower_bound`` exceeds ``INDETERMINATE_TOL`` by ``SCREEN_SLACK``
    times the LP scale, that bound is returned with no LP solved: the exact
    t* of P is at least the bound, so it is above ``INDETERMINATE_TOL`` too.
    Any y >= 0, not all zero, is a weak-duality certificate, so the prior
    changes only how often a solve is skipped.  Otherwise (weights that all
    land on lags 0 mod ``k`` leave nothing to try) the LP is solved on the
    same matrix, and its dual replaces the one held.
    """
    _check_cycle_lp(p.gamma, c, k)
    pm = build_lp_matrix(p, c, k)
    if prior:
        y = _lag_mapped_dual(prior[0], k)
        floor = INDETERMINATE_TOL + SCREEN_SLACK * _lp_scale(pm)
        if y.any() and (bound := dual_lower_bound(pm, y)) > floor:
            return bound
    margin, _, y = _solve_cycle_lp(pm, p)
    if prior is not None:
        prior[:] = [y]
    return margin


def lp_check(p: HbParams, c: FunctionClass, k: int) -> tuple[float, CycleCertificate | None]:
    """Margin of the period-``k`` cycle LP and, from the same solve, the
    certificate that ``lp_feasible`` returns."""
    _check_cycle_lp(p.gamma, c, k)
    margin, raw, _ = _solve_cycle_lp(build_lp_matrix(p, c, k), p)
    if margin > FEASIBILITY_TOL:
        return margin, None
    nu = np.maximum(raw, 0.0)
    total = nu.sum()
    if total <= 0.0:
        return margin, None
    nu /= total
    points = reconstruct_symmetric_cycle(nu, k)
    return margin, CycleCertificate(nu=nu, points=points, margin=margin)


def lp_feasible(p: HbParams, c: FunctionClass, k: int) -> CycleCertificate | None:
    """Period-``k`` cycle certificate, or None when the margin exceeds ``FEASIBILITY_TOL``.

    On success the certificate carries the normalized weights and the
    reconstructed symmetric cycle in dimension K-1.
    """
    return lp_check(p, c, k)[1]
