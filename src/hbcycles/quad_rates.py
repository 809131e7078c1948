"""Worst-case asymptotic rates of heavy ball on quadratic classes.

The two-step recursion

    x_{t+1} = x_t - gamma * grad f(x_t) + beta * (x_t - x_{t-1})

has a closed-form worst-case asymptotic contraction factor on the class of
quadratics with Hessian spectrum inside [mu, L].  The (gamma, beta) plane
splits into three convergence regions (plus a divergent remainder):

* lazy       -- small step-sizes; the rate is driven by the mu-eigenspace,
* robust     -- complex-conjugate regime; the rate is sqrt(beta), gamma-free,
* knife edge -- large step-sizes; the rate is driven by the L-eigenspace.

Level sets of the rate over the plane are closed triangles whose common
corner pattern pins down the optimal tuning.  ``reference_rates`` tables
the known worst-case rates of standard tunings beside heavy ball's.
``stability_constants`` decomposes heavy ball's companion matrix on the
mu-quadratic, for the noise budgets around a cycle.  Everything here is a
pure function; the grid variant broadcasts over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Absolute tolerance for classifying points sitting on a region boundary.
# Rates agree across boundaries, so the tag choice only needs determinism.
BOUNDARY_TOL = 1e-12
# The unit roundoff u of IEEE doubles; machine epsilon, the gap above 1, is 2u.
_UNIT_ROUNDOFF = 2.0 ** -53


class Region(str, Enum):
    LAZY = "Lazy"
    ROBUST = "Robust"
    KNIFE_EDGE = "KnifesEdge"
    NO_CONVERGENCE = "NoConvergence"


# Integer codes used by the vectorized classifier.
LAZY, ROBUST, KNIFE_EDGE, NO_CONVERGENCE = 0, 1, 2, 3
_REGION_BY_CODE = (Region.LAZY, Region.ROBUST, Region.KNIFE_EDGE,
                   Region.NO_CONVERGENCE)


@dataclass(frozen=True)
class HbParams:
    """Step-size and momentum coefficient of the heavy-ball recursion."""

    gamma: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError("gamma and beta must be finite")


@dataclass(frozen=True)
class FunctionClass:
    """Strong-convexity / smoothness bounds (mu, ell) with 0 < mu <= ell."""

    mu: float
    ell: float

    def __post_init__(self):
        if not (0 < self.mu <= self.ell and math.isfinite(self.ell)):
            raise ValueError(f"need 0 < mu <= ell, got mu={self.mu}, ell={self.ell}")

    @property
    def kappa(self) -> float:
        """Inverse condition number mu/ell, in (0, 1]."""
        return self.mu / self.ell


def in_cv_closure(gamma, beta, c: FunctionClass):
    """Whether (gamma, beta) lies in the closure of the convergence region,
    0 <= beta < 1 and 0 < gamma <= 2(1+beta)/L; floats or arrays, elementwise.

    The edge gamma = 2(1+beta)/L is included, up to ``BOUNDARY_TOL``: the
    cycling construction is valid there (the standard demonstration
    parameters sit exactly on it).
    """
    return ((0.0 <= beta) & (beta < 1.0) & (0.0 < gamma)
            & (gamma <= 2.0 * (1.0 + beta) / c.ell + BOUNDARY_TOL))


@dataclass(frozen=True)
class RateReport:
    """Asymptotic contraction factor and the region it was produced by.

    ``rho`` is NaN when ``region`` is NO_CONVERGENCE: the tag, not a number,
    is the contract there (this covers gamma <= 0, gamma >= 2(1+beta)/L and
    |beta| >= 1).
    """

    rho: float
    region: Region


def rate_grid(gammas, betas, c: FunctionClass):
    """Vectorized rate evaluation.

    Broadcasts ``gammas`` against ``betas`` and returns ``(rho, codes)``
    where ``codes`` holds the integer region codes of this module.  For
    beta < 0 the robust regime is empty and the lazy/knife split happens at
    gamma = 2(1+beta)/(L+mu); the lazy and knife formulas remain exact there
    (their discriminants are positive).
    """
    mu, L = c.mu, c.ell
    g, b = np.broadcast_arrays(np.asarray(gammas, dtype=float),
                               np.asarray(betas, dtype=float))

    codes = np.full(g.shape, NO_CONVERGENCE, dtype=np.int8)
    rho = np.full(g.shape, np.nan)

    conv = (g > 0) & (np.abs(b) < 1) & (g < 2.0 * (1.0 + b) / L)
    nonneg = b >= 0
    with np.errstate(invalid="ignore"):
        sb = np.where(nonneg, np.sqrt(np.abs(b)), np.nan)
    rob_lo = (1.0 - sb) ** 2 / mu
    rob_hi = (1.0 + sb) ** 2 / L
    mid = 2.0 * (1.0 + b) / (L + mu)

    robust = conv & nonneg & (g >= rob_lo - BOUNDARY_TOL) & (g <= rob_hi + BOUNDARY_TOL)
    # NaN-sqrt convention for beta < 0: min(a, NaN) = a.
    lazy_hi = np.where(nonneg, np.minimum(mid, rob_lo), mid)
    lazy = conv & ~robust & (g <= lazy_hi + BOUNDARY_TOL)
    knife = conv & ~robust & ~lazy

    codes[robust] = ROBUST
    codes[lazy] = LAZY
    codes[knife] = KNIFE_EDGE

    rho[robust] = sb[robust]
    a = (1.0 + b - mu * g) / 2.0
    rho[lazy] = a[lazy] + np.sqrt(np.maximum(a[lazy] ** 2 - b[lazy], 0.0))
    a = (L * g - (1.0 + b)) / 2.0
    rho[knife] = a[knife] + np.sqrt(np.maximum(a[knife] ** 2 - b[knife], 0.0))
    return rho, codes


def sublevel_set(rho, codes, c: FunctionClass, big_c: float):
    """(rho_target, in_sls): the rate (1 - C kappa)/(1 + C kappa) and, per
    cell of a ``rate_grid`` result ``(rho, codes)``, whether heavy ball
    converges there at that rate or faster on quadratics."""
    ck = big_c * c.kappa
    rho_target = (1.0 - ck) / (1.0 + ck)
    return rho_target, (codes != NO_CONVERGENCE) & (rho <= rho_target)


def rate_on_quadratics(p: HbParams, c: FunctionClass) -> RateReport:
    """Exact asymptotic rate of heavy ball over quadratics with spectrum in [mu, L].

    Boundary parameter values are classified with absolute tolerance
    ``BOUNDARY_TOL``; ties between regions resolve toward the robust region
    (the rate formulas agree on shared boundaries).
    """
    rho, codes = rate_grid(p.gamma, p.beta, c)
    return RateReport(float(rho), _REGION_BY_CODE[int(codes)])


@dataclass(frozen=True)
class StabilityConstants:
    """Companion-matrix decomposition constants for the residual dynamics.

    ``kappa_p`` is 1/(||P|| * ||P^-1||) in (0, 1]; ``rho_d`` = ||D|| < 1.
    ``region_used`` records which decomposition applied: "Lazy" (real
    eigenvalues), "Robust" (complex pair), or "Boundary" (Jordan block with
    the epsilon trick).
    """

    kappa_p: float
    rho_d: float
    region_used: str
    p_matrix: np.ndarray = field(repr=False)
    d_matrix: np.ndarray = field(repr=False)


def _condition_constants(p_mat: np.ndarray) -> float:
    """kappa_P from the closed form tau - sqrt(tau^2 - 1), tau = tr(P^H P)/(2|det P|)."""
    h = p_mat.conj().T @ p_mat
    tau = float(np.trace(h).real) / (2.0 * abs(np.linalg.det(p_mat)))
    if tau <= 1.0:
        return 1.0
    return tau - math.sqrt(tau * tau - 1.0)


def stability_constants(p: HbParams, mu: float) -> StabilityConstants:
    """Decompose [[1+beta-mu*gamma, -beta], [1, 0]] as P D P^{-1}, ||D|| < 1.

    Real-diagonalizable, complex-conjugate, and defective (boundary) cases
    are handled separately; in the boundary case gamma = (1-sqrt(beta))^2/mu
    the Jordan block needs an epsilon in (0, (1-beta)/sqrt(beta)), and takes
    the midpoint (1-beta)/(2 sqrt(beta)).  Raises when mu is not finite and
    positive or the matrix does not contract.
    """
    if not 0.0 < mu < math.inf:  # NaN included
        raise ValueError(f"mu must be finite and positive, got {mu}")
    gamma, beta = p.gamma, p.beta
    half_trace = (1.0 + beta - mu * gamma) / 2.0
    disc = half_trace * half_trace - beta

    if abs(disc) <= BOUNDARY_TOL:
        # Defective double eigenvalue +-sqrt(beta).
        if beta <= 0.0:
            raise ValueError("boundary decomposition needs beta > 0")
        sb = math.sqrt(beta)
        epsilon = (1.0 - beta) / sb / 2.0
        rho_d = sb * (epsilon / 2.0 + math.sqrt(1.0 + epsilon * epsilon / 4.0))
        if rho_d >= 1.0:
            raise ValueError(f"no contraction: rho_d = {rho_d} >= 1")
        p_mat = np.array([[sb, epsilon * sb / (1.0 + beta)],
                          [1.0, -beta * epsilon / (1.0 + beta)]])
        d_mat = sb * np.array([[1.0, epsilon], [0.0, 1.0]])
        return StabilityConstants(_condition_constants(p_mat), rho_d, "Boundary",
                                  p_mat, d_mat)

    # A real pair (Lazy, real matrices) or a complex-conjugate pair
    # (Robust, of modulus sqrt(beta)); P's columns are the eigenvectors.
    root = math.sqrt(abs(disc))
    if disc > 0.0:
        lam, region = (half_trace + root, half_trace - root), "Lazy"
    else:
        lam, region = (complex(half_trace, root), complex(half_trace, -root)), "Robust"
    rho_d = max(abs(lam[0]), abs(lam[1]))
    if rho_d >= 1.0:
        raise ValueError(f"no contraction: spectral radius = {rho_d} >= 1")
    p_mat = np.array([lam, (1.0, 1.0)])
    return StabilityConstants(_condition_constants(p_mat), rho_d, region,
                              p_mat, np.diag(lam))


def optimal_tuning(c: FunctionClass) -> tuple[HbParams, float]:
    """Rate-optimal (gamma, beta) on the quadratic class, with the optimal rate.

    beta* = ((1-sqrt(kappa))/(1+sqrt(kappa)))^2, gamma* = 2(1+beta*)/(L+mu),
    rho* = sqrt(beta*).  Degenerates gracefully to (1/L, 0) with rate 0 when
    mu = ell.
    """
    sk = math.sqrt(c.kappa)
    rho = (1.0 - sk) / (1.0 + sk)
    beta = rho * rho
    gamma = 2.0 * (1.0 + beta) / (c.ell + c.mu)
    return HbParams(gamma, beta), rho


@dataclass(frozen=True)
class Segment:
    """Straight segment in the (gamma, beta) plane, given by its endpoints."""

    start: tuple[float, float]
    end: tuple[float, float]

    def points(self, n: int) -> np.ndarray:
        """n points linearly interpolated from start to end, shape (n, 2)."""
        t = np.linspace(0.0, 1.0, n)[:, None]
        a = np.asarray(self.start)
        b = np.asarray(self.end)
        return (1 - t) * a + t * b


@dataclass(frozen=True)
class LevelSetTriangle:
    """The closed triangular level set {rate = rho}.

    The three sides live one per region and share endpoints pairwise:
    lazy and knife meet at the bottom corner, each meets the robust side at
    beta = rho^2.
    """

    rho: float
    lazy_segment: Segment
    robust_segment: Segment
    knife_segment: Segment

    def boundary_points(self, n_per_segment: int = 32) -> np.ndarray:
        return np.vstack([
            self.lazy_segment.points(n_per_segment),
            self.robust_segment.points(n_per_segment),
            self.knife_segment.points(n_per_segment),
        ])


def level_set(c: FunctionClass, rho: float) -> LevelSetTriangle:
    """Level set of the rate at value ``rho``, as a closed triangle.

    Parametrization of the three sides (beta ranges over
    [beta_lo(rho), rho^2] on the lazy and knife sides):

    * lazy:   gamma = (1-rho)(1-beta/rho)/mu,
    * robust: beta = rho^2, gamma in [(1-rho)^2/mu, (1+rho)^2/L],
    * knife:  gamma = (1+rho)(1+beta/rho)/L.

    Raises ValueError when rho exceeds 1 or is NaN (domain) or undershoots
    the optimal rate (empty set).  At rho = rho* the triangle degenerates to the single
    optimal-tuning point.
    """
    if not rho <= 1.0 + BOUNDARY_TOL:  # NaN included
        raise ValueError(f"rho={rho} is outside [rho*, 1]")
    _, rho_star = optimal_tuning(c)
    if rho < rho_star - BOUNDARY_TOL:
        raise ValueError(
            f"level set is empty: rho={rho} below the optimal rate {rho_star}")
    rho = min(max(rho, rho_star), 1.0)

    mu, L = c.mu, c.ell
    gd = (1.0 - c.kappa) / (1.0 + c.kappa)
    beta_lo = (gd - rho) / (1.0 / rho - gd)
    beta_hi = rho * rho

    def lazy_gamma(beta):
        return (1.0 - rho) * (1.0 - beta / rho) / mu

    def knife_gamma(beta):
        return (1.0 + rho) * (1.0 + beta / rho) / L

    lazy = Segment((lazy_gamma(beta_lo), beta_lo), (lazy_gamma(beta_hi), beta_hi))
    robust = Segment(((1.0 - rho) ** 2 / mu, beta_hi), ((1.0 + rho) ** 2 / L, beta_hi))
    knife = Segment((knife_gamma(beta_lo), beta_lo), (knife_gamma(beta_hi), beta_hi))
    return LevelSetTriangle(rho, lazy, robust, knife)


def sublevel_contains(c: FunctionClass, rho: float, p: HbParams) -> bool:
    """Whether the rate at ``p`` is at most ``rho`` (and ``p`` converges).

    The threshold comparison carries the module's boundary tolerance so that
    querying exactly at a level set (e.g. at the optimal rate) is stable
    under rounding.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    report = rate_on_quadratics(p, c)
    return (report.region is not Region.NO_CONVERGENCE
            and report.rho <= rho + BOUNDARY_TOL)


def ghadimi_beta_bound(c: FunctionClass, gamma):
    """Strict upper bound on beta for the descent-Lyapunov convergence region.

    The Ghadimi region (global convergence on smooth strongly convex
    functions via a descent Lyapunov function) is gamma in (0, 2/L) together
    with 0 <= beta < bound(gamma).  A float or an array, as ``gamma`` is;
    0.0 outside the gamma range, where no beta >= 0 passes.
    """
    gamma = np.asarray(gamma, dtype=float)
    half = c.mu * gamma / 4.0
    with np.errstate(invalid="ignore"):
        bound = np.where((0.0 < gamma) & (gamma < 2.0 / c.ell),
                         half + np.sqrt(half * half + 1.0 - c.ell * gamma / 2.0), 0.0)
    return float(bound) if bound.ndim == 0 else bound


def ghadimi_contains(c: FunctionClass, p: HbParams) -> bool:
    """Membership in the Ghadimi convergence region (strict beta bound)."""
    return 0.0 <= p.beta < ghadimi_beta_bound(c, p.gamma)


def ghadimi_optimum(c: FunctionClass) -> tuple[HbParams, float]:
    """Best quadratic rate attainable with Ghadimi-region parameters.

    Closed form: sqrt(beta*) is a cube-root expression in 1/kappa, the
    returned gamma is the canonical 2(1+beta*)/(L+mu) achieving that rate on
    quadratics, and rho = sqrt(beta*) = 1 - 8*kappa + o(kappa).  The infimum
    is approached at the region's boundary (it is an open set), and the
    expression is the true region optimum for small kappa (empirically
    kappa <~ 0.1); the interesting regime is kappa -> 0.
    """
    kinv = 1.0 / c.kappa
    t = math.sqrt((kinv + 26.0) / 27.0)
    sb = (kinv - 1.0) ** (1.0 / 3.0) * ((t + 1.0) ** (1.0 / 3.0)
                                        - (t - 1.0) ** (1.0 / 3.0)) - 1.0
    beta = sb * sb
    gamma = 2.0 * (1.0 + beta) / (c.ell + c.mu)
    return HbParams(gamma, beta), sb


def reference_rates(c: FunctionClass) -> dict:
    """Known worst-case asymptotic rates at this class's condition ratio.

    Rates are on ||x_t - x*|| as functions of kappa = mu/L, for the
    quadratic class and for general smooth strongly convex functions.
    Entries that are open questions are None; the quadratic-optimal
    heavy-ball tuning has no rate on the general class (it cycles).
    """
    k = c.kappa
    sk = math.sqrt(k)
    return {
        "gd_step_1_over_L": {
            "quadratics": 1.0 - k,
            "smooth_strongly_convex": 1.0 - k,
        },
        "gd_step_2_over_L_plus_mu": {
            "quadratics": (1.0 - k) / (1.0 + k),
            "smooth_strongly_convex": (1.0 - k) / (1.0 + k),
        },
        "chebyshev": {
            "quadratics": (1.0 - sk) / (1.0 + sk),
            "smooth_strongly_convex": None,
        },
        "hb_quadratic_optimal": {
            "quadratics": (1.0 - sk) / (1.0 + sk),
            "smooth_strongly_convex": "cycles",
        },
        "nag": {
            "quadratics": 1.0 - sk,
            "smooth_strongly_convex": math.sqrt(1.0 - sk),
        },
        "information_theoretic_exact": {
            "quadratics": 1.0 - sk,
            "smooth_strongly_convex": 1.0 - sk,
        },
        "triple_momentum": {
            "quadratics": 1.0 - sk,
            "smooth_strongly_convex": 1.0 - sk,
        },
        "lower_bound": {
            "quadratics": (1.0 - sk) / (1.0 + sk),
            "smooth_strongly_convex": 1.0 - sk,
        },
    }
