"""Roots-of-unity cycling region and its explicit counterexample function.

Heavy ball with parameters (gamma, beta) admits a function in the smooth
strongly convex class on which it cycles forever over the K-th roots of
unity exactly when a quadratic polynomial in mu*gamma is nonpositive.  This
module provides that membership test, the union over periods K, the linear
operator M whose polygon conv{M x_t} defines the piecewise-quadratic
counterexample

    (L/2)||x||^2 - ((L-mu)/2) * dist(x, polygon)^2,

its exact gradient via closest-point projection onto the polygon, the
safety radius r_max of the locally quadratic neighborhoods around the cycle
points, and the grid scan showing the region's complement misses every
sublevel-set triangle of rate 1 - O(kappa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quad_rates import FunctionClass, HbParams, in_cv_closure, rate_grid, NO_CONVERGENCE

# Default cap for the membership search over periods; larger periods only
# matter very close to beta = 1.
DEFAULT_K_MAX = 100


@dataclass(frozen=True)
class RouCycle:
    """The K points (cos(2*pi*t/K), sin(2*pi*t/K)) and their rotation."""

    k: int
    theta: float
    points: np.ndarray    # (k, 2), unit vectors, t-th row at angle t*theta
    rotation: np.ndarray  # (2, 2), maps point t to point t+1 mod k


def rou_cycle(k: int) -> RouCycle:
    if k < 2:
        raise ValueError(f"period must be >= 2, got {k}")
    theta = 2.0 * math.pi / k
    t = np.arange(k)
    points = np.stack([np.cos(t * theta), np.sin(t * theta)], axis=1)
    rotation = np.array([[math.cos(theta), -math.sin(theta)],
                         [math.sin(theta), math.cos(theta)]])
    return RouCycle(k, theta, points, rotation)


def _membership_quadratic(mg, beta, k: int, kappa: float):
    """(value, a, c0) of the period-K membership quadratic
    (mu*gamma)^2 - 2a(mu*gamma) + c0 at mu*gamma = ``mg``; ``mg`` and
    ``beta`` are floats or arrays."""
    ct = math.cos(2.0 * math.pi / k)
    a = beta - ct + kappa * (1.0 - beta * ct)
    c0 = 2.0 * kappa * (1.0 - ct) * (1.0 + beta * beta - 2.0 * beta * ct)
    return mg * mg - 2.0 * a * mg + c0, a, c0


def polynomial_value(gamma: float, beta: float, k: int, c: FunctionClass) -> float:
    """Value of the period-K membership quadratic at (gamma, beta)."""
    return _membership_quadratic(c.mu * gamma, beta, k, c.kappa)[0]


def beta_minus(k: int, c: FunctionClass) -> float:
    """Smallest momentum for which the period-K membership quadratic has roots.

    Written as cos(2*pi/K) plus a gap that factors as sqrt(kappa)(1 - cos)
    times a bounded ratio; unlike the rational closed form it has no 0/0
    (the rational form's denominator 1 - 2*kappa + kappa^2 cos^2 vanishes
    at kappa = 1/2 with K = 4).
    """
    kap = c.kappa
    ct = math.cos(2.0 * math.pi / k)
    gap = (math.sqrt(kap) * (1.0 - ct)
           * ((1.0 + ct) * math.sqrt(kap) + math.sqrt(2.0 * (1.0 + ct)))
           / (1.0 + kap * ct + math.sqrt(2.0 * kap * (1.0 + ct))))
    return ct + gap


@dataclass(frozen=True)
class CycleQuadratic:
    """Coefficients and roots of the period-K membership quadratic.

    The quadratic in mu*gamma is (mu*gamma)^2 - 2*a*(mu*gamma) + c0 with
    half-discriminant b = sqrt(a^2 - c0).  ``b`` and the roots are None when
    the discriminant is negative (region empty at this beta).  Roots are
    reported in gamma units: gamma_minus = (a - b)/mu, gamma_plus = (a + b)/mu.
    """

    a: float
    b: float | None
    gamma_minus: float | None
    gamma_plus: float | None
    beta_minus: float


def membership_polynomial(beta: float, k: int, c: FunctionClass) -> CycleQuadratic:
    """Quadratic whose nonpositivity characterizes period-K cycling at ``beta``."""
    if k < 2:
        raise ValueError(f"period must be >= 2, got {k}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    _, a, c0 = _membership_quadratic(0.0, beta, k, c.kappa)
    disc = a * a - c0
    bm = beta_minus(k, c)
    if disc < 0.0:
        return CycleQuadratic(a, None, None, None, bm)
    b = math.sqrt(disc)
    return CycleQuadratic(a, b, (a - b) / c.mu, (a + b) / c.mu, bm)


def rou_member(p: HbParams, c: FunctionClass, k: int) -> bool:
    """Whether heavy ball at ``p`` cycles over the K roots of unity on the class.

    True iff ``p`` lies in (the closure of) the quadratic convergence region
    and the membership quadratic is <= 0.  Equality counts as membership.
    Negative momentum is rejected: the region is characterized for beta >= 0
    only.
    """
    if k < 2:
        raise ValueError(f"period must be >= 2, got {k}")
    if p.beta < 0.0:
        raise ValueError("cycling membership is only defined for beta >= 0")
    return in_cv_closure(p.gamma, p.beta, c) and polynomial_value(p.gamma, p.beta, k, c) <= 0.0


def rou_member_any(p: HbParams, c: FunctionClass,
                   k_max: int = DEFAULT_K_MAX) -> int | None:
    """Smallest period K in [3, k_max] whose cycling region contains ``p``."""
    if k_max < 3:
        raise ValueError(f"k_max must be >= 3, got {k_max}")
    if p.beta < 0.0:
        raise ValueError("cycling membership is only defined for beta >= 0")
    if not in_cv_closure(p.gamma, p.beta, c):
        return None
    mg, kap = c.mu * p.gamma, c.kappa
    for k in range(3, k_max + 1):
        if _membership_quadratic(mg, p.beta, k, kap)[0] <= 0.0:
            return k
    return None


def member_any_grid(gammas, betas, c: FunctionClass,
                    k_max: int = DEFAULT_K_MAX) -> np.ndarray:
    """Vectorized ``rou_member_any``: smallest member period per cell, 0 if none.

    Requires beta >= 0 everywhere on the grid.
    """
    g, b = np.broadcast_arrays(np.asarray(gammas, dtype=float),
                               np.asarray(betas, dtype=float))
    if np.any(b < 0.0):
        raise ValueError("cycling membership is only defined for beta >= 0")
    out = np.zeros(g.size, dtype=np.int32)
    # Flat index, beta and mu*gamma of each cell not yet given a period.
    cell = np.flatnonzero(in_cv_closure(g, b, c))
    b = b.ravel()[cell]
    mg = c.mu * g.ravel()[cell]
    kap = c.kappa
    for k in range(3, k_max + 1):
        if not cell.size:
            break
        hit = _membership_quadratic(mg, b, k, kap)[0] <= 0.0
        out[cell[hit]] = k
        if hit.any():
            cell, b, mg = cell[~hit], b[~hit], mg[~hit]
    return out.reshape(g.shape)


@dataclass(frozen=True)
class CounterExample:
    """Counterexample geometry at a cycling parameter point.

    ``m`` is the linear operator whose images of the cycle points form the
    polygon, a scaled rotation a*I + b*J; so ``hull``, the K vertices in
    counter-clockwise (cycle) order, is a regular K-gon centred at the
    origin with vertex t at angle ``phi`` + 2*pi*t/K.  ``r_max`` is the
    Euclidean radius of the guaranteed locally quadratic ball around each
    cycle point (0 on the region's boundary, positive inside);
    ``hull_radius`` is the largest vertex norm.  ``_edge_floats`` holds, per
    edge t, the floats (h0, h1, e0, e1, edge_sq, length) of vertex t, edge
    t, its squared length and length, for the one-point loops;
    ``_edge_table`` holds the first five as (5, K) rows, for the batch.
    """

    k: int
    m: np.ndarray
    hull: np.ndarray
    r_max: float
    edges: np.ndarray = field(repr=False, default=None)
    hull_radius: float = field(repr=False, default=None)
    _edge_floats: tuple = field(repr=False, default=None)
    phi: float = field(repr=False, default=None)
    _edge_table: np.ndarray = field(repr=False, default=None)


def build_counterexample(p: HbParams, c: FunctionClass, k: int) -> CounterExample:
    """Operator M, polygon hull, and safety radius at a member point.

    Raises ValueError when ``p`` is not a period-``k`` member or the class is
    degenerate (mu = ell).  The sector-indexed projection relies on a
    regular K-gon centred at the origin, so K >= 3 (the period-2 member on
    the step-size edge spans a segment) and M must be a*I + b*J to rounding
    with a^2 + b^2 > 0, a nonzero scaled rotation; anything else raises a
    degenerate-operator ValueError.
    """
    if c.mu >= c.ell:
        raise ValueError("degenerate class mu = ell admits no counterexample")
    if not rou_member(p, c, k):
        raise ValueError(
            f"({p.gamma}, {p.beta}) is not a period-{k} member: "
            f"membership polynomial = {polynomial_value(p.gamma, p.beta, k, c):.6g} > 0")
    cyc = rou_cycle(k)
    rot = cyc.rotation
    m = ((1.0 + p.beta - c.mu * p.gamma) * np.eye(2) - rot - p.beta * rot.T) \
        / ((c.ell - c.mu) * p.gamma)
    (a, m01), (b, m11) = m.tolist()
    tol = 4.0 * float(np.finfo(float).eps) * (abs(a) + abs(b))
    if not (k >= 3 and abs(a - m11) <= tol and abs(b + m01) <= tol and a * a + b * b > 0.0):
        raise ValueError(f"degenerate operator: the {k} images are not a regular polygon")
    hull = cyc.points @ m.T

    x0, x1 = cyc.points[0], cyc.points[1]
    v = m @ (x1 - x0)
    r_max = float(-np.dot((np.eye(2) - m) @ x0, v / np.linalg.norm(v)))

    edges = np.roll(hull, -1, axis=0) - hull
    edge_sq = np.einsum("ij,ij->i", edges, edges)
    table = np.vstack([hull.T, edges.T, edge_sq])
    edge_floats = tuple(zip(*table.tolist(), np.sqrt(edge_sq).tolist()))
    return CounterExample(k=k, m=m, hull=hull, r_max=r_max, edges=edges,
                          hull_radius=float(np.linalg.norm(hull, axis=1).max()),
                          _edge_floats=edge_floats, phi=math.atan2(b, a), _edge_table=table)


def _sector(ce: CounterExample, x0: float, x1: float) -> int:
    """Index t of the cone between the rays through vertices t and t+1
    holding the point; 0 for a NaN point."""
    angle = math.atan2(x1, x0)
    if angle != angle:
        return 0
    return math.floor((angle - ce.phi) * (0.5 * ce.k / math.pi)) % ce.k


def _project_one(ce: CounterExample, t: int, x0: float, x1: float) -> tuple[float, float]:
    """``polygon_project_batch`` at one point of cone ``t``, in Python floats.

    The batch kernel's expressions in the same order, so the result has
    the same bits: the clamp keeps NaN and -0.0.
    """
    h0, h1, e0, e1, edge_sq, _ = ce._edge_floats[t]
    r0 = x0 - h0
    r1 = x1 - h1
    if e0 * r1 - e1 * r0 >= 0.0:
        return x0, x1
    t = min(max((r0 * e0 + r1 * e1) / edge_sq, 0.0), 1.0)
    return t * e0 + h0, t * e1 + h1


def polygon_project_batch(ce: CounterExample, x: np.ndarray) -> np.ndarray:
    """Exact closest-point projections onto the polygon, batched.

    The polygon is a regular K-gon centred at the origin, so each point
    needs one edge: that of the cone t between the rays through vertices t
    and t+1 holding it, found from its angle.  A point of cone t is inside
    the polygon iff it is inside edge t; otherwise its closest point is
    edge t's clamped projection, since slab t and the wedges at vertices t
    and t+1 are the only exterior feature cells meeting cone t.  A NaN
    point takes cone 0 and projects to NaN.  ``x`` has shape (n, 2).  One
    point runs in Python floats (numpy's per-call overhead dwarfs its
    arithmetic there), more points as arrays of one coordinate.  The two
    give the same bits, except within rounding of a ray between cones,
    where math.atan2 and np.arctan2 may round apart and take neighbouring
    edges: both then give the closest point to rounding.  The one-point
    gradients of ``CounterexampleFunction.grad`` and ``smoothed_grad``
    call ``_project_one`` through ``_grad_one`` instead.
    """
    if len(x) == 1:
        x0, x1 = x[0].tolist()
        return np.array([_project_one(ce, _sector(ce, x0, x1), x0, x1)], dtype=float)
    x0, x1 = x[:, 0], x[:, 1]
    sector = np.arctan2(x1, x0)
    sector -= ce.phi
    sector *= 0.5 * ce.k / math.pi
    # fmax turns NaN into cone -K = 0 (mod K): the cast would warn on NaN.
    np.fmax(np.floor(sector, out=sector), -ce.k, out=sector)
    h0, h1, e0, e1, edge_sq = ce._edge_table.take(sector.astype(np.intp), axis=1, mode="wrap")
    rel0 = x0 - h0
    rel1 = x1 - h1
    inside = e0 * rel1 - e1 * rel0 >= 0.0
    t = rel0 * e0
    t += rel1 * e1
    t /= edge_sq
    np.clip(t, 0.0, 1.0, out=t)
    proj = np.empty_like(x)
    c0, c1 = proj[:, 0], proj[:, 1]
    np.multiply(t, e0, out=c0)
    c0 += h0
    np.multiply(t, e1, out=c1)
    c1 += h1
    np.copyto(proj, x, where=inside[:, None])
    return proj


def _grad_one(ce: CounterExample, c: FunctionClass, t: int,
              x0: float, x1: float) -> tuple[float, float]:
    """Exact counterexample gradient L x - (L-mu)(x - proj(x)) at one point
    of cone ``t``, in Python floats.

    ``_counterexample_batch``'s expressions in the same order, so one row
    gives the same bits either way.
    """
    p0, p1 = _project_one(ce, t, x0, x1)
    ell = c.ell
    drop = ell - c.mu
    return ell * x0 - drop * (x0 - p0), ell * x1 - drop * (x1 - p1)


def _counterexample_batch(ce: CounterExample, c: FunctionClass, x: np.ndarray,
                          value: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """Values (n,) and exact gradients (n, 2) of the counterexample at the
    rows of ``x``; the values are None unless ``value``.

    value(x) = (L/2)||x||^2 - ((L-mu)/2) dist(x, hull)^2 and
    grad(x)  = L x - (L-mu)(x - proj(x)).  Inside the hull the distance term
    vanishes and the gradient is exactly L x; in the vertex regions the
    Hessian is mu*I.
    """
    gap = x - polygon_project_batch(ce, x)
    grad = c.ell * x - (c.ell - c.mu) * gap
    if not value:
        return None, grad
    return (0.5 * c.ell * np.einsum("ij,ij->i", x, x)
            - 0.5 * (c.ell - c.mu) * np.einsum("ij,ij->i", gap, gap)), grad


def eval_counterexample(ce: CounterExample, c: FunctionClass,
                        x: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and exact gradient of the piecewise-quadratic counterexample at
    one point."""
    value, grad = _counterexample_batch(ce, c, np.asarray(x, dtype=float)[None, :])
    return float(value[0]), grad[0]


class CounterexampleFunction:
    """Callable value/gradient pair for the counterexample function."""

    def __init__(self, ce: CounterExample, c: FunctionClass):
        self.ce = ce
        self.fclass = c

    def value(self, x) -> float:
        return eval_counterexample(self.ce, self.fclass, x)[0]

    def grad(self, x) -> np.ndarray:
        """Exact gradient at one point, in Python floats (``_grad_one``)."""
        x0, x1 = np.asarray(x, dtype=float).tolist()
        return np.array(_grad_one(self.ce, self.fclass, _sector(self.ce, x0, x1), x0, x1))

    def grad_batch(self, x: np.ndarray) -> np.ndarray:
        return _counterexample_batch(self.ce, self.fclass, x, value=False)[1]

    def value_batch(self, x: np.ndarray) -> np.ndarray:
        return _counterexample_batch(self.ce, self.fclass, x)[0]


def incompatibility_scan(c: FunctionClass, big_c: float,
                         resolution: tuple[int, int] = (300, 300),
                         k_max: int = DEFAULT_K_MAX) -> bool:
    """Grid check that fast sublevel sets are swallowed by the cycling region.

    Scans a (gamma, beta) grid covering the sublevel set of rate
    (1 - C*kappa)/(1 + C*kappa) and reports True iff every grid point of that
    sublevel set belongs to some period's cycling region, i.e. the sublevel
    set does not intersect the region's complement.  Requires C > 50/3.
    """
    if big_c <= 50.0 / 3.0:
        raise ValueError(f"constant must exceed 50/3, got {big_c}")
    ck = big_c * c.kappa
    rho_target = (1.0 - ck) / (1.0 + ck)
    if rho_target <= 0.0:
        return True

    n_gamma, n_beta = resolution
    gammas = np.linspace(4.0 / c.ell / n_gamma, 4.0 / c.ell, n_gamma)
    betas = np.linspace(0.0, 1.0, n_beta, endpoint=False)
    g, b = np.meshgrid(gammas, betas, indexing="ij")
    rho, codes = rate_grid(g, b, c)
    in_sls = (codes != NO_CONVERGENCE) & (rho <= rho_target)
    if not in_sls.any():
        return True
    member = member_any_grid(g, b, c, k_max=k_max) > 0
    return not np.any(in_sls & ~member)
