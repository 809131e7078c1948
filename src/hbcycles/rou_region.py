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
sublevel-set triangle of rate 1 - O(kappa).  A counterexample keeps the
(gamma, beta), class and period it was built for.

The smallest member period is found in closed form.  In x = cos(2*pi/K)
the membership quadratic is A x^2 + B x + C with A = 4 kappa beta >= 0, so
the member periods of a cell are the K whose cos(2*pi/K) lies in one
interval.  ``member_any_grid`` (and ``rou_member_any``, its one-cell form)
bounds that interval, allowing for a bound E on the rounding of the float
value (``MEMBERSHIP_ROUNDING``) and for the rounding of the cosines
(``_COS_ROUNDING``), then runs the float kernel at the few periods inside,
in K order.  The result is the K, bit for bit, of testing every period
from 3 to k_max, at a cost that does not grow with k_max.  The search
starts at K = 3: period 2, the step-size edge, is not searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quad_rates import (
    _UNIT_ROUNDOFF,
    FunctionClass,
    HbParams,
    in_cv_closure,
    rate_grid,
    sublevel_set,
)

# Default cap for the membership search over periods; larger periods only
# matter very close to beta = 1.
DEFAULT_K_MAX = 100

# Relative factor of the bound E on the rounding of the membership value at
# |cos| <= 1, both by ``_membership_quadratic`` and in the coefficient form
# of ``_candidate_periods``, and of that form's slope: each is at most 9u
# times the sum of the magnitudes of the quadratic's terms, rounded up here
# to 16u.
MEMBERSHIP_ROUNDING = 16 * _UNIT_ROUNDOFF
# Bound on |_cos_period(K) - cos(2*pi/K)|: the angle's rounding (3.2e-16)
# plus libm's cos, at most 1 ulp (2.2e-16), rounded up to 4 machine epsilons.
_COS_ROUNDING = 8 * _UNIT_ROUNDOFF
# Cells per call of the smallest-period kernel in ``member_any_grid``.
_GRID_CHUNK = 16384
# The ufunc behind np.clip, whose Python wrapper costs more than the clip
# of a few hundred points.
_clip = np._core.umath.clip


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


def _cos_period(k: int) -> float:
    """cos(2*pi/K), the float every membership evaluation at period K uses."""
    return math.cos(2.0 * math.pi / k)


def _membership_quadratic(mg, beta, ct, kappa: float):
    """(value, a, c0) of the membership quadratic
    (mu*gamma)^2 - 2a(mu*gamma) + c0 at mu*gamma = ``mg``, for the period
    whose ``_cos_period`` is ``ct``; ``mg``, ``beta`` and ``ct`` are floats
    or arrays."""
    a = beta - ct + kappa * (1.0 - beta * ct)
    c0 = 2.0 * kappa * (1.0 - ct) * (1.0 + beta * beta - 2.0 * beta * ct)
    return mg * mg - 2.0 * a * mg + c0, a, c0


def polynomial_value(gamma: float, beta: float, k: int, c: FunctionClass) -> float:
    """Value of the period-K membership quadratic at (gamma, beta)."""
    return _membership_quadratic(c.mu * gamma, beta, _cos_period(k), c.kappa)[0]


def beta_minus(k: int, c: FunctionClass) -> float:
    """Smallest momentum for which the period-K membership quadratic has roots.

    Written as cos(2*pi/K) plus a gap that factors as sqrt(kappa)(1 - cos)
    times a bounded ratio; unlike the rational closed form it has no 0/0
    (the rational form's denominator 1 - 2*kappa + kappa^2 cos^2 vanishes
    at kappa = 1/2 with K = 4).
    """
    kap = c.kappa
    ct = _cos_period(k)
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
    _, a, c0 = _membership_quadratic(0.0, beta, _cos_period(k), c.kappa)
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


def _candidate_periods(mg, beta, kappa: float, k_max: int):
    """(cell, k_lo, k_hi): the cells of the 1-d arrays ``mg`` and ``beta``
    that may have a member period, and per cell a nonempty range of periods
    holding every K in [3, k_max] at which ``_membership_quadratic`` can be
    <= 0.

    In x = cos(2*pi/K) the value is q(x) = A x^2 + B x + C with A = 4 kappa
    beta >= 0, and a float value is within E of q (``MEMBERSHIP_ROUNDING``),
    so only an x with q(x) <= E can give a float value <= 0.  At the
    approximate roots of q - 6E (the vertex where there are none) q's
    tangent bounds q from below, since q is convex; where it stays above E
    beyond an end, no x there qualifies.  The 6E leaves room for the
    rounding of the roots and of the bound; an end whose tangent bound
    still fails rules out nothing.  The x-interval left is widened by ``_COS_ROUNDING``
    and mapped to K through arccos, with one period of slack for the
    rounding of that map.
    """
    kb = kappa * beta
    sq = (1.0 + beta) * (1.0 + beta)
    quad = 4.0 * kb
    lin = 2.0 * mg * (1.0 + kb) - 2.0 * kappa * sq
    const = mg * mg - 2.0 * mg * (beta + kappa) + 2.0 * kappa * (1.0 + beta * beta)
    err = MEMBERSHIP_ROUNDING * (mg * mg + 2.0 * mg * (1.0 + beta) * (1.0 + kappa)
                                 + 4.0 * kappa * sq)
    shifted = const - 6.0 * err
    disc = lin * lin - 4.0 * quad * shifted
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = -0.5 * (lin + np.copysign(np.sqrt(np.maximum(disc, 0.0)), lin))
        r2 = h / quad
        r1 = np.where(disc >= 0.0, shifted / h, r2)
    # fmin and fmax skip a root that is 0/0 (A or B zero); where both are,
    # the end goes to -1, as good a point as any for the tangent bound.
    lo = np.fmin(np.fmax(np.fmin(r1, r2), -1.0), 1.0)
    hi = np.fmin(np.fmax(np.fmax(r1, r2), -1.0), 1.0)

    def tangent_floor(x, side):
        """A lower bound on q + 2E over the part of [-1, 1] beyond ``x`` on
        ``side`` (-1 left, +1 right): the float value at ``x`` less the
        steepest descent toward that side (the float slope, within E)
        times the span.  One E is the value's rounding, one this bound's."""
        qx = quad * x
        v = (qx + lin) * x + const
        return v - np.maximum(err - side * (2.0 * qx + lin), 0.0) * (1.0 - side * x)

    left = tangent_floor(lo, -1.0) > 3.0 * err
    right = tangent_floor(hi, 1.0) > 3.0 * err
    cell = np.flatnonzero(~(left & right & (lo >= hi)))
    left, right, lo, hi = left[cell], right[cell], lo[cell], hi[cell]
    with np.errstate(divide="ignore"):
        t_lo = 2.0 * math.pi / np.arccos(np.where(left, np.fmax(lo - _COS_ROUNDING, -1.0), -1.0))
        t_hi = 2.0 * math.pi / np.arccos(np.where(right, np.fmin(hi + _COS_ROUNDING, 1.0), 1.0))
    k_lo = np.maximum(np.floor(t_lo), 3.0).astype(np.int64)
    k_hi = np.minimum(np.ceil(t_hi), k_max).astype(np.int64)
    some = k_lo <= k_hi
    return cell[some], k_lo[some], k_hi[some]


def _smallest_member_period(mg, beta, kappa: float, k_max: int) -> np.ndarray:
    """Smallest K in [3, k_max] with ``_membership_quadratic`` <= 0, per cell
    of the 1-d arrays ``mg`` and ``beta``; 0 if none.

    The float kernel runs at each cell's candidate periods in K order and
    the first hit wins, so the result is that of a loop over every K from
    3, at a cost that does not grow with k_max (``_candidate_periods``).
    The cosines are tabulated up to the largest period reached, doubling
    the table as the loop goes.
    """
    out = np.zeros(len(mg), dtype=np.int32)
    cell, k, k_hi = _candidate_periods(mg, beta, kappa, k_max)
    mg, beta = mg[cell], beta[cell]
    cos_table = np.empty(0)
    while cell.size:
        top = int(k.max())
        if top - 2 > cos_table.size:
            top = min(max(top, 2 * cos_table.size + 2), k_max)
            new = [_cos_period(j) for j in range(cos_table.size + 3, top + 1)]
            cos_table = np.append(cos_table, new)
        hit = _membership_quadratic(mg, beta, cos_table[k - 3], kappa)[0] <= 0.0
        out[cell[hit]] = k[hit]
        k += 1
        open_ = ~hit & (k <= k_hi)
        cell, k, k_hi, mg, beta = cell[open_], k[open_], k_hi[open_], mg[open_], beta[open_]
    return out


def rou_member_any(p: HbParams, c: FunctionClass,
                   k_max: int = DEFAULT_K_MAX) -> int | None:
    """Smallest period K in [3, k_max] whose cycling region contains ``p``,
    None if none: ``member_any_grid`` on the one cell, with its checks."""
    return int(member_any_grid(p.gamma, p.beta, c, k_max)) or None


def member_any_grid(gammas, betas, c: FunctionClass,
                    k_max: int = DEFAULT_K_MAX) -> np.ndarray:
    """Smallest member period in [3, k_max] per cell of the (gamma, beta)
    grid, 0 if none.

    The closed form of the module docstring: each cell in the
    convergence-region closure tests the float membership value only at its
    candidate periods, those whose cos(2*pi/K) lies in the interval where
    the membership quadratic A x^2 + B x + C is within its rounding bound E
    of <= 0, in K order; so each period is that of testing every K from 3,
    and the cost does not grow with k_max.  Raises ValueError for a k_max
    below 3 and for a negative beta anywhere on the grid.
    """
    if k_max < 3:
        raise ValueError(f"k_max must be >= 3, got {k_max}")
    g, b = np.broadcast_arrays(np.asarray(gammas, dtype=float),
                               np.asarray(betas, dtype=float))
    if np.any(b < 0.0):
        raise ValueError("cycling membership is only defined for beta >= 0")
    out = np.zeros(g.size, dtype=np.int32)
    cell = np.flatnonzero(in_cv_closure(g, b, c))
    mg, b = c.mu * g.ravel()[cell], b.ravel()[cell]
    # Chunks keep the kernel's temporaries in cache: about 2x faster than
    # whole-grid arrays on the benchmark grids.
    for i in range(0, cell.size, _GRID_CHUNK):
        part = slice(i, i + _GRID_CHUNK)
        out[cell[part]] = _smallest_member_period(mg[part], b[part], c.kappa, k_max)
    return out.reshape(g.shape)


@dataclass(frozen=True)
class CounterExample:
    """Counterexample geometry at a cycling parameter point.

    ``p``, ``c`` and ``k`` are the parameters, class and period it was
    built for.  ``m`` is the linear operator whose images of the cycle points form the
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

    p: HbParams
    c: FunctionClass
    k: int
    m: np.ndarray
    hull: np.ndarray
    r_max: float
    edges: np.ndarray = field(repr=False)
    hull_radius: float = field(repr=False)
    _edge_floats: tuple = field(repr=False)
    phi: float = field(repr=False)
    _edge_table: np.ndarray = field(repr=False)


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
    tol = 8.0 * _UNIT_ROUNDOFF * (abs(a) + abs(b))
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
    return CounterExample(p=p, c=c, k=k, m=m, hull=hull, r_max=r_max, edges=edges,
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


class _BatchWork:
    """Buffers of ``polygon_project_batch`` and ``_counterexample_batch``
    for batches shaped like ``x`` (n, 2), with their row views built once.

    The float buffers are rows of one block, so a workspace is one
    allocation (a few small ones aside): with an array per buffer, each
    4,096-point workspace freed made glibc trim the heap and the next
    fault it back in.  The projection, gap and gradient
    are (n, 2) views, F-ordered like an F-ordered ``x`` and C-ordered
    otherwise.  A caller that steps many batches of one shape makes one
    and hands it to every call; each result is then one of its buffers,
    valid until the next call.
    """

    def __init__(self, x: np.ndarray):
        n = len(x)
        rows = np.empty((16, n))
        self.sector = rows[0]
        self.cone = np.empty(n, dtype=np.intp)
        # Rows h0, h1, e0, e1, edge_sq of each point's edge.
        self.edge = rows[1:6]
        self.h = rows[1:3]
        self.e0, self.e1, self.edge_sq = rows[3], rows[4], rows[5]
        self.e = rows[3:5]
        self.e_rev = rows[4:2:-1]
        self.rel = rows[6:8]
        self.rel0, self.rel1 = rows[6], rows[7]
        self.cross = rows[8:10]
        self.cross0, self.cross1 = rows[8], rows[9]
        self.inside = np.empty(n, dtype=bool)
        self.inside_col = self.inside[:, None]
        f_order = x.flags.f_contiguous and not x.flags.c_contiguous
        self.proj, self.gap, self.grad = (rows[i:i + 2].T if f_order
                                          else rows[i:i + 2].reshape(n, 2)
                                          for i in (10, 12, 14))
        self.proj_t = self.proj.T
        self.proj0, self.proj1 = self.proj_t


def polygon_project_batch(ce: CounterExample, x: np.ndarray,
                          work: _BatchWork | None = None) -> np.ndarray:
    """Exact closest-point projections onto the polygon, batched.

    The polygon is a regular K-gon centred at the origin, so each point
    needs one edge: that of the cone t between the rays through vertices t
    and t+1 holding it, found from its angle.  A point of cone t is inside
    the polygon iff it is inside edge t; otherwise its closest point is
    edge t's clamped projection, since slab t and the wedges at vertices t
    and t+1 are the only exterior feature cells meeting cone t.  A NaN
    point takes cone 0 and projects to NaN.  ``x`` has shape (n, 2).  One
    point runs in Python floats (numpy's per-call overhead dwarfs its
    arithmetic there), more points as (2, n) arrays, one row per
    coordinate (contiguous when ``x`` is F-ordered, as the transposed
    state of ``perturbed_runs`` is), in the buffers of ``work``, a
    ``_BatchWork`` made for ``x``'s shape: the result is then its
    projection buffer, valid until the next call with it.  Without
    ``work`` the call makes its own, so the result is a new array; the
    operations and so the bits are the same either way.  The two branches
    give the same bits, except within rounding of a ray between cones,
    where math.atan2 and np.arctan2 may round apart and take neighbouring
    edges: both then give the closest point to rounding.  The one-point
    gradients (``CounterexampleFunction.grad`` and ``grad_xy``, the exact
    branch of ``smoothed_grad``, and so the float steps of the plain,
    smoothed and dilated runs) call ``_project_one`` through ``_grad_one``
    instead.
    """
    if len(x) == 1:
        x0, x1 = x[0].tolist()
        return np.array([_project_one(ce, _sector(ce, x0, x1), x0, x1)], dtype=float)
    if work is None:
        work = _BatchWork(x)
    x_t = x.T
    sector = np.arctan2(x_t[1], x_t[0], out=work.sector)
    sector -= ce.phi
    sector *= 0.5 * ce.k / math.pi
    # fmax turns NaN into cone -K = 0 (mod K): the cast would warn on NaN.
    # As -K is an integer, flooring after it is flooring before it.
    np.fmax(sector, -ce.k, out=sector)
    cone = np.floor(sector, out=work.cone, casting="unsafe")
    ce._edge_table.take(cone, axis=1, out=work.edge, mode="wrap")
    h, rel, cross1 = work.h, work.rel, work.cross1
    np.subtract(x_t, h, out=rel)
    # cross = (e1 rel0, e0 rel1): the point is inside iff e0 rel1 - e1 rel0 >= 0.
    np.multiply(work.e_rev, rel, out=work.cross)
    np.subtract(cross1, work.cross0, out=cross1)
    np.greater_equal(cross1, 0.0, out=work.inside)
    rel *= work.e
    t = np.add(work.rel0, work.rel1, out=sector)
    t /= work.edge_sq
    # Unlike np.maximum and np.minimum, clip keeps -0.0, as _project_one's
    # clamp does.
    _clip(t, 0.0, 1.0, out=t)
    proj, proj_t = work.proj, work.proj_t
    np.multiply(t, work.e0, out=work.proj0)
    np.multiply(t, work.e1, out=work.proj1)
    proj_t += h
    np.copyto(proj, x, where=work.inside_col)
    return proj


def _grad_one(ce: CounterExample, t: int, x0: float, x1: float) -> tuple[float, float]:
    """Exact counterexample gradient L x - (L-mu)(x - proj(x)) at one point
    of cone ``t``, in Python floats, with (mu, L) the class of ``ce``.

    ``_counterexample_batch``'s expressions in the same order, so one row
    gives the same bits either way.
    """
    p0, p1 = _project_one(ce, t, x0, x1)
    ell = ce.c.ell
    drop = ell - ce.c.mu
    return ell * x0 - drop * (x0 - p0), ell * x1 - drop * (x1 - p1)


def _counterexample_batch(ce: CounterExample, x: np.ndarray, value: bool = True,
                          work: _BatchWork | None = None
                          ) -> tuple[np.ndarray | None, np.ndarray]:
    """Values (n,) and exact gradients (n, 2) of the counterexample at the
    rows of ``x``, on the class (mu, L) of ``ce``; the values are None
    unless ``value``.

    value(x) = (L/2)||x||^2 - ((L-mu)/2) dist(x, hull)^2 and
    grad(x)  = L x - (L-mu)(x - proj(x)).  Inside the hull the distance term
    vanishes and the gradient is exactly L x; in the vertex regions the
    Hessian is mu*I.  The gradient is the gradient buffer of ``work``
    (see ``polygon_project_batch``), of a new one without it.
    """
    c = ce.c
    if work is None:
        work = _BatchWork(x)
    gap = np.subtract(x, polygon_project_batch(ce, x, work), out=work.gap)
    values = None
    if value:
        values = (0.5 * c.ell * np.einsum("ij,ij->i", x, x)
                  - 0.5 * (c.ell - c.mu) * np.einsum("ij,ij->i", gap, gap))
    grad = np.multiply(c.ell, x, out=work.grad)
    grad -= np.multiply(c.ell - c.mu, gap, out=gap)
    return values, grad


def eval_counterexample(ce: CounterExample, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and exact gradient of the piecewise-quadratic counterexample at
    one point, on the class it was built for."""
    value, grad = _counterexample_batch(ce, np.asarray(x, dtype=float)[None, :])
    return float(value[0]), grad[0]


class CounterexampleFunction:
    """Callable value/gradient pair for the counterexample function, on the
    class the counterexample was built for."""

    def __init__(self, ce: CounterExample):
        self.ce = ce

    def value(self, x) -> float:
        return eval_counterexample(self.ce, x)[0]

    def grad(self, x) -> np.ndarray:
        """Exact gradient at one point, in Python floats (``_grad_one``)."""
        x0, x1 = np.asarray(x, dtype=float).tolist()
        return np.array(self.grad_xy(x0, x1))

    def grad_xy(self, x0: float, x1: float) -> tuple[float, float]:
        """``grad`` at the point (x0, x1), as the float pair (g0, g1)."""
        return _grad_one(self.ce, _sector(self.ce, x0, x1), x0, x1)

    def grad_batch(self, x: np.ndarray) -> np.ndarray:
        """Exact gradients at the rows of the (n, 2) array ``x``.  Public API
        of a class named in ``__init__``; no command calls it."""
        return _counterexample_batch(self.ce, x, value=False)[1]

    def value_batch(self, x: np.ndarray) -> np.ndarray:
        return _counterexample_batch(self.ce, x)[0]


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
    if big_c * c.kappa >= 1.0:
        return True  # the target rate is <= 0: the sublevel set is empty

    n_gamma, n_beta = resolution
    gammas = np.linspace(4.0 / c.ell / n_gamma, 4.0 / c.ell, n_gamma)
    betas = np.linspace(0.0, 1.0, n_beta, endpoint=False)
    g, b = np.meshgrid(gammas, betas, indexing="ij")
    _, in_sls = sublevel_set(*rate_grid(g, b, c), c, big_c)
    if not in_sls.any():
        return True
    member = member_any_grid(g, b, c, k_max=k_max) > 0
    return not np.any(in_sls & ~member)
