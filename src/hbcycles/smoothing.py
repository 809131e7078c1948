"""Infinitely smooth counterexamples via mollifier convolution and dilation.

Convolving the piecewise-quadratic counterexample with a compactly
supported bump density keeps it in the smooth strongly convex class, makes
it C-infinity with a finite Hessian-Lipschitz constant, and (because the
gradient is affine on the support balls around the cycle points) leaves the
gradients on the cycle untouched, so the cycle survives.  Dilating by
lambda scales the cycle by lambda and divides every derivative of order
r >= 3 by lambda^{r-2}, defeating any prescribed Hessian-Lipschitz bound.

The smoothed gradient uses the same fact wherever it holds.  The base
gradient L x - (L - mu)(x - proj x) is affine on each feature cell of the
polygon projection (the interior, the K edge slabs and the K vertex
wedges), and the density has unit mass and zero mean, so when the support
ball lies inside one cell the smoothed gradient is the base gradient,
exactly.  Only balls that reach a cell boundary are integrated, on a fixed
polar tensor grid (Gauss-Legendre radial, uniform angular), chosen over
adaptive schemes for determinism; the integrand is smooth with compact
support, so the fixed grid converges fast.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .hb_engine import run
from .quad_rates import FunctionClass, HbParams
from .rou_region import (
    CounterExample,
    CounterexampleFunction,
    _counterexample_batch,
    _grad_one,
    _sector,
    rou_cycle,
    rou_member,
)


_EPS = float(np.finfo(float).eps)


class QuadraturePrecisionWarning(UserWarning):
    """Raised as a warning when the quadrature mass defect exceeds tolerance."""


def _unit_bump_radial_mass() -> float:
    """integral over [0,1] of exp(-1/(1-r^2)) r dr, to near machine accuracy."""
    x, w = leggauss(256)
    r = 0.5 * (x + 1.0)
    return float(np.sum(0.5 * w * np.exp(-1.0 / (1.0 - r * r)) * r))


_UNIT_RADIAL_MASS = _unit_bump_radial_mass()
# Planar normalizer of the unit bump exp(-1/(1-|x|^2)) on the unit disc.
UNIT_BUMP_MASS = 2.0 * math.pi * _UNIT_RADIAL_MASS


@dataclass(frozen=True)
class Mollifier:
    """Smooth bump density with support in the epsilon-ball, unit mass, zero mean."""

    epsilon: float
    normalization: float  # planar integral of the un-normalized unit bump

    def density(self, y: np.ndarray) -> np.ndarray:
        """Density values at rows of ``y`` (zero outside the support)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        s2 = np.einsum("ij,ij->i", y, y) / (self.epsilon * self.epsilon)
        out = np.zeros(len(y))
        inside = s2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
        out /= self.normalization * self.epsilon * self.epsilon
        return out


def make_mollifier(epsilon: float) -> Mollifier:
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"support radius must be positive and finite, got {epsilon}")
    return Mollifier(epsilon, UNIT_BUMP_MASS)


@dataclass(frozen=True)
class SmoothedCounterExample:
    """Mollified counterexample with a fixed polar quadrature.

    Nodes and weights are precomputed at construction; ``mass_defect``
    records |quadrature(density) - 1| and is the error proxy attached to
    gradient evaluations.
    """

    base: CounterExample
    fclass: FunctionClass
    moll: Mollifier
    n_radial: int
    n_angular: int
    nodes: np.ndarray = field(repr=False, default=None)    # (n_r * n_a, 2)
    weights: np.ndarray = field(repr=False, default=None)  # (n_r * n_a,)
    mass_defect: float = 0.0

    def grad(self, x) -> np.ndarray:
        return smoothed_grad(self, x)

    def value(self, x) -> float:
        return smoothed_value(self, x)


def smooth_counterexample(ce: CounterExample, c: FunctionClass, epsilon: float,
                          n_radial: int = 64, n_angular: int = 64) -> SmoothedCounterExample:
    """Mollify the counterexample at support radius ``epsilon`` <= r_max.

    The radius cap keeps every support ball inside the locally quadratic
    neighborhood of its cycle point, which is what preserves the cycle.
    Raises ValueError for a radius that is not positive and finite, that
    exceeds r_max, or that leaves the quadrature weights non-finite.
    """
    moll = make_mollifier(epsilon)
    if epsilon > ce.r_max:
        raise ValueError(
            f"support radius {epsilon} exceeds the safety radius {ce.r_max}")

    x, w = leggauss(n_radial)
    radii = 0.5 * (x + 1.0) * epsilon
    w_rad = 0.5 * epsilon * w
    angles = 2.0 * math.pi * np.arange(n_angular) / n_angular
    w_ang = 2.0 * math.pi / n_angular

    r_grid, a_grid = np.meshgrid(radii, angles, indexing="ij")
    nodes = np.stack([(r_grid * np.cos(a_grid)).ravel(),
                      (r_grid * np.sin(a_grid)).ravel()], axis=1)
    # A radius whose square underflows makes the density normalizer zero;
    # any non-finite weight makes the defect non-finite, which is rejected.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dens = moll.density(nodes)
        weights = dens * (r_grid * w_rad[:, None]).ravel() * w_ang
        mass_defect = float(abs(weights.sum() - 1.0))
    if not math.isfinite(mass_defect):
        raise ValueError(f"quadrature weights are not finite at support radius {epsilon}")
    return SmoothedCounterExample(ce, c, moll, n_radial, n_angular,
                                  nodes, weights, mass_defect)


def _cell_margin(ce: CounterExample, t: int, x0: float, x1: float) -> float:
    """Distance from (x0, x1), a point of cone ``t``, to the boundary of its
    projection feature cell.

    Each cell is an intersection of half-planes, so the distance is the
    least signed distance to its bounding lines.  A point of cone t (see
    ``polygon_project_batch``) lies in the interior, edge slab t or the
    wedge at vertex t or t+1, and only its own cell scores positive, so the
    margin is the largest of four scores from edges t-1, t and t+1: the
    least inward distance to their lines for the interior (a point's
    nearest edge line is that of its cone, or within rounding of a ray a
    neighbour's); edge line t (from outside) and the normals at its two
    ends for slab t; the two normals at vertex t or t+1 for its wedge.
    Zero or below on a boundary; NaN unless the point is finite.
    """
    if not (math.isfinite(x0) and math.isfinite(x1)):
        return math.nan
    h0, h1, e0, e1, _, length = ce._edge_floats[t - 1]
    r0 = x0 - h0
    r1 = x1 - h1
    inward_prev = (e0 * r1 - e1 * r0) / length
    end_prev = length - (r0 * e0 + r1 * e1) / length
    h0, h1, e0, e1, _, length = ce._edge_floats[t + 1 - ce.k]  # edge t+1, wraps to 0
    r0 = x0 - h0
    r1 = x1 - h1
    inward_next = (e0 * r1 - e1 * r0) / length
    along_next = (r0 * e0 + r1 * e1) / length
    h0, h1, e0, e1, _, length = ce._edge_floats[t]
    r0 = x0 - h0
    r1 = x1 - h1
    inward = (e0 * r1 - e1 * r0) / length
    along = (r0 * e0 + r1 * e1) / length  # past the start normal
    before_end = length - along
    return max(min(inward_prev, inward, inward_next), min(-inward, along, before_end),
               min(-end_prev, -along), min(-before_end, -along_next))


def smoothed_grad(sce: SmoothedCounterExample, x) -> np.ndarray:
    """Gradient of the mollified counterexample: integral of grad(x - y) density(y).

    When the support ball B(x, epsilon) lies inside one projection feature
    cell, with a rounding slack, this is the base gradient at ``x``
    exactly (affine integrand, unit-mass zero-mean density): the one-point
    float kernel on the cone found once for both the margin and the
    projection, with the bits of ``CounterexampleFunction.grad``.
    Otherwise it is the polar quadrature, accurate to about the mass defect.
    """
    if sce.mass_defect > 1e-6:
        warnings.warn(
            f"quadrature mass defect {sce.mass_defect:.2e} exceeds 1e-6; "
            "increase the node counts", QuadraturePrecisionWarning, stacklevel=2)
    ce = sce.base
    x = np.asarray(x, dtype=float)
    x0, x1 = x.tolist()
    t = _sector(ce, x0, x1)
    # Covers the rounding of the sector margin, which is of order eps times
    # the size of x and of the polygon, including the interior score read
    # from the edge of a cone whose ray the point is within rounding of.
    slack = 64.0 * _EPS * (math.hypot(x0, x1) + ce.hull_radius)
    if _cell_margin(ce, t, x0, x1) > sce.moll.epsilon + slack:
        return np.array(_grad_one(ce, sce.fclass, t, x0, x1))
    return sce.weights @ _counterexample_batch(ce, sce.fclass, x[None, :] - sce.nodes,
                                               value=False)[1]


def smoothed_value(sce: SmoothedCounterExample, x) -> float:
    """Value of the mollified counterexample by the same quadrature.

    No exact branch: the kernel's second moment shifts the value even
    where the base function is quadratic on the whole support ball.
    """
    x = np.asarray(x, dtype=float)
    fn = CounterexampleFunction(sce.base, sce.fclass)
    return float(sce.weights @ fn.value_batch(x[None, :] - sce.nodes))


def cycle_check_smoothed(sce: SmoothedCounterExample, p: HbParams, k: int,
                         steps: int) -> float:
    """Max deviation from the cycle when iterating on the smoothed gradient.

    The smoothed and base gradients coincide on the cycle, and there the
    gradient takes the exact branch unless epsilon is within rounding of
    r_max, so the deviation is rounding (else quadrature) noise, reported
    rather than hidden.  Requires an
    interior member point (positive safety radius).
    """
    if not rou_member(p, sce.fclass, k) or sce.base.r_max <= 0.0:
        raise ValueError("smoothed cycle check needs an interior member point")
    cyc = rou_cycle(k)
    trace = run(lambda z: smoothed_grad(sce, z), p,
                cyc.points[0], cyc.points[1], steps)
    idx = np.arange(len(trace.iterates)) % k
    return float(np.max(np.linalg.norm(trace.iterates - cyc.points[idx], axis=1)))


@dataclass(frozen=True)
class DilatedFunction:
    """Rescaled function: value(x) = s^2 f(x/s), grad(x) = s grad_f(x/s).

    Hessians are unchanged; derivatives of order r scale by s^{2-r}, so a
    large scale shrinks the Hessian-Lipschitz constant proportionally.
    """

    inner_value: callable
    inner_grad: callable
    scale: float

    def value(self, x) -> float:
        return self.scale ** 2 * self.inner_value(np.asarray(x, float) / self.scale)

    def grad(self, x) -> np.ndarray:
        return self.scale * self.inner_grad(np.asarray(x, float) / self.scale)


def dilate(f, scale: float) -> DilatedFunction:
    """Dilation by ``scale`` > 0 of any object exposing value(x) and grad(x).

    If heavy ball cycles on f over a point set, it cycles on the dilation
    over the scaled set (from scaled starting points).  The value carries
    scale^2, and squared norms of the scaled points are of that order, so
    scale^2 must be a normal finite float: past it the squares overflow or
    lose their precision, and ValueError is raised.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if not sys.float_info.min <= scale * scale <= sys.float_info.max:
        raise ValueError(f"scale squared must be a normal finite float, got scale {scale}")
    return DilatedFunction(f.value, f.grad, scale)


def third_derivative_estimate(grad_fn, points, h: float = 0.05,
                              directions: int = 8) -> float:
    """Divided-difference bound proxy for the Hessian-Lipschitz constant.

    Central second differences of the gradient along a fan of directions at
    each sample point; the maximum norm over samples divided by h is an
    empirical estimate, never claimed as the exact constant.  The centre
    gradient is evaluated once per point.  ``h * h`` must be a normal
    float (ValueError otherwise): a subnormal divisor loses its precision.
    """
    if not h * h >= sys.float_info.min:
        raise ValueError(f"h squared must be a normal float, got h {h}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    best = 0.0
    for x in points:
        twice_centre = 2.0 * np.asarray(grad_fn(x))
        for j in range(directions):
            angle = math.pi * j / directions
            u = np.array([math.cos(angle), math.sin(angle)])
            second = (np.asarray(grad_fn(x + h * u))
                      - twice_centre
                      + np.asarray(grad_fn(x - h * u))) / (h * h)
            best = max(best, _norm(second))
    return best


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)``, rescaled where its sum of squares would
    overflow or fall below the normal range; the same bits elsewhere."""
    with np.errstate(over="ignore"):
        size = float(np.linalg.norm(v))
    if sys.float_info.min <= size * size < math.inf:
        return size
    peak = float(np.max(np.abs(v)))
    return peak * float(np.linalg.norm(v / peak)) if peak else 0.0
