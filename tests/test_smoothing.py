import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbcycles.hb_engine import cycle_distances, run
from hbcycles.quad_rates import FunctionClass, HbParams
from hbcycles.rou_region import (
    CounterexampleFunction,
    _counterexample_batch,
    _sector,
    build_counterexample,
    rou_cycle,
)
import hbcycles.smoothing as smoothing
from hbcycles.smoothing import (
    DilatedFunction,
    _cell_margin,
    cycle_check_smoothed,
    dilate,
    make_mollifier,
    smooth_counterexample,
    smoothed_grad,
    smoothed_value,
    third_derivative_estimate,
)
from conftest import (array_cell_margin, edge_sq, projection_case, ray_points,
                      stacked_projection)

# The README point and two more members: at (3.5, 0.9, 10) the edge slabs
# are too narrow for any support ball, at (2.2, 0.7, 5) every cell kind
# holds some.
_MEMBERS = [(3.3, 0.75, 7), (3.5, 0.9, 10), (2.2, 0.7, 5)]


@functools.lru_cache(maxsize=None)
def _member(gamma, beta, k):
    """Class, counterexample and its mollification at r_max / 2."""
    c = FunctionClass(0.005, 1.0)
    ce = build_counterexample(HbParams(gamma, beta), c, k)
    return c, ce, smooth_counterexample(ce, ce.r_max / 2)


def _outward_normals(ce):
    return np.stack([ce.edges[:, 1], -ce.edges[:, 0]], axis=1) / np.sqrt(edge_sq(ce))[:, None]


def _slack(ce, x):
    """The rounding slack the exact branch adds to the support radius."""
    eps = np.finfo(float).eps
    return 64.0 * eps * (math.hypot(*x) + np.linalg.norm(ce.hull, axis=1).max())


def _margin(ce, x):
    x0, x1 = np.asarray(x, dtype=float).tolist()
    return _cell_margin(ce, _sector(ce, x0, x1), x0, x1)


def _spy_quadrature():
    """Count the batched gradient calls of ``smoothed_grad``: its quadrature."""
    return mock.patch("hbcycles.smoothing._counterexample_batch",
                      side_effect=_counterexample_batch)


def _margin_bits(margin):
    """Bits of a margin with -0.0 read as 0.0: numpy's min and max
    reductions pick the sign of a zero by SIMD lane order."""
    return np.float64(margin + 0.0).tobytes()


def _assert_sector_margin(ce, x):
    """The sector margin is the array form's to the bit wherever that is
    positive, except within rounding of a ray between cones: near the
    origin, where the array form's minimum over all K near-equal inward
    distances may lie a few ulps of the hull radius below the sector's
    minimum over three, and within rounding of a vertex, where the
    neighbouring cone's cells score below the array form's rounding-sized
    margin.  It is <= 0 wherever the array form's is."""
    new, old = _margin(ce, x), array_cell_margin(ce, x)
    rounding = 8.0 * np.finfo(float).eps * ce.hull_radius
    if not old > 0.0:
        assert new <= 0.0
    elif new != old:
        inside = np.all(stacked_projection(ce, np.asarray(x)[None, :])[1])
        assert 0.0 < new - old <= rounding if inside else new < old <= rounding


def _forced_quadrature(sce, x):
    fn = CounterexampleFunction(sce.base)
    return sce.weights @ fn.grad_batch(x[None, :] - sce.nodes)


@st.composite
def _cell_points(draw):
    """A member and a point in its interior, an edge slab or a vertex wedge."""
    member = draw(st.sampled_from(_MEMBERS))
    _, ce, _ = _member(*member)
    t = draw(st.integers(0, ce.k - 1))
    unit, depth = st.floats(0.0, 1.0), st.floats(0.0, 0.3)
    normals = _outward_normals(ce)
    kind = draw(st.sampled_from(["interior", "edge", "vertex"]))
    if kind == "interior":
        centroid = ce.hull.mean(axis=0)
        x = centroid + draw(unit) * (ce.hull[t] + draw(unit) * ce.edges[t] - centroid)
    elif kind == "edge":
        x = ce.hull[t] + draw(unit) * ce.edges[t] + draw(depth) * normals[t]
    else:
        x = ce.hull[t] + draw(depth) * normals[t - 1] + draw(depth) * normals[t]
    return member, x


@pytest.fixture(scope="module")
def smoothed(interior_setup):
    p, c, ce = interior_setup
    return p, c, ce, smooth_counterexample(ce, ce.r_max / 2)


class TestMollifier:
    def test_unit_radial_mass_literal_is_the_quadrature(self):
        # The module stores the 256-point Gauss-Legendre value as a literal,
        # so that importing it runs no quadrature.
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(256)
        r = 0.5 * (x + 1.0)
        mass = float(np.sum(0.5 * w * np.exp(-1.0 / (1.0 - r * r)) * r))
        assert smoothing._UNIT_RADIAL_MASS == mass
        assert smoothing.UNIT_BUMP_MASS == 2.0 * math.pi * mass

    def test_quadrature_mass_is_one(self, smoothed):
        *_, sce = smoothed
        assert abs(sce.weights.sum() - 1.0) <= 1e-6
        assert sce.mass_defect <= 1e-6

    def test_quadrature_mean_is_zero(self, smoothed):
        *_, sce = smoothed
        mean = sce.weights @ sce.nodes
        assert np.abs(mean).max() <= 1e-8

    def test_density_support(self):
        moll = make_mollifier(0.25)
        inside = np.array([[0.1, 0.05]])
        outside = np.array([[0.3, 0.0], [0.25, 0.0]])
        assert moll.density(inside)[0] > 0
        assert np.all(moll.density(outside) == 0.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            make_mollifier(0.0)

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
    def test_rejects_non_finite_or_negative_radius(self, epsilon):
        with pytest.raises(ValueError, match="positive and finite"):
            make_mollifier(epsilon)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_smoothing_rejects_non_finite_radius(self, interior_setup, epsilon):
        _, c, ce = interior_setup
        with pytest.raises(ValueError, match="positive and finite"):
            smooth_counterexample(ce, epsilon)

    def test_cached_rule_is_read_only_and_the_same_every_time(self, interior_setup):
        from numpy.polynomial.legendre import leggauss
        _, c, ce = interior_setup
        for cached, fresh in zip(smoothing._gauss_legendre(), leggauss(64)):
            assert not cached.flags.writeable
            assert cached.tobytes() == fresh.tobytes()
        first, second = (smooth_counterexample(ce, ce.r_max / 2) for _ in range(2))
        assert first.nodes.tobytes() == second.nodes.tobytes()
        assert first.weights.tobytes() == second.weights.tobytes()

    def test_smoothing_rejects_underflowing_radius(self, interior_setup):
        # epsilon^2 underflows, so the density normalizer is zero.
        _, c, ce = interior_setup
        with pytest.raises(ValueError, match="not finite"):
            smooth_counterexample(ce, 1e-300)


class TestSmoothedGradient:
    def test_coincides_on_cycle_points(self, smoothed):
        p, c, ce, sce = smoothed
        fn = CounterexampleFunction(ce)
        for x in rou_cycle(7).points:
            assert np.linalg.norm(smoothed_grad(sce, x) - fn.grad(x)) <= 1e-4

    def test_coincidence_for_every_admissible_radius(self, interior_setup):
        p, c, ce = interior_setup
        fn = CounterexampleFunction(ce)
        for frac in (0.25, 0.5, 0.99):
            sce = smooth_counterexample(ce, ce.r_max * frac)
            worst = max(np.linalg.norm(smoothed_grad(sce, x) - fn.grad(x))
                        for x in rou_cycle(7).points)
            assert worst <= 1e-4

    def test_deep_interior_gradient_is_l_x(self, smoothed):
        p, c, ce, sce = smoothed
        centroid = ce.hull.mean(axis=0)
        x = centroid + 0.2 * (ce.hull[0] - centroid)
        assert np.linalg.norm(smoothed_grad(sce, x) - c.ell * x) <= 1e-4

    def test_hessian_stays_within_class_bounds(self, smoothed):
        p, c, ce, sce = smoothed
        rng = np.random.default_rng(3)
        h = 1e-3
        for _ in range(25):
            x = rng.uniform(-1.5, 1.5, size=2)
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            slope = (smoothed_grad(sce, x + h * u)
                     - smoothed_grad(sce, x - h * u)) @ u / (2 * h)
            assert c.mu - 1e-3 * c.ell <= slope <= c.ell + 1e-3 * c.ell

    def test_coarse_quadrature_is_rejected(self, interior_setup, monkeypatch):
        # An 8-point radial rule misses unit mass by about 3.3e-4.
        from numpy.polynomial.legendre import leggauss

        p, c, ce = interior_setup
        monkeypatch.setattr(smoothing, "_gauss_legendre", lambda: leggauss(8))
        with pytest.raises(ValueError, match="miss unit mass by 3.3"):
            smooth_counterexample(ce, ce.r_max / 2)

    def test_value_matches_pointwise_quadrature(self, smoothed):
        p, c, ce, sce = smoothed
        fn = CounterexampleFunction(ce)
        for x in (np.array([0.3, -0.8]), rou_cycle(7).points[2], 0.5 * ce.hull[4]):
            pointwise = float(sce.weights @ np.array([fn.value(y) for y in x - sce.nodes]))
            assert smoothed_value(sce, x) == pytest.approx(pointwise, rel=1e-15, abs=1e-15)

    def test_value_quadrature_matches_quadratic_region(self, smoothed):
        # Deep inside the hull the function is L||x||^2/2 plus the kernel's
        # (constant) second moment; differences of values are exact there.
        p, c, ce, sce = smoothed
        centroid = ce.hull.mean(axis=0)
        x = centroid + 0.15 * (ce.hull[0] - centroid)
        y = centroid + 0.1 * (ce.hull[3] - centroid)
        direct = 0.5 * c.ell * (x @ x - y @ y)
        assert smoothed_value(sce, x) - smoothed_value(sce, y) == pytest.approx(
            direct, abs=1e-8)


class TestExactBranch:
    @settings(max_examples=200, deadline=None)
    @given(_cell_points())
    def test_cell_margin_is_the_distance_to_the_cell_boundary(self, case):
        # Probes inside the ball of radius margin stay in the point's
        # smooth piece; probes just past it leave it.  Margins below 1e-3
        # are only checked for sign: the piece oracle has 1e-5 tolerances.
        member, x = case
        _, ce, _ = _member(*member)
        margin = _margin(ce, x)
        assert margin >= -1e-15
        if margin < 1e-3:
            return
        home = projection_case(ce, x)
        angles = 2.0 * math.pi * np.arange(64) / 64
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert all(projection_case(ce, x + 0.9 * margin * u) == home for u in ring)
        assert any(projection_case(ce, x + 1.1 * margin * u) != home for u in ring)

    @settings(max_examples=300, deadline=None)
    @given(_cell_points())
    def test_cell_margin_agrees_with_the_array_form(self, case):
        member, x = case
        _, ce, _ = _member(*member)
        _assert_sector_margin(ce, x)

    @pytest.mark.parametrize("member", _MEMBERS + [(3.9, 0.95, 3), (0.3, 0.9995, 100)])
    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3])
    def test_cell_margin_agrees_with_the_array_form_on_rays(self, member, scale):
        # The rays between cones (see ``ray_points``) and a cloud around a
        # vertex.
        _, ce, _ = _member(*member)
        cloud = ce.hull[1] + scale * np.random.default_rng(2).normal(size=(200, 2))
        for x in np.concatenate([ray_points(ce, scale), cloud]):
            _assert_sector_margin(ce, x)

    @pytest.mark.parametrize("member", _MEMBERS + [(0.3, 0.9995, 100)])
    def test_cell_margin_matches_the_array_form_on_vertices_and_midpoints(self, member):
        _, ce, _ = _member(*member)
        for x in np.concatenate([ce.hull, ce.hull + 0.5 * ce.edges]):
            assert _margin_bits(_margin(ce, x)) == _margin_bits(array_cell_margin(ce, x))

    @pytest.mark.parametrize("x", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.inf),
                                   (math.nan, math.nan)])
    def test_non_finite_points_take_quadrature(self, x):
        # A NaN margin is not above the support radius.
        _, ce, sce = _member(*_MEMBERS[0])
        x = np.array(x)
        assert math.isnan(_margin(ce, x))
        with _spy_quadrature() as spy, np.errstate(invalid="ignore"):
            smoothed_grad(sce, x)
        assert spy.call_count == 1

    @settings(max_examples=200, deadline=None)
    @given(_cell_points())
    def test_exact_branch_matches_forced_quadrature(self, case):
        member, x = case
        c, ce, sce = _member(*member)
        quadrature = _forced_quadrature(sce, x)
        exact = _margin(ce, x) > sce.moll.epsilon + _slack(ce, x)
        with _spy_quadrature() as spy:
            grad = smoothed_grad(sce, x)
        if exact:
            # The base gradient's bits; its distance from the quadrature is
            # relative to the integrand's size on the support ball.
            scale = c.ell * (np.linalg.norm(x) + sce.moll.epsilon)
            assert spy.call_count == 0
            assert grad.tobytes() == CounterexampleFunction(ce).grad(x).tobytes()
            assert np.linalg.norm(grad - quadrature) <= 1e-12 * scale
        else:
            assert spy.call_count == 1
            assert np.array_equal(grad, quadrature)

    @settings(max_examples=100, deadline=None)
    @given(member=st.sampled_from(_MEMBERS), t=st.integers(0, 9),
           u=st.floats(0.25, 0.75), f=st.floats(-1.0, 0.5), outside=st.booleans())
    def test_balls_within_the_slack_of_a_boundary_take_quadrature(
            self, member, t, u, f, outside):
        # The ball reaches to within the slack of edge line t, from either side.
        _, ce, sce = _member(*member)
        t %= ce.k
        foot = ce.hull[t] + u * ce.edges[t]
        offset = sce.moll.epsilon + f * _slack(ce, foot)
        x = foot + (1.0 if outside else -1.0) * offset * _outward_normals(ce)[t]
        with _spy_quadrature() as spy:
            grad = smoothed_grad(sce, x)
        assert spy.call_count == 1
        assert np.array_equal(grad, _forced_quadrature(sce, x))

    def test_exact_branch_is_the_base_gradient(self, interior_setup):
        p, c, ce = interior_setup
        sce = smooth_counterexample(ce, ce.r_max / 2)
        x = rou_cycle(7).points[0]
        assert _margin(ce, x) > 1.5 * sce.moll.epsilon
        assert np.array_equal(smoothed_grad(sce, x), CounterexampleFunction(ce).grad(x))


class TestSmoothedCycle:
    def test_cycle_survives_smoothing(self, smoothed):
        p, c, ce, sce = smoothed
        assert cycle_check_smoothed(sce, 500) <= 1e-3

    @pytest.mark.parametrize("fraction", [0.5, 1.0])
    def test_cycle_check_matches_the_array_path(self, interior_setup, fraction):
        # The check runs the object, stepped in floats; at eps = r_max most
        # steps take the quadrature.
        p, c, ce = interior_setup
        sce = smooth_counterexample(ce, fraction * ce.r_max)
        cyc = rou_cycle(7)
        trace = run(lambda z: smoothed_grad(sce, z), p, cyc.points[0], cyc.points[1], 100)
        assert cycle_check_smoothed(sce, 100) == float(
            np.max(cycle_distances(trace.iterates, cyc.points)))

    def test_plain_counterexample_cycles_tighter(self, interior_setup):
        # The unsmoothed function is the epsilon -> 0 limit.
        p, c, ce = interior_setup
        fn = CounterexampleFunction(ce)
        cyc = rou_cycle(7)
        trace = run(fn.grad, p, cyc.points[0], cyc.points[1], 2000)
        idx = np.arange(len(trace.iterates)) % 7
        dev = np.linalg.norm(trace.iterates - cyc.points[idx], axis=1)
        assert dev.max() <= 1e-9

    def test_oversized_support_rejected(self, interior_setup):
        p, c, ce = interior_setup
        with pytest.raises(ValueError, match="safety radius"):
            smooth_counterexample(ce, ce.r_max * 1.01)


class TestDilation:
    def test_identity_at_unit_scale(self, smoothed):
        p, c, ce, sce = smoothed
        fn = dilate(sce, 1.0)
        x = np.array([0.3, -0.8])
        assert fn.value(x) == pytest.approx(smoothed_value(sce, x), abs=1e-15)
        assert np.allclose(fn.grad(x), smoothed_grad(sce, x), atol=1e-15)

    def test_scaling_identities_are_exact(self, smoothed):
        p, c, ce, sce = smoothed
        lam = 7.5
        fn = dilate(sce, lam)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            assert fn.value(lam * x) == pytest.approx(
                lam * lam * smoothed_value(sce, x), rel=1e-14)
            assert np.allclose(fn.grad(lam * x), lam * smoothed_grad(sce, x),
                               rtol=1e-14, atol=0)

    def test_dilated_run_tracks_scaled_cycle(self, smoothed):
        p, c, ce, sce = smoothed
        cyc = rou_cycle(7)
        lam = 10.0
        base_trace = run(sce.grad, p, cyc.points[0], cyc.points[1], 200)
        idx = np.arange(len(base_trace.iterates)) % 7
        base_rel = np.max(np.linalg.norm(
            base_trace.iterates - cyc.points[idx], axis=1))
        fn = dilate(sce, lam)
        scaled = lam * cyc.points
        trace = run(fn.grad, p, scaled[0], scaled[1], 200)
        rel = np.max(np.linalg.norm(trace.iterates - scaled[idx], axis=1)) / lam
        assert rel <= 2 * base_rel + 1e-12
        assert base_rel <= 2 * rel + 1e-12

    def test_third_derivative_scales_inversely(self, smoothed):
        p, c, ce, sce = smoothed
        edge_mid = 0.5 * (ce.hull[0] + ce.hull[1])
        lam = 10.0
        fn = dilate(sce, lam)
        tau_base = third_derivative_estimate(sce.grad, edge_mid[None, :], h=0.02)
        tau_scaled = third_derivative_estimate(fn.grad, lam * edge_mid[None, :],
                                               h=0.02 * lam)
        assert tau_base > 0
        assert tau_scaled == pytest.approx(tau_base / lam, rel=0.2)

    def test_rejects_nonpositive_scale(self, smoothed):
        *_, sce = smoothed
        with pytest.raises(ValueError):
            dilate(sce, 0.0)
        with pytest.raises(ValueError):
            dilate(sce, -2.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_rejects_non_finite_scale(self, smoothed, scale):
        *_, sce = smoothed
        with pytest.raises(ValueError, match="positive and finite"):
            dilate(sce, scale)

    def test_third_derivative_rejects_a_subnormal_h_squared(self, smoothed):
        *_, sce = smoothed
        with pytest.raises(ValueError, match="h squared must be a normal float"):
            third_derivative_estimate(sce.grad, np.zeros((1, 2)), h=1e-155)

    @pytest.mark.parametrize("c", [1e160, 1.0, 1e-160])
    def test_third_derivative_norm_spans_the_float_range(self, c):
        # grad = c (x0^2, x1^2) has second differences 2 c u^2 at the
        # origin, exactly for h = 0.5; the largest, at u = (1, 0), is 2 c,
        # whose square overflows at 1e160 and is subnormal at 1e-160.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = third_derivative_estimate(lambda x: c * x * x, np.zeros((1, 2)), h=0.5)
        assert tau == 2.0 * c

    def test_third_derivative_evaluates_the_centre_once(self, smoothed):
        # 1 + 2 * directions gradients per point, and the same estimate as
        # the stencil that re-evaluates the centre for every direction.
        p, c, ce, sce = smoothed
        points = np.stack([0.5 * (ce.hull[0] + ce.hull[1]), rou_cycle(7).points[3]])
        calls = []

        def counted(x):
            calls.append(x)
            return sce.grad(x)

        h = 0.05
        tau = third_derivative_estimate(counted, points, h=h)
        assert len(calls) == 2 * (1 + 2 * 8)
        seconds = [(sce.grad(x + h * u) - 2.0 * sce.grad(x) + sce.grad(x - h * u)) / (h * h)
                   for x in points
                   for u in (np.array([math.cos(math.pi * j / 8), math.sin(math.pi * j / 8)])
                             for j in range(8))]
        assert tau == max(float(np.linalg.norm(s)) for s in seconds)

    def test_works_on_plain_counterexample(self, interior_setup):
        p, c, ce = interior_setup
        fn = dilate(CounterexampleFunction(ce), 3.0)
        cyc = rou_cycle(7)
        scaled = 3.0 * cyc.points
        trace = run(fn.grad, p, scaled[0], scaled[1], 1000)
        idx = np.arange(len(trace.iterates)) % 7
        dev = np.linalg.norm(trace.iterates - scaled[idx], axis=1)
        assert dev.max() <= 3.0 * 1e-9
