import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbcycles.quad_rates import BOUNDARY_TOL, FunctionClass, HbParams
from hbcycles.rou_region import (
    CounterexampleFunction,
    RouCycle,
    beta_minus,
    build_counterexample,
    eval_counterexample,
    incompatibility_scan,
    member_any_grid,
    membership_polynomial,
    polygon_project_batch,
    polynomial_value,
    rou_cycle,
    rou_member,
    rou_member_any,
)
from hbcycles.hb_engine import run
from hbcycles.quad_rates import ghadimi_beta_bound
from conftest import (
    central_difference_grad,
    edge_sq,
    full_grid_member_any_grid,
    numpy_counterexample_grad,
    polygon_project,
    projection_case,
    rational_beta_minus,
    ray_points,
    rou_member_any_lower_only,
    stacked_projection,
)


class TestRouCycle:
    @pytest.mark.parametrize("k", [2, 3, 7, 12])
    def test_geometry(self, k):
        cyc = rou_cycle(k)
        assert np.allclose(np.linalg.norm(cyc.points, axis=1), 1.0, atol=1e-14)
        for t in range(k):
            assert np.allclose(cyc.rotation @ cyc.points[t],
                               cyc.points[(t + 1) % k], atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(cyc.rotation, k), np.eye(2),
                           atol=1e-12)

    def test_rejects_degenerate_period(self):
        with pytest.raises(ValueError):
            rou_cycle(1)


class TestMembershipPolynomial:
    def test_frozen_case_k3(self):
        # Direct evaluation of the closed forms at K=3, kappa=0.01, beta=0.
        q = membership_polynomial(0.0, 3, FunctionClass(0.01, 1.0))
        assert q.a == pytest.approx(0.51, abs=1e-12)
        assert q.b is not None
        assert 0.01 * q.gamma_minus == pytest.approx(0.0303126, abs=1e-6)

    def test_no_roots_below_beta_minus(self):
        c = FunctionClass(0.01, 1.0)
        for k in (4, 7, 11):
            bm = beta_minus(k, c)
            q = membership_polynomial(max(bm - 0.05, 0.0), k, c)
            assert q.b is None and q.gamma_minus is None
            q = membership_polynomial(min(bm + 0.05, 0.999), k, c)
            assert q.b is not None

    @pytest.mark.parametrize("k", [3, 5, 8, 20])
    @pytest.mark.parametrize("kappa", [0.001, 0.01, 0.2])
    def test_roots_are_roots(self, k, kappa):
        c = FunctionClass(kappa, 1.0)
        beta = min(max(beta_minus(k, c) + 0.1, 0.0), 0.99)
        q = membership_polynomial(beta, k, c)
        assert q.b is not None
        assert abs(polynomial_value(q.gamma_minus, beta, k, c)) <= 1e-10
        assert abs(polynomial_value(q.gamma_plus, beta, k, c)) <= 1e-10
        assert q.gamma_minus <= q.gamma_plus

    @pytest.mark.parametrize("k", [3, 4, 5, 9, 17, 40])
    @pytest.mark.parametrize("kappa", [1e-4, 1e-2, 0.1, 0.5])
    def test_beta_minus_alternative_identity(self, k, kappa):
        c = FunctionClass(kappa, 1.0)
        assert beta_minus(k, c) == pytest.approx(rational_beta_minus(k, c), abs=1e-12)

    def test_beta_minus_at_the_rational_zero_over_zero(self):
        # At kappa = 1/2, K = 4 the rational form is 0/0; beta_minus is
        # finite there, agrees with the rational form beside it, and meets
        # the midpoint of the rational form's values on either side.
        value = beta_minus(4, FunctionClass(0.5, 1.0))
        assert math.isfinite(value)
        sides = [FunctionClass(kappa, 1.0) for kappa in (0.5 - 1e-4, 0.5 + 1e-4)]
        for c in sides:
            assert beta_minus(4, c) == pytest.approx(rational_beta_minus(4, c), abs=1e-6)
        assert value == pytest.approx(sum(rational_beta_minus(4, c) for c in sides) / 2,
                                      abs=1e-6)

    def test_beta_minus_is_discriminant_root(self):
        # Straddle the threshold: no roots just below, a tiny root gap just
        # above.  Only meaningful for periods whose threshold is in [0, 1).
        c = FunctionClass(0.02, 1.0)
        for k in (6, 10, 25):
            bm = beta_minus(k, c)
            assert 0.0 <= bm < 1.0
            assert membership_polynomial(bm - 1e-6, k, c).b is None
            above = membership_polynomial(bm + 1e-6, k, c)
            assert above.b is not None and above.b <= 1e-2

    def test_period_two_roots_bracket_exactly(self):
        # At K=2 the roots collapse to closed forms: the band starts exactly
        # at the convergence region's right edge and ends at its mu-scaled
        # mirror, which is why period 2 never fires inside the region.
        c = FunctionClass(0.02, 1.0)
        for beta in (0.0, 0.3, 0.8):
            q = membership_polynomial(beta, 2, c)
            assert q.gamma_minus == pytest.approx(2 * (1 + beta) / c.ell, rel=1e-12)
            assert q.gamma_plus == pytest.approx(2 * (1 + beta) / c.mu, rel=1e-12)

    def test_input_validation(self):
        c = FunctionClass(0.01, 1.0)
        with pytest.raises(ValueError):
            membership_polynomial(-0.1, 3, c)
        with pytest.raises(ValueError):
            membership_polynomial(0.5, 1, c)


class TestRouMember:
    def test_demo_point_is_member(self):
        c = FunctionClass(0.005, 1.0)
        assert rou_member(HbParams(3.5, 0.75), c, 7)

    def test_period_two_region_is_empty(self):
        # Strict interior of the convergence region never supports period 2.
        c = FunctionClass(0.01, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            beta = rng.uniform(0.0, 0.99)
            gamma = rng.uniform(1e-3, 2 * (1 + beta) / c.ell * (1 - 1e-9))
            assert not rou_member(HbParams(gamma, beta), c, 2)

    def test_root_exceeding_cv_region(self):
        c = FunctionClass(0.01, 1.0)
        assert not rou_member(HbParams(1.0, 0.0), c, 3)
        # The gamma root itself sits beyond the convergence region's edge.
        q = membership_polynomial(0.0, 3, c)
        assert q.gamma_minus > 2.0 / c.ell

    def test_rejects_negative_momentum(self):
        c = FunctionClass(0.01, 1.0)
        with pytest.raises(ValueError, match="beta"):
            rou_member(HbParams(0.5, -0.1), c, 3)
        with pytest.raises(ValueError, match="beta"):
            rou_member_any(HbParams(0.5, -0.1), c, 10)

    def test_equality_counts_as_member(self):
        c = FunctionClass(0.005, 1.0)
        q = membership_polynomial(0.75, 7, c)
        assert rou_member(HbParams(q.gamma_minus + 1e-12, 0.75), c, 7)


class TestRouMemberAny:
    def test_demo_point_small_period(self):
        c = FunctionClass(0.005, 1.0)
        k = rou_member_any(HbParams(3.5, 0.75), c, 25)
        assert k is not None and k <= 7

    def test_quadratic_optimal_tuning_cycles(self):
        from hbcycles.quad_rates import optimal_tuning
        c = FunctionClass(1.0, 25.0)
        p, _ = optimal_tuning(c)
        assert rou_member_any(p, c, 25) is not None

    def test_ghadimi_region_never_cycles(self):
        c = FunctionClass(0.01, 1.0)
        rng = np.random.default_rng(11)
        for _ in range(60):
            gamma = rng.uniform(1e-3, 2.0 / c.ell * (1 - 1e-9))
            bound = ghadimi_beta_bound(c, gamma)
            beta = rng.uniform(0.0, bound * (1 - 1e-9))
            assert rou_member_any(HbParams(gamma, beta), c, 60) is None

    @pytest.mark.parametrize("kappa", [0.005, 0.02, 0.036])
    def test_lower_only_agrees_when_kappa_small(self, kappa):
        # Below kappa = ((3-sqrt(5))/4)^2 the per-period bands union into a
        # single interval reaching the region's edge, so ignoring the upper
        # roots changes nothing.
        assert kappa <= ((3 - math.sqrt(5)) / 4) ** 2
        c = FunctionClass(kappa, 1.0)
        for beta in np.linspace(0.0, 0.95, 18):
            for gamma in np.linspace(1e-3, 2 * (1 + beta) / c.ell, 40):
                p = HbParams(gamma, beta)
                both = rou_member_any(p, c, 60)
                lower = rou_member_any_lower_only(p, c, 60)
                assert (both is None) == (lower is None), (gamma, beta)

    def test_grid_variant_matches_scalar(self):
        c = FunctionClass(0.01, 1.0)
        gammas = np.linspace(0.05, 3.9, 25)
        betas = np.linspace(0.0, 0.95, 21)
        g, b = np.meshgrid(gammas, betas, indexing="ij")
        grid = member_any_grid(g, b, c, k_max=40)
        for i in range(0, 25, 3):
            for j in range(0, 21, 2):
                scalar = rou_member_any(HbParams(g[i, j], b[i, j]), c, 40)
                assert grid[i, j] == (scalar or 0)

    @settings(max_examples=150, deadline=None)
    @given(kappa=st.floats(1e-5, 1.0), ell=st.floats(0.25, 8.0),
           k_max=st.integers(3, 80), seed=st.integers(0, 2**32 - 1))
    def test_grid_variant_matches_full_grid_loop(self, kappa, ell, k_max, seed):
        # Each beta row holds the step-size edge 2(1+beta)/L, its float
        # neighbours, the edge plus the closure slack and random interior
        # and exterior steps; the periods must agree bit for bit.
        c = FunctionClass(kappa * ell, ell)
        rng = np.random.default_rng(seed)
        b = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 9), [np.nextafter(1.0, 0.0)]])[:, None]
        edge = 2.0 * (1.0 + b) / c.ell
        g = np.hstack([edge, np.nextafter(edge, np.inf), np.nextafter(edge, 0.0),
                       edge + BOUNDARY_TOL, edge * rng.uniform(0.0, 1.1, (len(b), 12))])
        periods = member_any_grid(g, b, c, k_max=k_max)
        assert periods.dtype == np.int32 and periods.shape == g.shape
        assert np.array_equal(periods, full_grid_member_any_grid(g, b, c, k_max))
        gm, bm = np.meshgrid(g[0], b[:, 0], indexing="ij")
        assert np.array_equal(member_any_grid(gm, bm, c, k_max=k_max),
                              full_grid_member_any_grid(gm, bm, c, k_max))


# Members of periods 3 to 100, for the sector-indexed projection.
_SECTOR_MEMBERS = [(3.9, 0.95, 3), (2.2, 0.7, 5), (3.3, 0.75, 7), (3.5, 0.9, 10),
                   (0.3, 0.9995, 100)]


@functools.lru_cache(maxsize=None)
def _member_ce(member):
    return build_counterexample(HbParams(member[0], member[1]), FunctionClass(0.005, 1.0),
                                member[2])


def _assert_sector_projection(ce, x, proj):
    """``proj`` is the oracle's to the bit inside the polygon and where the
    oracle's closest point is inside an edge, away from its ends; elsewhere
    (at the vertices) its distance from ``x`` agrees with the oracle's to a
    few ulps of the hull radius and of ``x``, and it lies on the boundary."""
    want, inside, _, t, _ = stacked_projection(ce, x)
    same = inside | ((t > 1e-9) & (t < 1.0 - 1e-9))
    assert proj[same].tobytes() == want[same].tobytes()
    eps = np.finfo(float).eps
    rest = ~same
    tol = 4.0 * eps * (ce.hull_radius + np.linalg.norm(x[rest], axis=1))
    d_new = np.linalg.norm(x[rest] - proj[rest], axis=1)
    d_old = np.linalg.norm(x[rest] - want[rest], axis=1)
    assert np.all(np.abs(d_new - d_old) <= tol)
    moved = rest & np.any(proj != x, axis=1)
    boundary_d2 = stacked_projection(ce, proj[moved])[4]
    assert np.all(np.sqrt(boundary_d2) <= 4.0 * eps * ce.hull_radius)


class TestCounterexample:
    def test_hull_has_cycle_symmetry(self, fig4_setup):
        p, c, ce = fig4_setup
        rot = rou_cycle(7).rotation
        for t in range(7):
            assert np.allclose(ce.hull[t], rot @ ce.hull[t - 1], atol=1e-12)

    def test_r_max_positive_inside(self, interior_setup):
        _, _, ce = interior_setup
        assert ce.r_max > 0

    def test_r_max_vanishes_at_the_boundary(self):
        c = FunctionClass(0.005, 1.0)
        q = membership_polynomial(0.75, 7, c)
        radii = []
        for offset in (1e-4, 1e-6, 1e-9, 1e-12):
            ce = build_counterexample(HbParams(q.gamma_minus + offset, 0.75), c, 7)
            radii.append(ce.r_max)
        assert radii == sorted(radii, reverse=True)
        assert abs(radii[-1]) <= 1e-8

    def test_cached_floats_match_the_arrays(self, fig4_setup):
        _, _, ce = fig4_setup
        assert ce.hull_radius == np.linalg.norm(ce.hull, axis=1).max()
        sq = edge_sq(ce)
        cached = np.array(ce._edge_floats)
        assert cached.tobytes() == np.column_stack(
            [ce.hull, ce.edges, sq, np.sqrt(sq)]).tobytes()
        assert ce._edge_table.tobytes() == cached[:, :5].T.tobytes()

    @pytest.mark.parametrize("member", _SECTOR_MEMBERS)
    def test_operator_is_a_scaled_rotation_with_vertex_0_at_phi(self, member):
        ce = _member_ce(member)
        (a, minus_b), (b, a1) = ce.m.tolist()
        assert (a1, minus_b) == (a, -b)
        assert ce.phi == math.atan2(ce.hull[0, 1], ce.hull[0, 0])
        angles = ce.phi + 2.0 * math.pi * np.arange(ce.k) / ce.k
        assert np.allclose(ce.hull, ce.hull_radius * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1), rtol=0.0, atol=1e-15)

    def test_period_two_member_is_a_degenerate_operator(self):
        # On the step-size edge K = 2 is a member, but its two images span
        # a segment, not a polygon.
        c = FunctionClass(0.005, 1.0)
        p = HbParams(2.0 * (1.0 + 0.5) / c.ell, 0.5)
        assert rou_member(p, c, 2)
        with pytest.raises(ValueError, match="degenerate operator"):
            build_counterexample(p, c, 2)

    def test_operator_that_is_not_a_scaled_rotation_is_rejected(self):
        # A sheared "rotation" makes M a*I + b*J no longer.
        cyc = rou_cycle(7)
        sheared = RouCycle(7, cyc.theta, cyc.points, cyc.rotation + [[0.0, 0.1], [0.0, 0.0]])
        with mock.patch("hbcycles.rou_region.rou_cycle", return_value=sheared), \
                pytest.raises(ValueError, match="degenerate operator"):
            build_counterexample(HbParams(3.3, 0.75), FunctionClass(0.005, 1.0), 7)

    def test_nonmember_rejected_with_polynomial_value(self):
        c = FunctionClass(0.01, 1.0)
        with pytest.raises(ValueError, match="membership polynomial"):
            build_counterexample(HbParams(0.5, 0.2), c, 7)

    def test_degenerate_class_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_counterexample(HbParams(0.5, 0.2), FunctionClass(1.0, 1.0), 7)


class TestProjection:
    def test_idempotence_and_optimality(self, interior_setup):
        _, _, ce = interior_setup
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.uniform(-2, 2, size=2)
            proj = polygon_project(ce, x)
            again = polygon_project(ce, proj)
            assert np.allclose(proj, again, atol=1e-12)
            # Variational characterization against every vertex.
            gaps = (ce.hull - proj) @ (x - proj)
            assert np.all(gaps <= 1e-10)

    def test_interior_points_fixed(self, interior_setup):
        _, _, ce = interior_setup
        centroid = ce.hull.mean(axis=0)
        for t in np.linspace(0, 0.9, 10):
            x = centroid + t * (ce.hull[0] - centroid) * 0.999
            assert np.allclose(polygon_project(ce, x), x, atol=1e-14)

    @pytest.mark.parametrize("member", _SECTOR_MEMBERS)
    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3])
    def test_kernel_agrees_with_stacked_oracle(self, member, scale):
        # Clouds around a vertex, an edge midpoint and the origin, points on
        # every ray between cones, the vertices and the origin; the batch,
        # then each row alone, which runs the one-point loop.
        ce = _member_ce(member)
        rng = np.random.default_rng(11)
        x = np.concatenate([ray_points(ce, scale)] + [
            centre + scale * rng.normal(size=(500, 2))
            for centre in (ce.hull[1], 0.5 * (ce.hull[1] + ce.hull[2]), np.zeros(2))])
        _assert_sector_projection(ce, x, polygon_project_batch(ce, x))
        alone = np.array([polygon_project_batch(ce, row[None, :])[0] for row in x])
        _assert_sector_projection(ce, x, alone)

    @pytest.mark.parametrize("member", _SECTOR_MEMBERS)
    def test_kernel_agrees_with_stacked_oracle_on_quadrature_nodes(self, member):
        # The smoothing quadrature's nodes around a cycle point, in the
        # wedge at a vertex.
        ce = _member_ce(member)
        radii = np.repeat(np.linspace(0.0, ce.r_max / 2, 64), 64)
        angles = np.tile(np.linspace(0.0, 2 * math.pi, 64, endpoint=False), 64)
        nodes = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        x = rou_cycle(member[2]).points[1] - nodes
        _assert_sector_projection(ce, x, polygon_project_batch(ce, x))

    @settings(max_examples=150, deadline=None)
    @given(member=st.sampled_from(_SECTOR_MEMBERS),
           free=st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), max_size=30),
           on_edges=st.lists(st.tuples(st.integers(0, 99), st.floats(0, 1)), max_size=30),
           scale=st.sampled_from([1e3, 1.0, 1e-3, 1e-9]), centre=st.integers(0, 99))
    def test_kernel_agrees_with_stacked_oracle_on_edges_and_vertices(
            self, member, free, on_edges, scale, centre):
        # Free points (clouds around a vertex when scaled down), points on
        # the edges and the vertices themselves (edge parameter 0).
        ce = _member_ce(member)
        k = ce.k
        pts = [ce.hull[centre % k] + scale * np.array(xy) for xy in free]
        pts += [ce.hull[t % k] + s * ce.edges[t % k] for t, s in on_edges]
        x = np.array(pts + list(ce.hull), dtype=float).reshape(-1, 2)
        _assert_sector_projection(ce, x, polygon_project_batch(ce, x))
        alone = np.array([polygon_project_batch(ce, row[None, :])[0] for row in x])
        _assert_sector_projection(ce, x, alone)

    @pytest.mark.parametrize("member", _SECTOR_MEMBERS)
    def test_one_point_loop_gives_the_batch_bits_off_the_rays(self, member):
        # math.atan2 and np.arctan2 may round apart, so only within
        # rounding of a ray between cones may the two paths take
        # neighbouring edges; random points are never there.
        ce = _member_ce(member)
        x = np.random.default_rng(5).normal(size=(2000, 2))
        alone = np.array([polygon_project_batch(ce, row[None, :])[0] for row in x])
        assert alone.tobytes() == polygon_project_batch(ce, x).tobytes()

    @pytest.mark.parametrize("member", _SECTOR_MEMBERS)
    def test_non_finite_points_give_non_finite_gradients(self, member):
        # Finite rows keep their gradients; no non-finite row raises, or
        # warns from the cast of its cone index, on either path; a run
        # from a non-finite start truncates.
        ce = _member_ce(member)
        c = FunctionClass(0.005, 1.0)
        fn = CounterexampleFunction(ce, c)
        inf, nan = math.inf, math.nan
        bad = np.array([(nan, 0.0), (0.0, nan), (nan, nan), (inf, 0.0), (-inf, 0.0),
                        (0.0, -inf), (inf, inf), (-inf, inf), (inf, -inf), (-inf, -inf),
                        (nan, inf)])
        good = np.random.default_rng(3).normal(size=(len(bad), 2))
        x = np.stack([good, bad], axis=1).reshape(-1, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grads = fn.grad_batch(x)
            alone = [fn.grad(row) for row in bad]
        assert not [w for w in caught if "cast" in str(w.message)]
        assert grads[0::2].tobytes() == fn.grad_batch(good).tobytes()
        assert not np.isfinite(grads[1::2]).all(axis=1).any()
        assert not np.isfinite(alone).all(axis=1).any()
        with np.errstate(invalid="ignore", over="ignore"):
            trace = run(fn.grad, HbParams(member[0], member[1]), (nan, 0.0), (0.0, 1.0), 5)
        assert trace.truncated


class TestCounterexampleFunction:
    def test_gradient_is_l_x_inside_hull(self, interior_setup):
        _, c, ce = interior_setup
        x = 0.5 * ce.hull.mean(axis=0) + 0.3 * ce.hull[2]
        value, grad = eval_counterexample(ce, c, x)
        assert np.allclose(grad, c.ell * x, atol=1e-14)
        assert value == pytest.approx(0.5 * c.ell * x @ x, abs=1e-14)

    def test_cycle_gradients_match_forced_form(self, fig4_setup):
        p, c, ce = fig4_setup
        cyc = rou_cycle(7)
        forced = ((1 + p.beta) * np.eye(2) - cyc.rotation
                  - p.beta * cyc.rotation.T) / p.gamma
        for t in range(7):
            _, grad = eval_counterexample(ce, c, cyc.points[t])
            assert np.allclose(grad, forced @ cyc.points[t], atol=1e-10)

    @pytest.mark.parametrize("member", _SECTOR_MEMBERS)
    def test_float_gradient_gives_the_batch_bits_off_the_rays(self, member):
        # Random points are never within rounding of a ray between cones
        # (see the projection test above), so the float kernel (``grad``),
        # a one-row ``grad_batch`` and the (1, 2)-array form the kernel
        # replaced give the array path's bits, inside the polygon, in the
        # edge slabs and in the vertex wedges.
        ce = _member_ce(member)
        c = FunctionClass(0.005, 1.0)
        fn = CounterexampleFunction(ce, c)
        x = np.random.default_rng(5).normal(size=(2000, 2)) * ce.hull_radius
        want = fn.grad_batch(x)
        reference = numpy_counterexample_grad(ce, c)
        for row, grad in zip(x, want):
            assert fn.grad(row).tobytes() == grad.tobytes()
            assert fn.grad_batch(row[None, :]).tobytes() == grad.tobytes()
            assert reference(row).tobytes() == grad.tobytes()

    def test_gradient_matches_finite_differences(self, interior_setup):
        # Central differences of the value are the oracle; points whose
        # difference stencil straddles two smooth pieces are excluded with a
        # 1e-4 guard band probed at the stencil corners.
        _, c, ce = interior_setup
        fn = CounterexampleFunction(ce, c)
        rng = np.random.default_rng(7)
        band = 1e-4
        checked = 0
        while checked < 100:
            x = rng.uniform(-1.6, 1.6, size=2)
            corners = [x + np.array([sx * band, sy * band])
                       for sx in (-1, 1) for sy in (-1, 1)]
            cases = {projection_case(ce, y) for y in corners}
            if len(cases) != 1:
                continue
            grad = fn.grad(x)
            fd = central_difference_grad(fn.value, x, h=1e-6)
            assert np.linalg.norm(fd - grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))
            checked += 1

    def test_curvature_bounds_along_segments(self, interior_setup):
        # Divided differences of the gradient: Lipschitz above, strongly
        # monotone below, over random segments crossing all pieces.
        _, c, ce = interior_setup
        fn = CounterexampleFunction(ce, c)
        rng = np.random.default_rng(13)
        for _ in range(300):
            x = rng.uniform(-2, 2, size=2)
            y = x + rng.uniform(-1, 1, size=2)
            if np.linalg.norm(y - x) < 1e-9:
                continue
            dg = fn.grad(y) - fn.grad(x)
            dx = y - x
            ratio = float(dg @ dx) / float(dx @ dx)
            assert ratio >= c.mu * (1 - 1e-6)
            assert ratio <= c.ell * (1 + 1e-6)
            assert np.linalg.norm(dg) <= c.ell * (1 + 1e-6) * np.linalg.norm(dx)

    @pytest.mark.parametrize("gamma,beta,k", [(3.3, 0.75, 7), (3.5, 0.9, 10),
                                              (2.2, 0.7, 5)])
    def test_exact_cycling(self, gamma, beta, k):
        c = FunctionClass(0.005, 1.0)
        p = HbParams(gamma, beta)
        if not rou_member(p, c, k):
            pytest.skip("not a member configuration")
        ce = build_counterexample(p, c, k)
        fn = CounterexampleFunction(ce, c)
        cyc = rou_cycle(k)
        z_prev, z = cyc.points[0].copy(), cyc.points[1].copy()
        worst = 0.0
        for t in range(2, 2002):
            z_prev, z = z, z - gamma * fn.grad(z) + beta * (z - z_prev)
            worst = max(worst, float(np.linalg.norm(z - cyc.points[t % k])))
        assert worst <= 1e-9


class TestIncompatibilityScan:
    def test_requires_large_constant(self):
        with pytest.raises(ValueError):
            incompatibility_scan(FunctionClass(0.01, 1.0), 16.0)

    def test_empty_intersection_at_moderate_kappa(self):
        assert incompatibility_scan(FunctionClass(0.01, 1.0), 50 / 3 + 0.01,
                                    resolution=(120, 120))

    def test_trivial_for_large_kappa(self):
        # sqrt(kappa) <= (3+sqrt(5)) kappa makes the statement vacuous here.
        assert incompatibility_scan(FunctionClass(0.04, 1.0), 50 / 3 + 0.01,
                                    resolution=(60, 60))
