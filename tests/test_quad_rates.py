import math

import numpy as np
import pytest

from hbcycles.quad_rates import (
    FunctionClass,
    HbParams,
    Region,
    ghadimi_beta_bound,
    ghadimi_contains,
    ghadimi_optimum,
    level_set,
    optimal_tuning,
    rate_grid,
    rate_on_quadratics,
    sublevel_contains,
)
from conftest import brute_force_rate, brute_force_rate_grid


class TestRateOnQuadratics:
    def test_gd_step_reduces_to_gradient_descent(self):
        report = rate_on_quadratics(HbParams(1 / 25, 0.0), FunctionClass(1, 25))
        assert report.region is Region.LAZY
        assert report.rho == pytest.approx(0.96, abs=1e-15)

    def test_robust_rate_is_sqrt_beta(self):
        report = rate_on_quadratics(HbParams(0.1, 0.5), FunctionClass(1, 25))
        assert report.region is Region.ROBUST
        assert report.rho == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_overlong_step_diverges(self):
        report = rate_on_quadratics(HbParams(3.0, 0.0), FunctionClass(1, 1))
        assert report.region is Region.NO_CONVERGENCE
        assert math.isnan(report.rho)

    @pytest.mark.parametrize("gamma,beta", [(0.0, 0.5), (-1.0, 0.0), (0.1, 1.0),
                                            (0.1, -1.0), (0.2, 0.3)])
    def test_no_convergence_cases(self, gamma, beta):
        c = FunctionClass(1, 25)
        report = rate_on_quadratics(HbParams(gamma, beta), c)
        if gamma <= 0 or abs(beta) >= 1 or gamma >= 2 * (1 + beta) / c.ell:
            assert report.region is Region.NO_CONVERGENCE
        else:
            assert report.region is not Region.NO_CONVERGENCE

    def test_boundary_ties_resolve_to_robust(self):
        c = FunctionClass(1.0, 25.0)
        beta = 0.5
        for gamma in [(1 - math.sqrt(beta)) ** 2 / c.mu,
                      (1 + math.sqrt(beta)) ** 2 / c.ell]:
            report = rate_on_quadratics(HbParams(gamma, beta), c)
            assert report.region is Region.ROBUST
            assert report.rho == pytest.approx(math.sqrt(beta), abs=1e-12)

    @pytest.mark.parametrize("kappa", [0.04, 0.01, 0.3])
    def test_oracle_equivalence_on_grid(self, kappa):
        # Spectral radius of the companion matrix over a lambda grid is the
        # independent oracle; negative momentum included deliberately.
        c = FunctionClass(kappa, 1.0)
        gammas = np.linspace(0.05, 3.9, 40)
        betas = np.linspace(-0.5, 0.95, 30)
        g, b = np.meshgrid(gammas, betas, indexing="ij")
        rho, codes = rate_grid(g, b, c)
        oracle = brute_force_rate_grid(g, b, c.mu, c.ell)
        conv = codes != 3
        assert np.all(np.abs(rho[conv] - oracle[conv]) <= 1e-10)
        assert np.all(rho[conv] < 1.0)
        assert np.all(oracle[~conv] >= 1.0 - 1e-10)

    def test_robust_rate_independent_of_gamma(self):
        c = FunctionClass(1, 25)
        beta = 0.6
        lo = (1 - math.sqrt(beta)) ** 2 / c.mu
        hi = (1 + math.sqrt(beta)) ** 2 / c.ell
        rates = [rate_on_quadratics(HbParams(g, beta), c).rho
                 for g in np.linspace(lo, hi, 17)]
        assert np.ptp(rates) <= 1e-14

    def test_lazy_rate_nonincreasing_in_gamma(self):
        c = FunctionClass(1, 25)
        beta = 0.1
        hi = min(2 * (1 + beta) / (c.ell + c.mu), (1 - math.sqrt(beta)) ** 2 / c.mu)
        rates = [rate_on_quadratics(HbParams(g, beta), c).rho
                 for g in np.linspace(1e-4, hi, 30)]
        assert np.all(np.diff(rates) <= 1e-14)


class TestOptimalTuning:
    def test_closed_form_kappa_one_twenty_fifth(self):
        p, rho = optimal_tuning(FunctionClass(1, 25))
        assert rho == pytest.approx(2 / 3, abs=1e-15)
        assert p.beta == pytest.approx(4 / 9, abs=1e-15)
        assert p.gamma == pytest.approx(1 / 9, abs=1e-15)

    def test_degenerate_class(self):
        p, rho = optimal_tuning(FunctionClass(2.0, 2.0))
        assert rho == 0.0
        assert p.beta == 0.0
        assert p.gamma == pytest.approx(1 / 2.0, abs=1e-15)

    def test_small_kappa_first_order(self):
        kappa = 1e-8
        _, rho = optimal_tuning(FunctionClass(kappa, 1.0))
        assert rho == pytest.approx(1 - 2 * math.sqrt(kappa), rel=1e-3)

    def test_achieves_its_rate(self):
        c = FunctionClass(1, 25)
        p, rho = optimal_tuning(c)
        report = rate_on_quadratics(p, c)
        assert report.rho == pytest.approx(rho, abs=1e-14)

    def test_beats_fine_grid(self):
        c = FunctionClass(1, 25)
        _, rho = optimal_tuning(c)
        gammas = np.linspace(1e-3, 0.2, 150)
        betas = np.linspace(0, 0.9, 150)
        g, b = np.meshgrid(gammas, betas, indexing="ij")
        grid_rho, codes = rate_grid(g, b, c)
        assert np.nanmin(np.where(codes != 3, grid_rho, np.nan)) >= rho - 1e-12


class TestLevelSet:
    def test_robust_segment_values(self):
        tri = level_set(FunctionClass(1, 25), 0.9)
        (g0, b0), (g1, b1) = tri.robust_segment.start, tri.robust_segment.end
        assert b0 == b1 == pytest.approx(0.81, abs=1e-15)
        assert g0 == pytest.approx(0.01, abs=1e-12)
        assert g1 == pytest.approx(0.1444, abs=1e-12)

    def test_degenerates_to_optimal_point(self):
        c = FunctionClass(1, 25)
        p, rho = optimal_tuning(c)
        tri = level_set(c, rho)
        for seg in (tri.lazy_segment, tri.robust_segment, tri.knife_segment):
            assert seg.start == pytest.approx((p.gamma, p.beta), abs=1e-10)
            assert seg.end == pytest.approx((p.gamma, p.beta), abs=1e-10)

    def test_triangle_closure(self):
        tri = level_set(FunctionClass(1, 25), 0.8)
        assert tri.lazy_segment.end == pytest.approx(tri.robust_segment.start, abs=1e-10)
        assert tri.knife_segment.end == pytest.approx(tri.robust_segment.end, abs=1e-10)
        assert tri.lazy_segment.start == pytest.approx(tri.knife_segment.start, abs=1e-10)

    @pytest.mark.parametrize("rho", [0.7, 0.82, 0.95])
    def test_boundary_points_have_the_level_rate(self, rho):
        c = FunctionClass(1, 25)
        tri = level_set(c, rho)
        for gamma, beta in tri.boundary_points(25):
            report = rate_on_quadratics(HbParams(gamma, beta), c)
            assert abs(report.rho - rho) <= 1e-10

    def test_gd_tuning_sits_on_its_triangle(self):
        # kappa = 1/20: the level set at the gradient-descent rate passes
        # through (2/(L+mu), 0).
        c = FunctionClass(1, 20)
        rho = (1 - c.kappa) / (1 + c.kappa)
        tri = level_set(c, rho)
        gamma, beta = tri.lazy_segment.start
        assert beta == pytest.approx(0.0, abs=1e-12)
        assert gamma == pytest.approx(2 / (c.ell + c.mu), abs=1e-12)

    def test_out_of_range_errors(self):
        c = FunctionClass(1, 25)
        with pytest.raises(ValueError, match="empty"):
            level_set(c, 0.5)
        with pytest.raises(ValueError):
            level_set(c, 1.5)


class TestSublevel:
    def test_optimal_point_at_optimal_level(self):
        c = FunctionClass(1, 25)
        p, rho = optimal_tuning(c)
        assert sublevel_contains(c, rho, p)

    def test_gd_rate_thresholds(self):
        c = FunctionClass(1, 25)
        gd = HbParams(1 / 25, 0.0)
        assert sublevel_contains(c, 1 - c.kappa, gd)
        assert not sublevel_contains(c, 1 - 2 * c.kappa, gd)

    def test_divergent_point_never_contained(self):
        c = FunctionClass(1, 25)
        assert not sublevel_contains(c, 1.0, HbParams(-1.0, 0.0))

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            sublevel_contains(FunctionClass(1, 25), 1.5, HbParams(0.01, 0.0))


class TestGhadimi:
    def test_gd_point_contained(self):
        c = FunctionClass(1, 25)
        assert ghadimi_contains(c, HbParams(1 / 25, 0.0))
        assert ghadimi_beta_bound(c, 1 / 25) > 0

    def test_outside_gamma_range(self):
        c = FunctionClass(1, 25)
        assert not ghadimi_contains(c, HbParams(2 / 25, 0.0))
        assert not ghadimi_contains(c, HbParams(-0.1, 0.0))

    def test_bound_of_an_array_is_the_bound_of_each_float(self):
        c = FunctionClass(0.01, 1.0)
        gammas = np.array([-0.1, 0.0, 1e-3, 0.7, 1.5, np.nextafter(2.0, 0.0), 2.0, 3.0])
        bounds = ghadimi_beta_bound(c, gammas)
        singles = [ghadimi_beta_bound(c, g) for g in gammas.tolist()]
        assert all(type(b) is float for b in singles)
        assert bounds.tobytes() == np.array(singles).tobytes()
        assert bounds[[0, 1, 6, 7]].tolist() == [0.0] * 4 and (bounds[2:6] > 0).all()

    def test_asymptotic_gap_constant(self):
        c = FunctionClass(1e-4, 1.0)
        _, rho = ghadimi_optimum(c)
        assert 7.5 <= (1 - rho) / c.kappa <= 8.5

    @pytest.mark.parametrize("kappa", [1e-4, 1e-3, 1e-2, 0.04, 0.1])
    def test_never_beats_quadratic_optimum(self, kappa):
        c = FunctionClass(kappa, 1.0)
        _, rho = ghadimi_optimum(c)
        _, rho_star = optimal_tuning(c)
        assert rho >= rho_star - 1e-12

    def test_no_grid_point_beats_closed_form(self):
        # Grid search over the region is the oracle: the closed form is its
        # infimum, so every grid point rates at least that (the region is
        # open, hence the strict gap).
        c = FunctionClass(0.01, 1.0)
        _, rho = ghadimi_optimum(c)
        best = np.inf
        for gamma in np.linspace(1e-3, 2.0 - 1e-9, 200):
            bound = ghadimi_beta_bound(c, gamma)
            for beta in np.linspace(0.0, bound * (1 - 1e-12), 120):
                report = rate_on_quadratics(HbParams(gamma, beta), c)
                if report.region is not Region.NO_CONVERGENCE:
                    best = min(best, report.rho)
        assert best >= rho - 1e-6

    def test_optimum_rate_matches_quadratic_rate_at_returned_point(self):
        c = FunctionClass(1e-3, 1.0)
        p, rho = ghadimi_optimum(c)
        report = rate_on_quadratics(p, c)
        assert report.rho == pytest.approx(rho, abs=1e-12)
