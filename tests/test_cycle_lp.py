import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hbcycles.cycle_lp as cycle_lp
from hbcycles.cycle_lp import (
    FEASIBILITY_TOL,
    INDETERMINATE_TOL,
    build_lp_matrix,
    cycle_gradients,
    decompose_circulant,
    dual_lower_bound,
    harmonic_gram,
    interpolation_residuals,
    lift_matrices,
    lp_check,
    lp_feasible,
    lp_margin,
    lp_matrices,
    reconstruct_symmetric_cycle,
    screen_periods,
    symmetrize_gram,
)
from hbcycles.quad_rates import FunctionClass, HbParams, ghadimi_beta_bound
from hbcycles.rou_region import rou_cycle, rou_member, rou_member_any

from conftest import full_matrix_screen_periods, highs_margin

LESSARD_POINTS = np.array([792.0, -2208.0, 2592.0]) / 1225.0
LESSARD_TUNING = HbParams(1.0 / 9.0, 4.0 / 9.0)
LESSARD_CLASS = FunctionClass(1.0, 25.0)
LESSARD_GRAM = (8.0 / 49.0) ** 2 * np.array(
    [[4.0, -26.0, 22.0], [-26.0, 169.0, -143.0], [22.0, -143.0, 121.0]])
LESSARD_GRAM_SYM = (64.0 / 49.0) * np.array(
    [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])


def direct_lift_rhs(points, p, c, i, j=0):
    """Interpolation right-hand side evaluated directly on a point sequence
    (independent of the Gram lifting)."""
    pts = np.asarray(points, dtype=float)
    res = interpolation_residuals(pts, cycle_gradients(pts, p), np.zeros(len(pts)), c)
    return float(res[i, j])


def closed_form_lp_matrix(p, c, k):
    """P[i, ell] from one DFT of the row-0 gradient stencil (independent of
    the lift matrices): with w = exp(2 pi i / K),
    u0 = ((1+beta) - w^ell - beta w^-ell) / gamma and d = w^(i ell) - 1,
    P = Re(u0 conj(d)) + |d|^2 (|u0|^2 / 2L + mu |1 - u0/L|^2 / (2(1-kappa)))."""
    ells = np.arange(1, k // 2 + 1)
    rows = np.arange(1, k)
    w_ell = np.exp(2j * np.pi * ells / k)
    u0 = ((1.0 + p.beta) - w_ell - p.beta * np.conj(w_ell)) / p.gamma
    d = np.exp(2j * np.pi * (np.outer(rows, ells) % k) / k) - 1.0
    curv = (np.abs(u0) ** 2 / (2.0 * c.ell)
            + c.mu * np.abs(1.0 - u0 / c.ell) ** 2 / (2.0 * (1.0 - c.kappa)))
    return (u0 * np.conj(d)).real + np.abs(d) ** 2 * curv


def exact_lp_matrix(p, c, k):
    """``closed_form_lp_matrix`` in 40-digit arithmetic (mpmath), with
    kappa = mu/L exact, rounded to floats at the end."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        gamma, beta, mu, ell = (mp.mpf(x) for x in (p.gamma, p.beta, c.mu, c.ell))
        out = np.empty((k - 1, k // 2))
        for col in range(1, k // 2 + 1):
            w = mp.expjpi(mp.mpf(2 * col) / k)
            u0 = ((1 + beta) - w - beta / w) / gamma
            curv = (abs(u0) ** 2 / (2 * ell)
                    + mu * abs(1 - u0 / ell) ** 2 / (2 * (1 - mu / ell)))
            for row in range(1, k):
                d = mp.expjpi(mp.mpf(2 * (row * col % k)) / k) - 1
                out[row - 1, col - 1] = float(mp.re(u0 * mp.conj(d)) + abs(d) ** 2 * curv)
    return out


# Degenerate cycle LPs (mu = 0.01, L = 1) on which a simplex started from
# artificial columns drifted to a primal-infeasible basis.
DEGENERATE_CELLS = [(2.0, 0.0625, 24), (1.75, 0.0625, 20)]


def interpolation_values(points, grads, c):
    """Least function values compatible with the residual system, by
    longest-path iteration on f_i >= f_j + rhs_ij (independent oracle)."""
    rhs = interpolation_residuals(points, grads, np.zeros(len(points)), c)
    k = len(points)
    f = np.zeros(k)
    for _ in range(10 * k):
        new = np.array([max(f[j] + rhs[i, j] for j in range(k) if j != i)
                        for i in range(k)])
        new = np.maximum(new, f)
        if np.allclose(new, f, atol=1e-14):
            return new
        f = new
    raise AssertionError("no consistent potentials: positive cycle in the system")


class TestCycleGradients:
    def test_rou_cycle_matches_rotation_form(self):
        p = HbParams(3.5, 0.75)
        cyc = rou_cycle(7)
        grads = cycle_gradients(cyc.points, p)
        forced = ((1 + p.beta) * np.eye(2) - cyc.rotation
                  - p.beta * cyc.rotation.T) / p.gamma
        assert np.allclose(grads, cyc.points @ forced.T, atol=1e-13)

    def test_constant_points_have_zero_gradients(self):
        pts = np.tile([1.5, -0.5], (5, 1))
        grads = cycle_gradients(pts, HbParams(0.7, 0.3))
        assert np.allclose(grads, 0.0, atol=1e-15)

    def test_zero_gamma_rejected(self):
        with pytest.raises(ZeroDivisionError):
            cycle_gradients(np.eye(3), HbParams(0.0, 0.5))

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_matches_the_roll_form_bit_for_bit(self, k):
        p = HbParams(0.7, 0.3)
        pts = np.random.default_rng(k).normal(size=(k, 3))
        rolled = ((1.0 + p.beta) * pts - np.roll(pts, -1, axis=0)
                  - p.beta * np.roll(pts, 1, axis=0)) / p.gamma
        assert np.array_equal(cycle_gradients(pts, p), rolled)

    def test_lessard_cycle_is_interpolable(self):
        grads = cycle_gradients(LESSARD_POINTS, LESSARD_TUNING)
        values = interpolation_values(LESSARD_POINTS, grads, LESSARD_CLASS)
        res = interpolation_residuals(LESSARD_POINTS, grads, values, LESSARD_CLASS)
        assert res.max() <= 1e-10


class TestInterpolationResiduals:
    def test_single_point_is_trivially_interpolable(self):
        res = interpolation_residuals(np.array([[1.0, 2.0]]),
                                      np.array([[0.3, 0.1]]),
                                      np.array([5.0]), FunctionClass(1, 10))
        assert res.shape == (1, 1) and res[0, 0] == 0.0

    def test_quadratic_upper_envelope_is_tight(self):
        # Exact data from f(x) = L ||x||^2 / 2 makes every residual vanish.
        c = FunctionClass(1.0, 4.0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3))
        g = c.ell * x
        f = 0.5 * c.ell * np.einsum("ij,ij->i", x, x)
        res = interpolation_residuals(x, g, f, c)
        assert np.abs(res).max() <= 1e-12

    def test_rou_member_zero_values(self, fig4_setup):
        p, c, _ = fig4_setup
        cyc = rou_cycle(7)
        grads = cycle_gradients(cyc.points, p)
        res = interpolation_residuals(cyc.points, grads, np.zeros(7), c)
        assert res.max() <= 1e-12
        assert np.allclose(np.diag(res), 0.0, atol=1e-15)

    def test_degenerate_class_rejected(self):
        with pytest.raises(ValueError):
            interpolation_residuals(np.eye(2), np.eye(2), np.zeros(2),
                                    FunctionClass(1.0, 1.0))

    def test_cyclic_shift_symmetry_on_symmetric_cycle(self, fig4_setup):
        p, c, _ = fig4_setup
        cyc = rou_cycle(7)
        grads = cycle_gradients(cyc.points, p)
        res = interpolation_residuals(cyc.points, grads, np.zeros(7), c)
        shifted = np.roll(np.roll(res, 1, axis=0), 1, axis=1)
        assert np.abs(res - shifted).max() <= 1e-10


class TestLiftMatrices:
    # The sweep domain: any step-size up to the edge 2(1+beta)/L, momentum in
    # [0, 1), kappa = mu/L in [1e-4, 1) and periods 3..100, at each of three
    # curvature scales.  The lifted values grow like 1/gamma^2 and the check
    # is relative, so step-size fractions down to 1e-6 stand for small steps.
    @pytest.mark.parametrize("ell", [0.5, 1.0, 25.0])
    @settings(max_examples=300, deadline=None)
    @given(frac=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),
           beta=st.floats(0.0, 1.0, exclude_max=True),
           kappa=st.floats(1e-4, 1.0, exclude_max=True),
           k=st.integers(3, 100),
           seed=st.integers(0, 2**32 - 1))
    def test_agree_with_direct_evaluation(self, frac, beta, kappa, ell, k, seed):
        p = HbParams(frac * 2.0 * (1.0 + beta) / ell, beta)
        c = FunctionClass(kappa * ell, ell)
        lifts = lift_matrices(p, c, k)
        assert lifts.shape == (k - 1, k, k)
        pts = np.random.default_rng(seed).normal(size=(k, 3))
        centered = pts - pts.mean(axis=0)
        lifted = np.einsum("ijk,jk->i", lifts, centered @ centered.T)
        direct = interpolation_residuals(pts, cycle_gradients(pts, p), np.zeros(k), c)[1:, 0]
        assert np.all(np.abs(lifted - direct) <= 1e-8 * np.maximum(1.0, np.abs(direct)))

    def test_cached_period_tables_are_read_only(self):
        for table in cycle_lp._lag_table(5):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1.0

    def test_rou_gram_of_member_is_feasible(self, fig4_setup):
        p, c, _ = fig4_setup
        cyc = rou_cycle(7)
        gram = cyc.points @ cyc.points.T
        for m in lift_matrices(p, c, 7):
            assert np.sum(gram * m) <= 1e-10

    def test_rhs_is_quadratic_in_inverse_gamma(self):
        # The gradient stencil is linear in 1/gamma, so the lifted value is a
        # degree-2 polynomial in 1/gamma: fit on three step sizes, predict a
        # fourth (direct-oracle evaluations throughout).
        c = FunctionClass(0.5, 2.0)
        beta, k, i = 0.3, 5, 2
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(k, 3))
        gammas = np.array([0.4, 0.8, 1.6, 1.1])
        vals = np.array([direct_lift_rhs(pts, HbParams(g, beta), c, i)
                         for g in gammas])
        coeffs = np.polyfit(1.0 / gammas[:3], vals[:3], 2)
        predicted = np.polyval(coeffs, 1.0 / gammas[3])
        assert predicted == pytest.approx(vals[3], abs=1e-10)

    def test_bilinear_term_scales_inversely_with_gamma(self):
        # <g_j, x_i - x_j> alone halves when gamma doubles.
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(5, 2))
        g1 = cycle_gradients(pts, HbParams(0.6, 0.25))
        g2 = cycle_gradients(pts, HbParams(1.2, 0.25))
        lin1 = float(g1[0] @ (pts[2] - pts[0]))
        lin2 = float(g2[0] @ (pts[2] - pts[0]))
        assert lin2 == pytest.approx(lin1 / 2.0, abs=1e-14)


class TestSymmetrizeGram:
    def test_lessard_regression(self):
        assert np.abs(symmetrize_gram(LESSARD_GRAM) - LESSARD_GRAM_SYM).max() <= 1e-12

    def test_lessard_gram_is_the_centered_gram(self):
        centered = LESSARD_POINTS - LESSARD_POINTS.mean()
        assert np.allclose(np.outer(centered, centered), LESSARD_GRAM, atol=1e-12)

    def test_circulant_input_is_fixed_point(self):
        g = LESSARD_GRAM_SYM
        assert np.allclose(symmetrize_gram(g), g, atol=1e-13)
        twice = symmetrize_gram(symmetrize_gram(LESSARD_GRAM))
        assert np.allclose(twice, symmetrize_gram(LESSARD_GRAM), atol=1e-13)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6))
        g = a @ a.T
        assert np.trace(symmetrize_gram(g)) == pytest.approx(np.trace(g), abs=1e-10)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            symmetrize_gram(np.arange(9.0).reshape(3, 3))


class TestHarmonics:
    def test_k3_first_harmonic(self):
        h = harmonic_gram(3, 1).h
        assert np.allclose(h, [[1, -0.5, -0.5], [-0.5, 1, -0.5], [-0.5, -0.5, 1]],
                           atol=1e-15)

    def test_k4_checkerboard(self):
        h = harmonic_gram(4, 2).h
        idx = np.arange(4)
        assert np.allclose(h, (-1.0) ** np.abs(idx[:, None] - idx[None, :]),
                           atol=1e-15)

    @pytest.mark.parametrize("k,ell", [(3, 1), (5, 2), (6, 3), (8, 2), (9, 4)])
    def test_block_structure(self, k, ell):
        h = harmonic_gram(k, ell).h
        assert np.allclose(h, h.T, atol=1e-14)
        assert np.abs(h.sum(axis=1)).max() <= 1e-10
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= -1e-10
        assert np.sum(eigs > 1e-8) <= 2

    def test_rejects_out_of_range_harmonic(self):
        with pytest.raises(ValueError):
            harmonic_gram(6, 4)
        with pytest.raises(ValueError):
            harmonic_gram(6, 0)


class TestDecomposeCirculant:
    def test_lessard_single_harmonic(self):
        nu = decompose_circulant(LESSARD_GRAM_SYM)
        assert nu.shape == (1,)
        assert nu[0] == pytest.approx(128.0 / 49.0, abs=1e-12)

    @pytest.mark.parametrize("k", [3, 4, 5, 8, 11])
    def test_round_trip(self, k):
        rng = np.random.default_rng(k)
        nu = rng.uniform(0.1, 2.0, size=k // 2)
        g = sum(nu[ell - 1] * harmonic_gram(k, ell).h for ell in range(1, k // 2 + 1))
        back = decompose_circulant(g)
        assert np.allclose(back, nu, atol=1e-10)
        rebuilt = sum(back[ell - 1] * harmonic_gram(k, ell).h
                      for ell in range(1, k // 2 + 1))
        assert np.abs(rebuilt - g).max() <= 1e-10

    def test_rejects_non_circulant(self):
        g = np.diag([2.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="circulant"):
            decompose_circulant(g)

    @pytest.mark.parametrize("g", [np.float64(1.0), np.ones(3), np.ones((2, 3))])
    def test_rejects_a_non_square_input(self, g):
        with pytest.raises(ValueError, match="square"):
            decompose_circulant(g)

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(ValueError, match="row sums"):
            decompose_circulant(np.eye(4))

    def test_rejects_indefinite(self):
        g = -harmonic_gram(5, 1).h
        with pytest.raises(ValueError, match="nonnegative"):
            decompose_circulant(g)


class TestReconstruction:
    @pytest.mark.parametrize("k", [3, 4, 6, 7])
    def test_gram_of_points_matches(self, k):
        rng = np.random.default_rng(k + 100)
        nu = rng.uniform(0.0, 1.0, size=k // 2)
        pts = reconstruct_symmetric_cycle(nu, k)
        assert pts.shape == (k, k - 1)
        target = sum(nu[ell - 1] * harmonic_gram(k, ell).h
                     for ell in range(1, k // 2 + 1))
        assert np.abs(pts @ pts.T - target).max() <= 1e-12
        assert np.abs(pts.mean(axis=0)).max() <= 1e-12


class TestLpFeasible:
    def test_demo_point_is_feasible(self, fig4_setup):
        p, c, _ = fig4_setup
        cert = lp_feasible(p, c, 7)
        assert cert is not None
        assert cert.margin <= 1e-9
        assert cert.nu.sum() == pytest.approx(1.0, abs=1e-9)

    def test_certificate_is_internally_consistent(self, fig4_setup):
        p, c, _ = fig4_setup
        cert = lp_feasible(p, c, 7)
        gram = sum(cert.nu[ell - 1] * harmonic_gram(7, ell).h for ell in range(1, 4))
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-9
        assert np.abs(gram.sum(axis=1)).max() <= 1e-9
        assert np.abs(cert.points @ cert.points.T - gram).max() <= 1e-9

    def test_certificate_end_to_end_residuals(self, fig4_setup):
        p, c, _ = fig4_setup
        for k in (5, 7):
            cert = lp_feasible(p, c, k)
            assert cert is not None
            grads = cycle_gradients(cert.points, p)
            res = interpolation_residuals(cert.points, grads, np.zeros(k), c)
            assert res.max() <= 1e-7

    def test_ghadimi_points_are_infeasible(self):
        c = FunctionClass(0.01, 1.0)
        rng = np.random.default_rng(9)
        for _ in range(4):
            gamma = rng.uniform(0.05, 1.9)
            beta = rng.uniform(0.0, ghadimi_beta_bound(c, gamma) * 0.95)
            p = HbParams(gamma, beta)
            for k in range(3, 26):
                assert lp_feasible(p, c, k) is None

    def test_margin_sign_tracks_analytic_region(self):
        c = FunctionClass(0.01, 1.0)
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 30:
            beta = rng.uniform(0.0, 0.95)
            gamma = rng.uniform(0.05, 2 * (1 + beta) / c.ell * (1 - 1e-9))
            p = HbParams(gamma, beta)
            analytic = rou_member_any(p, c, 25) is not None
            lp = any(lp_margin(p, c, k) <= 1e-9 for k in range(3, 26))
            assert lp == analytic, (gamma, beta)
            checked += 1

    # A float period used to end in numpy's TypeError or an IndexError.
    @pytest.mark.parametrize("call", [
        lambda k: lift_matrices(HbParams(3.5, 0.75), FunctionClass(0.005, 1.0), k),
        lambda k: harmonic_gram(k, 1),
        lambda k: reconstruct_symmetric_cycle(np.full(3, 1.0 / 3.0), k),
        lambda k: build_lp_matrix(HbParams(3.5, 0.75), FunctionClass(0.005, 1.0), k),
        lambda k: lp_matrices([3.5], [0.75], FunctionClass(0.005, 1.0), k),
        lambda k: screen_periods([3.5], [0.75], FunctionClass(0.005, 1.0), k),
        lambda k: lp_margin(HbParams(3.5, 0.75), FunctionClass(0.005, 1.0), k),
        lambda k: lp_check(HbParams(3.5, 0.75), FunctionClass(0.005, 1.0), k),
        lambda k: lp_feasible(HbParams(3.5, 0.75), FunctionClass(0.005, 1.0), k)])
    @pytest.mark.parametrize("k", [7.5, 7.0, np.float64(7.0)])
    def test_rejects_non_integer_periods(self, call, k):
        with pytest.raises(ValueError, match="period must be an integer"):
            call(k)

    def test_accepts_numpy_integer_periods(self):
        p, c = HbParams(3.5, 0.75), FunctionClass(0.005, 1.0)
        # A rejected 7.0 caches no table: np.int64(7) shares its cache key.
        with pytest.raises(ValueError):
            build_lp_matrix(p, c, 7.0)
        assert lp_check(p, c, np.int64(7))[0] == lp_check(p, c, 7)[0]
        assert harmonic_gram(np.int64(7), 2).h.tobytes() == harmonic_gram(7, 2).h.tobytes()

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            lp_feasible(HbParams(0.5, 0.2), FunctionClass(1.0, 1.0), 5)
        with pytest.raises(ValueError):
            lp_margin(HbParams(0.5, 0.2), FunctionClass(0.01, 1.0), 2)
        for solve in (lp_margin, lp_feasible):
            with pytest.raises(ZeroDivisionError, match="gamma must be nonzero"):
                solve(HbParams(0.0, 0.2), FunctionClass(0.01, 1.0), 5)


def test_lp_matrix_shape():
    p = build_lp_matrix(HbParams(1.5, 0.5), FunctionClass(0.01, 1.0), 9)
    assert p.shape == (8, 4)


@pytest.mark.parametrize("gamma,beta", [(0.7, 0.3), (2.0, 0.0625), (3.5, 0.75)])
def test_lp_matrix_matches_closed_form(gamma, beta):
    p, c = HbParams(gamma, beta), FunctionClass(0.01, 1.0)
    for k in range(3, 61):
        expected = closed_form_lp_matrix(p, c, k)
        got = build_lp_matrix(p, c, k)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), k


@pytest.mark.parametrize("gamma,beta,k", DEGENERATE_CELLS)
def test_margin_matches_highs(gamma, beta, k):
    p, c = HbParams(gamma, beta), FunctionClass(0.01, 1.0)
    expected = highs_margin(build_lp_matrix(p, c, k))
    assert lp_margin(p, c, k) == pytest.approx(expected, rel=1e-12)


# Cycle LPs on which a Bland's-rule simplex ended without an optimum:
# "iteration_limit" at the period-92 LP of the default lp-region sweep,
# "lost_feasibility" just inside the step-size edge, and on the edge
# gamma = 2(1+beta)/L twelve periods ending "lost_feasibility" or "unbounded"
# where a single harmonic is a cycle.
STALLED_LPS = [(2.0 / 3.0, 1.0 / 6.0, 92), (2.0078125, 0.00390626, 22)]
EDGE_MEMBER_LPS = [(3.0, 0.5, k) for k in (36, 42, 54, 56, 58, 70, 74, 84, 92, 94, 96, 100)]


@pytest.mark.parametrize("gamma,beta,k", STALLED_LPS + EDGE_MEMBER_LPS)
def test_formerly_failing_lps_match_highs(gamma, beta, k):
    p, c = HbParams(gamma, beta), FunctionClass(0.01, 1.0)
    pm = build_lp_matrix(p, c, k)
    scale = max(np.abs(pm).max(), 1.0)
    assert lp_margin(p, c, k) == pytest.approx(highs_margin(pm), abs=1e-12 * scale)


@pytest.mark.parametrize("gamma,beta,k", EDGE_MEMBER_LPS)
def test_edge_member_certificate_verifies(gamma, beta, k):
    p, c = HbParams(gamma, beta), FunctionClass(0.01, 1.0)
    cert = lp_feasible(p, c, k)
    assert cert is not None
    scale = max(np.abs(build_lp_matrix(p, c, k)).max(), 1.0)
    res = interpolation_residuals(cert.points, cycle_gradients(cert.points, p), np.zeros(k), c)
    assert res[~np.eye(k, dtype=bool)].max() <= FEASIBILITY_TOL + 1e-12 * scale


# The cycle-LP screen.  Cells inside the convergence region at mu = 0.01,
# L = 1, with the step-size edge gamma = 2(1+beta)/L drawn on its own.
SCREEN_CLASS = FunctionClass(0.01, 1.0)
in_region = st.builds(
    lambda beta, frac: HbParams(frac * 2.0 * (1.0 + beta), beta),
    st.floats(0.0, 0.99), st.one_of(st.just(1.0), st.floats(0.02, 1.0)))
periods = st.integers(3, 25)


def solved_dual(p, k):
    """Margin and dual weights of one full solve."""
    margin, _, y = cycle_lp._solve_cycle_lp(build_lp_matrix(p, SCREEN_CLASS, k), p)
    assert y is not None and y.min() >= 0.0 and y.sum() == pytest.approx(1.0)
    return margin, y


@settings(max_examples=40, deadline=None)
@given(p=in_region, k=periods, step=st.floats(-0.05, 0.05), dbeta=st.floats(-0.05, 0.05))
@example(p=HbParams(2.0078125, 0.00390626), k=22, step=0.0, dbeta=0.0)
def test_screen_bound_from_a_neighbour_dual_is_below_highs(p, k, step, dbeta):
    beta = min(max(p.beta + dbeta, 0.0), 0.99)
    neighbour = HbParams(min(p.gamma * (1.0 + step), 2.0 * (1.0 + beta)), beta)
    _, y = solved_dual(neighbour, k)
    pm = build_lp_matrix(p, SCREEN_CLASS, k)
    scale = max(np.abs(pm).max(), 1.0)
    assert dual_lower_bound(pm, y) <= highs_margin(pm) + 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(p=in_region, k=periods, seed=st.integers(0, 2**32 - 1))
def test_screen_bound_from_random_weights_is_below_highs(p, k, seed):
    # Unnormalized weights: the bound divides by their sum.
    rng = np.random.default_rng(seed)
    y = rng.dirichlet(np.ones(k - 1)) * rng.uniform(0.1, 10.0)
    pm = build_lp_matrix(p, SCREEN_CLASS, k)
    scale = max(np.abs(pm).max(), 1.0)
    assert dual_lower_bound(pm, y) <= highs_margin(pm) + 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(p=in_region, k=periods)
@example(p=HbParams(2.000000000002, 1e-12), k=12)
def test_returned_dual_is_optimal(p, k):
    # Its bound is the margin itself, not merely a lower bound on it.
    margin, y = solved_dual(p, k)
    pm = build_lp_matrix(p, SCREEN_CLASS, k)
    scale = max(np.abs(pm).max(), 1.0)
    assert dual_lower_bound(pm, y) == pytest.approx(margin, rel=1e-9, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(p=in_region, kappa=st.floats(1e-4, 0.9), k_from=st.integers(3, 60),
       k=st.integers(3, 60))
# The bench grid's solved cell: its K' = 7 dual proves K = 11.
@example(p=HbParams(2.5, 0.5), kappa=0.01, k_from=7, k=11)
def test_a_lag_mapped_dual_that_clears_the_floor_is_below_highs(p, kappa, k_from, k):
    # The dual is the one lp_margin would hold; a failed solve holds none.
    c = FunctionClass(kappa, 1.0)
    try:
        _, _, y = cycle_lp._solve_cycle_lp(build_lp_matrix(p, c, k_from), p)
    except RuntimeError:
        assume(False)
    mapped = cycle_lp._lag_mapped_dual(y, k)
    assume(mapped.any())
    pm = build_lp_matrix(p, c, k)
    scale = max(np.abs(pm).max(), 1.0)
    bound = dual_lower_bound(pm, mapped)
    if bound > INDETERMINATE_TOL + cycle_lp.SCREEN_SLACK * scale:
        margin = highs_margin(pm)
        assert margin > INDETERMINATE_TOL and margin >= bound - 1e-9 * scale


def counted_solves(monkeypatch):
    """A list that gains one entry per simplex solve of the cycle LP."""
    calls = []
    solve = cycle_lp.solve_canonical

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cycle_lp, "solve_canonical", counting)
    return calls


class TestDualStore:
    def test_first_call_solves_like_the_plain_margin_and_stores(self, monkeypatch):
        p = HbParams(1.2, 0.3)
        prior = []
        calls = counted_solves(monkeypatch)
        assert lp_margin(p, SCREEN_CLASS, 5, prior) == lp_margin(p, SCREEN_CLASS, 5)
        assert len(calls) == 2 and [len(y) for y in prior] == [4]
        # The K = 5 dual, all of its weight on lag -1, mapped onto the rows
        # of K = 6 proves that period out without a solve.
        held = prior[0]
        calls.clear()
        bound = lp_margin(p, SCREEN_CLASS, 6, prior)
        assert calls == [] and len(prior) == 1 and prior[0] is held
        assert INDETERMINATE_TOL < bound <= lp_margin(p, SCREEN_CLASS, 6)

    def test_screened_periods_skip_the_solve(self, monkeypatch):
        # At the same period the lag map is the identity: the bound is that
        # of the held weights themselves.
        prior = []
        lp_margin(HbParams(1.2, 0.3), SCREEN_CLASS, 7, prior)
        held = prior[0]
        calls = counted_solves(monkeypatch)
        p = HbParams(1.25, 0.3)
        bound = lp_margin(p, SCREEN_CLASS, 7, prior)
        assert calls == []
        assert bound == dual_lower_bound(build_lp_matrix(p, SCREEN_CLASS, 7), held)
        assert INDETERMINATE_TOL < bound <= lp_margin(p, SCREEN_CLASS, 7)
        assert len(prior) == 1 and prior[0] is held

    def test_unclear_bound_falls_back_to_the_solve(self):
        # A member cell: no dual can prove a positive margin there.
        p, k = HbParams(3.5, 0.75), 7
        uniform = np.full(k - 1, 1.0 / (k - 1))
        prior = [uniform]
        margin = lp_margin(p, FunctionClass(0.005, 1.0), k, prior)
        assert margin == lp_margin(p, FunctionClass(0.005, 1.0), k) < 0.0
        assert len(prior) == 1 and not np.array_equal(prior[0], uniform)

    def test_a_re_solved_period_becomes_the_most_recent(self):
        # A member cell at K = 7: the K = 5 dual mapped by lag does not
        # clear, so K = 7 is solved and its dual is the only one held.
        p, c = HbParams(3.5, 0.75), FunctionClass(0.005, 1.0)
        prior = [np.full(4, 0.25)]
        lp_margin(p, c, 7, prior)
        assert len(prior) == 1 and len(prior[0]) == 6
        _, _, y = cycle_lp._solve_cycle_lp(build_lp_matrix(p, c, 7), p)
        assert np.array_equal(prior[0], y)

    def test_a_dual_with_every_weight_dropped_falls_back_to_the_solve(self, monkeypatch):
        # At K = 3 the K' = 7 weight on lag 3 lands on lag 0 and is dropped:
        # nothing is left to bound with, and nothing divides by its zero sum.
        p = HbParams(1.2, 0.3)
        prior = [np.eye(6)[2]]
        calls = counted_solves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            margin = lp_margin(p, SCREEN_CLASS, 3, prior)
        assert len(calls) == 1 and len(prior) == 1 and len(prior[0]) == 2
        assert margin == lp_margin(p, SCREEN_CLASS, 3)


class TestLagMappedDual:
    def test_lags_of_period_7_land_on_the_rows_of_period_11(self):
        # Row 3 of K' = 7 is lag +3 (row 3 at K = 11); row 6 is lag -1 (row 10).
        y = np.array([0.0, 0.0, 0.1, 0.0, 0.0, 0.9])
        expected = np.zeros(10)
        expected[[2, 9]] = 0.1, 0.9
        assert np.array_equal(cycle_lp._lag_mapped_dual(y, 11), expected)

    def test_the_middle_row_of_an_even_period_is_a_positive_lag(self):
        # Row 4 of K' = 8 is lag +4 (row 4 at K = 6); row 5 is lag -3 (row 3).
        eye = np.eye(7)
        assert np.array_equal(cycle_lp._lag_mapped_dual(eye[3], 6), np.eye(5)[3])
        assert np.array_equal(cycle_lp._lag_mapped_dual(eye[4], 6), np.eye(5)[2])

    def test_weights_on_lags_zero_mod_the_period_are_dropped_and_shared_rows_add(self):
        # K' = 7 to K = 3: lag 3 is dropped; lags -1 and 2 both land on row 2.
        y = np.array([0.0, 0.2, 0.3, 0.0, 0.0, 0.5])
        assert np.array_equal(cycle_lp._lag_mapped_dual(y, 3), [0.0, 0.7])

    def test_matches_a_row_by_row_loop_and_keeps_every_bit_at_the_same_period(self):
        rng = np.random.default_rng(31)
        for k_from in range(3, 41):
            y = rng.random(k_from - 1)
            assert np.array_equal(cycle_lp._lag_mapped_dual(y, k_from), y)
            for k in range(3, 41):
                expected = np.zeros(k)
                for i in range(1, k_from):
                    lag = i if 2 * i <= k_from else i - k_from
                    expected[lag % k] += y[i - 1]
                assert np.array_equal(cycle_lp._lag_mapped_dual(y, k), expected[1:])


# The batched closed form.  Step-sizes up to and on the edge 2(1+beta)/L,
# momentum up to just below 1, kappa from 1e-4 to 0.98, three curvature
# scales, and periods to 100 with the even ones (the Nyquist column) drawn
# on their own.
edge_cells = st.tuples(
    st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    st.one_of(st.floats(0.0, 1.0, exclude_max=True),
              st.floats(1.0 - 1e-6, 1.0, exclude_max=True)))
matrix_periods = st.one_of(st.integers(3, 100), st.integers(2, 50).map(lambda h: 2 * h))


@pytest.mark.parametrize("ell", [0.5, 1.0, 25.0])
@settings(max_examples=60, deadline=None)
@given(cells=st.lists(edge_cells, min_size=1, max_size=4),
       kappa=st.floats(1e-4, 0.98), k=matrix_periods)
# At the corner gamma = 2(1+beta)/L, beta -> 1 every entry of P cancels to
# rounding noise (max|P| about 1e-16), so a bound relative to max|P| alone
# is below the rounding of any of the three formulas.
@example(cells=[(1.0, 0.9999999999999999)], kappa=0.5, k=4)
def test_lp_matrices_agree_with_the_lift_and_the_closed_form(cells, kappa, ell, k):
    c = FunctionClass(kappa * ell, ell)
    gammas = [frac * 2.0 * (1.0 + beta) / ell for frac, beta in cells]
    betas = [beta for _, beta in cells]
    pm, err = lp_matrices(gammas, betas, c, k)
    assert pm.shape == (len(cells), k - 1, k // 2) and err.shape == (len(cells),)
    for got, bound, gamma, beta in zip(pm, err, gammas, betas):
        p = HbParams(gamma, beta)
        for expected in (build_lp_matrix(p, c, k), closed_form_lp_matrix(p, c, k)):
            assert np.abs(got - expected).max() <= max(1e-12 * np.abs(expected).max(), bound)


@settings(max_examples=25, deadline=None)
@given(cell=edge_cells, kappa=st.floats(1e-4, 0.98),
       ell=st.sampled_from([0.5, 1.0, 25.0]), k=st.integers(3, 24))
def test_lp_matrices_rounding_bound_holds_in_exact_arithmetic(cell, kappa, ell, k):
    frac, beta = cell
    p, c = HbParams(frac * 2.0 * (1.0 + beta) / ell, beta), FunctionClass(kappa * ell, ell)
    pm, err = lp_matrices([p.gamma], [p.beta], c, k)
    # The exact entries are rounded once more, by half an ulp at most.
    exact = exact_lp_matrix(p, c, k)
    assert np.all(np.abs(pm[0] - exact) <= err[0] + np.spacing(np.abs(exact)))


@pytest.mark.parametrize("ell", [0.5, 1.0, 25.0])
@settings(max_examples=60, deadline=None)
@given(cells=st.lists(edge_cells, min_size=1, max_size=6),
       kappa=st.floats(1e-4, 0.98), k=matrix_periods)
# Row 3 alone rules out the first cell, row K-1 does not; rows 2-6 rule out
# the second: the full matrix must still be read where row K-1 fails.
@example(cells=[(0.625, 0.96875), (0.25, 0.5)], kappa=0.5, k=7)
def test_row_first_screen_matches_the_full_matrix_screen(cells, kappa, ell, k):
    c = FunctionClass(kappa * ell, ell)
    gammas = [frac * 2.0 * (1.0 + beta) / ell for frac, beta in cells]
    betas = [beta for _, beta in cells]
    row, row_err = lp_matrices(gammas, betas, c, k, rows=slice(-1, None))
    pm, err = lp_matrices(gammas, betas, c, k)
    assert row.shape == (len(cells), 1, k // 2)
    assert np.array_equal(row[:, 0], pm[:, -1]) and np.array_equal(row_err, err)
    got = screen_periods(gammas, betas, c, k)
    for a, b in zip(got, full_matrix_screen_periods(gammas, betas, c, k)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("k_max, count", [(25, 16), (100, 6)])
def test_row_first_screen_matches_the_full_matrix_screen_on_sweep_grids(k_max, count):
    # The bench grid and the 6 x 6 grid at k-max 100, every cell of the
    # closure at every period: both verdicts occur, and in one call the row
    # screen rules out some cells and leaves others to the full matrix.
    gammas, betas = np.meshgrid(np.linspace(4.0 / count, 4.0, count),
                                np.arange(count) / count, indexing="ij")
    gammas, betas = gammas.ravel(), betas.ravel()
    inside = gammas <= 2.0 * (1.0 + betas)
    gammas, betas = gammas[inside], betas[inside]
    seen = np.zeros(2, dtype=int)
    for k in range(3, k_max + 1):
        member, ruled_out = screen_periods(gammas, betas, SCREEN_CLASS, k)
        expected = full_matrix_screen_periods(gammas, betas, SCREEN_CLASS, k)
        assert np.array_equal(member, expected[0])
        assert np.array_equal(ruled_out, expected[1])
        seen += member.any(), ruled_out.any() and not ruled_out.all()
    assert seen.min() > 0


def test_lp_matrices_reject_degenerate_inputs():
    with pytest.raises(ValueError):
        lp_matrices([0.5], [0.2], FunctionClass(1.0, 1.0), 5)
    with pytest.raises(ValueError):
        lp_matrices([0.5], [0.2], SCREEN_CLASS, 2)
    with pytest.raises(ZeroDivisionError):
        lp_matrices([0.5, 0.0], [0.2, 0.2], SCREEN_CLASS, 5)


def assert_screens_hold(p, k, member, ruled_out, certificate=False):
    """A ruled-out period has a HiGHS margin above INDETERMINATE_TOL.  A
    screened member has a HiGHS margin within FEASIBILITY_TOL, and its pure
    harmonic cycle (and with ``certificate`` the LP's certificate from
    ``lp_feasible``) verifies through the interpolation residuals."""
    assert not (member and ruled_out)
    pm = build_lp_matrix(p, SCREEN_CLASS, k)
    if ruled_out:
        assert highs_margin(pm) > INDETERMINATE_TOL
    if member:
        assert highs_margin(pm) <= FEASIBILITY_TOL
        scale = max(np.abs(pm).max(), 1.0)
        off_diagonal = ~np.eye(k, dtype=bool)
        nu = np.zeros(k // 2)
        nu[int(np.argmin(pm.max(axis=0)))] = 1.0
        cycles = [reconstruct_symmetric_cycle(nu, k)]
        if certificate:
            cycles.append(lp_feasible(p, SCREEN_CLASS, k).points)
        for points in cycles:
            res = interpolation_residuals(points, cycle_gradients(points, p),
                                          np.zeros(k), SCREEN_CLASS)
            assert res[off_diagonal].max() <= FEASIBILITY_TOL + 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(p=in_region, k=st.integers(3, 60))
def test_screened_verdicts_hold(p, k):
    (member,), (ruled_out,) = screen_periods([p.gamma], [p.beta], SCREEN_CLASS, k)
    assert_screens_hold(p, k, member, ruled_out, certificate=True)


def test_screened_verdicts_hold_on_the_benchmark_grid():
    # The lp-region benchmark's 16 x 16 grid: every screened member, with
    # the LP's certificate too, and every 25th ruled-out pair, at the
    # periods the sweep screens.
    gammas, betas = np.meshgrid(np.linspace(0.25, 4.0, 16),
                                np.arange(16) / 16.0, indexing="ij")
    gammas, betas = gammas.ravel(), betas.ravel()
    inside = gammas <= 2.0 * (1.0 + betas)
    gammas, betas = gammas[inside], betas[inside]
    checked = {"member": 0, "ruled_out": 0}
    for k in range(3, 26):
        member, ruled_out = screen_periods(gammas, betas, SCREEN_CLASS, k)
        for j in np.flatnonzero(member | ruled_out):
            if ruled_out[j] and j % 25:
                continue
            assert_screens_hold(HbParams(gammas[j], betas[j]), k, member[j], ruled_out[j],
                                certificate=True)
            checked["member" if member[j] else "ruled_out"] += 1
    assert checked["member"] > 50 and checked["ruled_out"] > 50
