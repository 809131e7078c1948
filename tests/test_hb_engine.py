import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbcycles.hb_engine import (
    _DRAW_CHUNK,
    NoiseSpec,
    detect_cycle,
    estimate_rate,
    noise_budget,
    perturbed_run,
    perturbed_runs,
    run,
    stability_constants,
    write_trace_csv,
)
from hbcycles.quad_rates import FunctionClass, HbParams, rate_on_quadratics
from hbcycles.rou_region import (
    CounterexampleFunction,
    build_counterexample,
    rou_cycle,
)
from hbcycles.smoothing import dilate, smooth_counterexample

from conftest import (
    numpy_counterexample_grad,
    numpy_run,
    rowwise_write_trace_csv,
    sequential_perturbed_run,
)


# Interior members of mu = 0.005, L = 1 at two periods.
_MEMBERS = {5: HbParams(3.8, 0.9), 7: HbParams(3.3, 0.75)}
_MEMBER_CLASS = FunctionClass(0.005, 1.0)


@functools.cache
def _member_setup(k):
    p = _MEMBERS[k]
    ce = build_counterexample(p, _MEMBER_CLASS, k)
    return p, ce, noise_budget(p, _MEMBER_CLASS, ce)


def _assert_matches_oracle(batch, noises, k, steps):
    """Uniform runs bit-identical to the oracle, adversarial ones to 1e-12.

    The adversarial sign choice takes a norm and two dot products of one
    point, which may round differently from the row-wise batch forms.
    """
    p, ce, _ = _member_setup(k)
    for i, noise in enumerate(noises):
        zs, params, _, stayed = sequential_perturbed_run(ce, _MEMBER_CLASS, p, k,
                                                         noise, steps)
        assert bool(batch.stayed_in_tube[i]) == stayed
        if noise.mode == "uniform-random":
            assert np.array_equal(batch.iterates[:, i], zs)
            assert np.array_equal(batch.params_used[:, i], params)
        else:
            assert np.abs(batch.iterates[:, i] - zs).max() <= 1e-12


# Per-run noise as fractions of the guaranteed budgets; up to twice the
# gradient budget, so some runs may leave the tube.
_noise_fractions = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    st.floats(0.0, 2.0), st.sampled_from(["uniform-random", "adversarial-sign"]),
    st.integers(0, 2**32 - 1))


def _noise_specs(fractions, budget):
    return [NoiseSpec(init, gj * budget["gamma_jitter"] / 2, bj * budget["beta_jitter"] / 2,
                      gn * budget["grad_noise"], mode, seed)
            for init, gj, bj, gn, mode, seed in fractions]


def diag_quadratic_oracle(mu, L):
    h = np.array([mu, L])
    return lambda z: h * z


class TestRun:
    def test_isotropic_single_step_lands_at_zero(self):
        trace = run(lambda z: z, HbParams(1.0, 0.0), [3.0, -2.0], [3.0, -2.0], 1)
        assert np.allclose(trace.iterates[2], 0.0, atol=1e-15)

    def test_trace_length_and_calls(self):
        trace = run(lambda z: 0.1 * z, HbParams(0.5, 0.2), [1.0], [0.9], 25)
        assert trace.iterates.shape == (27, 1)
        assert trace.grad_calls == 25
        assert trace.params_used.shape == (25, 2)
        assert not trace.truncated

    def test_nonfinite_oracle_truncates(self):
        def oracle(z):
            return z * np.inf if z[0] < 0.5 else 0.1 * z
        trace = run(oracle, HbParams(1.5, 0.0), [1.0], [1.0], 50)
        assert trace.truncated
        assert len(trace.iterates) < 52
        assert np.all(np.isfinite(trace.iterates))

    def test_counterexample_cycles_exactly(self, fig4_setup):
        p, c, ce = fig4_setup
        cyc = rou_cycle(7)
        fn = CounterexampleFunction(ce, c)
        trace = run(fn.grad, p, cyc.points[0], cyc.points[1], 10000)
        idx = np.arange(len(trace.iterates)) % 7
        dev = np.linalg.norm(trace.iterates - cyc.points[idx], axis=1)
        assert dev.max() <= 1e-9

    def test_optimal_tuning_rate_on_diagonal_quadratic(self):
        # The optimal tuning has a defective companion matrix (t * rho^t
        # envelope), so the asymptotic slope needs a long horizon; the fit
        # then stops itself at the underflow floor.
        from hbcycles.quad_rates import optimal_tuning
        c = FunctionClass(1.0, 25.0)
        p, rho = optimal_tuning(c)
        trace = run(diag_quadratic_oracle(1.0, 25.0), p,
                    [1.0, 1.0], [1.0, 1.0], 3000)
        assert estimate_rate(trace, [0.0, 0.0]) == pytest.approx(rho, abs=1e-3)

    def test_gradient_of_another_length_raises(self):
        # numpy would broadcast a length-1 gradient over the iterate.
        for grad, x in ((np.ones(1), [1.0, 2.0]), (np.ones(3), [1.0, 2.0]),
                        (1.0, [1.0, 2.0]), (np.ones((1, 1)), [1.0, 2.0]),
                        (np.ones(2), [1.0])):
            shape = re.escape(str(np.shape(grad)))
            with pytest.raises(ValueError, match=rf"shape {shape} for an iterate of length {len(x)}"):
                run(lambda z: grad, HbParams(0.5, 0.2), x, x, 3)

    @pytest.mark.parametrize("gradient,x0,x1", [
        (lambda z: float(0.3 * z[0]), [1.0], [0.5]),
        (lambda z: 0.3 * z[None, :], [1.0], [-0.0]),
        (lambda z: 0.3 * z[None, :], [1.0, -0.0], [0.5, 2.0])])
    def test_gradient_with_as_many_entries_is_flattened(self, gradient, x0, x1):
        # A scalar, (1, 1) or (1, d) gradient has the iterate's entries:
        # numpy broadcast it exactly, and the float step gives those bits.
        p = HbParams(0.9, 0.5)
        assert _trace_bits(run(gradient, p, x0, x1, 30)) == _reference_bits(
            gradient, p, x0, x1, 30)


def _trace_bits(trace):
    return (trace.iterates.tobytes(), trace.params_used.tobytes(), trace.grad_calls,
            trace.truncated)


def _reference_bits(oracle, p, x0, x1, steps):
    zs, params, calls, truncated = numpy_run(oracle, p, x0, x1, steps)
    return zs.tobytes(), params.tobytes(), calls, truncated


def _blowing_up(blow_up_at, d):
    """A 0.3 z oracle that returns inf (or NaN from step 4 on) at call
    ``blow_up_at``."""
    calls = []

    def oracle(z):
        calls.append(1)
        if len(calls) == blow_up_at:
            return np.full(d, np.inf if blow_up_at < 4 else np.nan)
        return 0.3 * z
    return oracle


class TestRunMatchesNumpyLoop:
    """The float step gives the numpy loop's bits: iterates, parameters,
    call count and truncation."""

    def test_criterion_3_trace(self, fig4_setup):
        p, c, ce = fig4_setup
        cyc = rou_cycle(7)
        new = run(CounterexampleFunction(ce, c).grad, p, cyc.points[0], cyc.points[1], 10000)
        assert _trace_bits(new) == _reference_bits(
            numpy_counterexample_grad(ce, c), p, cyc.points[0], cyc.points[1], 10000)

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_smoothed_trace(self, interior_setup, scale):
        p, c, ce = interior_setup
        sce = smooth_counterexample(ce, c, ce.r_max / 2)
        oracle = dilate(sce, scale).grad if scale != 1.0 else sce.grad
        x0, x1 = scale * rou_cycle(7).points[:2]
        assert _trace_bits(run(oracle, p, x0, x1, 500)) == _reference_bits(
            oracle, p, x0, x1, 500)

    def test_decay_run(self):
        # The tube workload's init-only run: the batch engine, the float
        # step and the numpy loop give the same 2,500 steps.
        p, ce, _ = _member_setup(7)
        c = _MEMBER_CLASS
        decay = perturbed_run(ce, c, p, 7, NoiseSpec(init_radius=0.9, seed=24), 2500)
        zs = decay.trace.iterates
        new = run(CounterexampleFunction(ce, c).grad, p, zs[0], zs[1], 2500)
        assert new.iterates.tobytes() == zs.tobytes()
        assert _trace_bits(new) == _reference_bits(
            numpy_counterexample_grad(ce, c), p, zs[0], zs[1], 2500)

    @pytest.mark.parametrize("x0,x1", [
        ([-0.0], [-0.0]), ([-0.0], [5e-324]), ([1e-310], [-0.0]),
        ([1.0, -0.0, 2.5], [0.5, 1e-310, -3.0]), ([-0.0, -0.0, 5e-324], [-0.0, 0.0, -5e-324])])
    def test_linear_oracles_from_signed_zeros_and_subnormals(self, x0, x1):
        a = np.array([[0.9, -0.3, 0.0], [0.2, 1.1, 0.4], [0.0, -0.5, 0.7]])[:len(x0), :len(x0)]
        for oracle in (lambda z: a @ z, lambda z: -0.0 * z, lambda z: 1e-300 * z):
            for p in (HbParams(0.9, 0.5), HbParams(1.7, 0.0)):
                assert _trace_bits(run(oracle, p, x0, x1, 40)) == _reference_bits(
                    oracle, p, x0, x1, 40)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("blow_up_at", range(1, 9))
    def test_truncation_at_each_step(self, d, blow_up_at):
        x0, x1 = [1.0, -0.0, 2.5][:d], [0.5, 1e-310, -3.0][:d]
        p = HbParams(0.9, 0.5)
        new = run(_blowing_up(blow_up_at, d), p, x0, x1, 8)
        assert new.truncated and new.grad_calls == blow_up_at
        assert _trace_bits(new) == _reference_bits(_blowing_up(blow_up_at, d), p, x0, x1, 8)


class TestDetectCycle:
    def test_detects_counterexample_cycle(self, fig4_setup):
        p, c, ce = fig4_setup
        cyc = rou_cycle(7)
        fn = CounterexampleFunction(ce, c)
        trace = run(fn.grad, p, cyc.points[0], cyc.points[1], 500)
        is_cycle, dev = detect_cycle(trace, 7, tol=1e-8)
        assert is_cycle and dev <= 1e-12

    def test_converged_run_is_not_a_cycle(self):
        trace = run(diag_quadratic_oracle(1.0, 2.0), HbParams(0.5, 0.0),
                    [1.0, 1.0], [1.0, 1.0], 400)
        for k in (3, 7):
            is_cycle, dev = detect_cycle(trace, k, tol=1e-8)
            assert dev <= 1e-8  # K-lag deviation alone would fire...
            assert not is_cycle  # ...the diameter guard rejects it.

    def test_far_initialization_reports_deviation(self, fig4_setup):
        # No contract beyond reporting: a far start yields a finite
        # deviation number quantifying attraction or escape.
        p, c, ce = fig4_setup
        fn = CounterexampleFunction(ce, c)
        trace = run(fn.grad, p, [4.0, -3.0], [4.2, -2.9], 300)
        is_cycle, dev = detect_cycle(trace, 7, tol=1e-8)
        assert np.isfinite(dev)
        assert not is_cycle or dev <= 1e-8

    def test_short_trace_rejected(self):
        trace = run(lambda z: z, HbParams(0.1, 0.0), [1.0], [1.0], 5)
        with pytest.raises(ValueError):
            detect_cycle(trace, 7, tol=1e-8)


class TestEstimateRate:
    def test_gd_two_over_l_plus_mu(self):
        p = HbParams(2.0 / 26.0, 0.0)
        trace = run(diag_quadratic_oracle(1.0, 25.0), p, [1.0, 1.0], [1.0, 1.0], 300)
        assert estimate_rate(trace, [0.0, 0.0]) == pytest.approx(12.0 / 13.0, abs=1e-3)

    def test_robust_region_envelope(self):
        c = FunctionClass(1.0, 25.0)
        p = HbParams(0.1, 0.5)
        assert rate_on_quadratics(p, c).rho == pytest.approx(math.sqrt(0.5), abs=1e-15)
        trace = run(diag_quadratic_oracle(1.0, 25.0), p, [1.0, 1.0], [0.9, 1.1], 600)
        assert estimate_rate(trace, [0.0, 0.0]) == pytest.approx(math.sqrt(0.5), abs=1e-2)

    def test_cycling_trace_rates_one(self, fig4_setup):
        p, c, ce = fig4_setup
        cyc = rou_cycle(7)
        fn = CounterexampleFunction(ce, c)
        trace = run(fn.grad, p, cyc.points[0], cyc.points[1], 800)
        assert estimate_rate(trace, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-3)

    def test_analytic_rate_match_across_regions(self):
        # 20 parameter points spread over all three regions.
        c = FunctionClass(1.0, 25.0)
        cases = [(0.002 + 0.004 * i, 0.0) for i in range(4)]          # lazy
        cases += [(0.05 + 0.01 * i, 0.5) for i in range(4)]           # robust
        cases += [(0.105 + 0.002 * i, 0.35) for i in range(4)]        # knife
        cases += [(0.01 + 0.01 * i, 0.2 + 0.1 * i) for i in range(4)]
        cases += [(0.08, 0.7), (0.02, 0.6), (0.005, 0.1), (0.11, 0.45)]
        oracle = diag_quadratic_oracle(1.0, 25.0)
        for gamma, beta in cases:
            p = HbParams(gamma, beta)
            report = rate_on_quadratics(p, c)
            if report.region.value == "NoConvergence" or report.rho < 0.3:
                continue
            steps = 600 if report.rho < 0.97 else 3000
            trace = run(oracle, p, [1.0, 1.0], [1.0, 1.0], steps)
            assert estimate_rate(trace, [0.0, 0.0]) == pytest.approx(
                report.rho, abs=1e-3), (gamma, beta)

    def test_zero_distance_rejected(self):
        trace = run(lambda z: z * 0.0, HbParams(1.0, 0.0),
                    [0.0, 0.0], [0.0, 0.0], 20)
        with pytest.raises(ValueError):
            estimate_rate(trace, [0.0, 0.0])


class TestStabilityConstants:
    def test_robust_case(self):
        sc = stability_constants(HbParams(3.5, 0.9), 0.005)
        assert sc.region_used == "Robust"
        assert sc.rho_d == pytest.approx(math.sqrt(0.9), abs=1e-12)

    def test_lazy_case_closed_form(self):
        p = HbParams(3.5, 0.75)
        mu = 0.005
        sc = stability_constants(p, mu)
        assert sc.region_used == "Lazy"
        a = (1 + p.beta - mu * p.gamma) / 2
        assert sc.rho_d == pytest.approx(a + math.sqrt(a * a - p.beta), abs=1e-12)

    def test_boundary_case_default_epsilon(self):
        beta = 0.25
        gamma = (1 - math.sqrt(beta)) ** 2 / 1.0
        sc = stability_constants(HbParams(gamma, beta), 1.0)
        assert sc.region_used == "Boundary"
        sb, eps = math.sqrt(beta), (1 - beta) / (2 * math.sqrt(beta))
        assert sc.rho_d == pytest.approx(sb * (eps / 2 + math.sqrt(1 + eps**2 / 4)),
                                         abs=1e-12)
        assert sc.rho_d < 1.0

    def test_boundary_epsilon_range_enforced(self):
        beta = 0.25
        gamma = (1 - math.sqrt(beta)) ** 2 / 1.0
        limit = (1 - beta) / math.sqrt(beta)
        with pytest.raises(ValueError):
            stability_constants(HbParams(gamma, beta), 1.0, epsilon=limit * 1.01)
        sc = stability_constants(HbParams(gamma, beta), 1.0, epsilon=limit * 0.5)
        assert sc.rho_d < 1.0

    def test_no_contraction_rejected(self):
        with pytest.raises(ValueError):
            stability_constants(HbParams(3.0, 0.0), 1.0)

    @pytest.mark.parametrize("gamma,beta,mu", [(3.5, 0.75, 0.005),
                                               (3.5, 0.9, 0.005),
                                               (0.1, 0.5, 1.0),
                                               (0.02, 0.1, 1.0)])
    def test_kappa_p_matches_singular_values(self, gamma, beta, mu):
        # Independent oracle: kappa_P is the singular-value ratio of P.
        sc = stability_constants(HbParams(gamma, beta), mu)
        sv = np.linalg.svd(np.asarray(sc.p_matrix, dtype=complex),
                           compute_uv=False)
        assert sc.kappa_p == pytest.approx(sv[-1] / sv[0], rel=1e-9)
        assert 0 < sc.kappa_p <= 1.0

    @pytest.mark.parametrize("gamma,beta,mu", [(3.5, 0.75, 0.005),
                                               (3.5, 0.9, 0.005)])
    def test_decomposition_reconstructs_companion(self, gamma, beta, mu):
        sc = stability_constants(HbParams(gamma, beta), mu)
        companion = np.array([[1 + beta - mu * gamma, -beta], [1.0, 0.0]])
        rebuilt = sc.p_matrix @ sc.d_matrix @ np.linalg.inv(sc.p_matrix)
        assert np.abs(rebuilt - companion).max() <= 1e-10
        assert np.linalg.norm(np.asarray(sc.d_matrix, dtype=complex), 2) \
            == pytest.approx(sc.rho_d, abs=1e-12)


class TestPerturbedRun:
    def test_zero_noise_reproduces_exact_cycle(self, interior_setup):
        p, c, ce = interior_setup
        res = perturbed_run(ce, c, p, 7, NoiseSpec(), 300)
        cyc = rou_cycle(7)
        idx = np.arange(len(res.trace.iterates)) % 7
        dev = np.linalg.norm(res.trace.iterates - cyc.points[idx], axis=1)
        assert dev.max() <= 1e-12
        assert res.stayed_in_tube

    def test_same_seed_bit_identical(self, interior_setup):
        p, c, ce = interior_setup
        budget = noise_budget(p, c, ce)
        noise = NoiseSpec(0.5, budget["gamma_jitter"] / 3, budget["beta_jitter"] / 3,
                          budget["grad_noise"], seed=11)
        a = perturbed_run(ce, c, p, 7, noise, 200)
        b = perturbed_run(ce, c, p, 7, noise, 200)
        assert np.array_equal(a.trace.iterates, b.trace.iterates)
        assert np.array_equal(a.trace.params_used, b.trace.params_used)

    def test_compliant_noise_stays_in_tube_both_modes(self, interior_setup):
        p, c, ce = interior_setup
        budget = noise_budget(p, c, ce)
        for mode in ("uniform-random", "adversarial-sign"):
            noise = NoiseSpec(0.9, budget["gamma_jitter"] * 0.45,
                              budget["beta_jitter"] * 0.45,
                              budget["grad_noise"], mode=mode, seed=5)
            res = perturbed_run(ce, c, p, 7, noise, 800)
            assert res.stayed_in_tube

    def test_violated_conditions_are_named(self, interior_setup):
        p, c, ce = interior_setup
        budget = noise_budget(p, c, ce)
        with pytest.raises(ValueError, match="condition 1"):
            perturbed_run(ce, c, p, 7, NoiseSpec(init_radius=1.5), 10)
        with pytest.raises(ValueError, match="condition 2"):
            perturbed_run(ce, c, p, 7,
                          NoiseSpec(gamma_jitter=budget["gamma_jitter"] * 2), 10)
        with pytest.raises(ValueError, match="condition 3"):
            perturbed_run(ce, c, p, 7,
                          NoiseSpec(grad_noise=budget["grad_noise"] * 2), 10)

    def test_strict_off_allows_overdrive(self, interior_setup):
        p, c, ce = interior_setup
        budget = noise_budget(p, c, ce)
        res = perturbed_run(ce, c, p, 7,
                            NoiseSpec(grad_noise=budget["grad_noise"] * 2), 50,
                            strict=False)
        assert res.trace.iterates.shape == (52, 2)

    def test_boundary_member_rejected(self, interior_setup):
        # r_max = 0 at the region's edge: no tube to speak of.
        import dataclasses
        p, c, ce = interior_setup
        flat = dataclasses.replace(ce, r_max=0.0)
        with pytest.raises(ValueError, match="r_max"):
            perturbed_run(flat, c, p, 7, NoiseSpec(), 10)

    def test_residual_follows_isotropic_dynamics(self, interior_setup):
        # Inside the tube the residual recursion is exactly the heavy-ball
        # update on the isotropic mu-quadratic.
        p, c, ce = interior_setup
        res = perturbed_run(ce, c, p, 7, NoiseSpec(init_radius=0.9, seed=2), 400)
        cyc = rou_cycle(7)
        zs = res.trace.iterates
        delta = zs - cyc.points[np.arange(len(zs)) % 7]
        for t in range(1, len(zs) - 1):
            predicted = (1 + p.beta - p.gamma * c.mu) * delta[t] \
                - p.beta * delta[t - 1]
            assert np.linalg.norm(delta[t + 1] - predicted) <= 1e-12

    @pytest.mark.parametrize("setup_name", ["interior_setup", "robust_member"])
    def test_tube_lyapunov_quantity_is_monotone_safe(self, setup_name, request,
                                                     interior_setup):
        # The inductive quantity of the guarantee: ||P^-1 (d_{t+1}, d_t)||
        # never exceeds r_max / ||P||.
        if setup_name == "interior_setup":
            p, c, ce = interior_setup
            k = 7
        else:
            c = FunctionClass(0.005, 1.0)
            p = HbParams(3.5, 0.9)  # complex-pair (robust) decomposition
            k = 3
            ce = build_counterexample(p, c, k)
        sc = stability_constants(p, c.mu)
        budget = noise_budget(p, c, ce)
        noise = NoiseSpec(0.9, budget["gamma_jitter"] * 0.4,
                          budget["beta_jitter"] * 0.4,
                          budget["grad_noise"], seed=8)
        res = perturbed_run(ce, c, p, k, noise, 500)
        cyc = rou_cycle(k)
        zs = res.trace.iterates
        delta = zs - cyc.points[np.arange(len(zs)) % k]
        p_inv = np.linalg.inv(np.asarray(sc.p_matrix, dtype=complex))
        p_norm = np.linalg.norm(np.asarray(sc.p_matrix, dtype=complex), 2)
        for t in range(1, len(zs)):
            stacked = np.array([delta[t], delta[t - 1]])  # (2, 2): block rows
            mapped = p_inv @ stacked
            assert np.linalg.norm(mapped) <= ce.r_max / p_norm * (1 + 1e-9)

    def test_init_only_decay_matches_isotropic_rate(self, interior_setup):
        p, c, ce = interior_setup
        res = perturbed_run(ce, c, p, 7, NoiseSpec(init_radius=0.9, seed=1), 2000)
        iso = rate_on_quadratics(p, FunctionClass(c.mu, c.mu))
        assert res.residual_decay_rate == pytest.approx(iso.rho, abs=2e-2)


class TestPerturbedRuns:
    # Runs of up to two noise chunks and a bit cross both kinds of draw
    # boundary: a full chunk and a short last one.
    @settings(max_examples=25, deadline=None)
    @given(k=st.sampled_from([5, 7]), r=st.sampled_from([1, 3, 17]),
           steps=st.integers(1, 2 * _DRAW_CHUNK + 16), data=st.data())
    def test_batch_matches_sequential_oracle(self, k, r, steps, data):
        fractions = data.draw(st.lists(_noise_fractions, min_size=r, max_size=r))
        p, ce, budget = _member_setup(k)
        noises = _noise_specs(fractions, budget)
        batch = perturbed_runs(ce, _MEMBER_CLASS, p, k, noises, steps,
                               strict=False, record=True)
        _assert_matches_oracle(batch, noises, k, steps)

    def test_rolling_state_gives_the_recorded_verdicts(self):
        p, ce, budget = _member_setup(7)
        noises = _noise_specs([(0.9, 1.0, 1.0, g, "uniform-random", s)
                               for s, g in enumerate([0.5, 1.0, 200.0])], budget)
        rolled = perturbed_runs(ce, _MEMBER_CLASS, p, 7, noises, 300, strict=False)
        recorded = perturbed_runs(ce, _MEMBER_CLASS, p, 7, noises, 300,
                                  strict=False, record=True)
        assert rolled.iterates is None and rolled.params_used is None
        assert np.array_equal(rolled.max_dev, recorded.max_dev)
        assert rolled.stayed_in_tube.tolist() == [True, True, False]
        cyc = rou_cycle(7).points
        dev = np.linalg.norm(recorded.iterates - cyc[np.arange(302) % 7, None], axis=2)
        assert np.array_equal(recorded.max_dev, dev.max(axis=0))

    def test_strict_check_names_the_violating_spec(self):
        p, ce, budget = _member_setup(7)
        noises = [NoiseSpec(grad_noise=budget["grad_noise"]),
                  NoiseSpec(grad_noise=budget["grad_noise"] * 3)]
        with pytest.raises(ValueError, match="condition 3 violated: gradient noise "
                                             + str(budget["grad_noise"] * 3)):
            perturbed_runs(ce, _MEMBER_CLASS, p, 7, noises, 10)

    def test_rejects_empty_runs(self):
        p, ce, _ = _member_setup(7)
        for steps in (0, -5):
            with pytest.raises(ValueError, match="steps must be >= 1"):
                perturbed_run(ce, _MEMBER_CLASS, p, 7, NoiseSpec(), steps)
        with pytest.raises(ValueError, match="at least one noise spec"):
            perturbed_runs(ce, _MEMBER_CLASS, p, 7, [], 10)


class TestNoiseSpec:
    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError):
            NoiseSpec(init_radius=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(grad_noise=-1e-9)
        with pytest.raises(ValueError):
            NoiseSpec(init_radius=math.nan)
        with pytest.raises(ValueError):
            NoiseSpec(grad_noise=math.nan)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            NoiseSpec(mode="gaussian")


class TestTraceCsv:
    def test_schema_and_roundtrip(self, tmp_path, interior_setup):
        p, c, ce = interior_setup
        cyc = rou_cycle(7)
        fn = CounterexampleFunction(ce, c)
        trace = run(fn.grad, p, cyc.points[0], cyc.points[1], 20)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, cycle=cyc.points)
        lines = path.read_text().split("\n")
        assert lines[0] == "t,x0,x1,dist_to_cycle,gamma_t,beta_t"
        assert len(lines) == 22 + 2  # header + 22 iterates + trailing newline
        row = lines[3].split(",")
        assert int(row[0]) == 2
        assert float(row[4]) == p.gamma
        back = np.array([float(v) for v in row[1:3]])
        assert np.allclose(back, trace.iterates[2], atol=0)

    @pytest.mark.parametrize("blow_up_at", [None, 1, 2, 6])
    def test_matches_rowwise_writer_without_cycle(self, tmp_path, blow_up_at):
        # A truncated trace has fewer parameter rows than steps; the rows
        # past them, and the distance column without a cycle, stay empty.
        calls = []

        def oracle(x):
            calls.append(1)
            return np.full(3, np.inf) if len(calls) == blow_up_at else 0.1 * x

        trace = run(oracle, HbParams(0.9, 0.5), [1.0, -0.0, 2.5], [0.5, 1e-310, -3.0], 8)
        assert trace.truncated == (blow_up_at is not None)
        write_trace_csv(trace, tmp_path / "new.csv")
        rowwise_write_trace_csv(trace, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
