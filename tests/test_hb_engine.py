import functools
import math
import re
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import hbcycles.hb_engine as hb_engine
from hbcycles.hb_engine import (
    _DRAW_CHUNK,
    NoiseSpec,
    _fit_decay,
    detect_cycle,
    estimate_rate,
    noise_budget,
    perturbed_run,
    perturbed_runs,
    run,
    write_trace_csv,
)
from hbcycles.quad_rates import FunctionClass, HbParams, rate_on_quadratics, stability_constants
from hbcycles.rou_region import (
    CounterexampleFunction,
    _counterexample_batch,
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
    return p, ce, noise_budget(ce)


def _assert_matches_oracle(batch, noises, k, steps):
    """Uniform runs bit-identical to the oracle, adversarial ones to 1e-12.

    The adversarial sign choice takes a norm and two dot products of one
    point, which may round differently from the row-wise batch forms.
    """
    p, ce, _ = _member_setup(k)
    for i, noise in enumerate(noises):
        zs, params, _, stayed = sequential_perturbed_run(ce, noise, steps)
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
# The oracle comparisons run the sequential oracle per example, so shrinking
# a failure takes minutes; without it a failure is reported in seconds.
_NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


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
        trace = run(lambda z: 0.1 * z, HbParams(0.5, 0.2), [1.0, -2.0], [0.9, -1.8], 25)
        assert trace.iterates.shape == (27, 2)
        assert trace.grad_calls == 25
        assert trace.params_used.shape == (25, 2)
        assert not trace.truncated

    def test_nonfinite_oracle_truncates(self):
        def oracle(z):
            return z * np.inf if z[0] < 0.5 else 0.1 * z
        trace = run(oracle, HbParams(1.5, 0.0), [1.0, 1.0], [1.0, 1.0], 50)
        assert trace.truncated
        assert len(trace.iterates) < 52
        assert np.all(np.isfinite(trace.iterates))

    def test_counterexample_cycles_exactly(self, fig4_setup):
        p, c, ce = fig4_setup
        cyc = rou_cycle(7)
        fn = CounterexampleFunction(ce)
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
        for grad in (np.ones(1), np.ones(3), 1.0, np.ones((1, 1)), np.ones((2, 2))):
            shape = re.escape(str(np.shape(grad)))
            with pytest.raises(ValueError, match=rf"shape {shape} for an iterate of length 2"):
                run(lambda z: grad, HbParams(0.5, 0.2), [1.0, 2.0], [1.0, 2.0], 3)

    @pytest.mark.parametrize("gradient,x0,x1", [
        (lambda z: 0.3 * z[None, :], [1.0, -0.0], [0.5, 2.0]),
        (lambda z: 0.3 * z[None, None, :], [-0.0, 1.0], [5e-324, -0.5]),
        (lambda z: [0.3 * z[0], 0.3 * z[1]], [1.0, -0.0], [-0.0, 2.0])])
    def test_gradient_with_as_many_entries_is_flattened(self, gradient, x0, x1):
        # A (1, 2), (1, 1, 2) or list gradient has the iterate's entries:
        # numpy broadcast it exactly, and the float step gives those bits.
        p = HbParams(0.9, 0.5)
        assert _trace_bits(run(gradient, p, x0, x1, 30)) == _reference_bits(
            gradient, p, x0, x1, 30)


class TestRunOnGradXy:
    """``run`` handed a ``CounterexampleFunction`` steps its ``grad_xy`` in
    Python floats, with the bits of ``run`` on its ``grad``."""

    @pytest.mark.parametrize("x0,x1,steps", [
        ([1.0, 0.0], [math.cos(2 * math.pi / 7), math.sin(2 * math.pi / 7)], 10000),
        ([math.nan, math.nan], [math.nan, math.nan], 5),
        ([0.3, -0.2], [math.nan, 0.1], 5),
        ([math.nan, 0.0], [0.9, 0.1], 5),
        ([-0.0, 0.0], [0.0, -0.0], 50),
        ([1e-310, -0.0], [-5e-324, 0.7], 50)])
    def test_matches_the_callable_path(self, interior_setup, x0, x1, steps):
        p, c, ce = interior_setup
        fn = CounterexampleFunction(ce)
        new = run(fn, p, x0, x1, steps)
        assert _trace_bits(new) == _trace_bits(run(fn.grad, p, x0, x1, steps))
        assert new.truncated == (not math.isfinite(x0[0] + x1[0]))

    @pytest.mark.parametrize("seed", [0, 24])
    def test_decay_run(self, seed):
        p, ce, _ = _member_setup(7)
        _, starts = hb_engine._start_batch(ce, [NoiseSpec(init_radius=0.9, seed=seed)], 2500, True)
        fn = CounterexampleFunction(ce)
        x0, x1 = starts[:, 0]
        assert _trace_bits(run(fn, p, x0, x1, 2500)) == _trace_bits(run(fn.grad, p, x0, x1, 2500))

    @pytest.mark.parametrize("x0,x1", [
        (1.0, 1.0), ([1.0], [1.0]), ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([1.0, 0.0], [[1.0, 0.0]]), ([[1.0, 0.0]], [1.0, 0.0]), ([1.0, 2.0], [5.0])])
    def test_start_of_another_shape_raises(self, interior_setup, x0, x1):
        # Every oracle alike: for a callable, numpy would broadcast the
        # start [5.0] to [5.0, 5.0].
        p, c, ce = interior_setup
        fn = CounterexampleFunction(ce)
        shapes = re.escape(f"got shapes {np.shape(x0)} and {np.shape(x1)}")
        for oracle in (fn, fn.grad, lambda z: 0.1 * z):
            with pytest.raises(ValueError, match=f"run needs 2-D starting points, {shapes}"):
                run(oracle, p, x0, x1, 3)


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


class _BlowingUpXY:
    """``_blowing_up`` at 2-D points, with a ``grad_xy`` of the same values
    on the same call count."""

    def __init__(self, blow_up_at):
        self.grad = _blowing_up(blow_up_at, 2)

    def value(self, x):
        return 0.15 * float(x @ x)

    def grad_xy(self, x0, x1):
        return tuple(self.grad(np.array([x0, x1])).tolist())


class TestRunMatchesNumpyLoop:
    """The float step gives the numpy loop's bits: iterates, parameters,
    call count and truncation."""

    def test_criterion_3_trace(self, fig4_setup):
        p, c, ce = fig4_setup
        cyc = rou_cycle(7)
        new = run(CounterexampleFunction(ce).grad, p, cyc.points[0], cyc.points[1], 10000)
        assert _trace_bits(new) == _reference_bits(
            numpy_counterexample_grad(ce, c), p, cyc.points[0], cyc.points[1], 10000)

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_smoothed_trace(self, interior_setup, scale):
        p, c, ce = interior_setup
        sce = smooth_counterexample(ce, ce.r_max / 2)
        oracle = dilate(sce, scale).grad if scale != 1.0 else sce.grad
        x0, x1 = scale * rou_cycle(7).points[:2]
        assert _trace_bits(run(oracle, p, x0, x1, 500)) == _reference_bits(
            oracle, p, x0, x1, 500)

    @pytest.mark.parametrize("start", [1.0, 0.7, 1.3])
    @pytest.mark.parametrize("kind,scale", [
        ("smoothed", 1.0), *((kind, scale) for kind in ("smoothed", "plain")
                             for scale in (1e-3, 7.5, 10.0))])
    def test_float_path_matches_array_path(self, interior_setup, kind, scale, start):
        # run(obj) steps obj.grad_xy in floats, run(obj.grad) the array
        # path.  Starts off the cycle reach the smoothed quadrature.
        p, c, ce = interior_setup
        fn = CounterexampleFunction(ce)
        if kind == "smoothed":
            fn = smooth_counterexample(ce, ce.r_max / 2)
        if scale != 1.0:
            fn = dilate(fn, scale)
        x0, x1 = start * scale * rou_cycle(7).points[:2]
        with mock.patch("hbcycles.smoothing._counterexample_batch",
                        side_effect=_counterexample_batch) as quadrature:
            new = run(fn, p, x0, x1, 200)
        assert _trace_bits(new) == _trace_bits(run(fn.grad, p, x0, x1, 200))
        if kind == "smoothed" and start != 1.0:
            assert quadrature.call_count > 0

    @pytest.mark.parametrize("blow_up_at", [1, 2, 5])
    def test_dilated_float_path_truncates_alike(self, blow_up_at):
        p = HbParams(0.9, 0.5)
        new = run(dilate(_BlowingUpXY(blow_up_at), 7.5), p, [1.0, -0.0], [0.5, 1e-310], 8)
        old = run(dilate(_BlowingUpXY(blow_up_at), 7.5).grad, p, [1.0, -0.0], [0.5, 1e-310], 8)
        assert new.truncated and new.grad_calls == blow_up_at
        assert _trace_bits(new) == _trace_bits(old)

    def test_dilation_without_grad_xy_steps_on_arrays(self):
        a = np.array([[0.9, -0.3], [0.2, 1.1]])

        class Linear:
            def value(self, x):
                return 0.5 * float(x @ a @ x)

            def grad(self, x):
                return a @ x

        fn = dilate(Linear(), 7.5)
        assert getattr(fn, "grad_xy", None) is None
        p, x0, x1 = HbParams(0.9, 0.5), [1.0, -0.0], [0.5, 1e-310]
        assert _trace_bits(run(fn.grad, p, x0, x1, 40)) == _reference_bits(
            fn.grad, p, x0, x1, 40)

    def test_decay_run(self):
        # The tube workload's init-only run: the batch engine, the float
        # step and the numpy loop give the same 2,500 steps.
        p, ce, _ = _member_setup(7)
        c = _MEMBER_CLASS
        decay = perturbed_run(ce, NoiseSpec(init_radius=0.9, seed=24), 2500)
        zs = decay.trace.iterates
        new = run(CounterexampleFunction(ce).grad, p, zs[0], zs[1], 2500)
        assert new.iterates.tobytes() == zs.tobytes()
        assert _trace_bits(new) == _reference_bits(
            numpy_counterexample_grad(ce, c), p, zs[0], zs[1], 2500)

    @pytest.mark.parametrize("x0,x1", [
        ([-0.0, -0.0], [-0.0, -0.0]), ([-0.0, 0.0], [5e-324, -0.0]),
        ([1e-310, -0.0], [-0.0, 1e-310]), ([1.0, -0.0], [0.5, 1e-310]),
        ([2.5, -0.0], [-3.0, 5e-324]), ([-0.0, 5e-324], [0.0, -5e-324])])
    def test_linear_oracles_from_signed_zeros_and_subnormals(self, x0, x1):
        a = np.array([[0.9, -0.3], [0.2, 1.1]])
        for oracle in (lambda z: a @ z, lambda z: -0.0 * z, lambda z: 1e-300 * z):
            for p in (HbParams(0.9, 0.5), HbParams(1.7, 0.0)):
                assert _trace_bits(run(oracle, p, x0, x1, 40)) == _reference_bits(
                    oracle, p, x0, x1, 40)

    @pytest.mark.parametrize("x0,x1", [([1.0, -0.0], [0.5, 1e-310]), ([2.5, 1.0], [-3.0, -0.0])])
    @pytest.mark.parametrize("blow_up_at", range(1, 9))
    def test_truncation_at_each_step(self, x0, x1, blow_up_at):
        p = HbParams(0.9, 0.5)
        new = run(_blowing_up(blow_up_at, 2), p, x0, x1, 8)
        assert new.truncated and new.grad_calls == blow_up_at
        assert _trace_bits(new) == _reference_bits(_blowing_up(blow_up_at, 2), p, x0, x1, 8)


class _QuarterTurn:
    """Gradient x - R x, R the quarter turn: at gamma 1 and beta 0 a step
    maps x to R x, exactly from axis points, so the state repeats."""

    def __init__(self):
        self.calls = 0

    def grad_xy(self, x0, x1):
        self.calls += 1
        return x0 + x1, x1 - x0  # (x0 - (-x1), x1 - x0)

    def grad(self, x):
        return np.array(self.grad_xy(*np.asarray(x, dtype=float).tolist()))


class _Watched:
    """A ``grad_xy`` oracle that records, at each call, the size of the
    replay table of the ``run`` calling it (its local ``seen``)."""

    def __init__(self, fn):
        self.inner = fn.grad_xy
        self.sizes = []

    def grad_xy(self, x0, x1):
        self.sizes.append(len(sys._getframe(1).f_locals["seen"]))
        return self.inner(x0, x1)


def _first_repeats(zs):
    """First steps t whose state (z_{t-1}, z_t) repeats an earlier one as
    floats and in its bits."""
    floats, bits = {}, {}
    first_float = first_bits = None
    for t in range(1, len(zs)):
        state = tuple(zs[t - 1]) + tuple(zs[t])
        if first_float is None and state in floats:
            first_float = t
        if first_bits is None and struct.pack("4d", *state) in bits:
            first_bits = t
        floats.setdefault(state, t)
        bits.setdefault(struct.pack("4d", *state), t)
    return first_float, first_bits


class TestReplay:
    """Once the state of a float run repeats bit for bit, ``run`` copies
    the period instead of stepping it, with the array path's bits."""

    @pytest.mark.parametrize("x0,x1", [
        ((1.0, 0.0), (0.0, 1.0)), ((0.0, -1.0), (-1.0, 0.0)), ((0.0, 2.0), (-4.0, 0.0))])
    def test_exact_repeat(self, x0, x1):
        # A plain callable may not be a function of its point alone, so it
        # is called at every step of the same repeating run.
        p = HbParams(1.0, 0.0)
        oracle, plain = _QuarterTurn(), _QuarterTurn()
        new = run(oracle, p, x0, x1, 1000)
        assert oracle.calls <= 5
        assert new.grad_calls == 1000 and not new.truncated
        assert _trace_bits(new) == _trace_bits(run(plain.grad, p, x0, x1, 1000))
        assert plain.calls == 1000
        assert _trace_bits(new) == _reference_bits(_QuarterTurn().grad, p, x0, x1, 1000)

    def test_a_zero_of_the_other_sign_is_another_state(self):
        # From the first start the state at step 6 is that of step 2 as
        # floats, not in the sign of a zero: the replay waits for the bits
        # to repeat.  The second start differs from the first only by the
        # signs of its zeros and keeps a trace of its own.
        p = HbParams(1.0, 0.0)
        traces = []
        for x0, x1 in [((-0.0, -0.0), (1.0, -0.0)), ((0.0, 0.0), (1.0, 0.0))]:
            oracle = _QuarterTurn()
            new = run(oracle, p, x0, x1, 100)
            ref = _reference_bits(_QuarterTurn().grad, p, x0, x1, 100)
            assert _trace_bits(new) == ref
            first_float, first_bits = _first_repeats(new.iterates)
            assert oracle.calls == first_bits - 1
            traces.append((new, first_float, first_bits))
        assert traces[0][1] < traces[0][2]
        assert traces[0][0].iterates.tobytes() != traces[1][0].iterates.tobytes()

    def test_full_table_is_cleared(self, interior_setup, monkeypatch):
        # A smoothed run off the cycle has no repeat in 500 steps; with a
        # cap of 8 its table is filled and cleared again and again.
        monkeypatch.setattr(hb_engine, "_REPLAY_STATES", 8)
        p, c, ce = interior_setup
        sce = smooth_counterexample(ce, ce.r_max / 2)
        x0, x1 = 1.3 * rou_cycle(7).points[:2]
        watched = _Watched(sce)
        new = run(watched, p, x0, x1, 500)
        assert _trace_bits(new) == _trace_bits(run(sce.grad, p, x0, x1, 500))
        assert len(watched.sizes) == 500
        assert max(watched.sizes) == 8 and watched.sizes.count(1) == 63

    @pytest.mark.parametrize("kind,scale,steps", [
        ("plain", 1.0, 10000), ("fig4", 1.0, 10000), ("smoothed", 10.0, 3000)])
    def test_long_runs_replay_their_cycle(self, interior_setup, fig4_setup, kind, scale,
                                          steps):
        p, c, ce = fig4_setup if kind == "fig4" else interior_setup
        fn = CounterexampleFunction(ce)
        if kind == "smoothed":
            fn = dilate(smooth_counterexample(ce, ce.r_max / 2), scale)
        x0, x1 = scale * rou_cycle(7).points[:2]
        watched = _Watched(fn)
        new = run(watched, p, x0, x1, steps)
        assert _trace_bits(new) == _trace_bits(run(fn.grad, p, x0, x1, steps))
        assert len(watched.sizes) < 400
        assert max(watched.sizes) <= hb_engine._REPLAY_STATES


class TestDetectCycle:
    def test_detects_counterexample_cycle(self, fig4_setup):
        p, c, ce = fig4_setup
        cyc = rou_cycle(7)
        fn = CounterexampleFunction(ce)
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
        fn = CounterexampleFunction(ce)
        trace = run(fn.grad, p, [4.0, -3.0], [4.2, -2.9], 300)
        is_cycle, dev = detect_cycle(trace, 7, tol=1e-8)
        assert np.isfinite(dev)
        assert not is_cycle or dev <= 1e-8

    def test_short_trace_rejected(self):
        trace = run(lambda z: z, HbParams(0.1, 0.0), [1.0, 1.0], [1.0, 1.0], 5)
        with pytest.raises(ValueError):
            detect_cycle(trace, 7, tol=1e-8)

    @pytest.mark.parametrize("k", [0, -1])
    def test_period_below_one_rejected(self, k):
        # k = -1 compared the tail with itself shifted the other way, and
        # k = 0 raised numpy's broadcast error.
        trace = run(lambda z: z, HbParams(0.1, 0.0), [1.0, 1.0], [1.0, 1.0], 50)
        with pytest.raises(ValueError, match=f"period must be >= 1, got {k}"):
            detect_cycle(trace, k, tol=1e-8)

    def test_non_integer_period_rejected(self):
        trace = run(lambda z: z, HbParams(0.1, 0.0), [1.0, 1.0], [1.0, 1.0], 50)
        with pytest.raises(ValueError, match="period must be an integer, got 7.5"):
            detect_cycle(trace, 7.5, tol=1e-8)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_tol_rejected(self, fig4_setup, tol):
        # Both used to return (False, dev), a silent "no cycle".
        p, _, ce = fig4_setup
        trace = run(CounterexampleFunction(ce), p, ce.cycle[0], ce.cycle[1], 100)
        assert detect_cycle(trace, 7, 0.0)[1] <= 1e-12
        with pytest.raises(ValueError, match="tol must be >= 0"):
            detect_cycle(trace, 7, tol)


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
        fn = CounterexampleFunction(ce)
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

    def test_no_contraction_rejected(self):
        with pytest.raises(ValueError):
            stability_constants(HbParams(3.0, 0.0), 1.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, 0.0, -0.005])
    def test_mu_must_be_finite_and_positive(self, mu):
        # NaN gave kappa_p = rho_d = NaN, tagged "Robust".
        with pytest.raises(ValueError, match="mu must be finite and positive"):
            stability_constants(HbParams(3.5, 0.75), mu)

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
        res = perturbed_run(ce, NoiseSpec(), 300)
        cyc = rou_cycle(7)
        idx = np.arange(len(res.trace.iterates)) % 7
        dev = np.linalg.norm(res.trace.iterates - cyc.points[idx], axis=1)
        assert dev.max() <= 1e-12
        assert res.stayed_in_tube

    def test_same_seed_bit_identical(self, interior_setup):
        p, c, ce = interior_setup
        budget = noise_budget(ce)
        noise = NoiseSpec(0.5, budget["gamma_jitter"] / 3, budget["beta_jitter"] / 3,
                          budget["grad_noise"], seed=11)
        a = perturbed_run(ce, noise, 200)
        b = perturbed_run(ce, noise, 200)
        assert np.array_equal(a.trace.iterates, b.trace.iterates)
        assert np.array_equal(a.trace.params_used, b.trace.params_used)

    def test_compliant_noise_stays_in_tube_both_modes(self, interior_setup):
        p, c, ce = interior_setup
        budget = noise_budget(ce)
        for mode in ("uniform-random", "adversarial-sign"):
            noise = NoiseSpec(0.9, budget["gamma_jitter"] * 0.45,
                              budget["beta_jitter"] * 0.45,
                              budget["grad_noise"], mode=mode, seed=5)
            res = perturbed_run(ce, noise, 800)
            assert res.stayed_in_tube

    def test_violated_conditions_are_named(self, interior_setup):
        p, c, ce = interior_setup
        budget = noise_budget(ce)
        with pytest.raises(ValueError, match="condition 1"):
            perturbed_run(ce, NoiseSpec(init_radius=1.5), 10)
        with pytest.raises(ValueError, match="condition 2"):
            perturbed_run(ce, NoiseSpec(gamma_jitter=budget["gamma_jitter"] * 2), 10)
        with pytest.raises(ValueError, match="condition 3"):
            perturbed_run(ce, NoiseSpec(grad_noise=budget["grad_noise"] * 2), 10)

    def test_boundary_member_rejected(self, interior_setup):
        # r_max = 0 at the region's edge: no tube to speak of.
        import dataclasses
        p, c, ce = interior_setup
        flat = dataclasses.replace(ce, r_max=0.0)
        with pytest.raises(ValueError, match="r_max"):
            perturbed_run(flat, NoiseSpec(), 10)

    def test_residual_follows_isotropic_dynamics(self, interior_setup):
        # Inside the tube the residual recursion is exactly the heavy-ball
        # update on the isotropic mu-quadratic.
        p, c, ce = interior_setup
        res = perturbed_run(ce, NoiseSpec(init_radius=0.9, seed=2), 400)
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
        budget = noise_budget(ce)
        noise = NoiseSpec(0.9, budget["gamma_jitter"] * 0.4,
                          budget["beta_jitter"] * 0.4,
                          budget["grad_noise"], seed=8)
        res = perturbed_run(ce, noise, 500)
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
        res = perturbed_run(ce, NoiseSpec(init_radius=0.9, seed=1), 2000)
        iso = rate_on_quadratics(p, FunctionClass(c.mu, c.mu))
        assert res.residual_decay_rate == pytest.approx(iso.rho, abs=2e-2)


class TestPerturbedRuns:
    # Runs of up to two noise chunks and a bit cross both kinds of draw
    # boundary: a full chunk and a short last one.
    @settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
    @given(k=st.sampled_from([5, 7]), r=st.sampled_from([1, 3, 17]),
           steps=st.integers(1, 2 * _DRAW_CHUNK + 16), data=st.data())
    def test_batch_matches_sequential_oracle(self, k, r, steps, data):
        fractions = data.draw(st.lists(_noise_fractions, min_size=r, max_size=r))
        p, ce, budget = _member_setup(k)
        noises = _noise_specs(fractions, budget)
        batch = perturbed_runs(ce, noises, steps, strict=False, record=True)
        _assert_matches_oracle(batch, noises, k, steps)

    def test_rolling_state_gives_the_recorded_verdicts(self):
        p, ce, budget = _member_setup(7)
        noises = _noise_specs([(0.9, 1.0, 1.0, g, "uniform-random", s)
                               for s, g in enumerate([0.5, 1.0, 200.0])], budget)
        rolled = perturbed_runs(ce, noises, 300, strict=False)
        recorded = perturbed_runs(ce, noises, 300, strict=False, record=True)
        assert rolled.iterates is None and rolled.params_used is None
        assert np.array_equal(rolled.max_dev, recorded.max_dev)
        assert rolled.stayed_in_tube.tolist() == [True, True, False]
        cyc = rou_cycle(7).points
        dev = np.linalg.norm(recorded.iterates - cyc[np.arange(302) % 7, None], axis=2)
        assert np.array_equal(recorded.max_dev, dev.max(axis=0))

    # An unrecorded batch keeps one chunk of iterates and maxes its
    # deviations once per chunk; across two chunk boundaries or more, its
    # max_dev is the recorded batch's and the oracle's.
    @settings(max_examples=10, deadline=None, phases=_NO_SHRINK)
    @given(k=st.sampled_from([5, 7]), extra=st.integers(1, _DRAW_CHUNK),
           uniform=st.lists(_noise_fractions, min_size=1, max_size=3),
           adversarial=st.lists(_noise_fractions, min_size=1, max_size=3), data=st.data())
    def test_unrecorded_max_dev_matches_recorded_and_oracle(self, k, extra, uniform,
                                                            adversarial, data):
        steps = 2 * _DRAW_CHUNK + extra
        fractions = data.draw(st.permutations(
            [(*f[:4], "uniform-random", f[5]) for f in uniform]
            + [(*f[:4], "adversarial-sign", f[5]) for f in adversarial]))
        p, ce, budget = _member_setup(k)
        noises = _noise_specs(fractions, budget)
        rolled = perturbed_runs(ce, noises, steps, strict=False)
        recorded = perturbed_runs(ce, noises, steps, strict=False, record=True)
        assert rolled.max_dev.tobytes() == recorded.max_dev.tobytes()
        assert rolled.stayed_in_tube.tolist() == recorded.stayed_in_tube.tolist()
        cyc = rou_cycle(k).points[np.arange(steps + 2) % k]
        for i, noise in enumerate(noises):
            _, _, max_dev, _ = sequential_perturbed_run(ce, noise, steps)
            if noise.mode == "uniform-random":
                assert rolled.max_dev[i].tobytes() == np.float64(max_dev).tobytes()
            else:
                # The oracle's one-point norm and dot products may round
                # apart from the batch's row forms (_assert_matches_oracle):
                # the oracle's max of norms, bit for bit, on the batch's
                # iterates, and the oracle's value to 1e-12.
                own = np.linalg.norm(recorded.iterates[:, i] - cyc, axis=1).max()
                assert rolled.max_dev[i].tobytes() == own.tobytes()
                assert abs(rolled.max_dev[i] - max_dev) <= 1e-12

    @pytest.mark.parametrize("r", [1, 2, 106])
    def test_mixed_rows_match_the_sequential_oracle(self, r):
        # Rows of every kind in one batch: one whose jitter makes it blow
        # up to NaN, adversarial, uniform within the budgets, and the
        # gradient-noise overdrive of ``robustness``, 2 to 128 times it.
        p, ce, budget = _member_setup(7)
        kinds = [
            lambda s: NoiseSpec(0.5, 5.0, 50.0, 1.0, seed=s),
            lambda s: NoiseSpec(0.5, budget["gamma_jitter"] / 2, budget["beta_jitter"] / 2,
                                budget["grad_noise"], "adversarial-sign", s),
            lambda s: NoiseSpec(0.9, budget["gamma_jitter"] / 2, budget["beta_jitter"] / 2,
                                budget["grad_noise"], seed=s),
            lambda s: NoiseSpec(0.9, grad_noise=budget["grad_noise"] * 2 ** (s % 7 + 1),
                                seed=s),
        ]
        noises = [kinds[s % 4](s) for s in range(r)]
        steps = 300
        with np.errstate(invalid="ignore", over="ignore"):
            batch = perturbed_runs(ce, noises, steps, strict=False, record=True)
            rolled = perturbed_runs(ce, noises, steps, strict=False)
            assert rolled.max_dev.tobytes() == batch.max_dev.tobytes()
            for i, noise in enumerate(noises):
                zs, params, max_dev, stayed = sequential_perturbed_run(ce, noise, steps)
                assert bool(batch.stayed_in_tube[i]) == stayed
                if noise.mode == "uniform-random":
                    assert batch.iterates[:, i].tobytes() == zs.tobytes()
                    assert batch.params_used[:, i].tobytes() == params.tobytes()
                    # A NaN max may come out of the two with either sign.
                    assert (batch.max_dev[i].tobytes() == np.float64(max_dev).tobytes()
                            or np.isnan(batch.max_dev[i]) and np.isnan(max_dev))
                else:
                    assert np.abs(batch.iterates[:, i] - zs).max() <= 1e-12
        assert np.isnan(batch.iterates[-1, 0]).all()

    def test_strict_check_names_the_violating_spec(self):
        p, ce, budget = _member_setup(7)
        noises = [NoiseSpec(grad_noise=budget["grad_noise"]),
                  NoiseSpec(grad_noise=budget["grad_noise"] * 3)]
        with pytest.raises(ValueError, match="condition 3 violated: gradient noise "
                                             + str(budget["grad_noise"] * 3)):
            perturbed_runs(ce, noises, 10)

    def test_rejects_empty_runs(self):
        p, ce, _ = _member_setup(7)
        for steps in (0, -5):
            with pytest.raises(ValueError, match="steps must be >= 1"):
                perturbed_run(ce, NoiseSpec(), steps)
        with pytest.raises(ValueError, match="at least one noise spec"):
            perturbed_runs(ce, [], 10)


class TestNoiseFreeRun:
    """A strict noise-free ``perturbed_run`` is ``run`` from the seeded
    start: the bits of the batch engine and of the sequential oracle."""

    @pytest.mark.parametrize("mode", ["uniform-random", "adversarial-sign"])
    @pytest.mark.parametrize("seed", [0, 2, 24])
    @pytest.mark.parametrize("init_radius", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("steps", [1, 2500])
    def test_matches_batch_and_sequential_oracle(self, mode, seed, init_radius, steps):
        p, ce, _ = _member_setup(7)
        noise = NoiseSpec(init_radius=init_radius, mode=mode, seed=seed)
        res = perturbed_run(ce, noise, steps)
        batch = perturbed_runs(ce, [noise], steps, record=True)
        zs, params, _, stayed = sequential_perturbed_run(ce, noise, steps)
        for iterates in (batch.iterates[:, 0], zs):
            assert res.trace.iterates.tobytes() == iterates.tobytes()
        for params_used in (batch.params_used[:, 0], params):
            assert res.trace.params_used.tobytes() == params_used.tobytes()
        assert res.stayed_in_tube is bool(batch.stayed_in_tube[0]) is stayed
        # The decay fit as it was taken from the batch's iterates.
        dev = np.linalg.norm(zs - rou_cycle(7).points[np.arange(steps + 2) % 7], axis=1)
        decay = _fit_decay(np.sqrt(dev[1:] ** 2 + dev[:-1] ** 2))
        assert res.residual_decay_rate == decay
        assert (decay is None) == (steps == 1 or init_radius == 0.0)

    @pytest.fixture
    def no_batch(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("perturbed_runs called")

        monkeypatch.setattr(hb_engine, "perturbed_runs", fail)

    def test_does_not_reach_the_batch(self, no_batch):
        p, ce, _ = _member_setup(7)
        res = perturbed_run(ce, NoiseSpec(init_radius=0.9), 50)
        assert res.stayed_in_tube and res.trace.iterates.shape == (52, 2)

    def test_guards_raise_from_the_float_path(self, no_batch):
        import dataclasses

        p, ce, _ = _member_setup(7)
        with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
            perturbed_run(ce, NoiseSpec(init_radius=0.9), 0)
        with pytest.raises(ValueError, match=re.escape(
                "perturbation analysis needs r_max > 0 (interior member)")):
            perturbed_run(dataclasses.replace(ce, r_max=0.0), NoiseSpec(), 10)
        with pytest.raises(ValueError, match=re.escape(
                "condition 1 violated: initial offset 1.5 * kappa_P * r_max "
                "exceeds kappa_P * r_max")):
            perturbed_run(ce, NoiseSpec(init_radius=1.5), 10)


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
        fn = CounterexampleFunction(ce)
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
    def test_matches_rowwise_writer_on_truncated_traces(self, tmp_path, blow_up_at):
        # A truncated trace has fewer parameter rows than steps; the rows
        # past them stay empty.
        calls = []

        def oracle(x):
            calls.append(1)
            return np.full(2, np.inf) if len(calls) == blow_up_at else 0.1 * x

        trace = run(oracle, HbParams(0.9, 0.5), [1.0, -0.0], [0.5, 1e-310], 8)
        assert trace.truncated == (blow_up_at is not None)
        cycle = np.array([[0.5, -1.0], [1e-300, 0.0], [-2.0, 3.0]])
        write_trace_csv(trace, tmp_path / "new.csv", cycle=cycle)
        rowwise_write_trace_csv(trace, tmp_path / "old.csv", cycle=cycle)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
