"""Heavy-ball iteration on 2-D gradient oracles, plus robustness tools.

Simulation of the recursion (``run``, one loop in Python floats for a
``grad_xy`` object and a callable on arrays alike), K-periodicity
detection, empirical rate estimation, and the perturbation harness: around
a cycling counterexample the residual obeys the linear dynamics of heavy
ball on an isotropic quadratic, so the counterexample's ``stability``,
its companion matrix as P D P^{-1} with ||D|| < 1, yields explicit noise
budgets under which perturbed runs provably stay in a tube around the cycle.
``perturbed_runs`` advances many seeded perturbed runs as one (R, 2) state
with one batched gradient call per step; each seed's noise is drawn in its
sequential order, so a run in a batch is the run made alone, and a caller
can put runs of any noise in one batch.  Its steps go in chunks: the noise
and step sizes of a chunk are made at once, each step is a few in-place
array operations on one contiguous (2, R) block per quantity, and the
deviations from the cycle are maxed once per chunk.  ``perturbed_run`` is
its single-run form with the full trace; a noise-free run there (seeded
start only) is plain heavy ball, stepped by ``run`` in Python floats
through the counterexample's ``grad_xy``, with no array per step, and once
the state (x_{t-1}, x_t) repeats bit for bit, as it does on a cycle in
floats, the period is copied instead of stepped again.  Both draw the
seeded starts and apply the run guards through ``_start_batch``.  Each runs
at the (gamma, beta), class, period and cycle of its counterexample.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .quad_rates import HbParams
from .rou_region import (
    CounterExample,
    CounterexampleFunction,
    _BatchWork,
    _check_period,
    _counterexample_batch,
)

# Relative slack of every tube check, so a bound met in full is not lost to
# rounding.
_TUBE_SLACK = 1.0 + 1e-12

# Most states ``run`` remembers to find a repeat.  From the cycle at
# (3.3, 0.75), mu 0.005, K 7 the state repeats at step 56 (period 49), and
# at step 352 (period 273) dilated by 10; at the README's (3.5, 0.75) at
# step 398 (period 364); the benchmark's decay runs from noisy starts by
# step 430.  A period of at most the cap is found within twice the cap
# steps of its first state, clears included.
_REPLAY_STATES = 4096
# The bit pattern of a state (x_{t-1}, x_t) of a 2-D run.
_STATE = struct.Struct("4d")


@dataclass
class SimTrace:
    """Iterates of one 2-D run: two initial points plus one row per step.

    ``grad_calls`` is the number of steps the trace holds, the step whose
    oracle value truncated it included: a step ``run`` replayed from an
    earlier period counts, though the oracle was not called for it.
    """

    iterates: np.ndarray     # (steps + 2, 2), shorter if truncated
    grad_calls: int
    params_used: np.ndarray  # (steps, 2): (gamma_t, beta_t) per update
    truncated: bool = False


def run(oracle, p: HbParams, x0, x1, steps: int) -> SimTrace:
    """Iterate x_{t+1} = x_t - gamma*oracle(x_t) + beta*(x_t - x_{t-1}).

    Deterministic given its inputs.  The starts must be 2-D points
    (ValueError otherwise).  The oracle is an object with a method
    ``grad_xy(x0, x1) -> (g0, g1)``, the gradient at a 2-D point as a pair
    of floats (``CounterexampleFunction``, ``SmoothedCounterExample`` and
    the dilation of either have one), or a callable that gets the point as
    an array and returns the gradient as an array or sequence of 2 entries
    in any shape; any other size raises ValueError.  The step runs per
    coordinate in Python floats, in the order of the expression above, so
    it has the bits of the same step on numpy arrays; for each of those
    objects fn, ``run(fn, ...)`` is ``run(fn.grad, ...)`` bit for bit.  A
    non-finite oracle value truncates the trace and sets the ``truncated``
    flag instead of raising.

    A ``grad_xy`` must be a function of its point alone, as those of the
    library and their dilations are: its values may not depend on earlier
    calls.  Then each step is a function of the state (x_{t-1}, x_t), and
    once a state repeats bit for bit (a cycle in floats), the rest of the
    trace is the period between the two, copied by index without further
    calls; ``grad_calls`` still counts every step.  States are keyed by
    their packed bits, never by float equality (-0.0 == 0.0, NaN != NaN),
    in a table of at most ``_REPLAY_STATES`` entries, cleared when full.
    A callable is called at every step.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if x0.shape != (2,) or x1.shape != (2,):
        raise ValueError(f"run needs 2-D starting points, got shapes {x0.shape} and {x1.shape}")
    params = np.tile([p.gamma, p.beta], (steps, 1))
    grad_xy = getattr(oracle, "grad_xy", None)
    replay = grad_xy is not None
    if not replay:
        grad_xy = _grad_xy_of(oracle)
    gamma, beta = p.gamma, p.beta
    a0, a1 = x0.tolist()
    b0, b1 = x1.tolist()
    flat = [a0, a1, b0, b1]
    isfinite = math.isfinite
    pack = _STATE.pack
    seen = {}
    for t in range(1, steps + 1):
        if replay:
            key = pack(a0, a1, b0, b1)
            first = seen.get(key)
            if first is not None:
                # Rows first-1, first repeat as rows t-1, t: row i > t is
                # row first + (i - first) mod (t - first).
                zs = np.empty((steps + 2, 2))
                zs[:t + 1] = np.array(flat).reshape(t + 1, 2)
                zs[t + 1:] = zs[first + (np.arange(t + 1 - first, steps + 2 - first)
                                         % (t - first))]
                return SimTrace(zs, steps, params)
            if len(seen) == _REPLAY_STATES:
                seen.clear()
            seen[key] = t
        g0, g1 = grad_xy(b0, b1)
        if not (isfinite(g0) and isfinite(g1)):
            return SimTrace(np.array(flat).reshape(t + 1, 2), t, params[:t - 1],
                            truncated=True)
        a0, a1, b0, b1 = (b0, b1, b0 - gamma * g0 + beta * (b0 - a0),
                          b1 - gamma * g1 + beta * (b1 - a1))
        flat += (b0, b1)
    return SimTrace(np.array(flat).reshape(steps + 2, 2), steps, params)


def _grad_xy_of(oracle):
    """A callable oracle as a ``grad_xy``: it gets the point as an array,
    and its gradient, of 2 entries in any shape, comes back as a list."""
    def grad_xy(x0, x1):
        g = np.asarray(oracle(np.array([x0, x1])), dtype=float)
        if g.size != 2:
            raise ValueError(f"oracle returned a gradient of shape {g.shape} "
                             "for an iterate of length 2")
        return g.ravel().tolist()
    return grad_xy


def detect_cycle(trace: SimTrace, k: int, tol: float) -> tuple[bool, float]:
    """K-lag periodicity of the trace tail, guarded against converged runs.

    Compares the iterates of the trace's second half with their K-lagged
    predecessors and additionally requires that tail's bounding-box
    diagonal to reach ``tol``: a converged sequence is K-periodic for every
    K, so near-constant tails report False.  K must be an integer of at
    least 1, ``tol`` at least 0 and the trace at least 2K + 2 iterates long
    (ValueError otherwise).  Returns (is_cycle, max K-lag deviation).
    """
    _check_period(k, 1)
    if not tol >= 0:  # NaN included
        raise ValueError(f"tol must be >= 0, got {tol}")
    zs = trace.iterates
    if len(zs) < 2 * k + 2:
        raise ValueError("trace too short for the requested period")
    tail = zs[len(zs) // 2:]  # at least k + 1 iterates
    dev = float(np.max(np.linalg.norm(tail[k:] - tail[:-k], axis=1)))
    # hypot scales before squaring, so the diagonal stays finite for
    # iterates up to the largest finite float (np.linalg.norm overflows
    # past about 1e154 per coordinate).
    diameter = math.hypot(*(tail.max(axis=0) - tail.min(axis=0)).tolist())
    return dev <= tol and diameter >= tol, dev


def estimate_rate(trace: SimTrace, reference) -> float:
    """Empirical contraction factor toward ``reference``.

    Least-squares slope of log ||(z_t, z_{t-1}) - (ref, ref)|| over the tail
    half of the trace, exponentiated.  The augmented state avoids the
    through-zero oscillation of single-iterate distances in the momentum
    regime.  Distances below 1e-300 stop the fit early (pre-underflow
    prefix only).
    """
    ref = np.atleast_1d(np.asarray(reference, dtype=float))
    zs = trace.iterates
    stacked = np.hstack([zs[1:] - ref, zs[:-1] - ref])
    # Rescale before squaring: the plain sum of squares underflows at half
    # the exponent range, well before the 1e-300 early-stop threshold.
    peak = np.max(np.abs(stacked), axis=1)
    safe = np.where(peak > 0.0, peak, 1.0)
    dist = peak * np.sqrt(np.sum((stacked / safe[:, None]) ** 2, axis=1))
    start = len(dist) // 2
    tail = dist[start:]
    cut = np.flatnonzero(tail < 1e-300)
    if cut.size:
        tail = tail[:cut[0]]
    if tail.size < 2 or np.any(tail <= 0.0):
        raise ValueError("tail distances must be strictly positive to fit a rate")
    return _fitted_rate(tail)


def _fitted_rate(dist: np.ndarray) -> float:
    """exp of the least-squares slope of log(dist) against the step index."""
    t = np.arange(dist.size, dtype=float)
    return float(math.exp(np.polyfit(t, np.log(dist), 1)[0]))


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation magnitudes for a run around a cycling counterexample.

    ``init_radius`` is a fraction of kappa_P * r_max applied jointly to the
    two starting points; the jitters and the gradient noise are absolute
    per-step bounds.  ``mode`` selects uniform random draws or the
    adversarial sign choice that maximizes instantaneous residual growth.
    """

    init_radius: float = 0.0
    gamma_jitter: float = 0.0
    beta_jitter: float = 0.0
    grad_noise: float = 0.0
    mode: str = "uniform-random"
    seed: int = 0

    def __post_init__(self):
        # Written so that NaN fails too: it would pass every tube condition.
        if not all(v >= 0 for v in (self.init_radius, self.gamma_jitter,
                                    self.beta_jitter, self.grad_noise)):
            raise ValueError("noise bounds must be nonnegative")
        if self.mode not in ("uniform-random", "adversarial-sign"):
            raise ValueError(f"unknown noise mode {self.mode!r}")


def _tube_coefficients(ce: CounterExample) -> tuple[float, float]:
    """Weights of |dgamma| and |dbeta| in tube condition 2 around ``ce``."""
    kappa_p = ce.stability.kappa_p
    return (4.0 / ce.p.gamma + ce.c.mu * kappa_p * ce.r_max,
            2.0 + 2.0 * kappa_p * ce.r_max)


def noise_budget(ce: CounterExample) -> dict:
    """Maximal guaranteed-safe noise magnitudes around the cycle of ``ce``,
    at the parameters and class it was built for.

    The three tube conditions are
      1. sqrt(||d0||^2 + ||d1||^2) <= kappa_P * r_max,
      2. (4/gamma + mu kappa_P r_max)|dgamma| + (2 + 2 kappa_P r_max)|dbeta|
         <= (1 - rho_D) kappa_P r_max / 2,
      3. (4/L) ||dgrad|| <= (1 - rho_D) kappa_P r_max / 2.
    Returns the per-channel budgets (each assumes the shared budget of its
    condition is spent on that channel alone).
    """
    sc = ce.stability
    slack = 0.5 * (1.0 - sc.rho_d) * sc.kappa_p * ce.r_max
    gamma_coeff, beta_coeff = _tube_coefficients(ce)
    return {
        "kappa_p": sc.kappa_p,
        "rho_d": sc.rho_d,
        "init_norm": sc.kappa_p * ce.r_max,
        "param_budget": slack,
        "gamma_jitter": slack / gamma_coeff,
        "beta_jitter": slack / beta_coeff,
        "grad_noise": ce.c.ell * slack / 4.0,
    }


@dataclass
class PerturbedRun:
    trace: SimTrace
    stayed_in_tube: bool
    residual_decay_rate: float | None


@dataclass
class TubeRuns:
    """Outcome of R perturbed runs advanced as one batch.

    ``max_dev[r]`` is max_t ||z_t - cycle[t mod K]|| of run r, and
    ``stayed_in_tube[r]`` says whether it stayed within r_max.  The full
    ``iterates`` (steps + 2, R, 2) and ``params_used`` (steps, R, 2) are
    kept only when the batch runs with ``record=True``.
    """

    max_dev: np.ndarray
    stayed_in_tube: np.ndarray
    iterates: np.ndarray | None = None
    params_used: np.ndarray | None = None


# Steps per chunk of ``perturbed_runs``: each seed's uniform noise is
# drawn _DRAW_CHUNK steps at a time, and the chunk buffers (draws, step
# sizes, gradient noise, iterates and deviations) hold about
# 20 * _DRAW_CHUNK * R doubles whatever the run length.  Measured on the
# benchmark's tube workload (a 106-run batch of 1,000 steps and a
# 2,500-step decay run): peak RSS 41.5-41.8 MB at 32 steps, 42.1 at 64,
# 43.4 at 128 and 45.6 at 256; 64 steps were about 7% faster than 32 and
# no slower than 128 or 256.
_DRAW_CHUNK = 64


def _fit_decay(norms: np.ndarray) -> float | None:
    """Asymptotic slope of log(norms): fit the late clean-decay window.

    The early iterations mix both companion modes, and below ~1e-12 the
    residual hits the rounding floor of the attractive cycle, so the fit
    uses the late part of the window above that floor.
    """
    keep = np.flatnonzero(norms > 1e-12)
    if keep.size < 10:
        return None
    window = norms[:keep[-1] + 1]
    window = window[max(2, int(0.4 * window.size)):]
    if window.size < 5 or np.any(window <= 0.0):
        return None
    return _fitted_rate(window)


def _check_runs(ce: CounterExample, budget: dict, noises: list[NoiseSpec],
                strict: bool = True) -> None:
    """Raise unless the runs have a tube to stay in (r_max > 0) and, in
    strict mode, every spec meets the three guarantee conditions; the first
    violated condition is named, with the first spec violating it."""
    if ce.r_max <= 0.0:
        raise ValueError("perturbation analysis needs r_max > 0 (interior member)")
    if not strict:
        return
    init, gamma_jitter, beta_jitter, grad_noise = np.array(
        [(n.init_radius, n.gamma_jitter, n.beta_jitter, n.grad_noise)
         for n in noises]).T
    bad = np.flatnonzero(init > _TUBE_SLACK)
    if bad.size:
        raise ValueError(
            "condition 1 violated: initial offset "
            f"{float(init[bad[0]])} * kappa_P * r_max exceeds kappa_P * r_max")
    gamma_coeff, beta_coeff = _tube_coefficients(ce)
    spend = gamma_coeff * gamma_jitter + beta_coeff * beta_jitter
    bad = np.flatnonzero(spend > budget["param_budget"] * _TUBE_SLACK)
    if bad.size:
        raise ValueError(
            f"condition 2 violated: parameter jitter spend {float(spend[bad[0]])} "
            f"exceeds budget {budget['param_budget']}")
    bad = np.flatnonzero(grad_noise > budget["grad_noise"] * _TUBE_SLACK)
    if bad.size:
        raise ValueError(
            f"condition 3 violated: gradient noise {float(grad_noise[bad[0]])} "
            f"exceeds budget {budget['grad_noise']}")


def _start_batch(ce: CounterExample, noises: list[NoiseSpec], steps: int, strict: bool):
    """The guards and seeded starts of a batch of runs around ``ce``'s cycle.

    Returns (rngs, starts): ``starts`` (2, R, 2) holds each run's
    first two points, the cycle's displaced by a joint offset of norm
    init_radius * kappa_P * r_max drawn as normal(4) from
    ``default_rng(seed)``, and ``rngs`` the generators after that draw.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not noises:
        raise ValueError("a batch needs at least one noise spec")
    budget = noise_budget(ce)
    _check_runs(ce, budget, noises, strict)
    starts = np.empty((2, len(noises), 2))
    rngs = [np.random.default_rng(n.seed) for n in noises]
    for i, (rng, noise) in enumerate(zip(rngs, noises)):
        offset = rng.normal(size=4)
        offset *= noise.init_radius * budget["init_norm"] / np.linalg.norm(offset)
        starts[0, i] = ce.cycle[0] + offset[:2]
        starts[1, i] = ce.cycle[1] + offset[2:]
    return rngs, starts


def _row_sq(x: np.ndarray) -> np.ndarray:
    """Squared row norms, summed as np.linalg.norm(x, axis=1) sums them."""
    return np.add.reduce(x * x, axis=1)


def cycle_distances(iterates: np.ndarray, cycle: np.ndarray) -> np.ndarray:
    """||z_t - cycle[t mod K]|| per row z_t, with np.linalg.norm(axis=1)'s bits."""
    return np.sqrt(_row_sq(iterates - cycle[np.arange(len(iterates)) % len(cycle)]))


def _uniform(low, high, u):
    """Generator.uniform's arithmetic on draws u from Generator.random."""
    return low + (high - low) * u


def _adversarial_noise(residual: np.ndarray, grad: np.ndarray, momentum: np.ndarray,
                      gamma_jitter: np.ndarray, beta_jitter: np.ndarray,
                      grad_noise: np.ndarray):
    """Jitter signs and noise direction that grow each unperturbed residual.

    ``residual`` (n, 2) is the unperturbed next iterate minus its cycle
    point; a zero residual takes the direction (1, 0).
    """
    rnorm = np.linalg.norm(residual, axis=1)
    direction = np.tile([1.0, 0.0], (len(residual), 1))
    moved = rnorm > 0
    direction[moved] = residual[moved] / rnorm[moved, None]
    align_g = np.einsum("ij,ij->i", grad, direction)
    align_m = np.einsum("ij,ij->i", momentum, direction)
    dgamma = -gamma_jitter * np.where(align_g >= 0, 1.0, -1.0)
    dbeta = beta_jitter * np.where(align_m >= 0, 1.0, -1.0)
    return dgamma, dbeta, -grad_noise[:, None] * direction


def perturbed_runs(ce: CounterExample, noises: list[NoiseSpec], steps: int,
                   strict: bool = True, record: bool = False) -> TubeRuns:
    """Run heavy ball on the counterexample under R perturbations at once,
    at the parameters, class and period ``ce`` was built for.

    Run r starts from the cycle's first two points displaced by a joint
    offset of norm init_radius * kappa_P * r_max, drawn from
    ``default_rng(noises[r].seed)``, and takes per-step parameter jitter and
    gradient noise: uniform draws from the same generator (gamma, beta,
    angle and radius, in that order per step), or in adversarial-sign mode
    the signs and direction that grow the unperturbed next residual.  Each
    seed's draws are its sequential stream taken in chunks, so run r is the
    run it would be alone.  The (R, 2) state advances with one batched
    gradient call per step, written in place into a buffer of one chunk of
    ``_DRAW_CHUNK`` steps (of the whole run if ``record`` is set); the
    gradient kernels work in buffers made once per call.  What a
    step does not need to compute is done per chunk: the draws, each step's
    gamma_t, beta_t and gradient noise (adversarial runs fill theirs in at
    their step), and, after the chunk, the running max of squared
    deviations over its iterates.  In strict mode every noise spec must
    satisfy the three guarantee conditions; the first violated condition
    is named otherwise.  Rows are independent, so specs of any noise,
    checked or not, may share a batch.
    """
    rngs, starts = _start_batch(ce, noises, steps, strict)
    gamma_jitter, beta_jitter, grad_noise = np.array(
        [(n.gamma_jitter, n.beta_jitter, n.grad_noise) for n in noises]).T

    p, k, cyc = ce.p, ce.k, ce.cycle
    r = len(noises)
    chunk = min(_DRAW_CHUNK, steps)
    # The state is coordinate-major: z[0] holds the runs' first coordinates
    # and z[1] their second, so every per-step array is one contiguous
    # (2, R) block, and z.T is the (R, 2) batch the gradient takes.
    # Unrecorded, rows 0 and 1 of the buffer hold the chunk's two previous
    # iterates.
    zs = np.empty((steps + 2 if record else chunk + 2, 2, r))
    zs[:2] = starts.transpose(0, 2, 1)
    # Running max of squared deviations; sqrt is monotone, so the root of
    # the max is the max of the norms bit for bit.
    max_sq = np.maximum(_row_sq(starts[0] - cyc[0]), _row_sq(starts[1] - cyc[1]))
    params = np.empty((steps, r, 2)) if record else None

    adv = np.flatnonzero([n.mode == "adversarial-sign" for n in noises])
    uni = np.flatnonzero([n.mode == "uniform-random" for n in noises])
    adv_bounds = gamma_jitter[adv], beta_jitter[adv], grad_noise[adv]
    g_jit, b_jit, g_noise = gamma_jitter[uni, None], beta_jitter[uni, None], grad_noise[uni, None]
    draws = np.empty((uni.size, chunk, 4))
    # Per step of the chunk: gamma_t and beta_t, repeated over both
    # coordinates (a product of equal shapes skips a broadcast's set-up,
    # which costs more than the product of a hundred runs), and the
    # gradient noise.  Adversarial runs are filled in at their step.
    gamma_c = np.empty((chunk, 2, r))
    beta_c = np.empty((chunk, 2, r))
    dgrad_c = np.empty((chunk, 2, r))
    step = np.empty((2, r))
    momentum = np.empty((2, r))
    # The gradient kernels' buffers, shaped like the (R, 2) batch z.T.
    work = _BatchWork(zs[0].T)
    for t0 in range(1, steps + 1, chunk):
        span = min(chunk, steps - t0 + 1)
        if uni.size:
            for row, i in enumerate(uni):
                rngs[i].random((span, 4), out=draws[row, :span])
            u = draws[:, :span]
            gamma_c[:span, 0, uni] = (p.gamma + _uniform(-g_jit, g_jit, u[..., 0])).T
            beta_c[:span, 0, uni] = (p.beta + _uniform(-b_jit, b_jit, u[..., 1])).T
            # Copying the whole row is cheaper than scattering it twice.
            gamma_c[:span, 1] = gamma_c[:span, 0]
            beta_c[:span, 1] = beta_c[:span, 0]
            angle = _uniform(0.0, 2.0 * np.pi, u[..., 2])
            radius = g_noise * np.sqrt(u[..., 3])
            dgrad_c[:span, 0, uni] = (radius * np.cos(angle)).T
            dgrad_c[:span, 1, uni] = (radius * np.sin(angle)).T
        # Rows j, j + 1 and j + 2 are z_{t-1}, z_t and z_{t+1} at t = t0 + j.
        zc = zs[t0 - 1:t0 + span + 1] if record else zs
        for j in range(span):
            z_prev, z, nxt = zc[j], zc[j + 1], zc[j + 2]
            grad = _counterexample_batch(ce, z.T, False, work)[1].T
            np.subtract(z, z_prev, out=momentum)
            if adv.size:
                z_a, grad_a, momentum_a = z[:, adv].T, grad[:, adv].T, momentum[:, adv].T
                base_next = z_a - p.gamma * grad_a + p.beta * momentum_a
                dgamma, dbeta, dgrad = _adversarial_noise(
                    base_next - cyc[(t0 + j + 1) % k], grad_a, momentum_a, *adv_bounds)
                gamma_c[j][:, adv] = p.gamma + dgamma
                beta_c[j][:, adv] = p.beta + dbeta
                dgrad_c[j][:, adv] = dgrad.T
            # z - gamma_t * (grad + dgrad) + beta_t * momentum, in that order.
            np.add(grad, dgrad_c[j], out=step)
            np.multiply(gamma_c[j], step, out=step)
            np.subtract(z, step, out=nxt)
            np.multiply(beta_c[j], momentum, out=momentum)
            np.add(nxt, momentum, out=nxt)
        # The squared norms as _row_sq sums them, in place, not through
        # cycle_distances, as this is the hot loop: np.add.reduce over a
        # length-2 axis would pay its set-up once per run and step.
        dev = zc[2:span + 2] - cyc[np.arange(t0 + 1, t0 + span + 1) % k, :, None]
        dev *= dev
        np.maximum(max_sq, (dev[:, 0] + dev[:, 1]).max(axis=0), out=max_sq)
        if record:
            params[t0 - 1:t0 - 1 + span, :, 0] = gamma_c[:span, 0]
            params[t0 - 1:t0 - 1 + span, :, 1] = beta_c[:span, 0]
        else:
            zs[:2] = zs[span:span + 2]

    max_dev = np.sqrt(max_sq)
    stayed = max_dev <= ce.r_max * _TUBE_SLACK
    iterates = np.ascontiguousarray(zs.transpose(0, 2, 1)) if record else None
    return TubeRuns(max_dev, stayed, iterates, params)


def perturbed_run(ce: CounterExample, noise: NoiseSpec, steps: int) -> PerturbedRun:
    """Run heavy ball on the counterexample under bounded perturbations, at
    the parameters, class and period it was built for.

    The single-run form of strict ``perturbed_runs``: the same seeded
    start, noise and guarantee checks, with the full trace kept.  Reports
    whether every iterate stayed within r_max of its cycle point.  With
    parameter and gradient noise both zero the residual contraction factor
    is fitted and returned (it matches the rate of heavy ball on the
    isotropic mu-quadratic), and the run is plain heavy ball from its
    seeded start: ``run`` steps the exact gradient's ``grad_xy`` in Python
    floats, with the bits of the batch.  Its start obeys condition 1, so it
    provably stays in the tube and ``run`` never truncates it.  A run
    outside the guarantee is ``perturbed_runs`` with ``strict=False`` and
    ``record=True``.
    """
    if not noise.gamma_jitter == noise.beta_jitter == noise.grad_noise == 0.0:
        runs = perturbed_runs(ce, [noise], steps, record=True)
        trace = SimTrace(runs.iterates[:, 0], steps, runs.params_used[:, 0])
        return PerturbedRun(trace, bool(runs.stayed_in_tube[0]), None)
    _, starts = _start_batch(ce, [noise], steps, strict=True)
    trace = run(CounterexampleFunction(ce), ce.p, starts[0, 0], starts[1, 0], steps)
    dev = cycle_distances(trace.iterates, ce.cycle)
    joint = np.sqrt(dev[1:] ** 2 + dev[:-1] ** 2)
    return PerturbedRun(trace, bool(dev.max() <= ce.r_max * _TUBE_SLACK),
                        _fit_decay(joint))


def format_floats(x) -> np.ndarray:
    """``.17g`` text of a float array as an object array of its shape; each
    distinct bit pattern is formatted once, so -0.0 and NaN keep their text."""
    x = np.ascontiguousarray(x, dtype=float)
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    text = np.array([format(v, ".17g") for v in bits.view(float).tolist()], dtype=object)
    return text[inverse].reshape(x.shape)


def write_trace_csv(trace: SimTrace, path, cycle: np.ndarray) -> None:
    """Trace export: t, coordinates, distance to the cycle, per-step params.

    The distance column holds ||z_t - cycle[t mod K]|| for the cycle
    points ``cycle`` (K, 2).  The two initial rows, and the rows of a
    truncated trace past its last step, carry no step parameters.
    """
    zs = trace.iterates
    n, d = zs.shape
    diff = zs - cycle[np.arange(n) % len(cycle)]
    # vecdot, unlike cycle_distances, sums each row as a lone norm() does.
    dist = format_floats(np.sqrt(np.vecdot(diff, diff))).tolist()
    params = trace.params_used[:n - 2]
    tail = [""] * (n - 2 - len(params))
    gamma_t, beta_t = (["", ""] + format_floats(col).tolist() + tail for col in params.T)
    columns = zip(range(n), *format_floats(zs.T).tolist(), dist, gamma_t, beta_t)
    row = ",".join(["%d", *["%s"] * (d + 3)]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *(f"x{i}" for i in range(d)),
                           "dist_to_cycle", "gamma_t", "beta_t"]) + "\n")
        fh.writelines(map(row.__mod__, columns))
