"""Heavy-ball iteration on arbitrary gradient oracles, plus robustness tools.

Simulation of the recursion, K-periodicity detection, empirical rate
estimation, and the perturbation harness: around a cycling counterexample
the residual obeys the linear dynamics of heavy ball on an isotropic
quadratic, so a companion-matrix decomposition P D P^{-1} with ||D|| < 1
yields explicit noise budgets under which perturbed runs provably stay in a
tube around the cycle.  ``perturbed_runs`` advances many seeded perturbed
runs as one (R, 2) state with one batched gradient call per step; each
seed's noise is drawn in its sequential order, so a run in a batch is the
run made alone.  ``perturbed_run`` is its single-run form with the full
trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quad_rates import BOUNDARY_TOL, FunctionClass, HbParams
from .rou_region import CounterExample, CounterexampleFunction, rou_cycle


@dataclass
class SimTrace:
    """Iterates of one run: two initial points plus one row per step."""

    iterates: np.ndarray     # (steps + 2, d), shorter if truncated
    grad_calls: int
    params_used: np.ndarray  # (steps, 2): (gamma_t, beta_t) per update
    truncated: bool = False


def run(oracle, p: HbParams, x0, x1, steps: int) -> SimTrace:
    """Iterate x_{t+1} = x_t - gamma*oracle(x_t) + beta*(x_t - x_{t-1}).

    Deterministic given its inputs.  The oracle gets the row ``iterates[t]``
    and returns the gradient as an array, sequence or scalar with as many
    entries as the iterate; any other size raises ValueError.  The step
    runs per coordinate in Python floats, in the order of the expression
    above, so it has the bits of the same step on numpy arrays.  A
    non-finite oracle value truncates the trace and sets the ``truncated``
    flag instead of raising.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    zs = np.empty((steps + 2, x0.shape[0]))
    zs[0], zs[1] = x0, x1
    params = np.tile([p.gamma, p.beta], (steps, 1))
    gamma, beta = p.gamma, p.beta
    shape = x0.shape
    x_prev, x = zs[0].tolist(), zs[1].tolist()
    for t in range(1, steps + 1):
        g = np.asarray(oracle(zs[t]), dtype=float)
        if g.shape != shape:
            if g.size != shape[0]:
                raise ValueError(f"oracle returned a gradient of shape {g.shape} "
                                 f"for an iterate of length {shape[0]}")
            g = g.ravel()
        g = g.tolist()
        if not all(map(math.isfinite, g)):
            return SimTrace(zs[:t + 1].copy(), t, params[:t - 1], truncated=True)
        x_prev, x = x, [xi - gamma * gi + beta * (xi - pi)
                        for xi, gi, pi in zip(x, g, x_prev)]
        zs[t + 1] = x
    return SimTrace(zs, steps, params)


def detect_cycle(trace: SimTrace, k: int, tol: float,
                 burn_in: int | None = None) -> tuple[bool, float]:
    """K-lag periodicity of the trace tail, guarded against converged runs.

    Compares tail iterates with their K-lagged predecessors (burn-in
    defaults to half the trace) and additionally requires the tail's
    bounding-box diagonal to reach ``tol``: a converged sequence is
    K-periodic for every K, so near-constant tails report False.
    Returns (is_cycle, max K-lag deviation).
    """
    zs = trace.iterates
    if len(zs) < 2 * k + 2:
        raise ValueError("trace too short for the requested period")
    if burn_in is None:
        burn_in = len(zs) // 2
    tail = zs[burn_in:]
    if len(tail) <= k:
        tail = zs[-(k + 1):]
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
    t = np.arange(tail.size, dtype=float)
    slope = np.polyfit(t, np.log(tail), 1)[0]
    return float(math.exp(slope))


@dataclass(frozen=True)
class StabilityConstants:
    """Companion-matrix decomposition constants for the residual dynamics.

    ``kappa_p`` is 1/(||P|| * ||P^-1||) in (0, 1]; ``rho_d`` = ||D|| < 1.
    ``region_used`` records which decomposition applied: "Lazy" (real
    eigenvalues), "Robust" (complex pair), or "Boundary" (Jordan block with
    the epsilon trick).
    """

    kappa_p: float
    rho_d: float
    region_used: str
    p_matrix: np.ndarray = field(repr=False, default=None)
    d_matrix: np.ndarray = field(repr=False, default=None)


def _condition_constants(p_mat: np.ndarray) -> float:
    """kappa_P from the closed form tau - sqrt(tau^2 - 1), tau = tr(P^H P)/(2|det P|)."""
    h = p_mat.conj().T @ p_mat
    tau = float(np.trace(h).real) / (2.0 * abs(np.linalg.det(p_mat)))
    if tau <= 1.0:
        return 1.0
    return tau - math.sqrt(tau * tau - 1.0)


def stability_constants(p: HbParams, mu: float,
                        epsilon: float | None = None) -> StabilityConstants:
    """Decompose [[1+beta-mu*gamma, -beta], [1, 0]] as P D P^{-1}, ||D|| < 1.

    Real-diagonalizable, complex-conjugate, and defective (boundary) cases
    are handled separately; in the boundary case gamma = (1-sqrt(beta))^2/mu
    the Jordan block needs an epsilon in (0, (1-beta)/sqrt(beta)), defaulting
    to the midpoint (1-beta)/(2 sqrt(beta)).  Raises when the matrix does not
    contract.
    """
    gamma, beta = p.gamma, p.beta
    half_trace = (1.0 + beta - mu * gamma) / 2.0
    disc = half_trace * half_trace - beta

    if abs(disc) <= BOUNDARY_TOL:
        # Defective double eigenvalue +-sqrt(beta).
        if beta <= 0.0:
            raise ValueError("boundary decomposition needs beta > 0")
        sb = math.sqrt(beta)
        limit = (1.0 - beta) / sb
        if epsilon is None:
            epsilon = limit / 2.0
        if not 0.0 < epsilon < limit:
            raise ValueError(f"epsilon must lie in (0, {limit}), got {epsilon}")
        rho_d = sb * (epsilon / 2.0 + math.sqrt(1.0 + epsilon * epsilon / 4.0))
        if rho_d >= 1.0:
            raise ValueError(f"no contraction: rho_d = {rho_d} >= 1")
        p_mat = np.array([[sb, epsilon * sb / (1.0 + beta)],
                          [1.0, -beta * epsilon / (1.0 + beta)]])
        d_mat = sb * np.array([[1.0, epsilon], [0.0, 1.0]])
        return StabilityConstants(_condition_constants(p_mat), rho_d, "Boundary",
                                  p_mat, d_mat)

    if disc > 0.0:
        root = math.sqrt(disc)
        lam_hi, lam_lo = half_trace + root, half_trace - root
        rho_d = max(abs(lam_hi), abs(lam_lo))
        if rho_d >= 1.0:
            raise ValueError(f"no contraction: spectral radius = {rho_d} >= 1")
        p_mat = np.array([[lam_hi, lam_lo], [1.0, 1.0]])
        d_mat = np.diag([lam_hi, lam_lo])
        return StabilityConstants(_condition_constants(p_mat), rho_d, "Lazy",
                                  p_mat, d_mat)

    root = math.sqrt(-disc)
    lam = complex(half_trace, root)
    rho_d = abs(lam)  # = sqrt(beta)
    if rho_d >= 1.0:
        raise ValueError(f"no contraction: spectral radius = {rho_d} >= 1")
    p_mat = np.array([[lam, lam.conjugate()], [1.0, 1.0]], dtype=complex)
    d_mat = np.diag([lam, lam.conjugate()])
    return StabilityConstants(_condition_constants(p_mat), rho_d, "Robust",
                              p_mat, d_mat)


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


def _tube_coefficients(p: HbParams, mu: float, kappa_p: float,
                       r_max: float) -> tuple[float, float]:
    """Weights of |dgamma| and |dbeta| in tube condition 2."""
    return 4.0 / p.gamma + mu * kappa_p * r_max, 2.0 + 2.0 * kappa_p * r_max


def noise_budget(p: HbParams, c: FunctionClass, ce: CounterExample,
                 epsilon: float | None = None) -> dict:
    """Maximal guaranteed-safe noise magnitudes around the cycle.

    The three tube conditions are
      1. sqrt(||d0||^2 + ||d1||^2) <= kappa_P * r_max,
      2. (4/gamma + mu kappa_P r_max)|dgamma| + (2 + 2 kappa_P r_max)|dbeta|
         <= (1 - rho_D) kappa_P r_max / 2,
      3. (4/L) ||dgrad|| <= (1 - rho_D) kappa_P r_max / 2.
    Returns the per-channel budgets (each assumes the shared budget of its
    condition is spent on that channel alone).
    """
    sc = stability_constants(p, c.mu, epsilon)
    slack = 0.5 * (1.0 - sc.rho_d) * sc.kappa_p * ce.r_max
    gamma_coeff, beta_coeff = _tube_coefficients(p, c.mu, sc.kappa_p, ce.r_max)
    return {
        "kappa_p": sc.kappa_p,
        "rho_d": sc.rho_d,
        "init_norm": sc.kappa_p * ce.r_max,
        "param_budget": slack,
        "gamma_jitter": slack / gamma_coeff,
        "beta_jitter": slack / beta_coeff,
        "grad_noise": c.ell * slack / 4.0,
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


# Steps of uniform noise drawn at once per seed: the draw buffers hold
# _DRAW_CHUNK * R * 8 doubles whatever the run length, small enough that a
# 100-run batch adds well under 1 MB to the peak resident set.
_DRAW_CHUNK = 32


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
    t = np.arange(window.size, dtype=float)
    slope = np.polyfit(t, np.log(window), 1)[0]
    return float(math.exp(slope))


def _check_tube_conditions(p: HbParams, c: FunctionClass, ce: CounterExample,
                           budget: dict, init: np.ndarray, gamma_jitter: np.ndarray,
                           beta_jitter: np.ndarray, grad_noise: np.ndarray) -> None:
    """Raise naming the first violated guarantee condition of the batch."""
    bad = np.flatnonzero(init > 1.0 + 1e-12)
    if bad.size:
        raise ValueError(
            "condition 1 violated: initial offset "
            f"{float(init[bad[0]])} * kappa_P * r_max exceeds kappa_P * r_max")
    gamma_coeff, beta_coeff = _tube_coefficients(p, c.mu, budget["kappa_p"], ce.r_max)
    spend = gamma_coeff * gamma_jitter + beta_coeff * beta_jitter
    bad = np.flatnonzero(spend > budget["param_budget"] * (1.0 + 1e-12))
    if bad.size:
        raise ValueError(
            f"condition 2 violated: parameter jitter spend {float(spend[bad[0]])} "
            f"exceeds budget {budget['param_budget']}")
    bad = np.flatnonzero(grad_noise > budget["grad_noise"] * (1.0 + 1e-12))
    if bad.size:
        raise ValueError(
            f"condition 3 violated: gradient noise {float(grad_noise[bad[0]])} "
            f"exceeds budget {budget['grad_noise']}")


def _row_sq(x: np.ndarray) -> np.ndarray:
    """Squared row norms, summed as np.linalg.norm(x, axis=1) sums them."""
    return np.add.reduce(x * x, axis=1)


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


def perturbed_runs(ce: CounterExample, c: FunctionClass, p: HbParams, k: int,
                   noises: list[NoiseSpec], steps: int, strict: bool = True,
                   record: bool = False) -> TubeRuns:
    """Run heavy ball on the counterexample under R perturbations at once.

    Run r starts from the cycle's first two points displaced by a joint
    offset of norm init_radius * kappa_P * r_max, drawn from
    ``default_rng(noises[r].seed)``, and takes per-step parameter jitter and
    gradient noise: uniform draws from the same generator (gamma, beta,
    angle and radius, in that order per step), or in adversarial-sign mode
    the signs and direction that grow the unperturbed next residual.  Each
    seed's draws are its sequential stream taken in chunks, so run r is the
    run it would be alone.  The (R, 2) state advances with one batched
    gradient call per step; only three iterate slots are kept unless
    ``record`` is set.  In strict mode every noise spec must satisfy the
    three guarantee conditions; the first violated condition is named
    otherwise.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not noises:
        raise ValueError("a batch needs at least one noise spec")
    if ce.r_max <= 0.0:
        raise ValueError("perturbation analysis needs r_max > 0 (interior member)")
    budget = noise_budget(p, c, ce)
    init, gamma_jitter, beta_jitter, grad_noise = np.array(
        [(n.init_radius, n.gamma_jitter, n.beta_jitter, n.grad_noise)
         for n in noises]).T
    if strict:
        _check_tube_conditions(p, c, ce, budget, init, gamma_jitter,
                               beta_jitter, grad_noise)

    cyc = rou_cycle(k).points
    fn = CounterexampleFunction(ce, c)
    r = len(noises)
    slots = steps + 2 if record else 3
    zs = np.empty((slots, r, 2))
    rngs = [np.random.default_rng(n.seed) for n in noises]
    for i, (rng, noise) in enumerate(zip(rngs, noises)):
        offset = rng.normal(size=4)
        offset *= noise.init_radius * budget["init_norm"] / np.linalg.norm(offset)
        zs[0, i] = cyc[0] + offset[:2]
        zs[1, i] = cyc[1] + offset[2:]
    # Running max of squared deviations; sqrt is monotone, so the root of
    # the max is the max of the norms bit for bit.
    max_sq = np.maximum(_row_sq(zs[0] - cyc[0]), _row_sq(zs[1] - cyc[1 % k]))
    params = np.empty((steps, r, 2)) if record else None

    adv = np.flatnonzero([n.mode == "adversarial-sign" for n in noises])
    uni = np.flatnonzero([n.mode == "uniform-random" for n in noises])
    draws = np.empty((uni.size, _DRAW_CHUNK, 4))
    dgamma_c = np.zeros((_DRAW_CHUNK, r))
    dbeta_c = np.zeros((_DRAW_CHUNK, r))
    dgrad_c = np.zeros((_DRAW_CHUNK, r, 2))
    for t in range(1, steps + 1):
        j = (t - 1) % _DRAW_CHUNK
        if j == 0 and uni.size:
            span = min(_DRAW_CHUNK, steps - t + 1)
            for row, i in enumerate(uni):
                rngs[i].random((span, 4), out=draws[row, :span])
            u = draws[:, :span].transpose(1, 0, 2)
            dgamma_c[:span, uni] = _uniform(-gamma_jitter[uni], gamma_jitter[uni], u[..., 0])
            dbeta_c[:span, uni] = _uniform(-beta_jitter[uni], beta_jitter[uni], u[..., 1])
            angle = _uniform(0.0, 2.0 * np.pi, u[..., 2])
            radius = grad_noise[uni] * np.sqrt(u[..., 3])
            dgrad_c[:span, uni, 0] = radius * np.cos(angle)
            dgrad_c[:span, uni, 1] = radius * np.sin(angle)
        z, z_prev = zs[t % slots], zs[(t - 1) % slots]
        grad = fn.grad_batch(z)
        momentum = z - z_prev
        dgamma, dbeta, dgrad = dgamma_c[j], dbeta_c[j], dgrad_c[j]
        if adv.size:
            base_next = z[adv] - p.gamma * grad[adv] + p.beta * momentum[adv]
            dgamma[adv], dbeta[adv], dgrad[adv] = _adversarial_noise(
                base_next - cyc[(t + 1) % k], grad[adv], momentum[adv],
                gamma_jitter[adv], beta_jitter[adv], grad_noise[adv])
        gamma_t = p.gamma + dgamma
        beta_t = p.beta + dbeta
        if record:
            params[t - 1, :, 0] = gamma_t
            params[t - 1, :, 1] = beta_t
        nxt = z - gamma_t[:, None] * (grad + dgrad) + beta_t[:, None] * momentum
        zs[(t + 1) % slots] = nxt
        np.maximum(max_sq, _row_sq(nxt - cyc[(t + 1) % k]), out=max_sq)

    max_dev = np.sqrt(max_sq)
    stayed = max_dev <= ce.r_max * (1.0 + 1e-12)
    return TubeRuns(max_dev, stayed, zs if record else None, params)


def perturbed_run(ce: CounterExample, c: FunctionClass, p: HbParams, k: int,
                  noise: NoiseSpec, steps: int,
                  strict: bool = True) -> PerturbedRun:
    """Run heavy ball on the counterexample under bounded perturbations.

    The single-run form of ``perturbed_runs``: the same seeded start, noise
    and strict guarantee checks, with the full trace kept.  Reports whether
    every iterate stayed within r_max of its cycle point.  With parameter
    and gradient noise both zero the residual contraction factor is fitted
    and returned (it matches the rate of heavy ball on the isotropic
    mu-quadratic).
    """
    runs = perturbed_runs(ce, c, p, k, [noise], steps, strict, record=True)
    zs = runs.iterates[:, 0]
    trace = SimTrace(zs, steps, runs.params_used[:, 0])
    decay = None
    if noise.gamma_jitter == noise.beta_jitter == noise.grad_noise == 0.0:
        cyc = rou_cycle(k).points
        dev = np.linalg.norm(zs - cyc[np.arange(steps + 2) % k], axis=1)
        joint = np.sqrt(dev[1:] ** 2 + dev[:-1] ** 2)
        decay = _fit_decay(joint)
    return PerturbedRun(trace, bool(runs.stayed_in_tube[0]), decay)


def format_floats(x) -> np.ndarray:
    """``.17g`` text of a float array as an object array of its shape; each
    distinct bit pattern is formatted once, so -0.0 and NaN keep their text."""
    x = np.ascontiguousarray(x, dtype=float)
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    text = np.array([format(v, ".17g") for v in bits.view(float).tolist()], dtype=object)
    return text[inverse].reshape(x.shape)


def write_trace_csv(trace: SimTrace, path, cycle: np.ndarray | None = None) -> None:
    """Trace export: t, coordinates, distance to the cycle, per-step params.

    ``cycle`` (K, d), when given, fills the distance column with
    ||z_t - cycle[t mod K]||; it is empty otherwise.  The two initial rows
    carry no step parameters.
    """
    zs = trace.iterates
    n, d = zs.shape
    dist = [""] * n
    if cycle is not None:
        diff = zs - cycle[np.arange(n) % len(cycle)]
        # vecdot, unlike norm(axis=1), sums each row as a lone norm() does.
        dist = format_floats(np.sqrt(np.vecdot(diff, diff))).tolist()
    params = trace.params_used[:n - 2]
    tail = [""] * (n - 2 - len(params))
    gamma_t, beta_t = (["", ""] + format_floats(col).tolist() + tail for col in params.T)
    columns = zip(range(n), *format_floats(zs.T).tolist(), dist, gamma_t, beta_t)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *(f"x{i}" for i in range(d)),
                           "dist_to_cycle", "gamma_t", "beta_t"]) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in columns)
