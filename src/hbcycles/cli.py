"""Command-line surface: point queries, grid sweeps, demos, robustness runs.

Subcommands: rate, sweep, cycle-demo, lp-check, robustness, table4.
All data outputs are deterministic: CSV with 17 significant digits and UNIX
newlines, JSON metadata sidecars with sorted keys and a full parameter
echo, and SVG renderings that are pure functions of the CSV.  A sweep
computes and writes one block of whole gamma rows at a time, so its memory
is set by the block size, not by its grid.
Exit codes: 0 success, 2 usage error (an output path that cannot be
written included), 3 numerical failure or not enough memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from . import __version__
from .cycle_lp import (
    FEASIBILITY_TOL,
    INDETERMINATE_TOL,
    cycle_gradients,
    interpolation_residuals,
    lp_check,
    lp_margin,
    screen_periods,
)
from .hb_engine import (
    NoiseSpec,
    _check_runs,
    cycle_distances,
    detect_cycle,
    format_floats,
    noise_budget,
    perturbed_run,
    perturbed_runs,
    run,
    write_trace_csv,
)
from .quad_rates import (
    _REGION_BY_CODE,
    FunctionClass,
    HbParams,
    ghadimi_beta_bound,
    in_cv_closure,
    rate_grid,
    rate_on_quadratics,
    reference_rates,
    sublevel_set,
)
from .rou_region import (
    CounterexampleFunction,
    build_counterexample,
    member_any_grid,
)
from .smoothing import (
    dilate,
    smooth_counterexample,
    third_derivative_estimate,
)

SWEEP_MODES = ("rate", "rou-region", "lp-region", "ghadimi", "sls-overlay")


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and NaN for JSON emission."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if math.isnan(x) else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit_json(obj) -> None:
    print(json.dumps(_jsonable(obj), indent=2, sort_keys=True))


# Whole gamma rows of about this many cells are computed, formatted and
# written at a time, so a sweep's memory is set by this, not by its grid.
_BLOCK_CELLS = 1 << 16


def _row_blocks(gammas, betas) -> list[slice]:
    """Slices of whole gamma rows, about ``_BLOCK_CELLS`` cells each."""
    rows = max(1, _BLOCK_CELLS // len(betas))
    return [slice(start, start + rows) for start in range(0, len(gammas), rows)]


def _write_rows(fh, gammas, betas, value, names, codes) -> None:
    """The sweep CSV's rows of a block of whole gamma rows: ``value`` and
    ``codes`` are (len(gammas), len(betas)), and a cell's tag is
    ``names[code]``.  Each distinct float of the block is formatted once,
    and the rows are interleaved from those pieces and written as one string."""
    out = np.empty((len(gammas), len(betas), 4), dtype=object)
    out[..., 0] = (format_floats(gammas) + ",")[:, None]
    out[..., 1] = format_floats(betas) + ","
    out[..., 2] = format_floats(value)
    out[..., 3] = np.array([f",{name}\n" for name in names], dtype=object).take(codes)
    fh.write("".join(out.ravel().tolist()))


def _write_metadata(args, extra: dict) -> None:
    """The sidecar of ``args.out``: the tool, the command, every flag and ``extra``."""
    parameters = {k: v for k, v in vars(args).items() if k != "func"}
    meta = {"tool": "hbcycles", "version": __version__, "command": args.command,
            "parameters": _jsonable(parameters), **_jsonable(extra)}
    with open(str(args.out) + ".meta.json", "w", newline="") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True))
        fh.write("\n")


# Fixed palette so re-rendering a CSV is byte-stable.
_TAG_COLORS = {
    "Lazy": "#4c72b0",
    "Robust": "#dd8452",
    "KnifesEdge": "#55a868",
    "NoConvergence": "#eeeeee",
    "member": "#55a868",
    "none": "#eeeeee",
    "indeterminate": "#ffd92f",
    "inside": "#4c72b0",
    "outside": "#eeeeee",
    "both": "#55a868",
    "sls-only": "#c44e52",
    "cycle-only": "#a6bddb",
    "neither": "#eeeeee",
}


def render_svg(svg_path, gammas, betas, names, codes) -> None:
    """Filled-region raster of a sweep: the cell of ``gammas[i]`` and
    ``betas[j]`` gets the color of its tag ``names[codes[i, j]]``, rects in
    the CSV's row order, so the file is a pure function of the sweep's CSV.

    Rects are joined from prebuilt pieces one block of whole gamma rows at a
    time.  The legend lists the tags that some cell has, sorted by name."""
    # Each axis's sorted distinct values; -0.0 and 0.0 share a cell.
    (xs, xi), (ys, yi) = (np.unique(axis, return_inverse=True) for axis in (gammas, betas))
    cell_w, cell_h, legend_h = 4, 4, 18
    width, height = cell_w * len(xs), cell_h * len(ys)
    colors = [_TAG_COLORS.get(name, "#999999") for name in names]
    heads = np.array([f'<rect x="{i * cell_w}" y="' for i in xi.tolist()], dtype=object)
    # One tail per (beta row, tag): the rest of the rect and its line break.
    tails = np.array([f'{height - (j + 1) * cell_h}" width="{cell_w}" height="{cell_h}" '
                      f'fill="{color}"/>\n' for j in range(len(ys)) for color in colors],
                     dtype=object)
    legend = []
    for i, name in enumerate(sorted({names[k] for k in np.unique(codes).tolist()})):
        x = 4 + i * 110
        legend.append(f'<rect x="{x}" y="{height + 4}" width="10" height="10" '
                      f'fill="{_TAG_COLORS.get(name, "#999999")}"/>')
        legend.append(f'<text x="{x + 14}" y="{height + 13}" font-size="10" '
                      f'font-family="monospace">{name}</text>')
    with open(svg_path, "w", newline="") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height + legend_h}" shape-rendering="crispEdges">\n')
        for block in _row_blocks(gammas, betas):
            out = np.empty(codes[block].shape + (2,), dtype=object)
            out[..., 0] = heads[block, None]
            out[..., 1] = tails.take(yi * len(names) + codes[block])
            fh.write("".join(out.ravel().tolist()))
        fh.write("\n".join([*legend, "</svg>"]))
        fh.write("\n")


def _int_at_least(least: int, what: str):
    """The argparse type of an integer flag of at least ``least`` (``what``)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a nonnegative integer")
# A cycle period: the cycle LP and the K-gon counterexample need K >= 3.
_period = _int_at_least(3, "an integer of at least 3")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _smooth_radius(text: str):
    """'auto' or a positive finite support radius."""
    if text == "auto":
        return text
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _parse_noise(value: str, budget: float, flag: str) -> float:
    if value in ("within-thm53", "auto"):
        return budget
    try:
        level = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{flag} expects a number or 'within-thm53', got {value!r}")
    if not (math.isfinite(level) and level >= 0.0):
        raise argparse.ArgumentTypeError(
            f"{flag} must be a finite nonnegative number, got {value}")
    return level


def _noise_spec(args, budget: dict) -> NoiseSpec:
    """The perturbation the noise flags ask for.  'within-thm53' selects a
    channel's guaranteed-safe budget; an unset channel is noise-free.  The
    gamma and beta jitter share condition 2's budget: a jitter channel gets
    half of it when the other jitter flag is set, all of it otherwise."""
    jitter_share = 1.0 if None in (args.noise_gamma, args.noise_beta) else 0.5
    levels = []
    for channel, key, share in (("gamma", "gamma_jitter", jitter_share),
                                ("beta", "beta_jitter", jitter_share),
                                ("grad", "grad_noise", 1.0)):
        value = getattr(args, f"noise_{channel}")
        levels.append(0.0 if value is None else
                      _parse_noise(value, budget[key] * share, f"--noise-{channel}"))
    return NoiseSpec(args.noise_init or 0.0, *levels, args.noise_mode, args.seed)


def _cmd_rate(args) -> int:
    c = FunctionClass(args.mu, args.L)
    report = rate_on_quadratics(HbParams(args.gamma, args.beta), c)
    _emit_json({
        "gamma": args.gamma,
        "beta": args.beta,
        "mu": args.mu,
        "L": args.L,
        "rho": report.rho,
        "region": report.region.value,
        "reference": reference_rates(c),
    })
    return 0


def _sweep_grid(args, c: FunctionClass):
    beta_hi = args.beta_max
    gamma_hi = args.gamma_max
    if gamma_hi is None:
        gamma_hi = 2.0 * (1.0 + beta_hi) / c.ell
    gamma_lo = args.gamma_min if args.gamma_min is not None else gamma_hi / args.gamma_count
    # Finite bounds can still overflow: 2(1+beta)/L or a span past the
    # float range gives an infinite or NaN axis, rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        gammas = np.linspace(gamma_lo, gamma_hi, args.gamma_count)
        betas = np.linspace(args.beta_min, beta_hi, args.beta_count, endpoint=False)
    for name, axis in (("gamma", gammas), ("beta", betas)):
        if not np.isfinite(axis).all():
            hint = (f" (--gamma-max defaults to 2(1 + --beta-max)/L = {gamma_hi:g})"
                    if name == "gamma" and args.gamma_max is None else "")
            raise argparse.ArgumentTypeError(
                f"the {name} axis from --{name}-min/--{name}-max is not finite{hint}")
    return gammas, betas


def _cmd_sweep(args) -> int:
    c = FunctionClass(args.mu, args.L)
    if args.k_max < 3:
        raise argparse.ArgumentTypeError(f"--k-max must be at least 3, got {args.k_max}")
    if args.mode != "rate" and args.beta_min < 0:
        raise argparse.ArgumentTypeError("region sweeps are defined for beta >= 0")
    gammas, betas = _sweep_grid(args, c)
    # What the kernels would reject in the first block that reaches it is
    # rejected here, before the CSV is opened.
    if args.mode in ("rou-region", "sls-overlay") and (betas < 0.0).any():
        raise ValueError("cycling membership is only defined for beta >= 0")
    if (args.mode == "lp-region" and c.mu >= c.ell
            and in_cv_closure(gammas[:, None], betas, c).any()):
        raise ValueError("cycle feasibility needs mu < ell")

    extra = {"grid": {"gamma": [float(gammas[0]), float(gammas[-1]), len(gammas)],
                      "beta": [float(betas[0]), float(betas[-1]), len(betas)]},
             "label": args.label}
    counts = Counter()
    kept = np.empty((len(gammas), len(betas)), dtype=np.int8) if args.svg else None
    with open(args.out, "w", newline="") as fh:
        fh.write("gamma,beta,value,tag\n")
        # Each mode tags a cell with names[code].
        for block in _row_blocks(gammas, betas):
            g, b = np.meshgrid(gammas[block], betas, indexing="ij")
            if args.mode == "rate":
                value, codes = rate_grid(g, b, c)
                names = tuple(region.value for region in _REGION_BY_CODE)
            elif args.mode == "rou-region":
                member = member_any_grid(g, b, c, k_max=args.k_max)
                value = np.where(member > 0, member, math.nan)
                names, codes = ("none", "member"), member > 0
            elif args.mode == "ghadimi":
                value = np.broadcast_to(ghadimi_beta_bound(c, gammas[block])[:, None], g.shape)
                names, codes = ("outside", "inside"), (0.0 <= b) & (b < value)
            elif args.mode == "lp-region":
                period, unsure, pairs = _lp_region_chunk(g.ravel(), b.ravel(), c, args.k_max)
                counts.update(pairs)
                value = np.where(period > 0, period, math.nan).reshape(g.shape)
                names = ("none", "member", "indeterminate")
                codes = np.where(period > 0, 1, 2 * unsure).reshape(g.shape)
            else:  # sls-overlay
                value, codes = rate_grid(g, b, c)
                rho_target, in_sls = sublevel_set(value, codes, c, args.C)
                member = member_any_grid(g, b, c, k_max=args.k_max) > 0
                names, codes = ("neither", "cycle-only", "sls-only", "both"), 2 * in_sls + member
                counts.update(sls_cells=int(np.sum(in_sls)), overlap=int(np.sum(in_sls & ~member)))
            _write_rows(fh, gammas[block], betas, value, names, codes)
            if kept is not None:
                kept[block] = codes

    if args.mode == "lp-region":
        extra["lp_pairs"] = dict(counts)
    elif args.mode == "sls-overlay":
        extra["verdict"] = {
            "rho_target": rho_target,
            "sls_cells": counts["sls_cells"],
            "sls_outside_cycling_cells": counts["overlap"],
            "empty_intersection": counts["overlap"] == 0,
        }
    _write_metadata(args, extra)
    if kept is not None:
        render_svg(str(args.out) + ".svg", gammas, betas, names, kept)
    print(f"wrote {len(gammas) * len(betas)} rows to {args.out}")
    return 0


def _lp_region_chunk(gammas, betas, c, k_max):
    """Per cell of a block of the lp-region sweep, given as flat arrays, the
    first member period (0 for none) and whether a period was in doubt; and
    the block's per-pair counters.  The sweep runs in this process.

    Period by period over the cells still open: ``screen_periods`` proves a
    member or rules the period out where one entry of P decides, and
    ``lp_margin`` decides the rest, in period order, so the first member
    period is the smallest.  A period whose LP solve fails proves nothing
    either way: the cell is "indeterminate" unless a later period proves
    "member"; so is a cell with a margin too close to call.  One prior dual
    serves the block; it is created here, so nothing carries over between
    blocks, and a cell's tag does not depend on the blocks.
    """
    period = np.zeros(len(gammas), dtype=int)
    unsure = np.zeros(len(gammas), dtype=bool)
    counts = {"member_by_harmonic": 0, "ruled_out_by_row_dual": 0, "lp_margin_calls": 0}
    prior = []
    open_cells = np.flatnonzero(in_cv_closure(gammas, betas, c))
    for k in range(3, k_max + 1):
        member, ruled_out = screen_periods(gammas[open_cells], betas[open_cells], c, k)
        period[open_cells[member]] = k
        left = open_cells[~(member | ruled_out)]
        counts["member_by_harmonic"] += int(np.count_nonzero(member))
        counts["ruled_out_by_row_dual"] += int(np.count_nonzero(ruled_out))
        counts["lp_margin_calls"] += len(left)
        for i in left.tolist():
            try:
                margin = lp_margin(HbParams(float(gammas[i]), float(betas[i])), c, k, prior)
            except RuntimeError:
                unsure[i] = True  # no margin: at best indeterminate
                continue
            if margin <= FEASIBILITY_TOL:
                period[i] = k
            elif margin <= INDETERMINATE_TOL:
                unsure[i] = True
        open_cells = open_cells[period[open_cells] == 0]
    return period, unsure, counts


def _cmd_cycle_demo(args) -> int:
    ce = build_counterexample(HbParams(args.gamma, args.beta),
                              FunctionClass(args.mu, args.L), args.K)
    p, k, sc = ce.p, ce.k, ce.stability
    scale = args.scale
    out: dict = {"r_max": ce.r_max, "K": k, "kappa_p": sc.kappa_p, "rho_d": sc.rho_d,
                 "stability_region": sc.region_used}

    # The levels the run uses, once each keyword is resolved and shared; a
    # level of zero, given or resolved, is no noise.
    levels = {}
    if any(v is not None for v in
           (args.noise_init, args.noise_gamma, args.noise_beta, args.noise_grad)):
        budget = noise_budget(ce)
        spec = _noise_spec(args, budget)
        levels = {key: getattr(spec, key) for key in
                  ("init_radius", "gamma_jitter", "beta_jitter", "grad_noise")}
    noisy = any(levels.values())
    if noisy and (args.smooth or scale != 1.0):
        raise argparse.ArgumentTypeError(
            "noise flags apply to the exact counterexample run only")
    # The cycle verdict compares the trace's second half with its K-lag.
    if not noisy and args.steps < 2 * k:
        raise argparse.ArgumentTypeError(
            f"--steps must be at least 2K = {2 * k} for a noise-free run, got {args.steps}")

    if noisy:
        result = perturbed_run(ce, spec, args.steps)
        trace = result.trace
        out["stayed_in_tube"] = result.stayed_in_tube
        out["residual_decay_rate"] = result.residual_decay_rate
        out["guaranteed_bounds"] = budget
        out["noise_levels"] = levels
        cycle_pts = ce.cycle
    else:
        if args.smooth:
            eps = ce.r_max / 2.0 if args.smooth == "auto" else args.smooth
            sce = smooth_counterexample(ce, eps)
            oracle = dilate(sce, scale) if scale != 1.0 else sce
            out["smooth_epsilon"] = eps
            out["mass_defect"] = sce.mass_defect
            edge_mid = scale * 0.5 * (ce.hull[0] + ce.hull[1])
            out["tau_estimate"] = third_derivative_estimate(
                oracle.grad, edge_mid[None, :], h=0.05 * scale)
        else:
            oracle = CounterexampleFunction(ce)
            if scale != 1.0:
                oracle = dilate(oracle, scale)
        cycle_pts = scale * ce.cycle
        # Every oracle goes in whole: ``run`` steps its grad_xy in floats.
        trace = run(oracle, p, cycle_pts[0], cycle_pts[1], args.steps)
        # Dilation scales the cycle, its deviations and its diameter alike.
        is_cycle, max_dev = detect_cycle(trace, k, tol=args.tol * scale)
        out["verdict"] = "cycles" if is_cycle else "no-cycle"
        out["max_dev"] = float(np.max(cycle_distances(trace.iterates, cycle_pts)))
        out["k_lag_deviation"] = max_dev

    if args.out:
        write_trace_csv(trace, args.out, cycle=cycle_pts)
        _write_metadata(args, out)
    _emit_json(out)
    return 0


def _cmd_lp_check(args) -> int:
    c = FunctionClass(args.mu, args.L)
    p = HbParams(args.gamma, args.beta)
    margin, cert = lp_check(p, c, args.K)
    out = {"gamma": args.gamma, "beta": args.beta, "K": args.K,
           "margin": margin, "feasible": cert is not None}
    if cert is not None:
        grads = cycle_gradients(cert.points, p)
        res = interpolation_residuals(cert.points, grads, np.zeros(args.K), c)
        out["nu"] = cert.nu
        # The diagonal is identically zero; the pairs are the constraints.
        out["max_residual"] = float(res[~np.eye(args.K, dtype=bool)].max())
    _emit_json(out)
    return 0


def _cmd_robustness(args) -> int:
    ce = build_counterexample(HbParams(args.gamma, args.beta),
                              FunctionClass(args.mu, args.L), args.K)
    budget = noise_budget(ce)
    base = _noise_spec(args, budget)
    seeded = [replace(base, seed=args.seed + i) for i in range(args.runs)]
    _check_runs(ce, budget, seeded)

    # Observed tolerance: scale the gradient-noise budget up until the tube
    # breaks (the guarantee is sufficient, not necessary).  The factors run
    # unchecked in the seeded runs' batch; the answer is the last factor
    # before the first failure.
    factors = []
    factor = 2.0
    while factor <= args.max_overdrive:
        factors.append(factor)
        factor *= 2.0
    overdrive = [replace(base, grad_noise=budget["grad_noise"] * f, seed=args.seed)
                 for f in factors]
    # Factors past the first failure may grow without bound; their values
    # are never read.  The seeded rows meet the three conditions, so they
    # provably stay in the tube and never overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        runs = perturbed_runs(ce, seeded + overdrive, args.steps, strict=False)
    stayed = int(np.count_nonzero(runs.stayed_in_tube[:args.runs]))
    observed = 1.0
    for factor, ok in zip(factors, runs.stayed_in_tube[args.runs:]):
        if not ok:
            break
        observed = factor
    _emit_json({
        "runs": args.runs,
        "stayed_in_tube": stayed,
        "all_stayed": stayed == args.runs,
        "guaranteed_bounds": budget,
        "observed_grad_noise_overdrive_at_least": observed,
        "worst_tube_ratio": float(np.max(runs.max_dev[:args.runs]) / ce.r_max),
        "r_max": ce.r_max,
    })
    return 0


def _cmd_table4(args) -> int:
    c = FunctionClass(args.mu, args.L)
    _emit_json({"mu": args.mu, "L": args.L, "kappa": c.kappa,
                "rates": reference_rates(c)})
    return 0


def _add_class_flags(sp) -> None:
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--L", type=float, required=True)


def _add_point_flags(sp, period: bool = False) -> None:
    """--gamma, --beta, the class and, with ``period``, the cycle period --K."""
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    _add_class_flags(sp)
    if period:
        sp.add_argument("--K", type=_period, required=True, help="cycle period, at least 3")


def _add_noise_flags(sp, init, level) -> None:
    """The perturbation flags, with the command's defaults for --noise-init
    and the three channel levels.  A level is a number, or 'within-thm53'
    ('auto') for the guaranteed-safe budget (see ``_noise_spec``)."""
    sp.add_argument("--noise-init", type=_nonnegative_float, default=init,
                    help="initial offset as a fraction of kappa_P * r_max")
    for channel in ("gamma", "beta", "grad"):
        sp.add_argument(f"--noise-{channel}", default=level)
    sp.add_argument("--noise-mode", choices=("uniform-random", "adversarial-sign"),
                    default="uniform-random")
    sp.add_argument("--seed", type=_nonnegative_int, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after that."""
    parser = argparse.ArgumentParser(
        prog="hbcycles",
        description="Convergence and cycling landscape of the heavy-ball method")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rate", help="rate and region at one parameter point")
    _add_point_flags(sp)
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("sweep", help="grid sweep over (gamma, beta)")
    sp.add_argument("--mode", choices=SWEEP_MODES, required=True)
    _add_class_flags(sp)
    for axis, lo, hi in (("gamma", None, None), ("beta", 0.0, 1.0)):
        sp.add_argument(f"--{axis}-min", type=_finite_float, default=lo)
        sp.add_argument(f"--{axis}-max", type=_finite_float, default=hi)
        sp.add_argument(f"--{axis}-count", type=_positive_int, default=200)
    sp.add_argument("--k-max", type=int, default=100, help="largest period, at least 3")
    sp.add_argument("--C", type=_finite_float, default=50.0 / 3.0 + 0.01,
                    help="rate constant for the sls-overlay mode")
    sp.add_argument("--label", default="")
    sp.add_argument("--workers", type=_positive_int, default=1,
                    help="accepted for compatibility and echoed in the sidecar; "
                         "lp-region always runs in this process")
    sp.add_argument("--out", required=True)
    sp.add_argument("--svg", action="store_true")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("cycle-demo",
                        help="simulate the counterexample cycle, optionally "
                             "smoothed, dilated or perturbed")
    _add_point_flags(sp, period=True)
    sp.add_argument("--steps", type=_positive_int, default=10000)
    sp.add_argument("--tol", type=_nonnegative_float, default=1e-8,
                    help="cycle tolerance at unit scale; --lambda scales it")
    sp.add_argument("--smooth", type=_smooth_radius, default=None,
                    help="mollifier support radius, or 'auto' for r_max/2")
    sp.add_argument("--lambda", "--scale", type=float, default=1.0, dest="scale",
                    help="dilation factor applied to the function and cycle")
    _add_noise_flags(sp, init=None, level=None)
    sp.add_argument("--out", default=None, help="trace CSV path")
    sp.set_defaults(func=_cmd_cycle_demo)

    sp = sub.add_parser("lp-check", help="linear-feasibility cycle test at one point")
    _add_point_flags(sp, period=True)
    sp.set_defaults(func=_cmd_lp_check)

    sp = sub.add_parser("robustness", help="seeded perturbed runs around the cycle")
    _add_point_flags(sp, period=True)
    sp.add_argument("--runs", type=_positive_int, default=100)
    sp.add_argument("--steps", type=_positive_int, default=1000)
    _add_noise_flags(sp, init=0.5, level="within-thm53")
    sp.add_argument("--max-overdrive", type=_finite_float, default=64.0)
    sp.set_defaults(func=_cmd_robustness)

    sp = sub.add_parser("table4", help="reference rates of standard tunings")
    _add_class_flags(sp)
    sp.set_defaults(func=_cmd_table4)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (argparse.ArgumentTypeError, OSError) as exc:
        # An OSError is an --out path that cannot be written; it names the path.
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
