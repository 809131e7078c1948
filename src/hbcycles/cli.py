"""Command-line surface: point queries, grid sweeps, demos, robustness runs.

Subcommands: rate, sweep, cycle-demo, lp-check, robustness, table4.
All data outputs are deterministic: CSV with 17 significant digits and UNIX
newlines, JSON metadata sidecars with sorted keys and a full parameter
echo, and SVG renderings that are pure functions of the CSV.
Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
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
)
from .hb_engine import (
    NoiseSpec,
    detect_cycle,
    format_floats,
    noise_budget,
    perturbed_run,
    perturbed_runs,
    run,
    stability_constants,
    write_trace_csv,
)
from .quad_rates import (
    _REGION_BY_CODE,
    FunctionClass,
    HbParams,
    NO_CONVERGENCE,
    ghadimi_beta_bound,
    in_cv_closure,
    rate_grid,
    rate_on_quadratics,
)
from .rate_table import reference_rates
from .rou_region import (
    CounterexampleFunction,
    build_counterexample,
    member_any_grid,
    polynomial_value,
    rou_cycle,
    rou_member,
)
from .smoothing import (
    dilate,
    smooth_counterexample,
    third_derivative_estimate,
)

_REGION_NAMES = np.array([region.value for region in _REGION_BY_CODE])

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


def _args_echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _write_csv(path, gammas, betas, value, tag) -> None:
    """Rows gamma-major: ``value`` and ``tag`` are (len(gammas), len(betas))."""
    bs = format_floats(betas).tolist()
    with open(path, "w", newline="") as fh:
        fh.write("gamma,beta,value,tag\n")
        for g, vs, ts in zip(format_floats(gammas).tolist(), format_floats(value).tolist(),
                             tag.tolist()):
            fh.writelines([f"{g},{b},{v},{t}\n" for b, v, t in zip(bs, vs, ts)])


def _write_metadata(path, command: str, parameters: dict, extra: dict | None = None) -> None:
    meta = {
        "tool": "hbcycles",
        "version": __version__,
        "command": command,
        "parameters": _jsonable(parameters),
    }
    if extra:
        meta.update(_jsonable(extra))
    with open(path, "w", newline="") as fh:
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


def render_svg(csv_path, svg_path, cells=None) -> None:
    """Filled-region raster of a sweep CSV; a pure function of the file.

    ``cells``, the file's gamma, beta and tag columns as arrays, skips reading it."""
    if cells is None:
        with open(csv_path) as fh:
            if fh.readline().strip() != "gamma,beta,value,tag":
                raise ValueError(f"unexpected CSV header in {csv_path}")
            rows = [line.rstrip("\n").split(",") for line in fh]
        cols = np.array(rows, str).reshape(len(rows), 4)
        cells = (cols[:, 0].astype(float), cols[:, 1].astype(float), cols[:, 3])
    # Each column's sorted distinct values; -0.0 and 0.0 share a cell.
    (xs, xi), (ys, yi), (tags, ti) = (np.unique(col, return_inverse=True) for col in cells)
    cell_w, cell_h, legend_h = 4, 4, 18
    width, height = cell_w * len(xs), cell_h * len(ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height + legend_h}" shape-rendering="crispEdges">'
    ]
    x_text = [f'<rect x="{i * cell_w}" y="' for i in range(len(xs))]
    y_text = [f'{height - (j + 1) * cell_h}" width="{cell_w}" height="{cell_h}" fill="'
              for j in range(len(ys))]
    colors = [_TAG_COLORS.get(tag, "#999999") for tag in tags.tolist()]
    parts += [x_text[i] + y_text[j] + colors[t] + '"/>'
              for i, j, t in zip(xi.tolist(), yi.tolist(), ti.tolist())]
    for i, (tag, color) in enumerate(zip(tags.tolist(), colors)):
        x = 4 + i * 110
        parts.append(f'<rect x="{x}" y="{height + 4}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{x + 14}" y="{height + 13}" font-size="10" '
                     f'font-family="monospace">{tag}</text>')
    parts.append("</svg>")
    with open(svg_path, "w", newline="") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


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
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{flag} expects a number or 'within-thm53', got {value!r}")


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
        print(f"error: --k-max must be at least 3, got {args.k_max}", file=sys.stderr)
        return 2
    if args.mode != "rate" and args.beta_min < 0:
        print("error: region sweeps are defined for beta >= 0", file=sys.stderr)
        return 2
    gammas, betas = _sweep_grid(args, c)
    g, b = np.meshgrid(gammas, betas, indexing="ij")

    extra = {"grid": {"gamma": [float(gammas[0]), float(gammas[-1]), len(gammas)],
                      "beta": [float(betas[0]), float(betas[-1]), len(betas)]},
             "label": args.label}

    if args.mode == "rate":
        value, codes = rate_grid(g, b, c)
        tag = _REGION_NAMES[codes]
    elif args.mode == "rou-region":
        member = member_any_grid(g, b, c, k_max=args.k_max)
        value = np.where(member > 0, member, math.nan)
        tag = np.where(member > 0, "member", "none")
    elif args.mode == "ghadimi":
        value = np.broadcast_to([[ghadimi_beta_bound(c, x)] for x in gammas.tolist()], g.shape)
        tag = np.where((0.0 < g) & (g < 2.0 / c.ell) & (0.0 <= b) & (b < value),
                       "inside", "outside")
    elif args.mode == "lp-region":
        rows = _lp_region_rows(g, b, c, args.k_max, args.workers)
        value = np.array([row[2] for row in rows], dtype=float).reshape(g.shape)
        tag = np.array([row[3] for row in rows]).reshape(g.shape)
    else:  # sls-overlay
        value, codes = rate_grid(g, b, c)
        ck = args.C * c.kappa
        rho_target = (1.0 - ck) / (1.0 + ck)
        in_sls = (codes != NO_CONVERGENCE) & (value <= rho_target)
        member = member_any_grid(g, b, c, k_max=args.k_max) > 0
        tag = np.where(in_sls & member, "both",
                       np.where(in_sls, "sls-only",
                                np.where(member, "cycle-only", "neither")))
        overlap = int(np.sum(in_sls & ~member))
        extra["verdict"] = {
            "rho_target": rho_target,
            "sls_cells": int(np.sum(in_sls)),
            "sls_outside_cycling_cells": overlap,
            "empty_intersection": overlap == 0,
        }

    _write_csv(args.out, gammas, betas, value, tag)
    _write_metadata(str(args.out) + ".meta.json", "sweep", _args_echo(args), extra)
    if args.svg:
        render_svg(args.out, str(args.out) + ".svg", (g.ravel(), b.ravel(), tag.ravel()))
    print(f"wrote {g.size} rows to {args.out}")
    return 0


def _lp_region_cell(task, duals=None):
    """Row of one lp-region cell; ``duals`` is the dual store ``lp_margin``
    screens with (it changes which periods are solved, never the row).

    A period whose LP solve fails proves nothing either way: the cell is
    "indeterminate" unless a later period proves "member"."""
    gamma, beta, mu, ell, k_max = task
    c = FunctionClass(mu, ell)
    if not in_cv_closure(gamma, beta, c):
        return (gamma, beta, math.nan, "none")
    p = HbParams(gamma, beta)
    best = math.inf
    for k in range(3, k_max + 1):
        try:
            margin = lp_margin(p, c, k, duals)
        except RuntimeError:
            best = -math.inf  # no margin: at best indeterminate
            continue
        best = min(best, margin)
        if margin <= FEASIBILITY_TOL:
            return (gamma, beta, k, "member")
    if best <= INDETERMINATE_TOL:
        return (gamma, beta, math.nan, "indeterminate")
    return (gamma, beta, math.nan, "none")


def _lp_region_chunk(tasks):
    # One dual store per chunk of neighbouring cells, created here: nothing
    # carries over between chunks, sweeps or worker processes.
    duals = {}
    return [_lp_region_cell(task, duals) for task in tasks]


def _lp_region_rows(g, b, c, k_max, workers=1):
    # The pool maps over contiguous chunks and preserves their order; since
    # screening never changes a row, the rows are identical at any worker
    # count.  Four chunks per worker balance the load.
    tasks = [(gamma, beta, c.mu, c.ell, k_max)
             for gamma, beta in zip(g.ravel().tolist(), b.ravel().tolist())]
    if workers <= 1:
        return _lp_region_chunk(tasks)
    size = -(-len(tasks) // (4 * workers))
    chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(_lp_region_chunk, chunks) for row in rows]


def _cmd_cycle_demo(args) -> int:
    c = FunctionClass(args.mu, args.L)
    p = HbParams(args.gamma, args.beta)
    k = args.K
    if not rou_member(p, c, k):
        val = polynomial_value(args.gamma, args.beta, k, c)
        print(f"error: ({args.gamma}, {args.beta}) is not a period-{k} member; "
              f"membership polynomial = {val:.6g} > 0", file=sys.stderr)
        return 3
    ce = build_counterexample(p, c, k)
    cyc = rou_cycle(k)
    scale = args.scale
    out: dict = {"r_max": ce.r_max, "K": k}

    noisy = any(v not in (None, 0.0) for v in
                (args.noise_init, args.noise_gamma, args.noise_beta, args.noise_grad))
    if noisy and (args.smooth or scale != 1.0):
        print("error: noise flags apply to the exact counterexample run only",
              file=sys.stderr)
        return 2

    try:
        sc = stability_constants(p, c.mu)
        out["kappa_p"] = sc.kappa_p
        out["rho_d"] = sc.rho_d
        out["stability_region"] = sc.region_used
    except ValueError:
        sc = None

    if noisy:
        budget = noise_budget(p, c, ce)
        noise = NoiseSpec(
            init_radius=args.noise_init or 0.0,
            gamma_jitter=_parse_noise(args.noise_gamma, budget["gamma_jitter"],
                                      "--noise-gamma") if args.noise_gamma else 0.0,
            beta_jitter=_parse_noise(args.noise_beta, budget["beta_jitter"],
                                     "--noise-beta") if args.noise_beta else 0.0,
            grad_noise=_parse_noise(args.noise_grad, budget["grad_noise"],
                                    "--noise-grad") if args.noise_grad else 0.0,
            mode=args.noise_mode,
            seed=args.seed,
        )
        result = perturbed_run(ce, c, p, k, noise, args.steps)
        trace = result.trace
        out["stayed_in_tube"] = result.stayed_in_tube
        out["residual_decay_rate"] = result.residual_decay_rate
        out["guaranteed_bounds"] = budget
        cycle_pts = cyc.points
    else:
        if args.smooth:
            eps = ce.r_max / 2.0 if args.smooth == "auto" else args.smooth
            sce = smooth_counterexample(ce, c, eps)
            fn = dilate(sce, scale) if scale != 1.0 else sce
            out["smooth_epsilon"] = eps
            out["mass_defect"] = sce.mass_defect
            edge_mid = scale * 0.5 * (ce.hull[0] + ce.hull[1])
            out["tau_estimate"] = third_derivative_estimate(
                fn.grad, edge_mid[None, :], h=0.05 * scale)
        else:
            base = CounterexampleFunction(ce, c)
            fn = dilate(base, scale) if scale != 1.0 else base
        cycle_pts = scale * cyc.points
        trace = run(fn.grad, p, cycle_pts[0], cycle_pts[1], args.steps)
        # Dilation scales the cycle, its deviations and its diameter alike.
        is_cycle, max_dev = detect_cycle(trace, k, tol=args.tol * scale)
        out["verdict"] = "cycles" if is_cycle else "no-cycle"
        out["max_dev"] = float(np.max(np.linalg.norm(
            trace.iterates - cycle_pts[np.arange(len(trace.iterates)) % k], axis=1)))
        out["k_lag_deviation"] = max_dev

    if args.out:
        write_trace_csv(trace, args.out, cycle=cycle_pts)
        _write_metadata(str(args.out) + ".meta.json", "cycle-demo", _args_echo(args), out)
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
        res = interpolation_residuals(cert.points, grads,
                                      np.zeros(args.K), c)
        out["nu"] = cert.nu
        # The diagonal is identically zero; the pairs are the constraints.
        out["max_residual"] = float(res[~np.eye(args.K, dtype=bool)].max())
    _emit_json(out)
    return 0


def _cmd_robustness(args) -> int:
    c = FunctionClass(args.mu, args.L)
    p = HbParams(args.gamma, args.beta)
    if not rou_member(p, c, args.K):
        print("error: not a cycling member point", file=sys.stderr)
        return 3
    ce = build_counterexample(p, c, args.K)
    budget = noise_budget(p, c, ce)
    base = NoiseSpec(
        init_radius=args.noise_init,
        gamma_jitter=_parse_noise(args.noise_gamma, budget["gamma_jitter"] / 2,
                                  "--noise-gamma"),
        beta_jitter=_parse_noise(args.noise_beta, budget["beta_jitter"] / 2,
                                 "--noise-beta"),
        grad_noise=_parse_noise(args.noise_grad, budget["grad_noise"],
                                "--noise-grad"),
        mode=args.noise_mode,
        seed=0,
    )
    runs = perturbed_runs(ce, c, p, args.K,
                          [replace(base, seed=args.seed + i) for i in range(args.runs)],
                          args.steps)
    stayed = int(np.count_nonzero(runs.stayed_in_tube))

    # Observed tolerance: scale the gradient-noise budget up until the tube
    # breaks (the guarantee is sufficient, not necessary).  All factors run
    # as one batch; the answer is the last factor before the first failure.
    factors = []
    factor = 2.0
    while factor <= args.max_overdrive:
        factors.append(factor)
        factor *= 2.0
    observed = 1.0
    if factors:
        # Factors past the first failure may grow without bound; their
        # values are never read.
        with np.errstate(over="ignore", invalid="ignore"):
            overdrive = perturbed_runs(
                ce, c, p, args.K,
                [replace(base, grad_noise=budget["grad_noise"] * f, seed=args.seed)
                 for f in factors],
                args.steps, strict=False)
        for factor, ok in zip(factors, overdrive.stayed_in_tube):
            if not ok:
                break
            observed = factor
    _emit_json({
        "runs": args.runs,
        "stayed_in_tube": stayed,
        "all_stayed": stayed == args.runs,
        "guaranteed_bounds": budget,
        "observed_grad_noise_overdrive_at_least": observed,
        "worst_tube_ratio": float(np.max(runs.max_dev) / ce.r_max),
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


def _add_point_flags(sp) -> None:
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    _add_class_flags(sp)


def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--gamma-min", type=_finite_float, default=None)
    sp.add_argument("--gamma-max", type=_finite_float, default=None)
    sp.add_argument("--gamma-count", type=_positive_int, default=200)
    sp.add_argument("--beta-min", type=_finite_float, default=0.0)
    sp.add_argument("--beta-max", type=_finite_float, default=1.0)
    sp.add_argument("--beta-count", type=_positive_int, default=200)
    sp.add_argument("--k-max", type=int, default=100, help="largest period, at least 3")
    sp.add_argument("--C", type=_finite_float, default=50.0 / 3.0 + 0.01,
                    help="rate constant for the sls-overlay mode")
    sp.add_argument("--label", default="")
    sp.add_argument("--workers", type=_positive_int, default=1,
                    help="worker processes for the lp-region mode")
    sp.add_argument("--out", required=True)
    sp.add_argument("--svg", action="store_true")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("cycle-demo",
                        help="simulate the counterexample cycle, optionally "
                             "smoothed, dilated or perturbed")
    _add_point_flags(sp)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--steps", type=_positive_int, default=10000)
    sp.add_argument("--tol", type=_nonnegative_float, default=1e-8,
                    help="cycle tolerance at unit scale; --lambda scales it")
    sp.add_argument("--smooth", type=_smooth_radius, default=None,
                    help="mollifier support radius, or 'auto' for r_max/2")
    # Noise flags take a number; 'within-thm53'/'auto' selects the full
    # guaranteed-safe per-channel budget.
    sp.add_argument("--lambda", "--scale", type=float, default=1.0, dest="scale",
                    help="dilation factor applied to the function and cycle")
    sp.add_argument("--noise-init", type=float, default=None,
                    help="initial offset as a fraction of kappa_P * r_max")
    sp.add_argument("--noise-gamma", default=None)
    sp.add_argument("--noise-beta", default=None)
    sp.add_argument("--noise-grad", default=None)
    sp.add_argument("--noise-mode", choices=("uniform-random", "adversarial-sign"),
                    default="uniform-random")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="trace CSV path")
    sp.set_defaults(func=_cmd_cycle_demo)

    sp = sub.add_parser("lp-check", help="linear-feasibility cycle test at one point")
    _add_point_flags(sp)
    sp.add_argument("--K", type=int, required=True)
    sp.set_defaults(func=_cmd_lp_check)

    sp = sub.add_parser("robustness", help="seeded perturbed runs around the cycle")
    _add_point_flags(sp)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--runs", type=_positive_int, default=100)
    sp.add_argument("--steps", type=_positive_int, default=1000)
    sp.add_argument("--noise-init", type=float, default=0.5)
    sp.add_argument("--noise-gamma", default="within-thm53")
    sp.add_argument("--noise-beta", default="within-thm53")
    sp.add_argument("--noise-grad", default="within-thm53")
    sp.add_argument("--noise-mode", choices=("uniform-random", "adversarial-sign"),
                    default="uniform-random")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-overdrive", type=_finite_float, default=64.0)
    sp.set_defaults(func=_cmd_robustness)

    sp = sub.add_parser("table4", help="reference rates of standard tunings")
    _add_class_flags(sp)
    sp.set_defaults(func=_cmd_table4)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
