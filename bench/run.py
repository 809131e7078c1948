"""Benchmark of the hbcycles command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's CLI commands run in this
process through ``hbcycles.cli.main(argv)`` with ``--workers 1``, in whole
rounds, for about S seconds; then their outputs are checked against the
oracles in ``oracles.py``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine has two cores and the benchmark one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from clock import ContentionClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 7
PROBE_INTERVAL_S = 0.02

# The counterexample point of the tube and smooth-cycle workloads.
POINT = ["--gamma", "3.3", "--beta", "0.75", "--mu", "0.005", "--L", "1", "--K", "7"]
SMOOTH_STEPS = 500
TUBE_RUNS = 100


@dataclass
class Command:
    name: str
    argv: list
    ops: int  # cells, seeded runs or trace steps


@dataclass
class Workload:
    name: str
    commands: callable   # (seed, out_dir) -> list[Command]
    check: callable      # (report, out_dir, printed stdout by command, seed) -> None
    layers: tuple        # per-layer metrics that must read nonzero


def _lp_commands(seed, out):
    return [Command("lp", ["sweep", "--mode", "lp-region", "--mu", "0.01", "--L", "1",
                           "--gamma-count", "16", "--beta-count", "16", "--k-max", "25",
                           "--workers", "1", "--out", str(out / "lp.csv")], 256)]


def _tube_commands(seed, out):
    return [
        Command("robustness", ["robustness", *POINT, "--runs", str(TUBE_RUNS),
                               "--seed", str(seed)], TUBE_RUNS),
        Command("decay", ["cycle-demo", *POINT, "--noise-init", "0.9", "--seed", str(seed),
                          "--steps", "2500", "--out", str(out / "decay.csv")], 1),
    ]


def _smooth_commands(seed, out):
    return [Command(f"smooth-{lam}",
                    ["cycle-demo", *POINT, "--smooth", "auto", "--lambda", lam,
                     "--steps", str(SMOOTH_STEPS), "--out", str(out / f"smooth-{lam}.csv")],
                    SMOOTH_STEPS)
            for lam in ("1", "10")]


def _landscape_commands(seed, out):
    def sweep(name, mode, mu, ell, n, *extra):
        return Command(name, ["sweep", "--mode", mode, "--mu", mu, "--L", ell,
                              "--gamma-count", str(n), "--beta-count", str(n),
                              "--out", str(out / f"{name}.csv"), *extra], n * n)
    return [
        sweep("overlay-3", "sls-overlay", "1e-3", "1", 300),
        sweep("overlay-4", "sls-overlay", "1e-4", "1", 300),
        sweep("rate", "rate", "1", "25", 400, "--svg"),
        sweep("rou", "rou-region", "0.01", "1", 400),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("lp-sweep", _lp_commands, checks.check_lp_sweep, (
        "cycle_lp.lp_margin.calls", "cycle_lp.lp_margin.s", "cycle_lp.build_lp_matrix.s",
        "cycle_lp.lift_matrices.s", "simplex.solve_canonical.calls",
        "simplex.solve_canonical.s", "simplex.pivots", "cli.rows_written", "cli.self_s")),
    Workload("tube", _tube_commands, checks.check_tube, (
        "rou_region.polygon_project_batch.calls", "rou_region.polygon_project_batch.s",
        "rou_region.polygon_project_batch.points", "hb_engine.perturbed_run.calls",
        "hb_engine.perturbed_run.self_s", "hb_engine.noise_budget.calls",
        "rou_region.build_counterexample.s", "cli.rows_written", "cli.self_s")),
    Workload("smooth-cycle", _smooth_commands, checks.check_smooth, (
        "rou_region.polygon_project_batch.calls", "rou_region.polygon_project_batch.s",
        "rou_region.polygon_project_batch.points", "hb_engine.run.self_s",
        "smoothing.smoothed_grad.calls", "smoothing.smoothed_grad.self_s",
        "smoothing.smooth_counterexample.s", "smoothing.third_derivative_estimate.s",
        "rou_region.build_counterexample.s", "cli.rows_written", "cli.self_s")),
    Workload("landscape", _landscape_commands, checks.check_landscape, (
        "rou_region.member_any_grid.s", "quad_rates.rate_grid.s", "cli.render_svg.s",
        "cli.rows_written", "cli.self_s")),
)}


@dataclass
class Round:
    ref: float = 0.0   # reference seconds (see clock.py) of the CLI calls
    wall: float = 0.0
    failed: int = 0
    printed: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    rows: int = 0
    layers: dict | None = None


def _fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def measure_setup() -> tuple[float, float]:
    """Median reference and wall seconds of ``import hbcycles.cli``, each in
    a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    refs, walls = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "clock.py")], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"cannot import hbcycles.cli from {SRC}:\n{proc.stderr.strip()}")
        ref, wall, path = proc.stdout.split(maxsplit=2)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            _fail(f"hbcycles.cli resolved to {path.strip()}, outside {SRC}")
        refs.append(float(ref))
        walls.append(float(wall))
    return statistics.median(refs), statistics.median(walls)


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        import hbcycles.cli as cli
    except ImportError as exc:
        _fail(f"cannot import hbcycles.cli from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        _fail(f"hbcycles.cli resolved to {cli.__file__}, outside {SRC}")
    return cli


def _digest(path: Path) -> tuple[str, int]:
    """SHA-256 of a file and, for a CSV, its number of data rows."""
    data = path.read_bytes()
    rows = data.count(b"\n") - 1 if path.suffix == ".csv" else 0
    return hashlib.sha256(data).hexdigest(), rows


def run_round(cli, commands, out: Path, clock, tracer=None) -> Round:
    """Run every command once; time only the CLI calls."""
    rnd = Round()
    main = cli.main if tracer is None else tracer.wrap("cli", cli.main)
    patch = tracing.patched(tracer) if tracer is not None else contextlib.nullcontext()
    with patch:
        for cmd in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            mark = clock.mark()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(cmd.argv)
            except Exception as exc:  # a crash fails the command's operations
                code = f"{type(exc).__name__}: {exc}"
            ref, wall = clock.since(mark)
            rnd.ref += ref
            rnd.wall += wall
            rnd.printed[cmd.name] = stdout.getvalue()
            if code != 0:
                rnd.failed += cmd.ops
                print(f"bench: {cmd.name} failed ({code}): {stderr.getvalue().strip()}",
                      file=sys.stderr)
    for path in sorted(out.iterdir()):
        rnd.digests[path.name], rows = _digest(path)
        rnd.rows += rows
    if tracer is not None:
        rnd.layers = tracer.layer_values()
        rnd.layers["cli.rows_written"] = rnd.rows
    return rnd


def measure(cli, workload: Workload, seed: int, seconds: float, traced: bool, out: Path):
    """Whole rounds until the next would overrun ``seconds``.

    A traced run alternates untraced and traced rounds and keeps going until
    it has at least one of each.
    """
    commands = workload.commands(seed, out)
    ops = sum(c.ops for c in commands)
    rounds = []
    start = time.perf_counter()
    with ContentionClock(PROBE_INTERVAL_S) as clock:
        while True:
            tracer = tracing.Tracer() if traced and len(rounds) % 2 == 1 else None
            rounds.append(run_round(cli, commands, out, clock, tracer))
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.wall for r in rounds)
            if traced and len(rounds) < 2:
                continue
            if elapsed + typical > seconds:
                break
    return ops, rounds


def end_to_end(ops: int, rounds, setup_s: float) -> dict:
    ref = statistics.median(r.ref for r in rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ops_per_s": {"value": ops / ref, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(workload: Workload, rounds, rep) -> dict:
    traced = [r for r in rounds if r.layers is not None]
    plain = [r for r in rounds if r.layers is None]
    values = {name: statistics.median(r.layers[name] for r in traced)
              for name in tracing.LAYER_METRICS if name != "trace.overhead"}
    values["trace.overhead"] = (statistics.median(r.ref for r in traced)
                                / statistics.median(r.ref for r in plain))
    for name in workload.layers:
        rep.expect(values[name] > 0, f"trace: layer metric {name} reads zero")
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in tracing.LAYER_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]

    setup_s, setup_wall = measure_setup() if not args.trace else (None, None)
    cli = import_cli()
    out = OUT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        ops, rounds = measure(cli, workload, args.seed, args.seconds, bool(args.trace), out)
        rep = checks.Report()
        metrics = (per_layer(workload, rounds, rep) if args.trace
                   else end_to_end(ops, rounds, setup_s))
        last = rounds[-1]
        for r in rounds:
            rep.expect(r.digests == last.digests, "outputs differ between rounds")
        if last.failed == 0:
            try:
                workload.check(rep, out, last.printed, args.seed)
            except Exception:  # a check that cannot read an output fails the run
                traceback.print_exc()
                rep.expect(False, f"{workload.name}: check raised")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            OUT.rmdir()
    for message in rep.failures:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "rounds": len(rounds),
                      "round_ref_s": [r.ref for r in rounds],
                      "round_wall_s": [r.wall for r in rounds],
                      "setup_wall_s": setup_wall, "notes": rep.notes}, default=float))
    print(json.dumps({
        "correct": not rep.failures,
        "attempted": ops * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
