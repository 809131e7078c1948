"""The traced benchmark's patch sites against the program.

``bench/tracing.py`` wraps module globals by name; a renamed function or a
call that stops going through the patched global would silently zero a
layer that the traced run requires.  The module is loaded by file path, as
``bench/`` is not a package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import hbcycles.cli as cli
import hbcycles.cycle_lp as cycle_lp
from hbcycles.quad_rates import FunctionClass, HbParams

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACING = _BENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_site_resolves(tracing):
    for module_name, attr, _ in tracing.PATCH_SITES:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_unscreened_lp_margin_passes_once_through_lift_matrices(tracing):
    original = cycle_lp.lift_matrices
    with tracing.patched(tracing.Tracer()) as tracer:
        cycle_lp.lp_margin(HbParams(3.5, 0.75), FunctionClass(0.005, 1.0), 7)
    assert cycle_lp.lift_matrices is original
    assert tracer.calls["cycle_lp.lift_matrices"] == 1
    assert tracer.calls["cycle_lp.build_lp_matrix"] == 1
    assert tracer.total["cycle_lp.lift_matrices"] > 0.0


def test_bench_lp_sweep_reaches_every_traced_lp_layer(tracing, tmp_path, capsys):
    # The benchmark's lp-sweep grid: the screens decide most pairs, and the
    # few left must still pass through every layer the traced run requires.
    argv = ["sweep", "--mode", "lp-region", "--mu", "0.01", "--L", "1",
            "--gamma-count", "16", "--beta-count", "16", "--k-max", "25",
            "--workers", "1", "--out", str(tmp_path / "lp.csv")]
    with tracing.patched(tracing.Tracer()) as tracer:
        assert cli.main(argv) == 0
    capsys.readouterr()
    for span in ("cycle_lp.lp_margin", "cycle_lp.build_lp_matrix",
                 "cycle_lp.lift_matrices", "simplex.solve_canonical"):
        assert tracer.calls[span] >= 1, span


@pytest.mark.parametrize("workload", ["tube", "smooth-cycle"])
def test_bench_heavy_ball_commands_reach_every_traced_layer(workload, tmp_path, capsys,
                                                            monkeypatch):
    # The benchmark's own commands and required layers, traced as its
    # rounds are: a kernel that bypasses a patched global (such as an
    # inlined projection) zeroes a layer there, and fails the traced run.
    monkeypatch.syspath_prepend(str(_BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", _BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", bench_run)  # for its dataclasses
    spec.loader.exec_module(bench_run)
    bench = bench_run.WORKLOADS[workload]
    tracer = bench_run.tracing.Tracer()
    main = tracer.wrap("cli", cli.main)
    with bench_run.tracing.patched(tracer):
        for command in bench.commands(0, tmp_path):
            assert main(command.argv) == 0, command.name
    capsys.readouterr()
    values = tracer.layer_values()
    assert values["rou_region.polygon_project_batch.points"] > 0
    assert tracer.calls["hb_engine.noise_budget" if workload == "tube"
                        else "smoothing.smoothed_grad"] > 0
    for name in bench.layers:
        if name != "cli.rows_written":  # counted from the output files
            assert values[name] > 0, name
