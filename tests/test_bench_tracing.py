"""The traced benchmark's patch sites against the program.

``bench/tracing.py`` wraps module globals by name; a renamed function or a
call that stops going through the patched global would silently zero a
layer that the traced run requires.  The module is loaded by file path, as
``bench/`` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import hbcycles.cycle_lp as cycle_lp
from hbcycles.quad_rates import FunctionClass, HbParams

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
