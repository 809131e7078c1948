"""Convergence and cycling landscape of the heavy-ball method.

Exact worst-case rates on quadratics, the roots-of-unity cycling region
with explicit piecewise-quadratic counterexamples, a linear-feasibility
test for general cycles, a simulation/robustness harness, and smoothed
(Hessian-Lipschitz) counterexamples.
"""

__version__ = "0.1.0"

from .quad_rates import (
    FunctionClass,
    HbParams,
    LevelSetTriangle,
    RateReport,
    Region,
    ghadimi_contains,
    ghadimi_optimum,
    level_set,
    optimal_tuning,
    rate_on_quadratics,
    sublevel_contains,
)
from .rou_region import (
    CounterExample,
    CounterexampleFunction,
    CycleQuadratic,
    build_counterexample,
    eval_counterexample,
    incompatibility_scan,
    membership_polynomial,
    rou_cycle,
    rou_member,
    rou_member_any,
)
from .cycle_lp import (
    CycleCertificate,
    cycle_gradients,
    decompose_circulant,
    harmonic_gram,
    interpolation_residuals,
    lift_matrices,
    lp_feasible,
    symmetrize_gram,
)
from .hb_engine import (
    NoiseSpec,
    SimTrace,
    detect_cycle,
    estimate_rate,
    perturbed_run,
    perturbed_runs,
    run,
    stability_constants,
)
from .smoothing import (
    DilatedFunction,
    Mollifier,
    SmoothedCounterExample,
    cycle_check_smoothed,
    dilate,
    make_mollifier,
    smooth_counterexample,
    smoothed_grad,
)

__all__ = [
    "__version__",
    "FunctionClass",
    "HbParams",
    "RateReport",
    "Region",
    "LevelSetTriangle",
    "rate_on_quadratics",
    "optimal_tuning",
    "level_set",
    "sublevel_contains",
    "ghadimi_contains",
    "ghadimi_optimum",
    "CycleQuadratic",
    "CounterExample",
    "CounterexampleFunction",
    "rou_cycle",
    "membership_polynomial",
    "rou_member",
    "rou_member_any",
    "build_counterexample",
    "eval_counterexample",
    "incompatibility_scan",
    "cycle_gradients",
    "interpolation_residuals",
    "lift_matrices",
    "symmetrize_gram",
    "harmonic_gram",
    "decompose_circulant",
    "lp_feasible",
    "CycleCertificate",
    "SimTrace",
    "NoiseSpec",
    "run",
    "detect_cycle",
    "stability_constants",
    "perturbed_run",
    "perturbed_runs",
    "estimate_rate",
    "Mollifier",
    "SmoothedCounterExample",
    "DilatedFunction",
    "make_mollifier",
    "smooth_counterexample",
    "smoothed_grad",
    "cycle_check_smoothed",
    "dilate",
]
