"""Dense primal simplex for small linear programs, from a given basis.

Solves min c.x subject to A x = b, x >= 0 on a full tableau with Bland's
rule (entering: lowest eligible index; leaving: lowest basic index among
the minimal ratios), so every solve is deterministic.  There is no phase
1: the caller passes a primal-feasible starting basis, and gets back with
an optimal result the row prices c_B B^-1 of the confirming basis as the
dual.  The cycle-feasibility LPs are heavily degenerate (almost every
right-hand side is zero), so accumulated pivot rounding is controlled by
refactorization: after each optimal pass the tableau is rebuilt exactly
from the original data and the pass repeats until a fresh tableau accepts
the basis with no further pivots.  A refactorized basis whose values break
x >= 0 (pivot rounding can drive a degenerate basis there) ends the solve
with status "lost_feasibility" rather than a false "optimal".  Bland's
rule is exact only in exact arithmetic: under the ratio-test tolerances a
degenerate solve can revisit a basis and end at the iteration limit.
Problem sizes here are at most a few hundred variables, where a dense
tableau beats anything fancier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-8


@dataclass
class SimplexResult:
    status: str            # "optimal" | "unbounded" | "iteration_limit" | "lost_feasibility"
    x: np.ndarray | None
    objective: float | None
    iterations: int
    dual: np.ndarray | None = None  # row prices c_B B^-1 (optimal only)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
             max_iter: int) -> tuple[str, int]:
    """Run simplex pivots in place until optimal/unbounded/limit."""
    n_cols = tableau.shape[1] - 1
    it = 0
    while it < max_iter:
        reduced = cost - cost[basis] @ tableau[:, :n_cols]
        candidates = np.flatnonzero(reduced < -_PIVOT_TOL)
        if candidates.size == 0:
            return "optimal", it
        col = int(candidates[0])  # Bland: lowest index enters
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(tableau[:, col] > _PIVOT_TOL,
                              tableau[:, -1] / tableau[:, col], np.inf)
        min_ratio = ratios.min()
        if not np.isfinite(min_ratio):
            return "unbounded", it
        ties = np.flatnonzero(ratios <= min_ratio + _PIVOT_TOL)
        row = int(ties[np.argmin(basis[ties])])  # Bland: lowest basic index leaves
        _pivot(tableau, basis, row, col)
        it += 1
    return "iteration_limit", it


def _optimize(a: np.ndarray, b: np.ndarray, cost: np.ndarray,
              basis: np.ndarray, max_iter: int) -> tuple[str, int, np.ndarray]:
    """Iterate with periodic exact refactorization until a fresh tableau
    confirms optimality with zero further pivots.  Every refactorized basis
    must be primal feasible.  Returns the status, the pivot count and the
    last tableau."""
    scale = max(1.0, float(np.abs(b).max()))
    total = 0
    while total <= max_iter:
        tableau = np.linalg.solve(a[:, basis], np.hstack([a, b[:, None]]))  # [B^-1 A | B^-1 b]
        if tableau[:, -1].min() < -_FEAS_TOL * scale:
            return "lost_feasibility", total, tableau
        status, it = _iterate(tableau, basis, cost, max_iter - total)
        total += it
        if status != "optimal" or it == 0:
            return status, total, tableau
    return "iteration_limit", total, tableau


def solve_canonical(cost, a_eq, b_eq, basis, max_iter: int = 20000) -> SimplexResult:
    """Minimize cost.x subject to a_eq x = b_eq, x >= 0, from ``basis``.

    ``basis`` (one column index per row) is a primal-feasible starting
    basis; one that is singular or whose values break x >= 0 raises
    ValueError.  An optimal result also carries ``dual``, the row prices
    c_B B^-1 of the confirming basis in the rows of ``a_eq`` as given:
    ``dual @ b_eq`` is the objective and ``cost - dual @ a_eq`` the
    (nonnegative) reduced costs.
    """
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    c = np.array(cost, dtype=float)
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    basis = _checked_basis(a, b, basis, max(1.0, float(np.abs(b).max())))

    status, it, tableau = _optimize(a, b, c, basis, max_iter)
    if status != "optimal":
        return SimplexResult(status, None, None, it)
    # The basis values of the confirming (feasibility-checked) fresh tableau.
    x = np.zeros(a.shape[1])
    x[basis] = tableau[:, -1]
    dual = np.linalg.solve(a[:, basis].T, c[basis])
    dual[flip] *= -1.0
    return SimplexResult("optimal", x, float(c @ x), it, dual)


def _checked_basis(a: np.ndarray, b: np.ndarray, basis, scale: float) -> np.ndarray:
    m, n = a.shape
    basis = np.array(basis, dtype=int)
    if (basis.shape != (m,) or len(set(basis.tolist())) != m
            or basis.min() < 0 or basis.max() >= n):
        raise ValueError(f"a basis needs {m} distinct column indices in [0, {n})")
    try:
        x_basic = np.linalg.solve(a[:, basis], b)
    except np.linalg.LinAlgError:
        raise ValueError("starting basis is singular") from None
    if not np.all(x_basic >= -_FEAS_TOL * scale):
        raise ValueError(f"starting basis is not primal feasible: min x_B = {x_basic.min()}")
    return basis

