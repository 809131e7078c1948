"""Dense primal simplex for small linear programs, from a given basis.

Solves min c.x subject to A x = b, x >= 0 on a full tableau.  Pricing is
Dantzig's rule: the most negative reduced cost enters (lowest index on a
tie), and among the minimal ratios the row with the largest pivot element
leaves (lowest row on a tie), so every solve is deterministic.  Dantzig's
rule can cycle on degenerate bases, so once a pass revisits a basis it
switches to Bland's rule (entering: lowest eligible index; leaving: lowest
basic index among the minimal ratios) for the rest of the pass; an
iteration limit stays as the last resort.  There is no phase 1: the caller
passes a primal-feasible starting basis, and gets back with an optimal
result the row prices c_B B^-1 of the confirming basis as the dual.  The
cycle-feasibility LPs are heavily degenerate (almost every right-hand side
is zero), so accumulated pivot rounding is controlled by refactorization:
after each optimal pass the tableau is rebuilt exactly from the original
data and the pass repeats until a fresh tableau accepts the basis with no
further pivots.  A refactorized basis whose values break x >= 0 (pivot
rounding can drive a degenerate basis there) ends the solve with status
"lost_feasibility" rather than a false "optimal".  Problem sizes here are
at most a few hundred variables, where a dense tableau beats anything
fancier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-8
_MAX_ITER = 20000  # pivots per solve, over all passes, before "iteration_limit"


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
    """Run simplex pivots in place until optimal/unbounded/limit: Dantzig's
    rule until the pass revisits a basis, Bland's rule from then on."""
    n_cols = tableau.shape[1] - 1
    seen = {np.sort(basis).tobytes()}
    bland = False
    it = 0
    while it < max_iter:
        reduced = cost - cost[basis] @ tableau[:, :n_cols]
        if bland:
            col = int(np.argmax(reduced < -_PIVOT_TOL))  # lowest eligible index
        else:
            col = int(np.argmin(reduced))  # most negative reduced cost
        if reduced[col] >= -_PIVOT_TOL:
            return "optimal", it
        column = tableau[:, col]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(column > _PIVOT_TOL, tableau[:, -1] / column, np.inf)
        min_ratio = ratios.min()
        if not np.isfinite(min_ratio):
            return "unbounded", it
        ties = np.flatnonzero(ratios <= min_ratio + _PIVOT_TOL)
        if bland:
            row = int(ties[np.argmin(basis[ties])])  # lowest basic index
        else:
            row = int(ties[np.argmax(column[ties])])  # largest pivot element
        _pivot(tableau, basis, row, col)
        it += 1
        if not bland:
            key = np.sort(basis).tobytes()
            bland = key in seen
            seen.add(key)
    return "iteration_limit", it


def _optimize(a: np.ndarray, b: np.ndarray, cost: np.ndarray,
              basis: np.ndarray) -> tuple[str, int, np.ndarray]:
    """Iterate with periodic exact refactorization until a fresh tableau
    confirms optimality with zero further pivots.  The first tableau
    checks the starting basis: a singular or primal-infeasible one raises
    ValueError.  Every later refactorized basis must be primal feasible.
    Returns the status, the pivot count and the last tableau."""
    scale = max(1.0, float(np.abs(b).max()))
    ab = np.hstack([a, b[:, None]])
    try:
        tableau = np.linalg.solve(a[:, basis], ab)  # [B^-1 A | B^-1 b]
    except np.linalg.LinAlgError:
        raise ValueError("starting basis is singular") from None
    x_basic = tableau[:, -1]
    if not np.all(x_basic >= -_FEAS_TOL * scale):
        raise ValueError(f"starting basis is not primal feasible: min x_B = {x_basic.min()}")
    total = 0
    while True:
        status, it = _iterate(tableau, basis, cost, _MAX_ITER - total)
        total += it
        if status != "optimal" or it == 0:
            return status, total, tableau
        tableau = np.linalg.solve(a[:, basis], ab)
        if tableau[:, -1].min() < -_FEAS_TOL * scale:
            return "lost_feasibility", total, tableau


def solve_canonical(cost, a_eq, b_eq, basis) -> SimplexResult:
    """Minimize cost.x subject to a_eq x = b_eq, x >= 0, from ``basis``.

    ``basis`` (one column index per row) is a primal-feasible starting
    basis; one that is singular or whose values break x >= 0 raises
    ValueError.  ``b_eq`` may have negative entries: B^-1 b and the
    tableau B^-1 [A | b] do not depend on the signs of the rows.  An
    optimal result also carries ``dual``, the row prices c_B B^-1 of the
    confirming basis: ``dual @ b_eq`` is the objective and
    ``cost - dual @ a_eq`` the (nonnegative) reduced costs.
    """
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    c = np.asarray(cost, dtype=float)
    basis = _checked_basis(a, basis)

    status, it, tableau = _optimize(a, b, c, basis)
    if status != "optimal":
        return SimplexResult(status, None, None, it)
    # The basis values of the confirming (feasibility-checked) fresh tableau.
    x = np.zeros(a.shape[1])
    x[basis] = tableau[:, -1]
    dual = np.linalg.solve(a[:, basis].T, c[basis])
    return SimplexResult("optimal", x, float(c @ x), it, dual)


def _checked_basis(a: np.ndarray, basis) -> np.ndarray:
    m, n = a.shape
    basis = np.array(basis, dtype=int)
    if (basis.shape != (m,) or len(set(basis.tolist())) != m
            or basis.min() < 0 or basis.max() >= n):
        raise ValueError(f"a basis needs {m} distinct column indices in [0, {n})")
    return basis
