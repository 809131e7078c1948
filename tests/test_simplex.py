import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbcycles.simplex as simplex
from hbcycles.simplex import solve_canonical


def highs_objective(cost, a, b):
    """min cost.x s.t. a x = b, x >= 0, by scipy's HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(cost, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def cycle_lp_shape(p):
    """(cost, a, b, crash basis) of min t s.t. P nu <= t, sum nu = 1: nu = e_j
    at the column of least maximum, t at that maximum, every slack basic but
    the binding row's."""
    rows, cols = p.shape
    n_var = cols + 2 + rows
    a = np.zeros((rows + 1, n_var))
    a[:rows, :cols] = p
    a[:rows, cols] = -1.0
    a[:rows, cols + 1] = 1.0
    a[:rows, cols + 2:] = np.eye(rows)
    a[rows, :cols] = 1.0
    b = np.zeros(rows + 1)
    b[rows] = 1.0
    cost = np.zeros(n_var)
    cost[cols], cost[cols + 1] = 1.0, -1.0
    j = int(np.argmin(p.max(axis=0)))
    binding = int(np.argmax(p[:, j]))
    t_col = cols if p[binding, j] >= 0 else cols + 1
    basis = [j, t_col] + [cols + 2 + i for i in range(rows) if i != binding]
    return cost, a, b, basis


def test_basic_optimum():
    # min -x - y  s.t.  x + y + s1 = 4, x + 3y + s2 = 6
    cost = [-1.0, -1.0, 0.0, 0.0]
    a = [[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]]
    res = solve_canonical(cost, a, [4.0, 6.0], basis=[2, 3])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-4.0, abs=1e-12)
    assert res.x[0] + res.x[1] == pytest.approx(4.0, abs=1e-12)


def test_matches_known_vertex():
    # min 2x + 3y s.t. x + y = 10, x - y + s = 4
    cost = [2.0, 3.0, 0.0]
    a = [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]
    res = solve_canonical(cost, a, [10.0, 4.0], basis=[1, 2])
    assert res.status == "optimal"
    # Cheapest split of x + y = 10 puts as much as possible on x.
    assert res.x[0] == pytest.approx(7.0, abs=1e-12)
    assert res.x[1] == pytest.approx(3.0, abs=1e-12)


def test_unbounded_detected():
    # min -x s.t. x - y = 1: push x to infinity along y.
    res = solve_canonical([-1.0, 0.0], [[1.0, -1.0]], [1.0], basis=[0])
    assert res.status == "unbounded"


def test_negative_rhs_rows_are_flipped():
    res = solve_canonical([1.0, 0.0], [[-1.0, -1.0]], [-5.0], basis=[1])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert res.x[1] == pytest.approx(5.0, abs=1e-12)


def test_beale_degenerate_cycle_terminates():
    # Beale's classic cycling example (it cycles under Dantzig's rule with
    # lowest-index ties); the largest-pivot tie rule must terminate on it.
    cost = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
    a = [
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ]
    res = solve_canonical(cost, a, [0.0, 0.0, 1.0], basis=[4, 5, 6])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-10)


# Kuhn's cycling example: the most negative reduced cost enters, and every
# ratio test has a single winner, so Dantzig's rule pivots from the slack
# basis back to it in six steps whatever the tie rule.
KUHN = ([-2.0, -3.0, 1.0, 12.0, 0.0, 0.0, 0.0],
        [[-2.0, -9.0, 1.0, 9.0, 1.0, 0.0, 0.0],
         [1.0 / 3.0, 1.0, -1.0 / 3.0, -2.0, 0.0, 1.0, 0.0],
         [2.0, 3.0, -1.0, -12.0, 0.0, 0.0, 1.0]], [0.0, 0.0, 2.0], [4, 5, 6])


def test_revisited_basis_switches_to_bland(monkeypatch):
    bases = []
    pivot = simplex._pivot

    def recording(tableau, basis, row, col):
        pivot(tableau, basis, row, col)
        bases.append(sorted(basis.tolist()))

    monkeypatch.setattr(simplex, "_pivot", recording)
    res = solve_canonical(*KUHN)
    # Dantzig's six pivots return to the start; Bland's rule leaves the cycle.
    assert bases[5] == [4, 5, 6] and bases[6] != bases[0]
    assert res.status == "optimal" and res.iterations == len(bases) < 20
    assert res.objective == pytest.approx(-2.0, abs=1e-12)


def test_agrees_with_bounded_feasibility_shape():
    # The shape used by the cycle LP: min t s.t. P nu <= t, sum nu = 1.
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = rng.normal(size=(6, 3))
        m = 3
        cost, a, b, basis = cycle_lp_shape(p)
        res = solve_canonical(cost, a, b, basis=basis)
        assert res.status == "optimal"
        # Oracle: t* = min over the simplex of max_i (P nu)_i; check against
        # a dense simplex grid.
        w = np.linspace(0, 1, 41)
        best = np.inf
        for u in w:
            for v in w:
                if u + v <= 1.0 + 1e-12:
                    nu = np.array([u, v, 1.0 - u - v])
                    best = min(best, float((p @ nu).max()))
        assert res.objective <= best + 1e-9
        nu_opt = res.x[:m]
        assert nu_opt.sum() == pytest.approx(1.0, abs=1e-9)
        assert float((p @ nu_opt).max()) == pytest.approx(res.objective, abs=1e-8)


# (cost, a_eq, b_eq, a primal-feasible basis) from the LPs above.
FEASIBLE_START = [
    ([-1.0, -1.0, 0.0, 0.0], [[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]],
     [4.0, 6.0], [2, 3]),
    ([2.0, 3.0, 0.0], [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]], [10.0, 4.0], [1, 2]),
    ([1.0, 0.0], [[-1.0, -1.0]], [-5.0], [1]),
    ([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0],
     [[0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
      [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
      [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]], [0.0, 0.0, 1.0], [4, 5, 6]),
    KUHN,
]


@pytest.mark.parametrize("cost,a,b,basis", FEASIBLE_START)
def test_starting_basis_reaches_the_phase1_optimum(cost, a, b, basis):
    # The optimum from the given basis is the one HiGHS finds.
    warm = solve_canonical(cost, a, b, basis=basis)
    assert warm.status == "optimal"
    assert warm.objective == pytest.approx(highs_objective(cost, a, b), abs=1e-12)
    assert np.asarray(a) @ warm.x == pytest.approx(b, abs=1e-12)
    assert warm.x.min() >= 0.0


def test_starting_basis_on_the_cycle_lp_shape():
    rng = np.random.default_rng(3)
    for _ in range(25):
        cost, a, b, basis = cycle_lp_shape(rng.normal(size=(6, 3)))
        warm = solve_canonical(cost, a, b, basis=basis)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(highs_objective(cost, a, b), abs=1e-12)


@pytest.mark.parametrize("cost,a,b,basis", FEASIBLE_START)
def test_dual_certifies_the_optimum(cost, a, b, basis):
    # Strong duality and dual feasibility, in the rows as given (the third
    # LP has a flipped row).
    res = solve_canonical(cost, a, b, basis=basis)
    a, b, cost = np.asarray(a), np.asarray(b), np.asarray(cost)
    assert res.dual @ b == pytest.approx(res.objective, abs=1e-12)
    assert (cost - res.dual @ a).min() >= -1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 12), cols=st.integers(1, 6),
       degenerate=st.booleans())
def test_cycle_lp_shape_dual_matches_highs(seed, rows, cols, degenerate):
    # min t s.t. P nu <= t, sum nu = 1 from the crash basis; degenerate
    # draws repeat rows and columns, as the cycle LPs do.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(rows, cols))
    if degenerate:
        p = np.round(p)[rng.integers(0, rows, rows)][:, rng.integers(0, cols, cols)]
    cost, a, b, basis = cycle_lp_shape(p)
    res = solve_canonical(cost, a, b, basis=basis)
    highs = linprog(np.r_[np.zeros(cols), 1.0],
                    A_ub=np.hstack([p, -np.ones((rows, 1))]), b_ub=np.zeros(rows),
                    A_eq=np.r_[np.ones(cols), 0.0][None, :], b_eq=[1.0],
                    bounds=[(0, None)] * cols + [(None, None)], method="highs")
    assert res.status == "optimal" and highs.status == 0
    assert res.objective == pytest.approx(highs.fun, abs=1e-9)
    # The row weights y = -dual of the inequality rows prove the optimum.
    y = -res.dual[:rows]
    assert y.min() >= -1e-12 and y.sum() == pytest.approx(1.0, abs=1e-12)
    assert (y @ p).min() == pytest.approx(highs.fun, abs=1e-9)


def test_infeasible_starting_basis_rejected():
    # x = 10 forces the slack of x - y + s = 4 to -6.
    with pytest.raises(ValueError, match="not primal feasible"):
        solve_canonical([2.0, 3.0, 0.0], [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]],
                        [10.0, 4.0], basis=[0, 2])


@pytest.mark.parametrize("basis", [[0, 1], [0, 0], [0], [0, 5]])
def test_malformed_or_singular_basis_rejected(basis):
    with pytest.raises(ValueError):
        solve_canonical([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0], basis=basis)


def test_singular_starting_basis_is_named():
    with pytest.raises(ValueError, match="starting basis is singular"):
        solve_canonical([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0], basis=[0, 1])


def test_starting_basis_is_factorized_once(monkeypatch):
    # The first tableau is the check of the starting basis: a start that is
    # already optimal takes one factorization for it and one for the dual.
    solve = np.linalg.solve
    calls = []

    def counted(*args):
        calls.append(1)
        return solve(*args)
    monkeypatch.setattr(np.linalg, "solve", counted)
    res = solve_canonical([1.0, 1.0, 0.0], [[1.0, 1.0, 1.0]], [2.0], basis=[2])
    assert res.status == "optimal" and res.iterations == 0
    assert len(calls) == 2
