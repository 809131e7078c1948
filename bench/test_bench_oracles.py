"""Known cases for the benchmark's oracles, and BENCHMARK.json consistency.

Run with ``python3 -m pytest bench/test_bench_oracles.py``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import oracles
import tracing

MU, ELL = 0.005, 1.0


def rou_points(k):
    return oracles.harmonic_cycle(k, 1)


def interpolable(x, g, mu, ell):
    """Whether some function values make (x, g) interpolable (HiGHS feasibility)."""
    v, _ = oracles.interpolation_violations(x, g, np.zeros(len(x)), mu, ell)
    n = len(x)
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                # f_j - f_i + v_ij <= 0
                row = np.zeros(n)
                row[j] += 1.0
                row[i] -= 1.0
                rows.append(row)
                rhs.append(-v[i, j])
    res = linprog(np.zeros(n), A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(None, None)] * n, method="highs")
    return res.status == 0


def test_rou_cycle_passes_interpolation_check():
    x = rou_points(7)
    g = oracles.cycle_gradients(x, 3.5, 0.75)
    v, scale = oracles.interpolation_violations(x, g, np.zeros(7), MU, ELL)
    assert v.max() <= 1e-12 * scale
    assert interpolable(x, g, MU, ELL)


def test_moved_point_fails_interpolation_check():
    x = rou_points(7)
    x[3] += [0.05, -0.02]
    g = oracles.cycle_gradients(x, 3.5, 0.75)
    v, scale = oracles.interpolation_violations(x, g, np.zeros(7), MU, ELL)
    assert v.max() > 1e-3 * scale
    # A small move can be absorbed by other function values; a large one
    # cannot be interpolated at all.
    assert interpolable(x, g, MU, ELL)
    x[3] += [0.5, 0.0]
    assert not interpolable(x, oracles.cycle_gradients(x, 3.5, 0.75), MU, ELL)


def test_interpolation_accepts_a_quadratic_in_the_class():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    hess = np.diag([MU, 0.3, ELL])
    g = x @ hess
    f = 0.5 * np.einsum("id,id->i", x, g)
    v, scale = oracles.interpolation_violations(x, g, f, MU, ELL)
    assert v.max() <= 1e-12 * scale
    # Too curved for the class: fails.
    v, scale = oracles.interpolation_violations(x, 2.0 * g, 2.0 * f, MU, ELL)
    assert v.max() > 0.0


@pytest.mark.parametrize("k", [5, 6, 9])
def test_lp_matrix_matches_direct_evaluation(k):
    rng = np.random.default_rng(k)
    nu = rng.uniform(size=k // 2)
    nu /= nu.sum()
    blocks = [math.sqrt(w) * oracles.harmonic_cycle(k, ell)
              for ell, w in enumerate(nu, start=1)]
    x = np.hstack(blocks)
    gamma, beta = 1.7, 0.6
    v, _ = oracles.interpolation_violations(x, oracles.cycle_gradients(x, gamma, beta),
                                            np.zeros(k), 0.01, 1.0)
    pm = oracles.cycle_lp_matrix(gamma, beta, 0.01, 1.0, k)
    assert np.allclose(pm @ nu, v[1:, 0], rtol=0, atol=1e-13)


def test_highs_margin_sign():
    member = oracles.cycle_lp_matrix(3.3, 0.75, MU, ELL, 7)
    assert oracles.highs_margin(member) < 0.0
    outside = oracles.cycle_lp_matrix(0.5, 0.1, 0.01, 1.0, 5)
    assert oracles.highs_margin(outside) > 0.0


def test_rou_quadratic_agrees_with_interpolation():
    rng = np.random.default_rng(1)
    agree = 0
    for _ in range(300):
        k = int(rng.integers(3, 13))
        gamma, beta = rng.uniform(0.05, 3.9), rng.uniform(0.0, 0.99)
        if gamma > 2.0 * (1.0 + beta):
            continue
        q = float(oracles.rou_quadratic(gamma, beta, 0.01, 1.0, k))
        x = rou_points(k)
        v, scale = oracles.interpolation_violations(
            x, oracles.cycle_gradients(x, gamma, beta), np.zeros(k), 0.01, 1.0)
        if abs(q) < 1e-9 or abs(v.max()) < 1e-9 * scale:
            continue
        assert (q <= 0) == (v.max() <= 0), (gamma, beta, k)
        agree += 1
    assert agree > 100


def test_rou_quadratic_known_member():
    assert oracles.rou_quadratic(3.3, 0.75, MU, ELL, 7) < 0.0
    assert oracles.rou_quadratic(0.5, 0.1, MU, ELL, 7) > 0.0


def test_companion_radius_known_cases():
    # beta = 0: the single eigenvalue 1 - gamma*lam.
    assert oracles.companion_radius(0.5, 0.0, 1.0) == pytest.approx(0.5)
    # Complex pair: modulus sqrt(beta).
    assert oracles.companion_radius(1.0, 0.64, 1.0) == pytest.approx(0.8)
    # Optimal tuning for mu = 1, L = 25 has rate 2/3.
    rate = oracles.quadratic_rate(1.0 / 9.0, 4.0 / 9.0, 1.0, 25.0)
    assert rate == pytest.approx(2.0 / 3.0, abs=1e-7)
    # On the edge gamma = 2(1+beta)/L an eigenvalue is -1.
    assert oracles.quadratic_rate(3.5, 0.75, 0.01, 1.0) == pytest.approx(1.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == tracing.LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"ops_per_s", "setup_s", "peak_rss_mb"}
