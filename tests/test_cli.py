import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbcycles.cli as cli
import hbcycles.cycle_lp as cycle_lp
import hbcycles.hb_engine as hb_engine
import hbcycles.rou_region as rou_region
import hbcycles.smoothing as smoothing
from hbcycles.cli import SWEEP_MODES, _lp_region_chunk, _write_rows, main, render_svg
from hbcycles.hb_engine import NoiseSpec, noise_budget, write_trace_csv
from hbcycles.quad_rates import BOUNDARY_TOL, FunctionClass, HbParams, in_cv_closure
from hbcycles.rou_region import _counterexample_batch, build_counterexample

from conftest import (
    highs_margin,
    parsed_render_svg,
    rowwise_write_csv,
    rowwise_write_trace_csv,
    sequential_perturbed_run,
    two_batch_robustness,
)

# The class of the lp-region sweeps of these tests.
_CLASS = FunctionClass(0.01, 1.0)

_TUBE_POINT = ("--gamma", "3.3", "--beta", "0.75", "--mu", "0.005", "--L", "1",
               "--K", "7")

# Robustness stdout of the one-run-at-a-time implementation, which printed
# no worst_tube_ratio: 4 runs of 300 steps at _TUBE_POINT, overdrive factors
# up to 1024.  Seeds 0 and 5 print the same in each noise mode.
_ROBUSTNESS_GOLDEN = """{
  "all_stayed": true,
  "guaranteed_bounds": {
    "beta_jitter": 3.1667031836949276e-05,
    "gamma_jitter": 5.2318072988235426e-05,
    "grad_noise": 1.5854046308802822e-05,
    "init_norm": 0.0012966412787845333,
    "kappa_p": 0.020227212426224384,
    "param_budget": 6.341618523521129e-05,
    "rho_d": 0.9021839173674042
  },
  "observed_grad_noise_overdrive_at_least": {observed},
  "r_max": 0.06410380488729384,
  "runs": 4,
  "stayed_in_tube": 4
}
"""


def _undecided_lp_matrices(gammas, betas, c, k, rows=slice(None)):
    """Every entry of P (of the ``rows`` asked for) between the two
    tolerances and no rounding error: neither screen decides, so each pair
    reaches ``lp_margin``."""
    shape = (len(gammas), len(range(k - 1)[rows]), k // 2)
    return np.full(shape, 5e-9), np.zeros(len(gammas))


def _tags(period, unsure):
    """The lp-region tag of each cell from ``_lp_region_chunk``'s arrays."""
    return np.where(period > 0, "member", np.where(unsure, "indeterminate", "none")).tolist()


def _verdict(margin):
    """The verdict class of one ``lp_margin`` result."""
    if margin <= cycle_lp.FEASIBILITY_TOL:
        return "member"
    return "indeterminate" if margin <= cycle_lp.INDETERMINATE_TOL else "none"


def _cells(gammas, betas):
    """The gamma-major cells of a grid as two flat arrays."""
    g, b = np.meshgrid(gammas, betas, indexing="ij")
    return g.ravel(), b.ravel()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRate:
    def test_point_query_emits_json(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--gamma", "0.1111",
                               "--beta", "0.4444", "--mu", "1", "--L", "25")
        assert code == 0
        payload = json.loads(out)
        # Four-decimal truncation of the optimal tuning: the rate is within
        # half a percent of 2/3 and the point hugs the robust boundary.
        assert payload["rho"] == pytest.approx(2 / 3, abs=5e-3)
        assert payload["region"] in ("Robust", "Lazy")
        assert payload["reference"]["gd_step_1_over_L"]["quadratics"] == pytest.approx(0.96)

    def test_divergent_point_still_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--gamma", "-1", "--beta", "0",
                               "--mu", "1", "--L", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["region"] == "NoConvergence"
        assert payload["rho"] is None

    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["rate", "--gamma", "1", "--beta", "0", "--L", "25"])
        assert err.value.code == 2


class TestSweep:
    def test_rate_sweep_writes_grid(self, capsys, tmp_path):
        out = tmp_path / "rate.csv"
        code, text, _ = run_cli(capsys, "sweep", "--mode", "rate",
                                "--mu", "1", "--L", "25",
                                "--gamma-count", "12", "--beta-count", "9",
                                "--out", str(out))
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "gamma,beta,value,tag"
        assert len(lines) == 1 + 12 * 9 + 1
        meta = json.loads((tmp_path / "rate.csv.meta.json").read_text())
        assert meta["tool"] == "hbcycles"
        assert meta["parameters"]["gamma_count"] == 12
        assert "version" in meta

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["sweep", "--mode", "rou-region", "--mu", "0.01", "--L", "1",
                "--gamma-count", "15", "--beta-count", "11", "--k-max", "30"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        meta_a = json.loads((tmp_path / "a.csv.meta.json").read_text())
        meta_b = json.loads((tmp_path / "b.csv.meta.json").read_text())
        meta_a["parameters"].pop("out")
        meta_b["parameters"].pop("out")
        assert meta_a == meta_b

    def test_svg_is_pure_function_of_csv(self, capsys, tmp_path):
        out = tmp_path / "region.csv"
        run_cli(capsys, "sweep", "--mode", "rou-region", "--mu", "0.01",
                "--L", "1", "--gamma-count", "10", "--beta-count", "8",
                "--out", str(out), "--svg")
        svg = (tmp_path / "region.csv.svg").read_bytes()
        parsed_render_svg(out, tmp_path / "again.svg")
        assert (tmp_path / "again.svg").read_bytes() == svg
        assert svg.startswith(b"<svg")

    @pytest.mark.parametrize("argv", [
        ("--beta-count", "0"), ("--gamma-count", "0"), ("--gamma-count", "-3"),
        ("--workers", "0"), ("--gamma-max", "nan"), ("--gamma-min", "-inf"),
        ("--beta-min", "inf"), ("--beta-max", "nan"), ("--C", "nan")])
    def test_bad_sweep_flags_are_usage_errors(self, capsys, tmp_path, argv):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--mode", "sls-overlay", "--mu", "0.01", "--L", "1",
                  "--gamma-count", "5", "--beta-count", "5", *argv, "--out", str(out)])
        assert err.value.code == 2
        assert f"argument {argv[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_k_max_below_three_is_usage_error(self, capsys, tmp_path, mode):
        out = tmp_path / "x.csv"
        code, text, err = run_cli(capsys, "sweep", "--mode", mode, "--mu", "0.01", "--L", "1",
                                  "--gamma-count", "5", "--beta-count", "5", "--k-max", "2",
                                  "--out", str(out))
        assert code == 2 and text == ""
        assert "--k-max must be at least 3" in err
        assert not out.exists()

    def test_sls_overlay_verdict(self, capsys, tmp_path):
        # kappa small enough that the fast sublevel set is nonempty (it needs
        # sqrt(kappa) < 1/C); every one of its cells must be a cycling cell.
        out = tmp_path / "overlay.csv"
        code, _, _ = run_cli(capsys, "sweep", "--mode", "sls-overlay",
                             "--mu", "0.001", "--L", "1",
                             "--gamma-count", "60", "--beta-count", "60",
                             "--out", str(out))
        assert code == 0
        meta = json.loads((tmp_path / "overlay.csv.meta.json").read_text())
        assert meta["verdict"]["empty_intersection"] is True
        assert meta["verdict"]["sls_cells"] > 0

    def test_negative_beta_region_sweep_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--mode", "rou-region",
                               "--mu", "0.01", "--L", "1", "--beta-min", "-0.5",
                               "--gamma-count", "5", "--beta-count", "5",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "beta" in err

    def test_lp_region_small_grid(self, capsys, tmp_path):
        out = tmp_path / "lp.csv"
        code, _, _ = run_cli(capsys, "sweep", "--mode", "lp-region",
                             "--mu", "0.01", "--L", "1",
                             "--gamma-count", "8", "--beta-count", "6",
                             "--k-max", "10", "--out", str(out))
        assert code == 0
        tags = {line.split(",")[-1] for line in out.read_text().splitlines()[1:]}
        assert "member" in tags and "none" in tags

    def test_lp_region_period_tables_stay_bounded(self):
        # The sweep visits 58 periods; only the last 32 keep their tables.
        for cache in (cycle_lp._dft_table, cycle_lp._lag_table):
            cache.cache_clear()
        _lp_region_chunk(*_cells(np.linspace(0.5, 3.5, 4), np.linspace(0.0, 0.9, 3)),
                         _CLASS, 60)
        assert cycle_lp._dft_table.cache_info().misses == 58
        for cache in (cycle_lp._dft_table, cycle_lp._lag_table):
            assert cache.cache_info().currsize <= 32

    def test_lp_region_runs_in_this_process_at_any_worker_count(
            self, capsys, tmp_path, monkeypatch):
        # --workers is accepted and echoed, and starts no process: with the
        # pool made to fail, --workers 2 writes the rows and counters of
        # --workers 1.
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor called")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        args = ["sweep", "--mode", "lp-region", "--mu", "0.01", "--L", "1",
                "--gamma-count", "7", "--beta-count", "5", "--k-max", "8"]
        pairs = {}
        for workers in ("1", "2"):
            out = tmp_path / f"lp{workers}.csv"
            code, _, _ = run_cli(capsys, *args, "--workers", workers, "--out", str(out))
            assert code == 0
            meta = json.loads((tmp_path / f"lp{workers}.csv.meta.json").read_text())
            assert meta["parameters"]["workers"] == int(workers)
            pairs[workers] = meta["lp_pairs"]
        assert (tmp_path / "lp1.csv").read_bytes() == (tmp_path / "lp2.csv").read_bytes()
        assert pairs["1"] == pairs["2"]

    def test_lp_region_rows_do_not_depend_on_the_dual_store(self, monkeypatch):
        # Lines of beta, gamma up to the step-size edge: each crosses the
        # member boundary, so cells next to it are on the grid.  With the
        # screens stubbed out every pair reaches lp_margin, with and without
        # the prior dual; the screened sweep gives the same rows too.
        betas = np.repeat([0.0, 0.3, 0.6, 0.9], 19)
        gammas = np.tile(np.linspace(0.1, 1.0, 19), 4) * 2.0 * (1.0 + betas)
        *screened, _ = _lp_region_chunk(gammas, betas, _CLASS, 12)
        monkeypatch.setattr(cycle_lp, "lp_matrices", _undecided_lp_matrices)
        *with_prior, counts = _lp_region_chunk(gammas, betas, _CLASS, 12)
        monkeypatch.setattr(cli, "lp_margin",
                            lambda p, c, k, prior=None: cycle_lp.lp_margin(p, c, k))
        *plain, _ = _lp_region_chunk(gammas, betas, _CLASS, 12)
        tags = _tags(*with_prior)
        assert any(a != b for a, b in zip(tags, tags[1:]))
        assert counts["lp_margin_calls"] > len(gammas)
        for got in (plain, screened):
            assert all(np.array_equal(a, b) for a, b in zip(got, with_prior))
        # The bench and README grids at k-max 25, screens in place: the
        # pairs they leave give the same rows and counters with the prior
        # dual as with a prior-free lp_margin.
        monkeypatch.undo()
        for n in (16, 60):
            cells = _cells(np.linspace(4.0 / n, 4.0, n), np.linspace(0.0, 1.0, n, endpoint=False))
            *with_prior, counts = _lp_region_chunk(*cells, _CLASS, 25)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "lp_margin",
                              lambda p, c, k, prior=None: cycle_lp.lp_margin(p, c, k))
                *plain, plain_counts = _lp_region_chunk(*cells, _CLASS, 25)
            assert counts == plain_counts and counts["lp_margin_calls"] > 0
            assert all(np.array_equal(a, b) for a, b in zip(plain, with_prior))
        # Criterion 8's order on the bench grid, cells outer and periods
        # inner up to the first member period: the prior dual is then
        # another cell's, mostly of another period.  Each call's verdict
        # equals a prior-free lp_margin's.
        gammas, betas = _cells(np.linspace(0.25, 4.0, 16), np.arange(16) / 16.0)
        inside = in_cv_closure(gammas, betas, _CLASS)
        prior, verdicts = [], []
        for gamma, beta in zip(gammas[inside].tolist(), betas[inside].tolist()):
            p = HbParams(gamma, beta)
            for k in range(3, 26):
                verdicts.append(_verdict(cycle_lp.lp_margin(p, _CLASS, k, prior)))
                assert verdicts[-1] == _verdict(cycle_lp.lp_margin(p, _CLASS, k))
                if verdicts[-1] == "member":
                    break
        assert "member" in verdicts and "none" in verdicts and len(prior) == 1

    def test_lp_region_rows_do_not_depend_on_the_screen_block(self, monkeypatch):
        # One cell per screen block, the size past K = 513, gives the
        # results and counters of the default blocks.
        cells = _cells(np.linspace(0.5, 3.5, 8), np.linspace(0.0, 0.9, 6))
        *expected, expected_counts = _lp_region_chunk(*cells, _CLASS, 12)
        monkeypatch.setattr(cycle_lp, "_SCREEN_ENTRIES", 1)
        *got, counts = _lp_region_chunk(*cells, _CLASS, 12)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        assert counts == expected_counts

    def test_back_to_back_lp_sweeps_solve_alike(self, capsys, tmp_path, monkeypatch):
        # No prior dual outlives its sweep.  The benchmark's grid: on it a
        # few pairs pass both screens and reach the solver.
        calls = []
        solve = cycle_lp.solve_canonical

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cycle_lp, "solve_canonical", counting)
        counts = []
        for name in ("a.csv", "b.csv"):
            calls.clear()
            code, _, _ = run_cli(capsys, "sweep", "--mode", "lp-region", "--mu", "0.01",
                                 "--L", "1", "--gamma-count", "16", "--beta-count", "16",
                                 "--k-max", "25", "--out", str(tmp_path / name))
            assert code == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_benchmark_grid_solves_two_of_its_ten_lps_in_few_pivots(self, monkeypatch):
        # The pairs of the benchmark's grid that pass both screens are all at
        # (2.5, 0.5).  Their duals weigh the lags +3 and -1, so the K = 7
        # dual, mapped by lag, rules out K = 11, and the K = 14 dual every
        # later period: two solves, at most 80 pivots between them (the ten
        # solves took 63, and 162 under Bland's rule): a count, not a clock.
        pivots, pairs, solved = [], [], []
        solve, margin = cycle_lp.solve_canonical, cli.lp_margin

        def counting(*args, **kwargs):
            res = solve(*args, **kwargs)
            pivots.append(res.iterations)
            solved.append(pairs[-1][2])
            return res

        def recording(p, c, k, prior=None):
            pairs.append((p.gamma, p.beta, k))
            return margin(p, c, k, prior)

        monkeypatch.setattr(cycle_lp, "solve_canonical", counting)
        monkeypatch.setattr(cli, "lp_margin", recording)
        _lp_region_chunk(*_cells(np.linspace(0.25, 4.0, 16), np.arange(16) / 16.0),
                         _CLASS, 25)
        assert pairs == [(2.5, 0.5, k) for k in (7, 11, 14, 15, 18, 19, 21, 22, 23, 25)]
        assert solved == [7, 14] and sum(pivots) <= 80

    @pytest.mark.parametrize("grid", [("8", "6", "10"), ("16", "16", "25")])
    def test_lp_region_pair_counters(self, capsys, tmp_path, grid):
        # Every pair (in-closure cell, K up to its first member period or
        # k-max) is decided once: by a screen or by lp_margin.  The counts
        # are per pair, so any worker count gives the same sidecar field.
        n_gamma, n_beta, k_max = grid
        pairs = {}
        for workers in ("1", "2"):
            out = tmp_path / f"lp{workers}.csv"
            code, _, _ = run_cli(capsys, "sweep", "--mode", "lp-region", "--mu", "0.01",
                                 "--L", "1", "--gamma-count", n_gamma, "--beta-count", n_beta,
                                 "--k-max", k_max, "--workers", workers, "--out", str(out))
            assert code == 0
            meta = json.loads((tmp_path / f"lp{workers}.csv.meta.json").read_text())
            pairs[workers] = meta["lp_pairs"]
        assert pairs["1"] == pairs["2"]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        gamma = np.array([float(row[0]) for row in rows])
        beta = np.array([float(row[1]) for row in rows])
        inside = in_cv_closure(gamma, beta, FunctionClass(0.01, 1.0))
        periods = [int(float(row[2])) if row[3] == "member" else int(k_max)
                   for row, kept in zip(rows, inside) if kept]
        members = sum(row[3] == "member" for row in rows)
        counts = pairs["1"]
        assert sum(k - 2 for k in periods) == sum(counts.values())
        assert 0 < counts["member_by_harmonic"] <= members
        assert counts["ruled_out_by_row_dual"] > 0

    def test_failed_lp_solve_makes_the_cell_indeterminate(self, monkeypatch):
        def margin(p, c, k, prior=None):
            if k == 5:
                raise RuntimeError("LP solve failed: status=iteration_limit")
            return 1.0

        monkeypatch.setattr(cli, "lp_margin", margin)
        monkeypatch.setattr(cycle_lp, "lp_matrices", _undecided_lp_matrices)
        period, unsure, counts = _lp_region_chunk(np.array([1.0]), np.array([0.5]),
                                                  _CLASS, 8)
        assert period.tolist() == [0] and _tags(period, unsure) == ["indeterminate"]
        assert counts == {"member_by_harmonic": 0, "ruled_out_by_row_dual": 0,
                          "lp_margin_calls": 6}

    def test_margin_too_close_to_call_makes_the_cell_indeterminate(self, monkeypatch):
        monkeypatch.setattr(cli, "lp_margin",
                            lambda p, c, k, prior=None: 5e-9 if k == 6 else 1.0)
        monkeypatch.setattr(cycle_lp, "lp_matrices", _undecided_lp_matrices)
        period, unsure, _ = _lp_region_chunk(np.array([1.0]), np.array([0.5]), _CLASS, 8)
        assert _tags(period, unsure) == ["indeterminate"]

    def test_member_at_a_later_period_outranks_a_failed_solve(self, monkeypatch):
        def margin(p, c, k, prior=None):
            if k == 5:
                raise RuntimeError("LP solve failed: status=iteration_limit")
            return -1.0 if k == 7 else 1.0

        monkeypatch.setattr(cli, "lp_margin", margin)
        monkeypatch.setattr(cycle_lp, "lp_matrices", _undecided_lp_matrices)
        period, unsure, _ = _lp_region_chunk(np.array([1.0]), np.array([0.5]), _CLASS, 8)
        assert period.tolist() == [7] and _tags(period, unsure) == ["member"]

    def test_period_92_lp_of_the_default_sweep_matches_highs_and_is_ruled_out_by_a_row_dual(self):
        # The lp-region sweep at --gamma-count 6 --beta-count 6 --k-max 100
        # (the flag defaults are 200 x 200) reaches this cell;
        # under Bland's rule its period-92 LP ended at the iteration limit.
        # The solve now gives HiGHS's margin, and the sweep never needs it: a
        # single row of P proves the margin positive at every period.
        p, c = HbParams(2.0 / 3.0, 1.0 / 6.0), FunctionClass(0.01, 1.0)
        pm = cycle_lp.build_lp_matrix(p, c, 92)
        expected = highs_margin(pm)
        assert expected > 0.07
        assert cycle_lp.lp_margin(p, c, 92) == pytest.approx(expected,
                                                             abs=1e-12 * np.abs(pm).max())
        period, unsure, counts = _lp_region_chunk(np.array([p.gamma]), np.array([p.beta]),
                                                  c, 92)
        assert _tags(period, unsure) == ["none"]
        assert counts["ruled_out_by_row_dual"] == 90 and counts["lp_margin_calls"] == 0

    @pytest.mark.parametrize("offset,tag", [(0.5, "member"), (4.0, "none")])
    def test_lp_region_closure_edge(self, monkeypatch, offset, tag):
        # Every period a cycle: the tag then says which side of the closed
        # step-size edge gamma = 2(1+beta)/L, widened by BOUNDARY_TOL, the
        # cell is on.
        monkeypatch.setattr(cli, "lp_margin", lambda p, c, k, prior=None: -1.0)
        monkeypatch.setattr(cycle_lp, "lp_matrices", _undecided_lp_matrices)
        beta = 0.5
        gamma = 2.0 * (1.0 + beta) + offset * BOUNDARY_TOL
        period, unsure, _ = _lp_region_chunk(np.array([gamma]), np.array([beta]), _CLASS, 5)
        assert _tags(period, unsure) == [tag]

    @pytest.mark.parametrize("argv,flag", [
        (("--beta-max", "1e308"), "--beta-max"),
        (("--gamma-min=-1e308", "--gamma-max", "1e308"), "--gamma-max"),
        (("--beta-min=-1e308", "--beta-max", "1e308", "--gamma-max", "1"), "--beta-max")])
    def test_overflowing_sweep_axis_is_usage_error(self, capsys, tmp_path, argv, flag):
        # Finite flags whose axis is not: 2(1+beta-max)/L or the span
        # overflows.
        out = tmp_path / "x.csv"
        code, text, err = run_cli(capsys, "sweep", "--mode", "rate", "--mu", "0.01",
                                  "--L", "1", "--gamma-count", "2", "--beta-count", "2",
                                  *argv, "--out", str(out))
        assert code == 2 and text == ""
        assert flag in err and "not finite" in err
        assert not out.exists()


# Floats a sweep or trace may hold: signed zeros, NaN, infinities,
# subnormals, integral values, and anything else a double can be.
_EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                2.2250738585072014e-308, 1.0, -3.0, 7.0, 2.0**53, 1e16, 0.1, 1.0 / 3.0]
_TAGS = ["Lazy", "Robust", "KnifesEdge", "NoConvergence", "member", "none",
         "indeterminate", "inside", "outside", "both", "sls-only", "cycle-only",
         "neither", "unlisted"]


def _floats(allow_nan=True):
    return st.one_of(
        st.sampled_from([x for x in _EDGE_FLOATS if allow_nan or not math.isnan(x)]),
        st.floats(allow_nan=allow_nan), st.floats(-1e-300, 1e-300, allow_nan=False),
        st.integers(-10**6, 10**6).map(float))


def _axes(allow_nan=True):
    # Ascending, descending, single-value and repeated axes all occur.
    values = st.lists(_floats(allow_nan), min_size=1, max_size=6)
    return st.one_of(
        values,
        values.map(lambda v: sorted(v, key=lambda x: (math.isnan(x), x), reverse=True)),
        st.tuples(_floats(allow_nan), st.integers(1, 4)).map(lambda t: [t[0]] * t[1]))


def _grid(data, gammas, betas, allow_nan=True):
    shape = (len(gammas), len(betas))
    size = shape[0] * shape[1]
    value = data.draw(st.lists(_floats(allow_nan), min_size=size, max_size=size))
    tag = data.draw(st.lists(st.sampled_from(_TAGS), min_size=size, max_size=size))
    return np.array(value).reshape(shape), np.array(tag).reshape(shape)


# The tags of each sweep mode, in code order.
_MODE_NAMES = {
    "rate": ("Lazy", "Robust", "KnifesEdge", "NoConvergence"),
    "rou-region": ("none", "member"),
    "ghadimi": ("outside", "inside"),
    "lp-region": ("none", "member", "indeterminate"),
    "sls-overlay": ("neither", "cycle-only", "sls-only", "both"),
}


def _block_write_csv(path, gammas, betas, value, names, codes):
    """The sweep CSV written as the sweep writes it, block by block."""
    with open(path, "w", newline="") as fh:
        fh.write("gamma,beta,value,tag\n")
        for block in cli._row_blocks(gammas, betas):
            _write_rows(fh, gammas[block], betas, value[block], names, codes[block])


def _assert_writers_match_oracles(path, gammas, betas, value, names, codes):
    """The CSV and its SVG, drawn from the code grid, against the conftest oracles."""
    gammas, betas = np.array(gammas), np.array(betas)
    g, b = np.meshgrid(gammas, betas, indexing="ij")
    tag = np.array(names, dtype=object)[codes]
    _block_write_csv(path / "new.csv", gammas, betas, value, names, codes)
    rowwise_write_csv(path / "old.csv", zip(g.ravel(), b.ravel(), value.ravel(), tag.ravel()))
    assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()
    parsed_render_svg(path / "old.csv", path / "oracle.svg")
    render_svg(path / "new.svg", gammas, betas, names, codes)
    assert (path / "new.svg").read_bytes() == (path / "oracle.svg").read_bytes()


def _sweep_outputs(tmp_path, name, argv):
    """The CSV, sidecar (without its echoed --out) and SVG bytes of a sweep."""
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", *argv, "--out", str(out), "--svg"]) == 0
    meta = json.loads(Path(f"{out}.meta.json").read_text())
    meta["parameters"].pop("out")
    return out.read_bytes(), meta, Path(f"{out}.svg").read_bytes()


# The sweeps of the block tests: sls-overlay has cells in the sublevel set
# off the cycling region, and lp-region has cells that only a solve decides.
_BLOCK_SWEEPS = [
    *(["--mode", mode, "--mu", "0.01", "--L", "1", "--gamma-count", "23",
       "--beta-count", "17", "--k-max", "12", "--C", "1"] for mode in SWEEP_MODES),
    ["--mode", "lp-region", "--mu", "0.01", "--L", "1", "--gamma-count", "60",
     "--beta-count", "60", "--k-max", "25"],
]


class TestSweepOutput:
    """The block writers against the row-at-a-time oracles in conftest."""

    @settings(max_examples=300, deadline=None)
    @given(gammas=_axes(), betas=_axes(), data=st.data())
    def test_csv_matches_rowwise_writer(self, tmp_path_factory, gammas, betas, data):
        value, tag = _grid(data, gammas, betas)
        names, codes = np.unique(tag, return_inverse=True)
        g, b = np.meshgrid(gammas, betas, indexing="ij")
        path = tmp_path_factory.mktemp("csv")
        _block_write_csv(path / "new.csv", np.array(gammas), np.array(betas), value, names,
                         codes.reshape(tag.shape))
        rowwise_write_csv(path / "old.csv", zip(g.ravel(), b.ravel(), value.ravel(), tag.ravel()))
        assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()

    # Axes without NaN: the oracle's set gives each parsed NaN its own column,
    # ordered by hash, so it has no fixed output for them; the sweep's axes are
    # finite.  Values may be anything: the raster does not read them.
    @settings(max_examples=300, deadline=None)
    @given(gammas=_axes(allow_nan=False), betas=_axes(allow_nan=False), data=st.data())
    def test_svg_matches_parsing_renderer(self, tmp_path_factory, gammas, betas, data):
        value, tag = _grid(data, gammas, betas)
        names, codes = np.unique(tag, return_inverse=True)
        path = tmp_path_factory.mktemp("svg")
        _block_write_csv(path / "s.csv", np.array(gammas), np.array(betas), value, names,
                         codes.reshape(tag.shape))
        render_svg(path / "codes.svg", np.array(gammas), np.array(betas), names,
                   codes.reshape(tag.shape))
        parsed_render_svg(path / "s.csv", path / "oracle.svg")
        assert (path / "codes.svg").read_bytes() == (path / "oracle.svg").read_bytes()

    # Names in any order, some of them on no cell: the legend still lists
    # only the tags present, sorted by name.
    @settings(max_examples=100, deadline=None)
    @given(gammas=_axes(allow_nan=False), betas=_axes(allow_nan=False), data=st.data())
    def test_names_in_any_order_some_unused(self, tmp_path_factory, gammas, betas, data):
        names = data.draw(st.lists(st.sampled_from(_TAGS), min_size=1, unique=True))
        size = len(gammas) * len(betas)
        codes = data.draw(st.lists(st.integers(0, len(names) - 1), min_size=size,
                                   max_size=size))
        value, _ = _grid(data, gammas, betas)
        _assert_writers_match_oracles(tmp_path_factory.mktemp("names"), gammas, betas,
                                      value, tuple(names),
                                      np.array(codes).reshape(value.shape))

    # Every code, only the first, and all but the first.
    @pytest.mark.parametrize("mode", SWEEP_MODES)
    @pytest.mark.parametrize("used", ["all", "first", "not-first"])
    def test_each_modes_names(self, tmp_path, mode, used):
        names = _MODE_NAMES[mode]
        gammas, betas = [0.5, -0.0, 2.0, 1.5, 3.0], [0.25, 0.0, 0.75]
        cycle = np.arange(15).reshape(5, 3)
        codes = {"all": cycle % len(names), "first": 0 * cycle,
                 "not-first": 1 + cycle % (len(names) - 1)}[used]
        value = np.linspace(-1.0, 1.0, 15).reshape(5, 3)
        _assert_writers_match_oracles(tmp_path, gammas, betas, value, names, codes)

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_each_modes_sweep_draws_its_csv(self, capsys, tmp_path, mode):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sweep", "--mode", mode, "--mu", "0.01", "--L", "1",
                             "--gamma-count", "7", "--beta-count", "5", "--k-max", "12",
                             "--C", "1", "--out", str(out), "--svg")
        assert code == 0
        tags = {line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]}
        assert tags <= set(_MODE_NAMES[mode])
        parsed_render_svg(out, tmp_path / "oracle.svg")
        assert (tmp_path / "s.csv.svg").read_bytes() == (tmp_path / "oracle.svg").read_bytes()

    # One row (or one rect) per block, a block size that does not divide the
    # rows, and one block larger than the grid all write the same bytes.
    @pytest.mark.parametrize("block", [1, 2, 3 * 7, 7 * 11 + 5, 10_000])
    def test_block_size_moves_no_byte(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(cli, "_BLOCK_CELLS", block)
        names = _MODE_NAMES["sls-overlay"]
        gammas, betas = np.linspace(0.1, 2.0, 11), np.linspace(0.0, 0.9, 7)
        codes = (np.arange(77).reshape(11, 7) * 5) % 4
        value = np.sin(np.arange(77.0)).reshape(11, 7)
        _assert_writers_match_oracles(tmp_path, gammas, betas, value, names, codes)

    # One gamma row per block, blocks of 7 rows (dividing neither 23 nor 60
    # rows), and one block holding the whole grid.
    @pytest.mark.parametrize("argv", _BLOCK_SWEEPS, ids=lambda argv: f"{argv[1]}-{argv[7]}")
    def test_sweep_moves_no_byte_with_block_size(self, capsys, tmp_path, monkeypatch, argv):
        default = _sweep_outputs(tmp_path, "default", argv)
        if argv[1] == "sls-overlay":
            assert default[1]["verdict"]["sls_outside_cycling_cells"] > 0
        if argv[1] == "lp-region":
            assert default[1]["lp_pairs"]["lp_margin_calls"] > 0
        for block in (1, 7 * int(argv[9]), 10**6):
            monkeypatch.setattr(cli, "_BLOCK_CELLS", block)
            assert _sweep_outputs(tmp_path, f"b{block}", argv) == default

    # ghadimi calls none of these kernels.
    @pytest.mark.parametrize("mode", ["rate", "rou-region", "lp-region", "sls-overlay"])
    def test_no_kernel_sees_more_than_one_block(self, capsys, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 40)
        sizes = []
        for name in ("rate_grid", "member_any_grid", "screen_periods"):
            def counted(gammas, betas, *args, kernel=getattr(cli, name), **kwargs):
                sizes.append(np.broadcast(gammas, betas).size)
                return kernel(gammas, betas, *args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        code, _, _ = run_cli(capsys, "sweep", *_BLOCK_SWEEPS[SWEEP_MODES.index(mode)],
                             "--out", str(tmp_path / "s.csv"), "--svg")
        assert code == 0
        # Two rows of 17 betas a block: the 23 gamma rows take 12 blocks.
        assert len(sizes) >= 12
        assert max(sizes) <= max(1, cli._BLOCK_CELLS // 17) * 17

    @pytest.mark.parametrize("argv, message", [
        (("--mode", "lp-region", "--mu", "1", "--L", "1"), "cycle feasibility needs mu < ell"),
        *((("--mode", mode, "--mu", "0.01", "--L", "1", "--beta-min", "0.5", "--beta-max",
            "-1"), "cycling membership is only defined for beta >= 0")
          for mode in ("rou-region", "sls-overlay"))])
    def test_rejected_sweep_writes_no_file(self, capsys, tmp_path, argv, message):
        out = tmp_path / "x.csv"
        code, text, err = run_cli(capsys, "sweep", *argv, "--gamma-count", "3",
                                  "--beta-count", "3", "--out", str(out), "--svg")
        assert code == 3 and text == ""
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_computes_no_cell(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "rate_grid", None)
        code, _, err = run_cli(capsys, "sweep", "--mode", "rate", "--mu", "0.01", "--L", "1",
                               "--out", str(tmp_path / "nodir" / "x.csv"))
        assert code == 2 and "nodir" in err


class TestCycleDemo:
    def test_demo_point_cycles(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, text, _ = run_cli(capsys, "cycle-demo", "--gamma", "3.5",
                                "--beta", "0.75", "--mu", "0.005", "--L", "1",
                                "--K", "7", "--steps", "3000", "--out", str(out))
        assert code == 0
        payload = json.loads(text)
        assert payload["verdict"] == "cycles"
        assert payload["max_dev"] <= 1e-9
        assert payload["r_max"] > 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "t,x0,x1,dist_to_cycle,gamma_t,beta_t"

    @pytest.mark.parametrize("command", ["cycle-demo", "robustness"])
    def test_nonmember_explains_polynomial(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--gamma", "0.5",
                               "--beta", "0.2", "--mu", "0.01", "--L", "1",
                               "--K", "7")
        assert code == 3
        assert "membership polynomial" in err

    @pytest.mark.parametrize("argv", [
        ("cycle-demo", "--steps", "50"),
        ("cycle-demo", "--steps", "50", "--noise-grad", "within-thm53"),
        ("cycle-demo", "--steps", "50", "--noise-init", "0.5"),
        ("cycle-demo", "--steps", "50", "--smooth", "auto"),
        ("robustness", "--runs", "3", "--steps", "50")])
    def test_cycle_and_decomposition_are_worked_out_once(self, capsys, argv):
        # The counterexample carries both; no other module holds either name.
        for module in (cli, hb_engine, smoothing):
            assert not hasattr(module, "rou_cycle")
        assert not hasattr(cli, "stability_constants")
        with mock.patch("hbcycles.rou_region.rou_cycle",
                        wraps=rou_region.rou_cycle) as cycle, \
                mock.patch("hbcycles.rou_region.stability_constants",
                           wraps=rou_region.stability_constants) as decompose:
            code, _, _ = run_cli(capsys, argv[0], *_TUBE_POINT, *argv[1:])
        assert code == 0
        assert (cycle.call_count, decompose.call_count) == (1, 1)

    def test_noise_run_reports_tube(self, capsys):
        code, out, _ = run_cli(capsys, "cycle-demo", "--gamma", "3.3",
                               "--beta", "0.75", "--mu", "0.005", "--L", "1",
                               "--K", "7", "--steps", "600",
                               "--noise-init", "0.5",
                               "--noise-grad", "within-thm53", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["stayed_in_tube"] is True

    @pytest.mark.parametrize("argv", [
        ("--gamma", "3.5", "--beta", "0.75", "--mu", "0.005", "--L", "1", "--K", "7"),
        *((*_TUBE_POINT, "--noise-init", "0.5", "--noise-grad", "within-thm53",
           "--noise-gamma", "1e-5", "--noise-beta", "1e-5", "--seed", seed)
          for seed in ("1", "2", "3")),
        (*_TUBE_POINT, "--noise-init", "0.5", "--noise-grad", "within-thm53",
         "--noise-mode", "adversarial-sign"),
        (*_TUBE_POINT, "--smooth", "auto", "--lambda", "1"),
        (*_TUBE_POINT, "--smooth", "auto", "--lambda", "10")])
    def test_trace_csv_matches_rowwise_writer(self, capsys, tmp_path, monkeypatch, argv):
        def both(trace, path, cycle=None):
            write_trace_csv(trace, path, cycle=cycle)
            rowwise_write_trace_csv(trace, tmp_path / "oracle.csv", cycle=cycle)

        monkeypatch.setattr(cli, "write_trace_csv", both)
        code, _, _ = run_cli(capsys, "cycle-demo", *argv, "--steps", "300",
                             "--out", str(tmp_path / "trace.csv"))
        assert code == 0
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("beta", ["within-thm53", "1e-9"])
    def test_two_jitter_flags_share_the_parameter_budget(self, capsys, beta):
        # Each keyword jitter channel gets half of condition 2's budget when
        # the other jitter flag is set, so together they stay within it.
        code, out, err = run_cli(capsys, "cycle-demo", *_TUBE_POINT, "--steps", "600",
                                 "--noise-init", "0.5", "--noise-grad", "within-thm53",
                                 "--noise-gamma", "within-thm53", "--noise-beta", beta,
                                 "--seed", "4")
        assert code == 0 and err == ""
        assert json.loads(out)["stayed_in_tube"] is True

    def test_noise_levels_report_what_the_run_used(self, capsys, tmp_path):
        # --noise-beta within-thm53 and 1e-9 run different traces; the
        # JSON and the sidecar name the resolved levels, so they differ too.
        p, c = HbParams(3.3, 0.75), FunctionClass(0.005, 1.0)
        budget = noise_budget(build_counterexample(p, c, 7))
        printed = []
        for beta, beta_level in (("within-thm53", budget["beta_jitter"] * 0.5), ("1e-9", 1e-9)):
            code, out, _ = run_cli(capsys, "cycle-demo", *_TUBE_POINT, "--steps", "600",
                                   "--noise-init", "0.5", "--noise-grad", "within-thm53",
                                   "--noise-gamma", "within-thm53", "--noise-beta", beta,
                                   "--seed", "4", "--out", str(tmp_path / "trace.csv"))
            assert code == 0
            levels = json.loads(out)["noise_levels"]
            assert levels == {"init_radius": 0.5, "gamma_jitter": budget["gamma_jitter"] * 0.5,
                              "beta_jitter": beta_level, "grad_noise": budget["grad_noise"]}
            sidecar = json.loads((tmp_path / "trace.csv.meta.json").read_text())
            assert sidecar["noise_levels"] == levels
            printed.append(out)
        assert printed[0] != printed[1]

    @pytest.mark.parametrize("smooth", [(), ("--smooth", "auto")])
    def test_zero_noise_level_is_no_noise(self, capsys, smooth):
        argv = ("cycle-demo", *_TUBE_POINT, "--steps", "50", *smooth)
        exact = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--noise-grad", "0") == exact
        assert exact[0] == 0 and "verdict" in json.loads(exact[1])
        code, _, err = run_cli(capsys, *argv, "--noise-grad", "1e-9")
        assert (code, "noise flags" in err) == ((2, True) if smooth else (0, False))

    def test_smooth_dilated_run(self, capsys):
        code, out, _ = run_cli(capsys, "cycle-demo", "--gamma", "3.3",
                               "--beta", "0.75", "--mu", "0.005", "--L", "1",
                               "--K", "7", "--steps", "120", "--smooth", "auto",
                               "--lambda", "10", "--tol", "1e-6")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "cycles"
        assert payload["tau_estimate"] > 0

    def test_smooth_run_reports_the_mass_defect(self, capsys, tmp_path):
        # The README smoothed command: the quadrature's |sum of weights - 1|
        # in the JSON and the sidecar, the same on a rerun.
        argv = ["cycle-demo", "--gamma", "3.3", "--beta", "0.75", "--mu", "0.005",
                "--L", "1", "--K", "7", "--smooth", "auto", "--lambda", "10",
                "--steps", "500", "--out", str(tmp_path / "trace.csv")]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert json.loads(out)["mass_defect"] == meta["mass_defect"] == 9.992007221626409e-15
        run_cli(capsys, *argv)
        assert json.loads((tmp_path / "trace.csv.meta.json").read_text()) == meta

    def test_smooth_run_integrates_only_at_cell_boundaries(self, capsys, monkeypatch):
        # Every step's support ball lies in one feature cell, so only the
        # tau stencil around the edge midpoint (9 gradients) integrates.
        calls = []
        monkeypatch.setattr(smoothing, "_counterexample_batch",
                            lambda ce, x, *args: calls.append(len(x))
                            or _counterexample_batch(ce, x, *args))
        code, out, _ = run_cli(capsys, "cycle-demo", *_TUBE_POINT, "--steps", "500",
                               "--smooth", "auto")
        assert code == 0
        assert json.loads(out)["verdict"] == "cycles"
        assert 0 < len(calls) <= 20

    @pytest.mark.parametrize("token", ["nan", "inf", "abc", "0", "-0.01"])
    def test_bad_smooth_token_is_usage_error(self, capsys, token):
        with pytest.raises(SystemExit) as err:
            main(["cycle-demo", *_TUBE_POINT, "--steps", "50", "--smooth", token])
        assert err.value.code == 2
        assert "argument --smooth" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("--smooth", "1e-300"), "quadrature weights are not finite"),
        (("--smooth", "auto", "--lambda", "nan"), "scale must be positive and finite"),
        (("--smooth", "auto", "--lambda", "inf"), "scale must be positive and finite"),
        (("--lambda", "nan"), "scale must be positive and finite"),
        # Squares that underflow to a subnormal or overflow to inf.
        (("--lambda", "1e-160"), "scale squared must be a normal finite float"),
        (("--lambda", "1e160"), "scale squared must be a normal finite float"),
        (("--smooth", "auto", "--lambda", "1e-160"), "scale squared must be a normal"),
        (("--smooth", "auto", "--lambda", "1e200"), "scale squared must be a normal"),
        # A normal square, but the tau stencil's h = 0.05 lambda squares
        # to a subnormal.
        (("--smooth", "auto", "--lambda", "2e-154"), "h squared must be a normal float")])
    def test_non_finite_smoothing_is_an_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "cycle-demo", *_TUBE_POINT, "--steps", "50", *argv)
        assert code == 3 and out == ""
        assert message in err

    @pytest.mark.parametrize("token", ["nan", "-1", "inf", "abc"])
    def test_bad_tol_is_usage_error(self, capsys, token):
        with pytest.raises(SystemExit) as err:
            main(["cycle-demo", *_TUBE_POINT, "--steps", "50", "--tol", token])
        assert err.value.code == 2
        assert "argument --tol" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("smooth", [(), ("--smooth", "auto")])
    @pytest.mark.parametrize("scale", ["1e8", "1e-9", "1e154", "3e-153"])
    def test_cycle_tolerance_scales_with_lambda(self, capsys, scale, smooth):
        # Dilation scales the cycle's K-lag deviation and its diameter by
        # lambda: an absolute 1e-8 would reject the rounding-level deviation
        # at 1e8 and the whole cycle, as converged, at 1e-9.  At the ends of
        # the accepted range nothing overflows or warns.
        code, out, err = run_cli(capsys, "cycle-demo", *_TUBE_POINT, "--steps", "500",
                                 "--lambda", scale, *smooth)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["verdict"] == "cycles"
        assert payload["k_lag_deviation"] <= 1e-8 * float(scale)

    def test_patched_module_globals_see_every_call(self, capsys, monkeypatch):
        # bench/tracing.py times ``run`` and ``smoothed_grad`` by replacing
        # the names that cli and smoothing look up: every run step and every
        # tau stencil gradient (1 + 2 * 8) must go through them.
        calls = {"run": 0, "smoothed_grad": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "run")
        counted(smoothing, "smoothed_grad")
        for scale in ("1", "10"):
            code, _, _ = run_cli(capsys, "cycle-demo", *_TUBE_POINT, "--steps", "50",
                                 "--smooth", "auto", "--lambda", scale)
            assert code == 0
        assert calls == {"run": 2, "smoothed_grad": 2 * (50 + 17)}

    @pytest.mark.parametrize("flags", [(), ("--smooth", "auto"), ("--lambda", "10"),
                                       ("--smooth", "auto", "--lambda", "10")])
    def test_every_exact_run_steps_in_floats(self, capsys, monkeypatch, flags):
        # The plain, smoothed, dilated and smoothed-dilated oracles all go
        # to ``run`` whole, which steps their grad_xy.
        oracles = []
        inner = cli.run

        def spy(oracle, *args):
            oracles.append(oracle)
            return inner(oracle, *args)
        monkeypatch.setattr(cli, "run", spy)
        code, out, _ = run_cli(capsys, "cycle-demo", *_TUBE_POINT, "--steps", "50", *flags)
        assert code == 0 and json.loads(out)["verdict"] == "cycles"
        assert len(oracles) == 1 and callable(getattr(oracles[0], "grad_xy", None))


class TestOthers:
    def test_import_loads_no_process_pool_or_quadrature_modules(self):
        # Start-up cost: the pool is imported only by a multi-worker sweep,
        # and the Legendre nodes only by smoothing.
        probe = ("import sys, hbcycles.cli; print(sorted(m for m in ("
                 "'concurrent.futures.process', 'multiprocessing', 'numpy.polynomial')"
                 " if m in sys.modules))")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_one_parser_serves_every_call(self, tmp_path):
        # In a fresh interpreter: importing the CLI builds no parser, the
        # first main call builds one and the later calls reuse it, and a
        # command repeated after a usage error and --version exits, prints
        # and writes what its first call did.
        commands = [
            ["sweep", "--mode", "lp-region", "--mu", "0.01", "--L", "1", "--gamma-count",
             "6", "--beta-count", "6", "--k-max", "12", "--out", "lp.csv"],
            ["cycle-demo", *_TUBE_POINT, "--noise-init", "0.9", "--steps", "200",
             "--out", "trace.csv"],
            ["robustness", *_TUBE_POINT, "--runs", "3", "--steps", "100"],
            ["robustness", *_TUBE_POINT, "--runs", "many"],
            ["--version"],
        ]
        probe = (
            "import argparse, contextlib, io, json, os, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import hbcycles.cli as cli\n"
            "calls = [len(built)]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        try:\n"
            "            code = cli.main(argv)\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "    files = {name: open(name).read() for name in sorted(os.listdir())}\n"
            "    calls.append([code, out.getvalue(), err.getvalue(), files])\n"
            "print(json.dumps([built.count('hbcycles'), calls]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        argvs = commands + commands[:3]
        out = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env,
                             cwd=tmp_path, capture_output=True, text=True, check=True).stdout
        parsers, (at_import, *calls) = json.loads(out)
        assert at_import == 0 and parsers == 1
        assert [call[0] for call in calls] == [0, 0, 0, 2, 0, 0, 0, 0]
        assert "argument --runs" in calls[3][2] and calls[3][1] == ""
        assert calls[4][1].strip() == cli.__version__
        for first, again in zip(calls[:3], calls[5:]):
            assert again[:3] == first[:3]
            assert {name: again[3][name] for name in first[3]} == first[3]

    def test_lp_check(self, capsys):
        code, out, _ = run_cli(capsys, "lp-check", "--gamma", "3.5",
                               "--beta", "0.75", "--mu", "0.005", "--L", "1",
                               "--K", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["max_residual"] < 0.0
        assert payload["max_residual"] == pytest.approx(payload["margin"], abs=1e-9)

    @pytest.mark.parametrize("gamma", ["3.5", "1.0"])
    def test_lp_check_solves_once(self, capsys, monkeypatch, gamma):
        calls = []
        solve = cycle_lp.solve_canonical

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cycle_lp, "solve_canonical", counting)
        code, _, _ = run_cli(capsys, "lp-check", "--gamma", gamma,
                             "--beta", "0.75", "--mu", "0.005", "--L", "1",
                             "--K", "7")
        assert code == 0
        assert len(calls) == 1

    def test_robustness_small(self, capsys):
        code, out, _ = run_cli(capsys, "robustness", *_TUBE_POINT,
                               "--runs", "3", "--steps", "300",
                               "--max-overdrive", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_stayed"] is True
        assert payload["observed_grad_noise_overdrive_at_least"] >= 1.0

    @pytest.mark.parametrize("mode,observed", [("uniform-random", "64.0"),
                                               ("adversarial-sign", "16.0")])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_robustness_matches_sequential_runs(self, capsys, mode, observed, seed):
        # The overdrive search breaks partway: at 128x (uniform) or 32x
        # (adversarial), with factors up to 1024 still to try.
        code, out, _ = run_cli(capsys, "robustness", *_TUBE_POINT, "--runs", "4",
                               "--steps", "300", "--seed", str(seed),
                               "--noise-mode", mode, "--max-overdrive", "1024")
        assert code == 0
        ratio_line = re.search(r',\n  "worst_tube_ratio": ([^\n]*)', out)
        assert out.replace(ratio_line.group(0), "") == \
            _ROBUSTNESS_GOLDEN.replace("{observed}", observed)

        c, p = FunctionClass(0.005, 1.0), HbParams(3.3, 0.75)
        ce = build_counterexample(p, c, 7)
        budget = noise_budget(ce)
        worst = max(sequential_perturbed_run(
            ce, NoiseSpec(0.5, budget["gamma_jitter"] / 2,
                          budget["beta_jitter"] / 2, budget["grad_noise"],
                          mode, seed + i), 300)[2] for i in range(4))
        assert float(ratio_line.group(1)) == pytest.approx(worst / ce.r_max, rel=1e-12)

    @pytest.mark.parametrize("mode", ["uniform-random", "adversarial-sign"])
    @pytest.mark.parametrize("max_overdrive", ["1", "4", "1024"])
    def test_robustness_matches_two_batch_oracle(self, capsys, mode, max_overdrive):
        # One batch of seeded and overdrive runs prints what the seeded
        # batch followed by an overdrive batch printed, byte for byte.
        argv = ["robustness", *_TUBE_POINT, "--runs", "20", "--seed", "3",
                "--noise-mode", mode, "--max-overdrive", max_overdrive]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert two_batch_robustness(cli.build_parser().parse_args(argv)) == 0
        assert out == capsys.readouterr().out

    @pytest.mark.parametrize("flag,value,message", [
        ("--noise-grad", "2e-5", "condition 3 violated: gradient noise 2e-05 exceeds"),
        ("--noise-init", "1.5", "condition 1 violated: initial offset 1.5 ")])
    def test_robustness_over_budget_noise_is_an_error(self, capsys, monkeypatch,
                                                     flag, value, message):
        # The seeded runs are checked before any step.
        def no_steps(*args, **kwargs):
            raise AssertionError("perturbed_runs called")

        monkeypatch.setattr(cli, "perturbed_runs", no_steps)
        code, out, err = run_cli(capsys, "robustness", *_TUBE_POINT, flag, value)
        assert code == 3 and out == ""
        assert err.startswith("error: " + message)

    @pytest.mark.parametrize("argv", [("--runs", "-3"), ("--runs", "0"),
                                      ("--steps", "-5"), ("--steps", "0"),
                                      ("--runs", "2.5"), ("--max-overdrive", "inf")])
    def test_robustness_bad_sizes_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(["robustness", *_TUBE_POINT, *argv])
        assert err.value.code == 2
        assert f"argument {argv[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("base", [
        ("robustness", *_TUBE_POINT, "--runs", "2", "--steps", "10"),
        ("cycle-demo", *_TUBE_POINT, "--steps", "10", "--noise-init", "0.5"),
        ("cycle-demo", *_TUBE_POINT, "--steps", "50")])
    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-1"), ("--noise-init", "-0.5"), ("--noise-init", "nan"),
        ("--noise-grad", "nan"), ("--noise-grad", "-1"), ("--noise-grad", "inf"),
        ("--noise-gamma", "-1e-9"), ("--noise-beta", "inf")])
    def test_bad_seed_or_noise_level_is_usage_error(self, capsys, base, flag, value):
        # A malformed value, at parse time or once the keywords resolve,
        # names its flag; the last value of a repeated flag is the one read.
        # A noise-free cycle-demo ignores --seed, but a negative one is
        # still refused.
        try:
            code = main([*base, flag, value])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert flag in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("extra", [(), ("--smooth", "auto"), ("--lambda", "10"),
                                       ("--noise-grad", "0")])
    def test_noise_free_cycle_demo_needs_two_periods_of_steps(self, capsys, monkeypatch,
                                                               extra):
        # The cycle verdict needs 2K steps (14 at K = 7); fewer are refused
        # before the run.
        def no_run(*args, **kwargs):
            raise AssertionError("run called")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "run", no_run)
            code, out, err = run_cli(capsys, "cycle-demo", *_TUBE_POINT, "--steps", "13",
                                     *extra)
        assert code == 2 and out == ""
        assert err == "usage error: --steps must be at least 2K = 14 for a noise-free " \
                      "run, got 13\n"
        code, out, _ = run_cli(capsys, "cycle-demo", *_TUBE_POINT, "--steps", "14", *extra)
        assert code == 0 and json.loads(out)["verdict"] == "cycles"

    def test_noisy_cycle_demo_rejects_zero_steps(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["cycle-demo", *_TUBE_POINT, "--noise-init", "0.5", "--steps", "0"])
        assert err.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command,period", [("lp-check", "2"), ("cycle-demo", "2"),
                                                ("robustness", "0")])
    def test_period_below_three_is_usage_error(self, capsys, command, period):
        with pytest.raises(SystemExit) as err:
            main([command, *_TUBE_POINT[:-1], period])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --K: must be an integer of at least 3, got {period}" in captured.err

    def test_table4(self, capsys):
        code, out, _ = run_cli(capsys, "table4", "--mu", "1", "--L", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == pytest.approx(0.01)
        assert payload["rates"]["hb_quadratic_optimal"]["smooth_strongly_convex"] == "cycles"

    def test_bad_noise_token_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cycle-demo", "--gamma", "3.3",
                               "--beta", "0.75", "--mu", "0.005", "--L", "1",
                               "--K", "7", "--steps", "50",
                               "--noise-grad", "bogus")
        assert code == 2
        assert "within-thm53" in err

    def test_numeric_failure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--gamma", "1", "--beta", "0",
                               "--mu", "-1", "--L", "25")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--mode", "rate", "--mu", "0.01", "--L", "1", "--gamma-count", "3",
         "--beta-count", "3"),
        ("cycle-demo", *_TUBE_POINT, "--steps", "50")])
    @pytest.mark.parametrize("target,message", [
        ("nodir/out.csv", "No such file or directory"), (".", "Is a directory")])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv, target, message):
        path = str(tmp_path / target)
        code, out, err = run_cli(capsys, *argv, "--out", path)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and message in err and repr(path) in err
        assert "Traceback" not in err

    def test_refused_memory_is_an_error(self, capsys, monkeypatch):
        # The refusal is simulated: a test never asks for the memory.
        def refuse(*args):
            raise MemoryError("Unable to allocate 71.1 PiB for an array")

        monkeypatch.setattr(cli, "lp_check", refuse)
        code, out, err = run_cli(capsys, "lp-check", *_TUBE_POINT[:-1], "100000000")
        assert code == 3
        assert out == ""
        assert err == "error: not enough memory: Unable to allocate 71.1 PiB for an array\n"
