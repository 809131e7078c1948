import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbcycles.cli as cli
import hbcycles.cycle_lp as cycle_lp
import hbcycles.smoothing as smoothing
from hbcycles.cli import SWEEP_MODES, _lp_region_cell, _write_csv, main, render_svg
from hbcycles.hb_engine import NoiseSpec, noise_budget, write_trace_csv
from hbcycles.quad_rates import BOUNDARY_TOL, FunctionClass, HbParams
from hbcycles.rou_region import _counterexample_batch, build_counterexample

from conftest import (
    parsed_render_svg,
    rowwise_write_csv,
    rowwise_write_trace_csv,
    sequential_perturbed_run,
)

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
        svg1 = (tmp_path / "region.csv.svg").read_bytes()
        render_svg(out, tmp_path / "again.svg")
        assert (tmp_path / "again.svg").read_bytes() == svg1
        assert svg1.startswith(b"<svg")

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

    def test_lp_region_worker_pool_is_order_stable(self, capsys, tmp_path):
        args = ["sweep", "--mode", "lp-region", "--mu", "0.01", "--L", "1",
                "--gamma-count", "7", "--beta-count", "5", "--k-max", "8"]
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        run_cli(capsys, *args, "--out", str(seq))
        run_cli(capsys, *args, "--workers", "2", "--out", str(par))
        assert seq.read_bytes() == par.read_bytes()

    def test_lp_region_rows_do_not_depend_on_the_dual_store(self):
        # Lines of beta, gamma up to the step-size edge: each crosses the
        # member boundary, so cells next to it are on the grid.
        rows = {}
        for duals in (None, {}):
            rows[duals is None] = [
                _lp_region_cell((float(gamma), beta, 0.01, 1.0, 12), duals)
                for beta in (0.0, 0.3, 0.6, 0.9)
                for gamma in np.linspace(0.1, 1.0, 19) * 2.0 * (1.0 + beta)]
        tags = [row[3] for row in rows[True]]
        assert any(a != b for a, b in zip(tags, tags[1:]))
        # Both sides of the comparison are the same row tuples, NaN included.
        assert repr(rows[True]) == repr(rows[False])

    def test_back_to_back_lp_sweeps_solve_alike(self, capsys, tmp_path, monkeypatch):
        # No dual store outlives its sweep.
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
                                 "--L", "1", "--gamma-count", "6", "--beta-count", "5",
                                 "--k-max", "10", "--out", str(tmp_path / name))
            assert code == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


    def test_failed_lp_solve_makes_the_cell_indeterminate(self, monkeypatch):
        def margin(p, c, k, duals=None):
            if k == 5:
                raise RuntimeError("LP solve failed: status=iteration_limit")
            return 1.0

        monkeypatch.setattr(cli, "lp_margin", margin)
        gamma, beta, period, tag = _lp_region_cell((1.0, 0.5, 0.01, 1.0, 8))
        assert (gamma, beta, tag) == (1.0, 0.5, "indeterminate") and math.isnan(period)

    def test_member_at_a_later_period_outranks_a_failed_solve(self, monkeypatch):
        def margin(p, c, k, duals=None):
            if k == 5:
                raise RuntimeError("LP solve failed: status=iteration_limit")
            return -1.0 if k == 7 else 1.0

        monkeypatch.setattr(cli, "lp_margin", margin)
        assert _lp_region_cell((1.0, 0.5, 0.01, 1.0, 8)) == (1.0, 0.5, 7, "member")

    def test_iteration_limit_cell_of_the_default_sweep_is_indeterminate(self):
        # The default lp-region sweep (6 x 6, k-max 100) reaches this cell;
        # its period-92 LP ends at the simplex's iteration limit, and every
        # lower period has a positive margin.
        p, c = HbParams(2.0 / 3.0, 1.0 / 6.0), FunctionClass(0.01, 1.0)
        with pytest.raises(RuntimeError, match="iteration_limit"):
            cycle_lp.lp_margin(p, c, 92)
        row = _lp_region_cell((p.gamma, p.beta, c.mu, c.ell, 92), {})
        assert row[3] == "indeterminate"

    @pytest.mark.parametrize("offset,tag", [(0.5, "member"), (4.0, "none")])
    def test_lp_region_closure_edge(self, monkeypatch, offset, tag):
        # Every period a cycle: the tag then says which side of the closed
        # step-size edge gamma = 2(1+beta)/L, widened by BOUNDARY_TOL, the
        # cell is on.
        monkeypatch.setattr(cli, "lp_margin", lambda p, c, k, duals=None: -1.0)
        beta = 0.5
        gamma = 2.0 * (1.0 + beta) + offset * BOUNDARY_TOL
        assert _lp_region_cell((gamma, beta, 0.01, 1.0, 5))[3] == tag

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


class TestSweepOutput:
    """The array writers against the row-at-a-time oracles in conftest."""

    @settings(max_examples=300, deadline=None)
    @given(gammas=_axes(), betas=_axes(), data=st.data())
    def test_csv_matches_rowwise_writer(self, tmp_path_factory, gammas, betas, data):
        value, tag = _grid(data, gammas, betas)
        g, b = np.meshgrid(gammas, betas, indexing="ij")
        path = tmp_path_factory.mktemp("csv")
        _write_csv(path / "new.csv", np.array(gammas), np.array(betas), value, tag)
        rowwise_write_csv(path / "old.csv", zip(g.ravel(), b.ravel(), value.ravel(), tag.ravel()))
        assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()

    # Axes without NaN: the oracle's set gives each parsed NaN its own column,
    # ordered by hash, so it has no fixed output for them; the sweep's axes are
    # finite.  Values may be anything: the raster does not read them.
    @settings(max_examples=300, deadline=None)
    @given(gammas=_axes(allow_nan=False), betas=_axes(allow_nan=False), data=st.data())
    def test_svg_matches_parsing_renderer(self, tmp_path_factory, gammas, betas, data):
        value, tag = _grid(data, gammas, betas)
        g, b = np.meshgrid(gammas, betas, indexing="ij")
        path = tmp_path_factory.mktemp("svg")
        _write_csv(path / "s.csv", np.array(gammas), np.array(betas), value, tag)
        render_svg(path / "s.csv", path / "arrays.svg", (g.ravel(), b.ravel(), tag.ravel()))
        render_svg(path / "s.csv", path / "parsed.svg")
        parsed_render_svg(path / "s.csv", path / "oracle.svg")
        oracle = (path / "oracle.svg").read_bytes()
        assert (path / "arrays.svg").read_bytes() == oracle
        assert (path / "parsed.svg").read_bytes() == oracle

    def test_svg_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        # Four rows of five fields: as many fields as five rows of four.
        path.write_text("gamma,beta,value,tag\n" + "1,2,3,none,x\n" * 4)
        with pytest.raises(ValueError):
            render_svg(path, tmp_path / "bad.svg")


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

    def test_nonmember_explains_polynomial(self, capsys):
        code, _, err = run_cli(capsys, "cycle-demo", "--gamma", "0.5",
                               "--beta", "0.2", "--mu", "0.01", "--L", "1",
                               "--K", "7")
        assert code == 3
        assert "membership polynomial" in err

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
                            lambda ce, c, x, value: calls.append(len(x))
                            or _counterexample_batch(ce, c, x, value))
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


class TestOthers:
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
        budget = noise_budget(p, c, ce)
        worst = max(sequential_perturbed_run(
            ce, c, p, 7, NoiseSpec(0.5, budget["gamma_jitter"] / 2,
                                   budget["beta_jitter"] / 2, budget["grad_noise"],
                                   mode, seed + i), 300)[2] for i in range(4))
        assert float(ratio_line.group(1)) == pytest.approx(worst / ce.r_max, rel=1e-12)

    @pytest.mark.parametrize("argv", [("--runs", "-3"), ("--runs", "0"),
                                      ("--steps", "-5"), ("--steps", "0"),
                                      ("--runs", "2.5"), ("--max-overdrive", "inf")])
    def test_robustness_bad_sizes_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(["robustness", *_TUBE_POINT, *argv])
        assert err.value.code == 2
        assert f"argument {argv[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--noise-init", "--noise-grad"])
    def test_robustness_nan_noise_is_an_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "robustness", *_TUBE_POINT, "--runs", "2",
                                 "--steps", "10", flag, "nan")
        assert code == 3 and out == ""
        assert "noise bounds must be nonnegative" in err

    def test_noisy_cycle_demo_rejects_zero_steps(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["cycle-demo", *_TUBE_POINT, "--noise-init", "0.5", "--steps", "0"])
        assert err.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

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
