"""Byte identity of the command line's outputs against committed digests.

Each case runs ``hbcycles.cli.main`` in this process, in a directory of its
own, with relative output paths.  Its exit code, the SHA-256 digests of its
stdout and stderr and of every file it writes, and the warnings it raises
are compared with ``tests/output_digests.json``.  Float formatting and
numpy's kernels may change between versions, so the manifest records the
Python and numpy versions it was made with, and any other version fails.

After a change that moves bytes on purpose, regenerate the manifest and
list each moved digest, with its reason, in CHANGES.md; the script prints
each case it adds, removes or changes against the manifest it replaces:

    PYTHONPATH=src python tests/test_output_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import hbcycles.cli as cli

MANIFEST = Path(__file__).with_name("output_digests.json")
README = Path(__file__).resolve().parents[1] / "README.md"

# The counterexample point of bench/run.py's tube and smooth-cycle workloads.
_POINT = ["--gamma", "3.3", "--beta", "0.75", "--mu", "0.005", "--L", "1", "--K", "7"]
# The safety radius r_max at _POINT, as ``repr`` prints it.
_R_MAX = "0.06410380488729384"
# A member point whose residual matrix has a complex eigenvalue pair, so
# ``stability_constants`` takes its Robust branch (r_max 0.0666).
_ROBUST_POINT = ["--gamma", "1", "--beta", "0.95", "--mu", "0.005", "--L", "1", "--K", "7"]
_SWEEP = ["sweep", "--mode", "sls-overlay", "--mu", "0.01", "--L", "1",
          "--gamma-count", "5", "--beta-count", "5"]
_LP_GRID = ["sweep", "--mode", "lp-region", "--mu", "0.01", "--L", "1",
            "--gamma-count", "16", "--beta-count", "16", "--k-max", "25"]


def readme_commands():
    """The argument lists of the README's ``hbcycles`` shell commands."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("hbcycles ")]


def _bench_commands():
    """bench/run.py's workload commands at seed 0."""
    def sweep(name, mode, mu, ell, n, *extra):
        return ["sweep", "--mode", mode, "--mu", mu, "--L", ell, "--gamma-count", str(n),
                "--beta-count", str(n), "--out", f"{name}.csv", *extra]
    return [
        [*_LP_GRID, "--workers", "1", "--out", "lp.csv"],
        ["robustness", *_POINT, "--runs", "100", "--seed", "0"],
        ["cycle-demo", *_POINT, "--noise-init", "0.9", "--seed", "0", "--steps", "2500",
         "--out", "decay.csv"],
        *(["cycle-demo", *_POINT, "--smooth", "auto", "--lambda", lam, "--steps", "500",
           "--out", f"smooth-{lam}.csv"] for lam in ("1", "10")),
        sweep("overlay-3", "sls-overlay", "1e-3", "1", 300),
        sweep("overlay-4", "sls-overlay", "1e-4", "1", 300),
        sweep("rate", "rate", "1", "25", 400, "--svg"),
        sweep("rou", "rou-region", "0.01", "1", 400),
    ]


def _error_commands():
    """The usage errors of tests/test_cli.py, bad periods, jitter budgets and
    unwritable output paths."""
    return [
        ["rate", "--gamma", "1", "--beta", "0", "--L", "25"],
        *([*_SWEEP, *argv, "--out", "x.csv"] for argv in (
            ("--beta-count", "0"), ("--gamma-count", "0"), ("--gamma-count", "-3"),
            ("--workers", "0"), ("--gamma-max", "nan"), ("--gamma-min", "-inf"),
            ("--beta-min", "inf"), ("--beta-max", "nan"), ("--C", "nan"))),
        *(["sweep", "--mode", mode, "--mu", "0.01", "--L", "1", "--gamma-count", "5",
           "--beta-count", "5", "--k-max", "2", "--out", "x.csv"] for mode in cli.SWEEP_MODES),
        ["sweep", "--mode", "rou-region", "--mu", "0.01", "--L", "1", "--beta-min", "-0.5",
         "--gamma-count", "5", "--beta-count", "5", "--out", "x.csv"],
        *(["sweep", "--mode", "rate", "--mu", "0.01", "--L", "1", "--gamma-count", "2",
           "--beta-count", "2", *argv, "--out", "x.csv"] for argv in (
            ("--beta-max", "1e308"), ("--gamma-min=-1e308", "--gamma-max", "1e308"),
            ("--beta-min=-1e308", "--beta-max", "1e308", "--gamma-max", "1"))),
        *(["cycle-demo", *_POINT, "--steps", "50", "--smooth", token]
          for token in ("nan", "inf", "abc", "0", "-0.01")),
        *(["cycle-demo", *_POINT, "--steps", "50", "--tol", token]
          for token in ("nan", "-1", "inf", "abc")),
        *(["robustness", *_POINT, *argv] for argv in (
            ("--runs", "-3"), ("--runs", "0"), ("--steps", "-5"), ("--steps", "0"),
            ("--runs", "2.5"), ("--max-overdrive", "inf"))),
        ["cycle-demo", *_POINT, "--noise-init", "0.5", "--steps", "0"],
        ["cycle-demo", *_POINT, "--steps", "50", "--noise-grad", "bogus"],
        *([command, *_POINT[:-1], period] for command, period in (
            ("lp-check", "2"), ("cycle-demo", "1"), ("cycle-demo", "2"),
            ("robustness", "0"), ("robustness", "2.5"))),
        *(["cycle-demo", *_POINT, "--noise-init", "0.5", "--noise-grad", "within-thm53",
           "--noise-gamma", "within-thm53", "--noise-beta", beta, "--seed", "4",
           "--steps", "600"] for beta in ("within-thm53", "1e-9")),
        # Output paths that cannot be written: a missing directory, a directory.
        *(["sweep", "--mode", "rate", "--mu", "0.01", "--L", "1", "--gamma-count", "3",
           "--beta-count", "3", "--out", out] for out in ("nodir/x.csv", ".")),
        ["cycle-demo", *_POINT, "--steps", "50", "--out", "nodir/t.csv"],
        # A class the cycle LP rejects writes no file.
        ["sweep", "--mode", "lp-region", "--mu", "1", "--L", "1", "--gamma-count", "3",
         "--beta-count", "3", "--out", "p.csv"],
        # A negative seed and malformed noise levels name their flag.
        *(["robustness", *_POINT, "--runs", "2", "--steps", "10", *argv] for argv in (
            ("--seed", "-1"), ("--noise-init", "-0.5"), ("--noise-grad", "nan"),
            ("--noise-grad", "-1"), ("--noise-grad", "inf"), ("--noise-init", "2"))),
        *(["cycle-demo", *_POINT, "--steps", "50", *argv, "--seed", "-1"]
          for argv in (("--noise-init", "0.5"), ())),
        # A noise-free run needs 2K steps to judge its cycle; a noisy one does not.
        *(["cycle-demo", *_POINT, "--steps", steps, *argv]
          for steps in ("13", "14")
          for argv in ((), ("--smooth", "auto"), ("--lambda", "10"))),
        ["cycle-demo", *_POINT, "--steps", "3", "--noise-init", "0.5"],
    ]


def cases() -> dict:
    """Every case by its argument list, joined with spaces."""
    commands = [*readme_commands(), *_bench_commands(),
                ["sweep", "--mode", "lp-region", "--mu", "0.01", "--L", "1",
                 "--gamma-count", "6", "--beta-count", "6", "--k-max", "100",
                 "--out", "lp6.csv", "--svg"],
                [*_LP_GRID, "--workers", "2", "--out", "lp.csv"],
                # A member that only a solve finds: neither screen decides
                # the cell at K = 13, and its margin is about -4e-6.
                ["sweep", "--mode", "lp-region", "--mu", "0.01", "--L", "1",
                 "--gamma-min", "1.4200000000000002", "--gamma-max", "1.4200000000000002",
                 "--gamma-count", "1", "--beta-min", "0.795", "--beta-max", "0.8",
                 "--beta-count", "1", "--k-max", "13", "--out", "m.csv"],
                # A period with no cycle, as lp-check prints it.
                ["lp-check", "--gamma", "1.2", "--beta", "0.3", "--mu", "0.01", "--L", "1",
                 "--K", "5"],
                # The SVG of every tagging mode.  sls-overlay at C 1 has all
                # four of its tags, whose code order is not their name order;
                # at mu 1e-3 and C 5 it has no sls-only cell.
                *(["sweep", "--mode", mode, "--mu", "0.01", "--L", "1", "--gamma-count", "8",
                   "--beta-count", "8", *argv, "--out", "s.csv", "--svg"] for mode, argv in (
                    ("rou-region", ()), ("ghadimi", ()), ("sls-overlay", ("--C", "1")))),
                ["sweep", "--mode", "sls-overlay", "--mu", "1e-3", "--L", "1", "--gamma-count",
                 "8", "--beta-count", "8", "--C", "5", "--out", "s.csv", "--svg"],
                # A zero noise level is no noise, so it goes with --smooth.
                *(["cycle-demo", *_POINT, "--steps", "50", *argv] for argv in (
                    ("--noise-grad", "0"), ("--smooth", "auto", "--noise-grad", "0"),
                    ("--smooth", "auto", "--noise-grad", "1e-9"))),
                ["cycle-demo", *_POINT, "--steps", "500", "--lambda", "10",
                 "--out", "dilated.csv"],
                # Long float runs that repeat their state many times over.
                ["cycle-demo", *_POINT, "--steps", "3000", "--lambda", "10",
                 "--out", "dilated-long.csv"],
                ["cycle-demo", *_POINT, "--noise-init", "0.9", "--seed", "5",
                 "--steps", "5000", "--out", "decay5.csv"],
                # eps = r_max: most support balls reach a cell boundary, so
                # most steps take the quadrature branch.
                *(["cycle-demo", *_POINT, "--steps", "50", "--smooth", _R_MAX, *argv]
                  for argv in ((), ("--lambda", "10"))),
                ["robustness", *_POINT, "--runs", "5", "--steps", "200",
                 "--noise-mode", "adversarial-sign"],
                ["cycle-demo", *_POINT, "--noise-init", "0.5", "--noise-grad", "within-thm53",
                 "--noise-mode", "adversarial-sign", "--seed", "4", "--steps", "200",
                 "--out", "adv.csv"],
                ["cycle-demo", *_ROBUST_POINT, "--noise-init", "0.5", "--noise-grad",
                 "within-thm53", "--seed", "4", "--steps", "200"],
                ["robustness", *_ROBUST_POINT, "--runs", "5", "--steps", "200"],
                *_error_commands()]
    return {" ".join(argv): argv for argv in commands}


def moved_cases(old: dict, new: dict) -> list[str]:
    """One line per case added, removed or changed from ``old`` to ``new``,
    naming the fields of a changed case that differ."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            lines.append(f"added: {key}")
        elif key not in new:
            lines.append(f"removed: {key}")
        elif old[key] != new[key]:
            a, b = old[key], new[key]
            moved = [name for name in ("exit", "stdout", "stderr", "warnings")
                     if a[name] != b[name]]
            moved += sorted(name for name in a["files"].keys() | b["files"].keys()
                            if a["files"].get(name) != b["files"].get(name))
            lines.append(f"changed: {key} ({', '.join(moved)})")
    return lines


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, directory: Path) -> dict:
    """Exit code, output digests and warnings of one command run in ``directory``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    files = {path.relative_to(directory).as_posix(): _sha256(path.read_bytes())
             for path in sorted(directory.rglob("*")) if path.is_file()}
    return {"exit": code, "stdout": _sha256(out.getvalue().encode()),
            "stderr": _sha256(err.getvalue().encode()), "files": files,
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}


@pytest.fixture(scope="module")
def manifest():
    recorded = json.loads(MANIFEST.read_text())
    assert recorded["versions"] == versions(), (
        f"{MANIFEST.name} was made with {recorded['versions']}, this run has "
        f"{versions()}: regenerate it with this file as a script on the parent commit")
    return recorded["cases"]


def test_manifest_lists_every_case(manifest):
    assert sorted(manifest) == sorted(cases())


@pytest.mark.parametrize("argv", list(cases().values()), ids=list(cases()))
def test_outputs_match_the_manifest(manifest, tmp_path, argv):
    assert run_case(argv, tmp_path) == manifest[" ".join(argv)]


if __name__ == "__main__":
    recorded = {}
    for key, argv in cases().items():
        with tempfile.TemporaryDirectory() as directory:
            recorded[key] = run_case(argv, Path(directory))
    committed = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    if committed.get("versions", versions()) != versions():
        print(f"versions: {committed['versions']} -> {versions()}", file=sys.stderr)
    for line in moved_cases(committed.get("cases", {}), recorded):
        print(line, file=sys.stderr)
    MANIFEST.write_text(json.dumps({"versions": versions(), "cases": recorded},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {MANIFEST}", file=sys.stderr)
