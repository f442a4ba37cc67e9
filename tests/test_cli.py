"""Command-line harness: exit codes, CSV output and divergence reporting."""

import csv
import hashlib
import io
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import exprk.cli as cli
from exprk.cli import main, run_convergence


def exit_code(argv):
    """What the process would exit with: main's return, or argparse's exit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_check_passes_exprk6s16(capsys):
    assert exit_code(["check", "--scheme", "exprk6s16"]) == 0
    assert "all 36 conditions passed" in capsys.readouterr().err


def test_check_fails_exprk6s15_in_strong_mode(capsys):
    assert exit_code(["check", "--scheme", "exprk6s15", "--mode", "strong"]) == 1
    assert "1 condition(s) failed: 17" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["integrate", "--scheme", "expk2", "--problem", "nosuch"],
    ["integrate", "--scheme", "expk2", "--n", "16", "--h", "3/10"],
    ["check", "--scheme", "exprk6s15", "--seeds", "0"],
    ["check", "--scheme", "exprk6s15", "--seeds", "-2"],
    ["check", "--scheme", "exprk6s15", "--n", "0"],
    ["check", "--scheme", "exprk6s16", "--tol", "nan"],
    ["check", "--scheme", "exprk6s16", "--tol", "inf"],
    ["check", "--scheme", "exprk6s16", "--tol=-1e-10"],
    ["integrate", "--scheme", "expk2", "--n", "16", "--h", "1/0"],
    ["converge", "--scheme", "expk2", "--n", "16", "--steps", "1/2,1/0"],
    ["converge", "--scheme", "expk2", "--n", "16", "--steps", ","],
    ["integrate", "--scheme", "expk2", "--problem", "lindecay", "--n", "0"],
    ["integrate", "--scheme", "expk2", "--n", "16", "--t-end", "inf"],
    ["integrate", "--scheme", "expk2", "--n", "16", "--t-end", "nan"],
    # runs start from each problem's state at t = 0
    ["integrate", "--scheme", "expk2", "--n", "16", "--h", "1/4", "--t0", "0.5"],
], ids=["unknown-problem", "step-does-not-divide",
        "check-no-seeds", "check-negative-seeds", "check-empty-model",
        "check-nan-tol", "check-inf-tol", "check-negative-tol",
        "integrate-zero-denominator-h",
        "converge-zero-denominator-step", "converge-empty-steps",
        "lindecay-no-points", "integrate-infinite-t-end", "integrate-nan-t-end",
        "integrate-t0"])
def test_usage_errors_exit_2(argv):
    assert exit_code(argv) == 2


def test_converge_csv_round_trips(tmp_path):
    out = tmp_path / "converge.csv"
    argv = ["converge", "--scheme", "expk2", "--n", "16", "--steps", "1/2,1/4,1/8",
            "--out", str(out)]
    assert exit_code(argv) == 0
    header, *rows = csv.reader(io.StringIO(out.read_text(encoding="utf-8")))
    assert header == ["h", "error", "wall_seconds", "observed_order"]
    report = run_convergence("expk2", "heat1d", steps=[Fraction(1, 2), Fraction(1, 4),
                                                       Fraction(1, 8)], n=16)
    assert len(rows) == len(report.rows) == 3
    for row, want in zip(rows, report.rows):
        assert Fraction(row[0]) == want.h
        assert float(row[1]) == want.error
        assert float(row[2]) > 0
        assert row[3] == ("" if want.observed_order is None else repr(want.observed_order))
    assert rows[0][3] == ""
    assert all(float(row[3]) > 1 for row in rows[1:])


@pytest.mark.parametrize("order", [1, 9])
def test_trees_outside_2_to_8_exits_2_with_one_error_line(capsys, order):
    assert exit_code(["trees", "--order", str(order)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tree enumeration supports orders 2..8\n"


@pytest.mark.parametrize("order", [1, 7])
def test_check_outside_2_to_6_exits_2_with_one_error_line(capsys, order):
    assert exit_code(["check", "--scheme", "exprk6s16", "--order", str(order)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: condition checks support orders 2..6, got {order}\n"


@pytest.mark.parametrize("order, sha256, summary", [
    (6, "83ee10f02c743e0f53052d078ee222dcc9dd7e09fce5438c11756813430655ac",
     "36 trees up to order 6 (order 2: 1, order 3: 2, order 4: 4, order 5: 9, "
     "order 6: 20)"),
    (8, "aabda148f2a15e23960d408be74ed316bdf528f3ee28787a267127452f089098",
     "199 trees up to order 8 (order 2: 1, order 3: 2, order 4: 4, order 5: 9, "
     "order 6: 20, order 7: 48, order 8: 115)"),
], ids=["order-6", "order-8"])
def test_trees_output_is_golden(capsys, order, sha256, summary):
    assert exit_code(["trees", "--order", str(order)]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == sha256
    assert captured.err == summary + "\n"


def _diverging(problem_by_name):
    def make(name, n):
        problem = problem_by_name(name, n)
        return replace(problem, g=lambda t, u: np.full_like(u, np.nan))

    return make


@pytest.mark.parametrize("command", ["integrate", "converge"])
def test_divergence_exits_1_with_one_line(monkeypatch, capsys, command):
    monkeypatch.setattr(cli, "problem_by_name", _diverging(cli.problem_by_name))
    argv = [command, "--scheme", "expk2", "--n", "16"]
    argv += ["--h", "1/4"] if command == "integrate" else ["--steps", "1/2,1/4"]
    assert exit_code(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{command}: non-finite values in stage 2 at step 0")


def test_runs_as_python_dash_m():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "exprk", "trees", "--order", "3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("number,order,symmetry,kind,tree\n")
