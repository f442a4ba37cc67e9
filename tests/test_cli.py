"""Command-line harness: exit codes, CSV output and divergence reporting."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import exprk.cli as cli
from exprk.cli import ConvergenceReport, main


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


BENCH = ["bench", "--scheme", "expk2", "--n", "16", "--h", "1/4"]


def test_bench_passes_when_runs_agree(capsys):
    assert exit_code(BENCH) == 0
    assert capsys.readouterr().out.startswith("reps,median_seconds,min_seconds,max_seconds")


def test_bench_fails_on_injected_fault(capsys):
    assert exit_code(BENCH + ["--inject-fault"]) == 1
    assert "differ" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    BENCH + ["--reps", "2"],
    ["integrate", "--scheme", "expk2", "--problem", "nosuch"],
    ["integrate", "--scheme", "expk2", "--n", "16", "--h", "3/10"],
    ["check", "--scheme", "exprk6s15", "--seeds", "0"],
    ["check", "--scheme", "exprk6s15", "--seeds", "-2"],
    ["check", "--scheme", "exprk6s15", "--n", "0"],
], ids=["too-few-reps", "unknown-problem", "step-does-not-divide",
        "check-no-seeds", "check-negative-seeds", "check-empty-model"])
def test_usage_errors_exit_2(argv):
    assert exit_code(argv) == 2


def test_converge_csv_round_trips(tmp_path):
    out = tmp_path / "converge.csv"
    argv = ["converge", "--scheme", "expk2", "--n", "16", "--steps", "1/2,1/4,1/8",
            "--out", str(out)]
    assert exit_code(argv) == 0
    text = out.read_text(encoding="utf-8")
    rows = ConvergenceReport.rows_from_csv(text)
    assert [r.h for r in rows] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert rows[0].observed_order is None
    assert all(r.observed_order > 1 for r in rows[1:])
    assert ConvergenceReport("expk2", "heat1d", rows).to_csv() == text


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
