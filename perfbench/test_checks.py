"""Self-test of the benchmark's correctness checks, in a few seconds.

    python3 -m pytest -q perfbench/test_checks.py

fixtures/ holds the program's output for each workload (seed 1).  Every
check must accept it and reject a perturbed copy: one error_x doubled, one
row dropped, minRatio shifted by 1e-6 relative.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SEED = 1
SWEEPS = ("compare-schrodinger", "convergence-kdv")


def _sweep_files(name: str) -> dict:
    return {f: (FIXTURES / name / f).read_text() for f in ("results.csv", "rates.csv", "run.json")}


def _phase_outputs() -> list:
    return [(0, {"phase_report.json": (FIXTURES / "phase-scan" / f"k{p.kappa}.json").read_text()})
            for p in run.PHASES]


@pytest.fixture(scope="module")
def independent():
    return {name: run.WORKLOADS[name].independent(SEED) for name in SWEEPS}


def _rows(files: dict) -> list[str]:
    return files["results.csv"].splitlines()[1:]


def _with_rows(files: dict, rows: list[str]) -> dict:
    header = files["results.csv"].splitlines()[0]
    return {**files, "results.csv": "\n".join([header, *rows]) + "\n"}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_check_accepts_program_output(name, independent):
    files = _sweep_files(name)
    assert run.WORKLOADS[name].check([(0, files)], SEED, independent[name]) == []


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_check_rejects_each_doubled_error(name, independent):
    files = _sweep_files(name)
    rows = _rows(files)
    for i, row in enumerate(rows):
        cols = row.split(",")
        cols[7] = repr(2.0 * float(cols[7]))
        bad = _with_rows(files, rows[:i] + [",".join(cols)] + rows[i + 1:])
        assert run.WORKLOADS[name].check([(0, bad)], SEED, independent[name]), row


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_check_rejects_each_dropped_row(name, independent):
    files = _sweep_files(name)
    rows = _rows(files)
    for i in range(len(rows)):
        bad = _with_rows(files, rows[:i] + rows[i + 1:])
        assert run.WORKLOADS[name].check([(0, bad)], SEED, independent[name]), rows[i]


def test_phase_check_accepts_program_output():
    assert run.WORKLOADS["phase-scan"].check(_phase_outputs(), SEED, None) == []


@pytest.mark.parametrize("shift", (1.0 + 1e-6, 1.0 - 1e-6))
@pytest.mark.parametrize("index", range(4))
def test_phase_check_rejects_shifted_min_ratio(index, shift):
    outputs = _phase_outputs()
    report = json.loads(outputs[index][1]["phase_report.json"])
    report["minRatio"] *= shift
    outputs[index] = (0, {"phase_report.json": json.dumps(report)})
    assert run.WORKLOADS["phase-scan"].check(outputs, SEED, None)


def test_phase_check_rejects_wrong_admissible_count():
    outputs = _phase_outputs()
    report = json.loads(outputs[0][1]["phase_report.json"])
    report["admissibleCount"] += 1
    outputs[0] = (0, {"phase_report.json": json.dumps(report)})
    assert run.WORKLOADS["phase-scan"].check(outputs, SEED, None)
