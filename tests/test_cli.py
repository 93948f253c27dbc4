"""Command line contract: artifacts, reproducibility, exit codes.

Exit codes are 0 success, 1 configuration error naming the field, 2 numerical
failure naming the cell.  Reruns must be byte-identical except walltime_s.
"""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dispersia import cli, harness, model
from dispersia.cli import _write_plot_script, main
from dispersia.harness import ErrorRecord, SweepResult, regularity_normalizer
from dispersia.integrators import NumericalBlowupError
from dispersia.model import _CHUNK, DispersiveModel, eval_phase, eval_phase_factored
from dispersia.presets import DESK_EPSILONS
from dispersia.spectral import Grid, InitialDataSpec, SpectralField, sample_initial, x_norm

FREE_SOLVE = {
    "kappa": 2,
    "alpha": 1.0,
    "epsilon": 0.25,
    "tau": 0.05,
    "z_final": 0.5,
    "half_width": 4.0,
    "grid_n": 128,
    "potential": {"kind": "gaussian", "amplitude": 0.0, "width_sq": 1.0},
    "initial": {"kind": "gaussian"},
}

REDUCTION = {"kappa": 2, "beta": 1, "sign": "-", "lambda": 1.0}

SMALL_SWEEP = {
    "kappa": 2,
    "alpha": 1.0,
    "epsilons": [0.5],
    "taus": [0.05, 0.025, 0.0125],
    "half_width": 4.0,
    "grid_n": 128,
    "z_final": 0.4,
    "reference_tau": 1e-3,
    "potential": {"kind": "gaussian", "amplitude": -1.0, "width_sq": 1.0},
}


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def without_timing(path):
    """A CSV's header and rows without the walltime_s column, or a JSON
    document without run.json's written_unix stamp: what a rerun repeats."""
    if path.suffix == ".csv":
        header, rows = read_rows(path)
        keep = [i for i, column in enumerate(header) if column != "walltime_s"]
        return [[row[i] for i in keep] for row in (header, *rows)]
    doc = json.loads(path.read_text())
    doc.get("meta", {}).pop("written_unix", None)
    return doc


def read_state(path):
    header, rows = read_rows(path)
    assert header == ["x", "re", "im"]
    arr = np.array([[float(c) for c in row] for row in rows])
    return arr[:, 0], arr[:, 1] + 1j * arr[:, 2]


# ---------------------------------------------------------------------------
# reduce-moment


def test_reduce_moment_report(tmp_path, capsys):
    rc = main([
        "reduce-moment", "--kappa", "2", "--beta", "1", "--sign", "+",
        "--lambda", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "reduction.json").read_text())
    assert doc["alpha"] == 1.0
    assert doc["c"] == {"0": 0.5, "2": 2.0}
    assert doc["signFactor"] == 1
    assert doc["parity"] == "even"
    assert doc["droppedConstant"] == 0.5
    assert doc["order"] == 2
    assert '"signFactor": 1' in capsys.readouterr().out
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["command"] == "reduce-moment"
    assert run["meta"]["package"] == "dispersia"


def test_reduce_moment_fraction_beta(tmp_path):
    rc = main([
        "reduce-moment", "--kappa", "5", "--beta", "3/2", "--sign", "-",
        "--lambda", "-0.5", "--out", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "reduction.json").read_text())
    assert doc["beta"] == "3/2"
    assert doc["alpha"] == pytest.approx(5.0 - 2.0 / 3.0)
    assert doc["parity"] == "odd"
    assert doc["droppedConstant"] is None


def test_reduce_moment_degenerate_is_config_error(tmp_path, capsys):
    rc = main([
        "reduce-moment", "--kappa", "4", "--beta", "1", "--sign", "-",
        "--lambda", "0", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "degenerate" in capsys.readouterr().err


def test_reduce_moment_non_numeric_lambda_is_config_error(tmp_path, capsys):
    doc = {"kappa": 2, "beta": 1, "sign": "+", "lambda": "x"}
    rc = main(["reduce-moment", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "config error: lambda:" in capsys.readouterr().err


def test_reduce_moment_requires_beta(tmp_path, capsys):
    rc = main([
        "reduce-moment", "--kappa", "2", "--sign", "+", "--lambda", "1",
        "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "beta" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_free_flow_preserves_x_norm(tmp_path):
    cfg = write_config(tmp_path, FREE_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0

    header, rows = read_rows(out / "results.csv")
    assert header == [
        "scheme", "kappa", "alpha", "epsilon", "tau", "z_final", "j",
        "error_x", "normalized_error", "walltime_s",
    ]
    assert len(rows) == 1
    assert rows[0][0] == "ei"
    assert float(rows[0][7]) <= 1e-12  # error vs free flow; potential is off

    grid = Grid(4.0, 128)
    _, values = read_state(out / "final_state.csv")
    evolved = x_norm(SpectralField(grid, values=values))
    initial = x_norm(
        SpectralField(grid, values=sample_initial(InitialDataSpec.gaussian(), grid))
    )
    assert evolved == pytest.approx(initial, rel=1e-12, abs=0.0)


def test_solve_normalized_column_uses_regularity_rate(tmp_path):
    doc = dict(FREE_SOLVE)
    doc["potential"] = {"kind": "gaussian", "amplitude": -1.0, "width_sq": 1.0}
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_rows(out / "results.csv")
    err, normalized = float(rows[0][7]), float(rows[0][8])
    norm = regularity_normalizer(2, 1.0, 0, 0.25)
    assert normalized * norm == pytest.approx(err, rel=1e-12, abs=0.0)


def test_solve_run_json_round_trip(tmp_path):
    doc = dict(FREE_SOLVE)
    doc["potential"] = {"kind": "gaussian", "amplitude": -1.0, "width_sq": 1.0}
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(out1 / "run.json"), "--out", str(out2)]) == 0

    assert (out1 / "final_state.csv").read_bytes() == (out2 / "final_state.csv").read_bytes()
    assert without_timing(out1 / "results.csv") == without_timing(out2 / "results.csv")


def test_solve_determinism(tmp_path):
    doc = dict(FREE_SOLVE)
    doc["potential"] = {"kind": "gaussian", "amplitude": -1.0, "width_sq": 1.0}
    cfg = write_config(tmp_path, doc)
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "final_state.csv").read_bytes())
    assert outs[0] == outs[1]


def test_solve_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, FREE_SOLVE)
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out), "--epsilon", "0.125"])
    assert rc == 0
    run = json.loads((out / "run.json").read_text())
    assert run["epsilon"] == 0.125


def test_solve_with_preset(tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", "--preset", "schrodinger-a1", "--out", str(out), "--tau", "0.05"])
    assert rc == 0
    run = json.loads((out / "run.json").read_text())
    assert run["kappa"] == 2
    assert run["alpha"] == 1.0
    assert run["epsilon"] == 2.0**-6
    assert run["tau"] == 0.05
    assert run["grid_n"] is None  # echoed as read; the solve sized its own grid
    x, _ = read_state(out / "final_state.csv")
    assert x.size == 2048  # the smallest power of two with h <= eps = 2^-6


def test_solve_rejects_multiple_taus(tmp_path, capsys):
    cfg = write_config(tmp_path, FREE_SOLVE)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
               "--tau", "0.1,0.05"])
    assert rc == 1
    assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize("key,ladder", [("epsilon", {"epsilons": [0.25]}),
                                        ("tau", {"taus": [0.05]})])
def test_solve_reads_no_sweep_ladder(tmp_path, capsys, key, ladder):
    # solve reads each key under its own name: a sweep's list is not read
    doc = {**{k: v for k, v in FREE_SOLVE.items() if k != key}, **ladder}
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}: required")
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_convergence_artifacts_and_slope(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out = tmp_path / "out"
    rc = main(["sweep-convergence", "--config", cfg, "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "sweep-convergence: 3 cells" in printed

    header, rows = read_rows(out / "results.csv")
    assert len(rows) == 3
    rheader, rrows = read_rows(out / "rates.csv")
    assert rheader == ["group", "slope", "intercept", "r_squared", "points"]
    assert len(rrows) == 1
    assert rrows[0][0] == "scheme=ei;epsilon=0.5;x=tau"
    assert float(rrows[0][1]) == pytest.approx(1.0, abs=0.15)
    assert int(rrows[0][4]) == 3

    # plot.gp is always written, and reads results.csv's columns by their position
    gp = (out / "plot.gp").read_text()
    assert "set logscale xy" in gp
    assert '"results.csv"' in gp
    assert 'title "ei eps=0.5"' in gp
    assert 'using 5:(strcol(1) eq "ei" && $4 == 0.5 ? $8 : 1/0)' in gp
    assert [header.index(c) + 1 for c in ("scheme", "epsilon", "tau", "error_x")] == [1, 4, 5, 8]
    # a rerun asking for the plot by flag is refused: the flag is gone
    assert main(["sweep-convergence", "--config", cfg, "--out", str(out), "--emit-plots"]) == 1
    assert "unrecognized arguments: --emit-plots" in capsys.readouterr().err


def test_sweep_reruns_are_byte_identical_except_walltime(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    rows = []
    for sub in ("s1", "s2"):
        out = tmp_path / sub
        assert main(["sweep-convergence", "--config", cfg, "--out", str(out)]) == 0
        rows.append(without_timing(out / "results.csv"))
        (tmp_path / f"{sub}_rates").write_bytes((out / "rates.csv").read_bytes())
    assert rows[0] == rows[1]
    assert (tmp_path / "s1_rates").read_bytes() == (tmp_path / "s2_rates").read_bytes()


def test_sweep_run_json_round_trip_keeps_deriv_order(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep-convergence", "--config", write_config(tmp_path, SMALL_SWEEP),
                 "--deriv-order", "1", "--out", str(out1)]) == 0
    assert main(["sweep-convergence", "--config", str(out1 / "run.json"),
                 "--out", str(out2)]) == 0
    _, rows1 = read_rows(out1 / "results.csv")
    assert all(r[6] == "1" for r in rows1)
    assert without_timing(out1 / "results.csv") == without_timing(out2 / "results.csv")


def test_sweep_cell_failure_exit_code(tmp_path, capsys, monkeypatch):
    # every solve at eps 0.25 blows up: its cell fails once per scheme, exit 2
    real_solve = harness.solve

    def solve_or_blow_up(config, *taus, **kw):
        if config.model.epsilon == 0.25:
            raise NumericalBlowupError("non-finite values at step 1/1")
        return real_solve(config, *taus, **kw)

    monkeypatch.setattr(harness, "solve", solve_or_blow_up)
    doc = dict(SMALL_SWEEP, epsilons=[0.5, 0.25], taus=[0.05, 0.025], schemes=["ei", "lt"])
    out = tmp_path / "out"
    rc = main(["sweep-convergence", "--config", write_config(tmp_path, doc),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"numerical failure: cell scheme={s},epsilon=0.25: NumericalBlowupError: "
                   "non-finite values at step 1/1" for s in ("ei", "lt")]
    # the other cell still produced its records
    _, rows = read_rows(out / "results.csv")
    assert [(r[0], float(r[3])) for r in rows] == [("ei", 0.5)] * 2 + [("lt", 0.5)] * 2


def test_sweep_grid_too_coarse_for_one_epsilon_is_config_error(tmp_path, capsys):
    # h = 0.5 resolves eps 0.6 but exceeds 4 * 0.1: refused before any solve
    doc = dict(SMALL_SWEEP, half_width=16.0, grid_n=64, epsilons=[0.6, 0.1],
               taus=[0.05, 0.025], z_final=0.5)
    rc = main(["sweep-convergence", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "config error: grid_n: grid spacing h=0.5 exceeds 4*epsilon=0.4")
    assert not (tmp_path / "out").exists()


def test_sweep_with_zero_errors_writes_its_rows(tmp_path, capsys):
    # at z_final = 0 every solve returns its sampled data, so every error is
    # exactly 0: the rows are written and no rate is fitted to them
    out = tmp_path / "out"
    rc = main(["sweep-convergence", "--preset", "schrodinger-a1", "--epsilon", "0.015625",
               "--tau", "0.05,0.1", "--config", write_config(tmp_path, {"z_final": 0.0}),
               "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    _, rows = read_rows(out / "results.csv")
    assert [(float(r[4]), float(r[7])) for r in rows] == [(0.05, 0.0), (0.1, 0.0)]
    assert read_rows(out / "rates.csv") == (["group", "slope", "intercept", "r_squared",
                                             "points"], [])
    assert "0 fitted rates, 0 failures" in capsys.readouterr().out
    # gnuplot gets no log-scale curve over zeros, and no empty plot command
    assert not any(line.startswith("plot") for line in (out / "plot.gp").read_text().splitlines())


def test_sweep_regularity_at_z_final_zero_writes_zero_distances(tmp_path, capsys):
    # at z = 0 the free flow is the sampled data, as every solve is, so each
    # distance is exactly 0 and no rate is fitted to round-off
    out = tmp_path / "out"
    rc = main(["sweep-regularity", "--preset", "schrodinger-a1",
               "--config", write_config(tmp_path, {"z_final": 0.0}), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    _, rows = read_rows(out / "results.csv")
    assert [(float(r[3]), float(r[7])) for r in rows] == [(e, 0.0) for e in sorted(DESK_EPSILONS)]
    assert read_rows(out / "rates.csv")[1] == []


@pytest.mark.parametrize("command", ["sweep-convergence", "compare", "sweep-regularity"])
def test_preset_sweep_runs_the_desk_eps_ladder(tmp_path, command):
    # a preset's single epsilon feeds solve and verify-phase, not a sweep;
    # at z_final = 0 no solve takes a step, so the five cells are cheap
    out = tmp_path / "out"
    assert main([command, "--preset", "schrodinger-a1", "--config",
                 write_config(tmp_path, {"z_final": 0.0}), "--out", str(out)]) == 0
    _, rows = read_rows(out / "results.csv")
    assert sorted({float(r[3]) for r in rows}) == sorted(DESK_EPSILONS)
    assert json.loads((out / "run.json").read_text())["epsilons"] == list(DESK_EPSILONS)


def test_plot_script_draws_a_curve_only_where_every_error_is_positive(tmp_path):
    def row(scheme, eps, tau, err):
        return ErrorRecord(scheme, 2, 1.0, eps, tau, 1.0, 0, err, err, 0.0)

    def plot(rows, x_field="tau", keys=("scheme", "epsilon")):
        _write_plot_script(path, SweepResult(records=rows), x_field, keys)
        return path.read_text().splitlines()

    records = [row("ei", 0.5, 0.1, 1e-3), row("ei", 0.5, 0.05, 5e-4),
               row("lt", 0.5, 0.1, 2e-3), row("lt", 0.5, 0.05, 0.0), row("ei", 0.25, 0.1, 0.0)]
    path = tmp_path / "plot.gp"
    assert plot(records)[-2:] == ["plot \\", '    "results.csv" skip 1 using 5:(strcol(1) eq "ei"'
                                  ' && $4 == 0.5 ? $8 : 1/0) with linespoints title "ei eps=0.5"']
    # a sweep with no records, or none > 0, ends at the axis labels
    for rows in ([], records[3:]):
        assert plot(rows)[-1] == 'set ylabel "error_x"'
    # a regularity sweep draws one curve per (scheme, j) across eps, as its rates group
    regularity = [row("ei", eps, 0.01, 1e-3 * eps) for eps in (0.125, 0.25, 0.5)]
    assert plot(regularity, "epsilon", ("scheme", "j"))[-2:] == [
        "plot \\", '    "results.csv" skip 1 using 4:(strcol(1) eq "ei" && $7 == 0'
        ' ? $8 : 1/0) with linespoints title "ei j=0"']
    assert plot(regularity + [row("ei", 1.0, 0.01, 0.0)], "epsilon", ("scheme", "j"))[-1] \
        == 'set ylabel "error_x"'


@pytest.mark.parametrize("scheme,j", [("ei", 0), ("lt", 1)])
def test_solve_row_is_the_row_of_a_one_eps_regularity_sweep(tmp_path, scheme, j):
    # both measure one solve against the free flow through the same harness
    # function, so the rows agree in every column but walltime_s; with grid_n
    # null, each eps of a sweep runs on the grid a solve at that eps runs on
    doc = dict(FREE_SOLVE, scheme=scheme, deriv_order=j,
               potential={"kind": "gaussian", "amplitude": -1.0, "width_sq": 1.0})

    def run(command, config):
        out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
        assert main([command, "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == 0
        return without_timing(out / "results.csv")

    for epsilons, grid_n in (([0.25], 128), ([0.125, 0.25], None)):  # ascending, as rows sort
        swept = run("sweep-regularity", dict(doc, epsilons=epsilons, grid_n=grid_n,
                                             reference_scheme=scheme, reference_tau=doc["tau"]))
        solved = [run("solve", dict(doc, epsilon=eps, grid_n=grid_n)) for eps in epsilons]
        assert swept == [solved[0][0], *(rows[1] for rows in solved)]
    assert swept[1][0] == scheme and swept[1][6] == str(j)


def test_sweep_regularity_records_reference_tau(tmp_path):
    doc = {
        "kappa": 2, "alpha": 1.0, "half_width": 4.0, "grid_n": 64,
        "epsilons": [0.5, 0.25], "taus": [], "z_final": 0.5,
        "reference_tau": 2e-3,
        "potential": {"kind": "gaussian", "amplitude": -1.0, "width_sq": 1.0},
    }
    out = tmp_path / "out"
    rc = main(["sweep-regularity", "--config", write_config(tmp_path, doc),
               "--out", str(out)])
    assert rc == 0
    _, rows = read_rows(out / "results.csv")
    assert len(rows) == 2
    assert all(float(r[4]) == 2e-3 for r in rows)
    rates = json.loads((out / "run.json").read_text())
    assert rates["command"] == "sweep-regularity"


REGULARITY_ARGV = ["sweep-regularity", "--preset", "kdv-a1", "--epsilon", "0.25,0.125"]


def test_sweep_regularity_reads_no_tau_ladder(tmp_path, capsys):
    # it runs only the reference solve, so no tau ladder bounds reference_tau
    cfg = write_config(tmp_path, {"grid_n": 1024, "reference_tau": 0.01})
    out = tmp_path / "out"
    assert main([*REGULARITY_ARGV, "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out / "results.csv")
    assert [(r[0], float(r[4])) for r in rows] == [("ei", 0.01)] * 2
    run = json.loads((out / "run.json").read_text())
    assert "taus" not in run and "schemes" not in run
    capsys.readouterr()
    for flag, value in (("--tau", "0.05"), ("--scheme", "lt")):
        rc = main([*REGULARITY_ARGV, "--config", cfg, flag, value,
                   "--out", str(tmp_path / "refused")])
        assert rc == 1
        assert f"config error: unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "refused").exists()


def test_compare_defaults_to_all_schemes(tmp_path):
    doc = dict(SMALL_SWEEP)
    doc["taus"] = [0.05, 0.025]
    out = tmp_path / "out"
    rc = main(["compare", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 0
    _, rows = read_rows(out / "results.csv")
    assert sorted({r[0] for r in rows}) == ["ei", "lri", "lt", "strang"]
    run = json.loads((out / "run.json").read_text())
    assert run["schemes"] == ["ei", "lt", "strang", "lri"]


# schrodinger-a1 at eps 1/4 and 1/8, 16 steps of the rule's Strang truth at 2^-10
AUTO_COMPARE = ["compare", "--preset", "schrodinger-a1", "--epsilon", "0.25,0.125",
                "--tau", "0.0078125,0.015625"]
AUTO_CONFIG = {"z_final": 0.015625}


def test_a_sweep_given_no_reference_key_echoes_and_certifies_the_truth_it_ran(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([*AUTO_COMPARE, "--config", write_config(tmp_path, AUTO_CONFIG),
                 "--out", str(out1)]) == 0
    run = json.loads((out1 / "run.json").read_text())
    assert (run["reference_scheme"], run["reference_tau"]) == ("strang", 2.0**-10)
    header, rows = read_rows(out1 / "reference.csv")
    assert header == ["scheme", "epsilon", "tau", "grid_n", "order", "observed_order",
                      "fine_error", "self_error", "self_error_ratio", "walltime_s"]
    assert [row[:5] for row in rows] == [["strang", "0.125", "0.0009765625", "256", "2"],
                                         ["strang", "0.25", "0.0009765625", "128", "2"]]
    _, results = read_rows(out1 / "results.csv")
    for row in rows:
        least = min(float(r[7]) for r in results if r[3] == row[1])
        assert abs(float(row[5]) - 2) <= 0.02
        assert float(row[7]) <= 0.01 * float(row[6])
        assert float(row[8]) == float(row[7]) / least
    # the echoed truth replays as the rule's own, certified, not bounded by min(taus)/4
    assert main(["compare", "--config", str(out1 / "run.json"), "--out", str(out2)]) == 0
    for name in ("run.json", "results.csv", "reference.csv"):
        assert without_timing(out1 / name) == without_timing(out2 / name), name
    # a regularity sweep echoes the ei truth it ran, and reports no certificate
    out3 = tmp_path / "c"
    assert main(["sweep-regularity", "--preset", "schrodinger-a1", "--epsilon", "0.25",
                 "--config", write_config(tmp_path, {"z_final": 0.5}), "--out", str(out3)]) == 0
    run = json.loads((out3 / "run.json").read_text())
    assert (run["reference_scheme"], run["reference_tau"]) == ("ei", 2.5e-4)
    assert not (out3 / "reference.csv").exists()


def test_the_rules_truth_that_fails_its_certificate_exits_2_naming_the_cell(
        tmp_path, capsys, monkeypatch):
    real = harness.richardson_truth

    def off_by_a_tenth(config, j=0, *ladder):
        field, reference, *rows = real(config, j, *ladder)
        return (field, dataclasses.replace(reference, observed_order=reference.observed_order + 0.1),
                *rows)

    monkeypatch.setattr(harness, "richardson_truth", off_by_a_tenth)
    out = tmp_path / "out"
    assert main([*AUTO_COMPARE, "--epsilon", "0.25", "--scheme", "ei,lt",
                 "--config", write_config(tmp_path, AUTO_CONFIG), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": UncertifiedReferenceError: ")[0] for line in err] == [
        f"numerical failure: cell scheme={s},epsilon=0.25" for s in ("ei", "lt")]
    assert all("strang truth at tau=0.000976562: observed order 2.1" in line for line in err)
    assert read_rows(out / "results.csv")[1] == []
    assert len(read_rows(out / "reference.csv")[1]) == 1
    # an ei truth is reported, not gated
    doc = dict(AUTO_CONFIG, reference_scheme="ei", reference_tau=2.0**-10)
    assert main([*AUTO_COMPARE, "--epsilon", "0.25", "--scheme", "ei,lt",
                 "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0


def test_a_named_strang_truth_that_fails_its_certificate_exits_2_naming_each_cell(
        tmp_path, capsys):
    # Strang at the desk's 2.5e-4 on the rough well is off its tau^2 regime;
    # min(taus)/4 admitted it, and ei then read slope 0.50 at eps 2^-6
    out = tmp_path / "out"
    doc = {"grid_n": 4096, "reference_scheme": "strang"}
    assert main(["sweep-convergence", "--preset", "kdv-a3/2", "--epsilon", "0.015625,0.0625",
                 "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": UncertifiedReferenceError: ")[0] for line in err] == [
        f"numerical failure: cell scheme=ei,epsilon={e}" for e in ("0.015625", "0.0625")]
    assert "strang truth at tau=0.00025: observed order 1.9392" in err[0]
    assert "strang truth at tau=0.00025: observed order 1.2635" in err[1]
    assert read_rows(out / "results.csv")[1] == []


def test_a_config_holding_workers_runs_as_one_without_it(tmp_path):
    # older configs hold workers: the sweep ignores the key like any other it
    # does not read, and run.json does not echo it
    outs = []
    for name, doc in (("plain", SMALL_SWEEP), ("workers", dict(SMALL_SWEEP, workers=2))):
        out = tmp_path / name
        assert main(["sweep-convergence", "--config", write_config(tmp_path, doc, f"{name}.json"),
                     "--out", str(out)]) == 0
        assert "workers" not in json.loads((out / "run.json").read_text())
        outs.append(out)
    plain, workers = outs
    assert without_timing(plain / "results.csv") == without_timing(workers / "results.csv")
    assert (plain / "rates.csv").read_bytes() == (workers / "rates.csv").read_bytes()


# ---------------------------------------------------------------------------
# verify-phase


def test_verify_phase_quadratic(tmp_path, capsys):
    doc = {"kappa": 2, "alpha": 1.0, "epsilon": 0.0625,
           "samples": 5000, "grid_points": 81}
    out = tmp_path / "out"
    rc = main(["verify-phase", "--config", write_config(tmp_path, doc),
               "--out", str(out), "--seed", "7"])
    assert rc == 0
    doc = json.loads((out / "phase_report.json").read_text())
    assert doc["identityOk"] is True
    assert doc["maxRelDeviation"] <= 1e-10
    assert doc["minRatio"] == pytest.approx(0.5, rel=1e-12, abs=0.0)
    assert doc["c0"] == 1.0 and doc["c0Searched"] is True
    assert doc["lowerBoundOk"] is True
    assert doc["admissibleCount"] > 0
    assert doc["seed"] == 7
    assert "minRatio=0.5" in capsys.readouterr().out


@pytest.mark.parametrize("field,value", [
    ("samples", -5), ("samples", 0), ("grid_points", 0), ("xi_max", 0), ("xi_max", -1.0),
    # non-integers are refused by name, not truncated into run.json
    ("samples", "many"), ("samples", 1.9), ("samples", True), ("grid_points", 12.7),
    ("seed", -3),
    # a value the field's reader cannot take names the field
    ("alpha", "x"), ("epsilon", "x"), ("xi_max", "x"), ("c0", "x"), ("coeffs", 5),
    # refused by the table before any sampling, not by the sampler or the scan
    ("xi_max", math.inf), ("xi_max", math.nan),
    ("c0", math.nan), ("c0", math.inf), ("c0", -1.0), ("c0", 0.0),
])
def test_verify_phase_bad_sampling_is_config_error(tmp_path, capsys, field, value):
    doc = {"kappa": 2, "alpha": 1.0, "epsilon": 0.0625, "samples": 100, "grid_points": 11}
    doc[field] = value
    rc = main(["verify-phase", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.json").exists()


@pytest.mark.parametrize("c0,xi_max", [(None, 1e-9), (4.0, 0.05)])
def test_verify_phase_grid_with_no_admissible_point_is_config_error(tmp_path, capsys, c0,
                                                                    xi_max):
    # the scan would start at the given c0, or at the search's first, 1: either
    # way every |xi1| and |eta| on the grid lies below c0*eps
    doc = {"xi_max": xi_max, "c0": c0, "samples": 10, "grid_points": 5}
    rc = main(["verify-phase", "--kappa", "2", "--alpha", "1",
               "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "config error: xi_max: no admissible samples: all |xi1| and |eta| below "
        f"c0*eps = {(c0 or 1.0) * 2.0**-6}\n")
    assert not (tmp_path / "out").exists()


def test_verify_phase_c0_search_stops_at_the_last_candidate_that_admits_a_point(tmp_path,
                                                                               capsys):
    # c0 = 1 admits points but keeps the ratio below the floor; at c0 = 2,
    # c0*eps = 0.03125 exceeds every |xi1| and |eta| of the grid
    doc = {"xi_max": 0.0234, "samples": 10, "grid_points": 101, "coeffs": [1.0, -1.0]}
    out = tmp_path / "out"
    rc = main(["verify-phase", "--kappa", "4", "--alpha", "1",
               "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    report = json.loads((out / "phase_report.json").read_text())
    assert report["c0"] == 1.0 and report["c0Searched"] is True
    assert report["admissibleCount"] > 0 and report["lowerBoundOk"] is False
    assert capsys.readouterr().err == (
        "numerical failure: cell bound-scan: no candidate c0 reaches min ratio 0.05; "
        f"best was {report['minRatio']}\n")


def test_verify_phase_failed_c0_search_is_numerical_failure(tmp_path, capsys):
    # the near-resonant kappa = 4 model keeps its ratio below the floor at
    # every candidate c0: the scan ran, so the run writes its report and exits 2
    doc = {"coeffs": [1.0, -10000.0], "samples": 1000, "grid_points": 100}
    out = tmp_path / "out"
    rc = main(["verify-phase", "--kappa", "4", "--alpha", "1", "--epsilon", "0.015625",
               "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    report = json.loads((out / "phase_report.json").read_text())
    assert report["c0Searched"] is True and report["c0"] == 64.0
    assert report["lowerBoundOk"] is False and report["identityOk"] is True
    assert capsys.readouterr().err == (
        "numerical failure: cell bound-scan: no candidate c0 reaches min ratio 0.05; "
        f"best was {report['minRatio']}\n")
    assert json.loads((out / "run.json").read_text())["c0"] is None


@pytest.mark.parametrize("c0", [2.0, None])
def test_verify_phase_scans_each_c0_once(tmp_path, monkeypatch, c0):
    # a given c0, or a search whose first candidate (c0 = 1, min ratio 0.5)
    # clears the floor: one scan either way, through either binding
    calls = []
    scan = model.verify_phase_lower_bound

    def counted(*args):
        calls.append(args[1])
        return scan(*args)

    for mod in (cli, model):
        monkeypatch.setattr(mod, "verify_phase_lower_bound", counted)
    doc = {"kappa": 2, "alpha": 1.0, "epsilon": 0.0625, "samples": 100, "grid_points": 81,
           "c0": c0}
    out = tmp_path / "out"
    assert main(["verify-phase", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    assert calls == [c0 or 1.0]
    assert json.loads((out / "phase_report.json").read_text())["c0"] == (c0 or 1.0)


def test_verify_phase_memory_stays_block_sized(tmp_path):
    def traced_peak(samples):
        doc = {"kappa": 5, "alpha": 1.0, "epsilon": 2.0**-6, "samples": samples,
               "grid_points": 1500, "xi_max": 8.0}
        tracemalloc.start()
        try:
            rc = main(["verify-phase", "--config", write_config(tmp_path, doc),
                       "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        return peak

    # an untraced first call, so that what it loads once is not counted
    assert main(["verify-phase", "--out", str(tmp_path / "warm"), "--kappa", "5",
                 "--alpha", "1", "--config", write_config(tmp_path, {"samples": 10})]) == 0
    peak = traced_peak(500_000)
    # the samples are drawn a block at a time and the scan walks blocks of
    # rows: the peak is at most a few dozen block-sized arrays (a
    # 500,000-sample array alone is 4 MB), and four times the samples add
    # less than one
    block = 8 * _CHUNK
    assert peak < 32 * block
    assert traced_peak(2_000_000) < peak + block


def test_verify_phase_streamed_samples_are_the_whole_draws(tmp_path):
    # xi1 is the seed's first n draws and xi2 the next n; a sample count that
    # is no multiple of the block puts a short block at the end of both
    n, seed, xi_max = 2 * _CHUNK + 17, 4, 8.0
    doc = {"kappa": 5, "alpha": 1.0, "epsilon": 2.0**-6, "samples": n, "grid_points": 20,
           "xi_max": xi_max}
    out = tmp_path / "out"
    assert main(["verify-phase", "--config", write_config(tmp_path, doc), "--seed", str(seed),
                 "--out", str(out)]) == 0
    rng = np.random.default_rng(seed)
    xi1, xi2 = rng.uniform(-xi_max, xi_max, n), rng.uniform(-xi_max, xi_max, n)
    model = DispersiveModel(5, (1.0, 0.0, 0.0), 1.0, 2.0**-6)
    direct, factored = eval_phase(model, xi1, xi2), eval_phase_factored(model, xi1, xi2)
    denom = np.maximum(np.abs(direct), np.abs(factored))
    whole = float(np.max(np.abs(factored - direct) / np.where(denom > 0, denom, 1.0)))
    report = json.loads((out / "phase_report.json").read_text())
    assert whole > 0.0  # a deviation that tells one draw from another
    assert report["maxRelDeviation"] == whole


@pytest.mark.parametrize("xi_max", [8.0, 3.7, 0.1, 123.456, 1e-3])
def test_sample_blocks_are_uniform_draws_bit_for_bit(xi_max):
    # the in-place draws against uniform's own, a partial last block included
    n, seed = 2 * _CHUNK + 17, 9
    drawn = list(cli._sample_blocks(seed, n, xi_max))
    assert [b[0].size for b in drawn] == [_CHUNK, _CHUNK, 17]
    rng = np.random.default_rng(seed)
    whole = rng.uniform(-xi_max, xi_max, 2 * n)
    for k, side in enumerate(zip(*drawn)):
        assert np.concatenate(side).tobytes() == whole[k * n:(k + 1) * n].tobytes()


def test_main_builds_its_parser_once(tmp_path, capsys):
    # two calls share one parser and each reads its own flags
    cli.build_parser.cache_clear()
    for lam, out in ((1.0, "a"), (2.0, "b")):
        assert main(["reduce-moment", "--kappa", "2", "--beta", "1", "--sign", "+",
                     "--lambda", repr(lam), "--out", str(tmp_path / out)]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for lam, out in ((1.0, "a"), (2.0, "b")):
        assert json.loads((tmp_path / out / "reduction.json").read_text())["lambda"] == lam


def oracle_max_rel_deviation(model, seed, n, xi_max):
    """_max_rel_deviation as it was before it worked in place on the two
    forms' outputs: the oracle for it, bit for bit."""
    block_max = []
    for xi1, xi2 in cli._sample_blocks(seed, n, xi_max):
        direct = cli.eval_phase(model, xi1, xi2)
        factored = cli.eval_phase_factored(model, xi1, xi2)
        denom = np.maximum(np.abs(direct), np.abs(factored))
        block_max.append(np.max(np.abs(factored - direct) / np.where(denom > 0, denom, 1.0)))
    return float(np.max(block_max))


@pytest.mark.parametrize("kappa,coeffs", [(2, (1.0,)), (3, (1.0, -2.0)), (4, (1.0, 0.0)),
                                          (5, (1.0, -1.0, 0.25))])
def test_identity_check_is_its_oracle_on_the_draws(kappa, coeffs):
    m = DispersiveModel(kappa, coeffs, 1.0, 2.0**-6)
    n = _CHUNK + 123
    assert cli._max_rel_deviation(m, 3, n, 8.0).hex() == oracle_max_rel_deviation(m, 3, n, 8.0).hex()


@pytest.mark.parametrize("direct,factored", [
    ([0.0, -0.0, 1.0, 2.0], [0.0, 0.0, 1.0 + 2.0**-50, 2.0]),  # both zero: gap 0 over 0
    ([-0.0, 3.0], [1e-320, 3.0]),  # a subnormal denominator
    ([0.0, math.nan, 1.0], [0.0, 1.0, 1.0]),  # a NaN denominator: the NaN gap wins
    ([math.inf, 1.0], [math.inf, 1.0]),  # inf - inf
    ([-2.0, 5.0], [-2.0 * (1.0 + 2.0**-40), -math.inf]),
])
def test_identity_check_is_its_oracle_where_a_form_vanishes_or_is_not_finite(monkeypatch,
                                                                            direct, factored):
    # each patched form returns a fresh array of its values, as the real ones do
    for name, values in (("eval_phase", direct), ("eval_phase_factored", factored)):
        monkeypatch.setattr(cli, name, lambda model, xi1, xi2, v=values:
                            np.resize(np.array(v, dtype=np.float64), xi1.shape))
    m = DispersiveModel(2, (1.0,), 1.0, 2.0**-6)
    with np.errstate(invalid="ignore"):
        want = oracle_max_rel_deviation(m, 1, 40, 8.0)
        assert cli._max_rel_deviation(m, 1, 40, 8.0).hex() == want.hex()


@pytest.mark.parametrize("command,field,value", [
    ("sweep-convergence", "grid_n", "big"),
    # a library check on one field is reported under the field's config key
    ("solve", "grid_n", 12), ("sweep-convergence", "grid_n", 12),
    ("solve", "deriv_order", -3), ("sweep-convergence", "deriv_order", -3),
    ("solve", "coeffs", 5), ("sweep-convergence", "coeffs", 5),
    ("solve", "alpha", "x"), ("solve", "epsilon", "x"), ("solve", "z_final", "x"),
    ("sweep-convergence", "half_width", "x"), ("sweep-convergence", "reference_tau", "x"),
    # step inputs are checked before reference_tau is compared with the taus
    ("solve", "tau", "nan"), ("solve", "tau", 0), ("solve", "z_final", -1),
    ("sweep-convergence", "taus", "nan"), ("sweep-convergence", "taus", 0),
    ("sweep-convergence", "reference_tau", "inf"), ("sweep-convergence", "reference_tau", 0),
    ("sweep-convergence", "z_final", -1), ("sweep-convergence", "z_final", "nan"),
    # refused by the library input (SweepConfig, the solve's step count, the
    # reduction), which is built before the output directory
    ("sweep-convergence", "reference_tau", 0.01), ("compare", "schemes", "ei,bogus"),
    ("sweep-convergence", "reference_scheme", "rk4"), ("solve", "tau", 0.3),
    ("reduce-moment", "lambda", 0), ("compare", "taus", "0.05,0.3"),
    ("sweep-regularity", "reference_tau", 0.3), ("sweep-convergence", "taus", "inf"),
    ("sweep-convergence", "epsilons", "0"), ("sweep-convergence", "epsilons", "nan"),
    ("sweep-convergence", "epsilons", ""),
    # an empty ladder or scheme list would run no cell and exit 0
    ("sweep-convergence", "taus", ""), ("sweep-convergence", "taus", []),
    ("sweep-convergence", "schemes", ""), ("compare", "taus", ""),
    # out of range: refused by the library object the field feeds
    ("solve", "kappa", 1), ("sweep-convergence", "kappa", 1),
    ("solve", "alpha", 9), ("sweep-convergence", "alpha", 9),
    ("solve", "epsilon", 0), ("solve", "epsilon", 2), ("sweep-convergence", "epsilons", 2),
    ("solve", "half_width", -1), ("sweep-convergence", "half_width", -1),
    ("solve", "scheme", "rk4"), ("sweep-convergence", "schemes", "rk4"),
    ("reduce-moment", "kappa", 1), ("reduce-moment", "sign", "x"),
    ("reduce-moment", "beta", 0.5), ("reduce-moment", "lambda", "nan"),
    # refused at run time before, after --out was made
    pytest.param("solve", "potential", {"kind": "tabulated", "samples": [0.0, 0.0, 0.0]},
                 id="solve-potential-3-samples"),
    pytest.param("solve", "initial", {"kind": "tabulated", "samples": [1.0, 1.0, 1.0]},
                 id="solve-initial-3-samples"),
    # a sample count other than grid_n: refused by SweepConfig, not failed in every cell
    pytest.param("sweep-convergence", "potential", {"kind": "tabulated", "samples": [0, 0, 0]},
                 id="sweep-convergence-potential-3-samples"),
    pytest.param("sweep-convergence", "initial", {"kind": "tabulated", "samples": [1, 1, 1]},
                 id="sweep-convergence-initial-3-samples"),
    ("compare", "schemes", "ei"), ("verify-phase", "xi_max", 1e308),
    # a repeated value would measure its cells twice (and compare ei with itself)
    ("compare", "schemes", "ei,ei"), ("sweep-convergence", "taus", "0.05,0.025,0.05"),
    ("sweep-convergence", "epsilons", "0.5,0.5"),
    # a spec refuses a non-finite parameter or sample, which would blow up the first step
    pytest.param("solve", "potential", {"kind": "gaussian", "amplitude": math.nan},
                 id="solve-potential-amplitude-nan"),
    pytest.param("solve", "potential", {"kind": "gaussian", "width_sq": math.nan},
                 id="solve-potential-width_sq-nan"),
    pytest.param("solve", "potential", {"kind": "exp_abs", "amplitude": -math.inf},
                 id="solve-potential-exp_abs-inf"),
    pytest.param("solve", "initial", {"kind": "plane_wave", "xi0": math.inf},
                 id="solve-initial-xi0-inf"),
    pytest.param("sweep-convergence", "potential",
                 {"kind": "tabulated", "samples": [0.0] * 127 + [math.nan]},
                 id="sweep-convergence-potential-nan-sample"),
    pytest.param("sweep-convergence", "initial",
                 {"kind": "tabulated", "samples": [1.0] * 127 + [[0.0, math.inf]]},
                 id="sweep-convergence-initial-inf-sample"),
    # a key that is no parameter of the spec's kind is refused, not dropped
    pytest.param("solve", "potential", {"kind": "gaussian", "amplitud": -5.0, "widthsq": 3.0},
                 id="solve-potential-misspelt"),
    pytest.param("solve", "initial", {"kind": "plane_wave", "xi": 2.0},
                 id="solve-initial-misspelt"),
    pytest.param("solve", "potential", {"kind": "exp_abs", "width_sq": 4.0},
                 id="solve-potential-exp_abs-width_sq"),
])
def test_bad_integer_field_is_config_error(tmp_path, capsys, command, field, value):
    doc = dict({"solve": FREE_SOLVE, "reduce-moment": REDUCTION}.get(command, SMALL_SWEEP))
    doc[field] = value
    rc = main([command, "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,field,value", [
    ("solve", "epsilon", 0), ("solve", "epsilon", -1), ("solve", "half_width", -1),
    ("solve", "half_width", "inf"), ("sweep-convergence", "half_width", -1),
    ("sweep-convergence", "half_width", "nan"),
])
def test_bad_field_is_refused_before_the_grid_is_sized(tmp_path, capsys, command, field, value):
    # with no grid_n the build sizes the grid from half_width and epsilon
    doc = dict(FREE_SOLVE if command == "solve" else SMALL_SWEEP, grid_n=None)
    doc[field] = value
    rc = main([command, "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_coarse_solve_grid_is_config_error(tmp_path, capsys):
    # h = 0.5 exceeds 4*eps = 0.0625: refused as grid_n, not failed inside the solve
    rc = main(["solve", "--preset", "schrodinger-a1", "--config",
               write_config(tmp_path, {"grid_n": 64}), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "config error: grid_n: grid spacing h=0.5 exceeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


REGULARITY_SWEEP = dict(SMALL_SWEEP, epsilons=[0.5, 0.25], taus=[])


@pytest.mark.parametrize("command,doc", [
    ("solve", FREE_SOLVE), ("sweep-regularity", REGULARITY_SWEEP),
])
def test_deriv_order_at_kappa_fails_before_any_solve(tmp_path, capsys, command, doc):
    # the regularity rate that normalizes these errors exists only for j < kappa
    out = tmp_path / "out"
    rc = main([command, "--config", write_config(tmp_path, dict(doc, deriv_order=2)),
               "--out", str(out)])
    assert rc == 1
    assert "config error: deriv_order: derivative order must be < kappa" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,doc", [
    ("sweep-convergence", SMALL_SWEEP), ("compare", SMALL_SWEEP),
])
def test_deriv_order_at_kappa_is_fine_where_the_rate_ignores_it(tmp_path, command, doc):
    doc = dict(doc, deriv_order=2, taus=[0.05, 0.025])
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_rows(out / "results.csv")
    assert rows and all(r[6] == "2" for r in rows)


# ---------------------------------------------------------------------------
# configuration errors


def test_unknown_preset_is_config_error(tmp_path, capsys):
    rc = main(["solve", "--preset", "airy-a7", "--out", str(tmp_path)])
    assert rc == 1
    assert "preset" in capsys.readouterr().err


def test_decimal_preset_name_exits_1_with_the_known_presets(tmp_path, capsys):
    # a preset has one name: kdv-a3/2, not kdv-a1.5
    rc = main(["sweep-convergence", "--preset", "kdv-a1.5", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "config error: preset: unknown preset 'kdv-a1.5'; known presets: kdv-a1, kdv-a2, "
        "kdv-a3/2, schrodinger-a1, schrodinger-a3/4, schrodinger-a4/3\n")
    assert not (tmp_path / "out").exists()


def test_missing_model_fields_named(tmp_path, capsys):
    doc = {k: v for k, v in FREE_SOLVE.items() if k != "kappa"}
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "kappa" in capsys.readouterr().err


def test_non_integer_kappa_named(tmp_path, capsys):
    doc = dict(FREE_SOLVE)
    doc["kappa"] = "two"
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "kappa" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    rc = main(["solve", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 1
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--frobnicate"],
    # flags a subcommand has no use for are refused, not ignored
    ["solve", "--preset", "schrodinger-a1", "--tau", "0.05", "--seed", "3"],
    ["reduce-moment", "--kappa", "2", "--beta", "1", "--sign", "+", "--lambda", "1",
     "--workers", "2"],
    ["verify-phase", "--kappa", "2", "--alpha", "1", "--emit-plots"],
    # a sweep runs its eps cells in order, so it has no worker count to set
    *([command, "--preset", "schrodinger-a1", "--workers", "2"]
      for command in ("sweep-convergence", "sweep-regularity", "compare")),
], ids=["frobnicate", "solve-seed", "reduce-moment-workers", "verify-phase-emit-plots",
        "sweep-convergence-workers", "sweep-regularity-workers", "compare-workers"])
def test_unknown_flag_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "refused"
    rc = main([*argv, "--out", str(out)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_fractional_step_count_is_config_error(tmp_path, capsys):
    doc = dict(FREE_SOLVE)
    doc.update(tau=0.3, z_final=0.5)
    rc = main(["solve", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == 1
    assert "step count" in capsys.readouterr().err


def test_reference_tau_whose_quadruple_does_not_divide_z_final_is_config_error(tmp_path, capsys):
    # a sweep's truth also solves at twice and four times reference_tau: 1/0.2
    # = 5 and 1/0.1 = 10 steps are whole, 1/0.8 and 1/0.4 = 2.5 are not, so
    # the run is refused before --out is made
    for tau_r in (0.2, 0.1):
        cfg = write_config(tmp_path, dict(SMALL_SWEEP, taus=[1.0], z_final=1.0,
                                          reference_tau=tau_r))
        for command in ("sweep-convergence", "compare"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
            assert "must be a multiple of 4" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        # sweep-regularity runs reference_tau alone, so any step count is fine there
        assert main(["sweep-regularity", "--config", cfg,
                     "--out", str(tmp_path / "regularity")]) == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dispersia" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# replay through run.json

REPLAY_CASES = {
    "solve": (FREE_SOLVE, "results.csv"),
    "sweep-convergence": (SMALL_SWEEP, "results.csv"),
    # grid_n is left null, which run.json must echo as such
    "sweep-regularity": (dict(SMALL_SWEEP, epsilons=[0.5, 0.25], taus=[], grid_n=None),
                         "results.csv"),
    "compare": (dict(SMALL_SWEEP, taus=[0.05, 0.025]), "results.csv"),
    "reduce-moment": ({"kappa": 3, "beta": "3/2", "sign": "-", "lambda": 2.0},
                      "reduction.json"),
    # c0 is left to the search, which run.json must echo as such
    "verify-phase": ({"kappa": 2, "alpha": 1.0, "epsilon": 0.0625, "samples": 500,
                      "grid_points": 21}, "phase_report.json"),
}


@pytest.mark.parametrize("command", sorted(REPLAY_CASES))
def test_run_json_replay_reproduces_the_run(tmp_path, command):
    doc, primary = REPLAY_CASES[command]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out1)]) == 0
    assert main([command, "--config", str(out1 / "run.json"), "--out", str(out2)]) == 0
    for name in ("run.json", primary):
        assert without_timing(out1 / name) == without_timing(out2 / name), name


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("command,workload", [
    ("compare", "compare-schrodinger"), ("sweep-convergence", "convergence-kdv"),
])
def test_committed_run_json_replays_to_the_committed_outputs(tmp_path, command, workload):
    # the golden outputs are what the program wrote from that run.json; a
    # replay matches them to the byte in every column but walltime_s
    golden = GOLDEN / workload
    out = tmp_path / "out"
    assert main([command, "--config", str(golden / "run.json"), "--out", str(out)]) == 0
    for name in ("run.json", "results.csv", "rates.csv"):
        assert without_timing(out / name) == without_timing(golden / name), name


def test_verify_phase_replays_the_committed_phase_reports(tmp_path):
    # the reports verify-phase wrote for the phase-scan benchmark workload's
    # four kappa at eps 2^-6, alpha 1, seed 1: to the byte, maxRelDeviation
    # and the scan's worst point included
    config = write_config(tmp_path, {"samples": 500_000, "grid_points": 1500, "xi_max": 8.0})
    for kappa in (2, 3, 4, 5):
        out = tmp_path / f"k{kappa}"
        assert main(["verify-phase", "--config", config, "--kappa", str(kappa), "--alpha", "1.0",
                     "--epsilon", repr(2.0**-6), "--seed", "1", "--out", str(out)]) == 0
        golden = GOLDEN / "phase-scan" / f"k{kappa}.json"
        assert (out / "phase_report.json").read_bytes() == golden.read_bytes(), kappa


@pytest.mark.parametrize("kappa,coeffs,name", [
    (5, [1.0, 0.0, 1.0], "k5-coeffs-1-0-1"), (4, [1.0, -1.0], "k4-coeffs-1-m1"),
])
def test_verify_phase_replays_the_committed_reports_of_non_pure_models(
        tmp_path, kappa, coeffs, name):
    # as above for a nonnegative non-pure model, whose scan may pass over
    # blocks, and a mixed-sign one, whose scan visits every block
    config = write_config(tmp_path, {"samples": 500_000, "grid_points": 1500, "xi_max": 8.0,
                                     "coeffs": coeffs})
    out = tmp_path / "out"
    assert main(["verify-phase", "--config", config, "--kappa", str(kappa), "--alpha", "1.0",
                 "--epsilon", repr(2.0**-6), "--seed", "1", "--out", str(out)]) == 0
    golden = GOLDEN / "phase-scan" / f"{name}.json"
    assert (out / "phase_report.json").read_bytes() == golden.read_bytes()


# ---------------------------------------------------------------------------
# documentation

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_keys() -> dict[str, list[str]]:
    """Per subcommand, the backticked keys of its bullet under README's "Each
    subcommand reads the config keys below", up to the end of the bullet's
    first sentence."""
    text = README.read_text()
    section = text[text.index("Each subcommand reads the config keys below"):]
    section = section[:section.index("\n#")]
    keys = {}
    for bullet in re.findall(r"^- (.*(?:\n  .*)*)", section, re.M):
        head, _, body = " ".join(bullet.split()).partition(": ")
        sentence = re.split(r"\.(?: |$)", body)[0]
        for command in re.findall(r"`([\w-]+)`", head):
            keys[command] = re.findall(r"`([^`]+)`", sentence)
    return keys


def test_readme_lists_the_keys_each_subcommand_reads():
    # a key in brackets has a flag; a key the table does not read is not listed
    listed = readme_keys()
    assert sorted(listed) == sorted(cli._COMMANDS)
    for command, (table, _, _) in cli._COMMANDS.items():
        assert sorted(listed[command]) == sorted(
            f"[{key}]" if flag else key for key, _, _, flag, _ in table), command


# ---------------------------------------------------------------------------
# entry point


def test_console_script_runs(tmp_path):
    # the script entry declared in pyproject.toml, run as its own process
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'dispersia = "dispersia.cli:main"' in pyproject
    # the process imports dispersia from where this one did, installed or not
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from dispersia.cli import main; sys.exit(main())",
         "reduce-moment", "--kappa", "3", "--beta", "1",
         "--sign", "-", "--lambda", "2", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "reduction.json").read_text())
    assert doc["alpha"] == 2.0
    assert math.isclose(doc["c"]["1"], 6.0)  # binom(3,1) * |2|^2 / 2^1
