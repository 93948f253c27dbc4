"""Command line contract: artifacts, reproducibility, exit codes.

Exit codes are 0 success, 1 configuration error naming the field, 2 numerical
failure naming the cell.  Reruns must be byte-identical except walltime_s.
"""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dispersia import harness
from dispersia.cli import _write_plot_script, main
from dispersia.harness import ErrorRecord, regularity_normalizer
from dispersia.integrators import NumericalBlowupError
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
    _, rows1 = read_rows(out1 / "results.csv")
    _, rows2 = read_rows(out2 / "results.csv")
    assert rows1[0][:9] == rows2[0][:9]  # all columns except walltime_s


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
    assert run["grid_n"] == 2048


def test_solve_rejects_multiple_taus(tmp_path, capsys):
    cfg = write_config(tmp_path, FREE_SOLVE)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
               "--tau", "0.1,0.05"])
    assert rc == 1
    assert "tau" in capsys.readouterr().err


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
        _, r = read_rows(out / "results.csv")
        rows.append(r)
        (tmp_path / f"{sub}_rates").write_bytes((out / "rates.csv").read_bytes())
    for r1, r2 in zip(*rows):
        assert r1[:9] == r2[:9]
    assert (tmp_path / "s1_rates").read_bytes() == (tmp_path / "s2_rates").read_bytes()


def test_sweep_run_json_round_trip_keeps_deriv_order(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep-convergence", "--config", write_config(tmp_path, SMALL_SWEEP),
                 "--deriv-order", "1", "--out", str(out1)]) == 0
    assert main(["sweep-convergence", "--config", str(out1 / "run.json"),
                 "--out", str(out2)]) == 0
    _, rows1 = read_rows(out1 / "results.csv")
    _, rows2 = read_rows(out2 / "results.csv")
    assert all(r[6] == "1" for r in rows1)
    assert [r[:9] for r in rows1] == [r[:9] for r in rows2]


def test_sweep_cell_failure_exit_code(tmp_path, capsys, monkeypatch):
    # every solve at eps 0.25 blows up: its cell fails once per scheme, exit 2
    real_solve = harness.solve

    def solve_or_blow_up(config):
        if config.model.epsilon == 0.25:
            raise NumericalBlowupError("non-finite values at step 1/1")
        return real_solve(config)

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
               taus=[0.05, 0.025], reference_tau=2e-3, z_final=0.5)
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
    rc = main(["sweep-convergence", "--preset", "schrodinger-a1", "--tau", "0.05,0.1",
               "--config", write_config(tmp_path, {"z_final": 0.0}), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    _, rows = read_rows(out / "results.csv")
    assert [(float(r[4]), float(r[7])) for r in rows] == [(0.05, 0.0), (0.1, 0.0)]
    assert read_rows(out / "rates.csv") == (["group", "slope", "intercept", "r_squared",
                                             "points"], [])
    assert "0 fitted rates, 0 failures" in capsys.readouterr().out
    # gnuplot gets no log-scale curve over zeros, and no empty plot command
    assert not any(line.startswith("plot") for line in (out / "plot.gp").read_text().splitlines())


def test_plot_script_draws_a_curve_only_where_every_error_is_positive(tmp_path):
    def row(scheme, eps, tau, err):
        return ErrorRecord(scheme, 2, 1.0, eps, tau, 1.0, 0, err, err, 0.0)

    records = [row("ei", 0.5, 0.1, 1e-3), row("ei", 0.5, 0.05, 5e-4),
               row("lt", 0.5, 0.1, 2e-3), row("lt", 0.5, 0.05, 0.0), row("ei", 0.25, 0.1, 0.0)]
    path = tmp_path / "plot.gp"
    _write_plot_script(path, records, "tau")
    lines = path.read_text().splitlines()
    assert lines[-2:] == ["plot \\", '    "results.csv" skip 1 using 5:(strcol(1) eq "ei" && '
                          '$4 == 0.5 ? $8 : 1/0) with linespoints title "ei eps=0.5"']
    # a sweep with no records, or none > 0, ends at the axis labels
    for rows in ([], records[3:]):
        _write_plot_script(path, rows, "tau")
        assert path.read_text().splitlines()[-1] == 'set ylabel "error_x"'


@pytest.mark.parametrize("scheme,j", [("ei", 0), ("lt", 1)])
def test_solve_row_is_the_row_of_a_one_eps_regularity_sweep(tmp_path, scheme, j):
    # both measure one solve against the free flow through the same harness
    # function, so the rows agree in every column but walltime_s
    doc = dict(FREE_SOLVE, scheme=scheme, deriv_order=j,
               potential={"kind": "gaussian", "amplitude": -1.0, "width_sq": 1.0})
    sweep = dict(doc, epsilons=[doc["epsilon"]], reference_scheme=scheme,
                 reference_tau=doc["tau"])
    rows = []
    for command, config in (("solve", doc), ("sweep-regularity", sweep)):
        out = tmp_path / command
        assert main([command, "--config", write_config(tmp_path, config, f"{command}.json"),
                     "--out", str(out)]) == 0
        rows.append(read_rows(out / "results.csv"))
    (header, solved), (sweep_header, swept) = rows
    assert header == sweep_header and len(solved) == len(swept) == 1
    assert solved[0][:9] == swept[0][:9]
    assert solved[0][0] == scheme and solved[0][6] == str(j)


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


def test_sweep_workers_flag(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out = tmp_path / "out"
    assert main(["sweep-convergence", "--config", cfg, "--out", str(out),
                 "--workers", "2"]) == 0
    assert json.loads((out / "run.json").read_text())["workers"] == 2
    rc = main(["sweep-convergence", "--config", cfg, "--out", str(out),
               "--workers", "0"])
    assert rc == 1


def test_sweep_workers_default_is_one_whatever_the_environment(tmp_path, monkeypatch):
    # no environment variable sets the worker count
    monkeypatch.setenv("DISPERSIA_WORKERS", "zero")
    out = tmp_path / "out"
    assert main(["sweep-convergence", "--config", write_config(tmp_path, SMALL_SWEEP),
                 "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["workers"] == 1


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


def test_verify_phase_memory_stays_block_sized(tmp_path):
    doc = {"kappa": 5, "alpha": 1.0, "epsilon": 2.0**-6, "samples": 500_000,
           "grid_points": 1500, "xi_max": 8.0}
    tracemalloc.start()
    try:
        rc = main(["verify-phase", "--config", write_config(tmp_path, doc),
                   "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    # the two sample arrays are 8 MB; one 1500 x 1500 float array is 18 MB
    assert peak < 40e6


@pytest.mark.parametrize("command,field,value", [
    ("sweep-convergence", "grid_n", "big"),
    ("sweep-convergence", "workers", True),
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
    ("sweep-convergence", "workers", -3),
    # refused by the library input (SweepConfig, the solve's step count, the
    # reduction), which is built before the output directory
    ("sweep-convergence", "reference_tau", 0.01), ("compare", "schemes", "ei,bogus"),
    ("sweep-convergence", "reference_scheme", "rk4"), ("solve", "tau", 0.3),
    ("reduce-moment", "lambda", 0), ("compare", "taus", "0.05,0.3"),
    ("sweep-regularity", "reference_tau", 0.3), ("sweep-convergence", "taus", "inf"),
    ("sweep-convergence", "epsilons", "0"), ("sweep-convergence", "epsilons", "nan"),
    ("sweep-convergence", "epsilons", ""),
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
], ids=["frobnicate", "solve-seed", "reduce-moment-workers", "verify-phase-emit-plots"])
def test_unknown_flag_is_config_error(tmp_path, capsys, argv):
    rc = main([*argv, "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_fractional_step_count_is_config_error(tmp_path, capsys):
    doc = dict(FREE_SOLVE)
    doc.update(tau=0.3, z_final=0.5)
    rc = main(["solve", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == 1
    assert "step count" in capsys.readouterr().err


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
    "sweep-regularity": (dict(SMALL_SWEEP, epsilons=[0.5, 0.25], taus=[]), "results.csv"),
    "compare": (dict(SMALL_SWEEP, taus=[0.05, 0.025]), "results.csv"),
    "reduce-moment": ({"kappa": 3, "beta": "3/2", "sign": "-", "lambda": 2.0},
                      "reduction.json"),
    # c0 is left to the search, which run.json must echo as such
    "verify-phase": ({"kappa": 2, "alpha": 1.0, "epsilon": 0.0625, "samples": 500,
                      "grid_points": 21}, "phase_report.json"),
}


def _without_timing(path):
    if path.suffix == ".csv":
        return [row[:9] for row in read_rows(path)[1]]  # all columns except walltime_s
    doc = json.loads(path.read_text())
    doc.get("meta", {}).pop("written_unix", None)
    return doc


@pytest.mark.parametrize("command", sorted(REPLAY_CASES))
def test_run_json_replay_reproduces_the_run(tmp_path, command):
    doc, primary = REPLAY_CASES[command]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out1)]) == 0
    assert main([command, "--config", str(out1 / "run.json"), "--out", str(out2)]) == 0
    for name in ("run.json", primary):
        assert _without_timing(out1 / name) == _without_timing(out2 / name), name


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"

# The fixtures were written by the step loop that marched values; the loop
# that marches Fourier coefficients rounds differently (ROADMAP direction 2).
# Measured drift: error_x and normalized_error 2.5e-7 relative; slope 1.5e-7,
# intercept 7.6e-7 and r_squared 4.8e-9 absolute.  Each tolerance is at most
# 10x its drift; every other column must match to the byte.
FIXTURE_TOLERANCE = {
    "error_x": {"rel_tol": 1e-6}, "normalized_error": {"rel_tol": 1e-6},
    "slope": {"abs_tol": 1e-6}, "intercept": {"abs_tol": 5e-6}, "r_squared": {"abs_tol": 2e-8},
}


def assert_replays(path, fixture):
    header, rows = read_rows(path)
    assert (header, len(rows)) == (read_rows(fixture)[0], len(read_rows(fixture)[1]))
    for row, want in zip(rows, read_rows(fixture)[1]):
        for column, got, expected in zip(header, row, want):
            if column in FIXTURE_TOLERANCE:
                assert math.isclose(float(got), float(expected),
                                    **FIXTURE_TOLERANCE[column]), (column, want)
            elif column != "walltime_s":
                assert got == expected, (column, want)


@pytest.mark.parametrize("command,workload", [
    ("compare", "compare-schrodinger"), ("sweep-convergence", "convergence-kdv"),
])
def test_committed_run_json_replays_to_the_committed_outputs(tmp_path, command, workload):
    # the fixtures carry the legacy derivative_order key, so this also pins old-file replay
    fixture = FIXTURES / workload
    out = tmp_path / "out"
    assert main([command, "--config", str(fixture / "run.json"), "--out", str(out)]) == 0
    assert_replays(out / "results.csv", fixture / "results.csv")
    assert_replays(out / "rates.csv", fixture / "rates.csv")


# ---------------------------------------------------------------------------
# entry point


def test_console_script_runs(tmp_path):
    # the script entry declared in pyproject.toml, run as its own process
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'dispersia = "dispersia.cli:main"' in pyproject
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from dispersia.cli import main; sys.exit(main())",
         "reduce-moment", "--kappa", "3", "--beta", "1",
         "--sign", "-", "--lambda", "2", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "reduction.json").read_text())
    assert doc["alpha"] == 2.0
    assert math.isclose(doc["c"]["1"], 6.0)  # binom(3,1) * |2|^2 / 2^1
