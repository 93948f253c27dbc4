"""Command line contract: artifacts, reproducibility, exit codes.

Exit codes are 0 success, 1 configuration error naming the field, 2 numerical
failure naming the cell.  Reruns must be byte-identical except walltime_s.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dispersia.cli import main
from dispersia.harness import regularity_normalizer
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
    assert evolved == pytest.approx(initial, rel=1e-12)


def test_solve_normalized_column_uses_regularity_rate(tmp_path):
    doc = dict(FREE_SOLVE)
    doc["potential"] = {"kind": "gaussian", "amplitude": -1.0, "width_sq": 1.0}
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_rows(out / "results.csv")
    err, normalized = float(rows[0][7]), float(rows[0][8])
    norm = regularity_normalizer(2, 1.0, 0, 0.25)
    assert normalized * norm == pytest.approx(err, rel=1e-12)


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
    rc = main(["sweep-convergence", "--config", cfg, "--out", str(out), "--emit-plots"])
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

    gp = (out / "plot.gp").read_text()
    assert "set logscale xy" in gp
    assert '"results.csv"' in gp
    assert 'title "ei eps=0.5"' in gp


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


def test_sweep_cell_failure_exit_code(tmp_path, capsys):
    doc = dict(SMALL_SWEEP)
    doc.update(half_width=16.0, grid_n=64, epsilons=[0.6, 0.1],
               taus=[0.05, 0.025], reference_tau=2e-3, z_final=0.5)
    out = tmp_path / "out"
    rc = main(["sweep-convergence", "--config", write_config(tmp_path, doc),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical failure: cell scheme=ei,epsilon=0.1" in err
    # the resolved cell still produced its records
    _, rows = read_rows(out / "results.csv")
    assert len(rows) == 2
    assert all(float(r[3]) == 0.6 for r in rows)


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
    assert doc["minRatio"] == pytest.approx(0.5, rel=1e-12)
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
])
def test_verify_phase_bad_sampling_is_config_error(tmp_path, capsys, field, value):
    doc = {"kappa": 2, "alpha": 1.0, "epsilon": 0.0625, "samples": 100, "grid_points": 11}
    doc[field] = value
    rc = main(["verify-phase", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.json").exists()


@pytest.mark.parametrize("command,field,value", [
    ("solve", "snapshot_stride", "many"),
    ("sweep-convergence", "grid_n", "big"),
    ("sweep-convergence", "workers", True),
])
def test_bad_integer_field_is_config_error(tmp_path, capsys, command, field, value):
    doc = dict(FREE_SOLVE if command == "solve" else SMALL_SWEEP)
    doc[field] = value
    rc = main([command, "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"config error: {field}:" in capsys.readouterr().err


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


def test_unknown_flag_is_config_error(tmp_path, capsys):
    rc = main(["solve", "--frobnicate", "--out", str(tmp_path)])
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
