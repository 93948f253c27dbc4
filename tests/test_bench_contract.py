"""The layered benchmark's tracer must keep seeing every layer.

perfbench/tracing.py measures the program from outside by swapping the
module attributes through which the layers call each other.  A rename in
src/ would silently zero its metrics, so a tiny traced compare and a tiny
traced verify-phase must still show steps, FFTs, reference solves and scan
points.  Only "> 0" is asserted where later work is meant to lower a count;
the reference solves are pinned at one per eps, the least a sweep can do,
and the FFTs at the step loop's 2 a step plus 2 a solve.  The benchmark's
checks read results.csv by column name, so its header must hold them all.
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dispersia import cli, harness, integrators, model

SCHEMES = ("ei", "lt", "strang", "lri")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses resolve the module by name
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def Tracer():
    return perfbench_module("tracing").Tracer


def traced(Tracer, argv):
    with Tracer(cli, harness, integrators, model) as tracer:
        assert tracer.cli_call(cli.main, argv) == 0
    return tracer.metrics()


def traced_compare(Tracer, tmp_path, epsilons):
    # 20 steps or more a solve, so a solve's 2 transforms in and out add <= 0.1 a step
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_n": 256, "z_final": 0.2}))
    return traced(Tracer, [
        "compare", "--preset", "schrodinger-a1", "--config", str(config),
        "--epsilon", epsilons, "--tau", "0.005,0.01", "--scheme", ",".join(SCHEMES),
        "--out", str(tmp_path / "out"),
    ])


def test_traced_compare_sees_every_layer(Tracer, tmp_path):
    metrics = traced_compare(Tracer, tmp_path, "0.125")
    assert metrics["integrators.steps"] > 0
    assert metrics["fft.calls"] > 0
    for scheme in SCHEMES:
        # zero when the scheme ran no step, so the lower bound also asserts its steps
        assert 1 <= metrics[f"fft.calls_per_step.{scheme}"] <= 2.1, scheme
    # every scheme and tau of an eps is measured against one reference solve
    assert metrics["harness.reference_solves"] == 1
    assert metrics["harness.test_solves"] > 0
    assert metrics["integrators.precompute_calls"] > 0


def test_traced_compare_solves_each_reference_once(Tracer, tmp_path):
    metrics = traced_compare(Tracer, tmp_path, "0.125,0.25")
    assert metrics["harness.reference_solves"] == 2
    assert metrics["harness.reference_dup_ratio"] == 1.0


def test_traced_verify_phase_sees_the_scan(Tracer, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": 1000, "grid_points": 40, "xi_max": 8.0}))
    metrics = traced(Tracer, [
        "verify-phase", "--config", str(config), "--kappa", "3", "--alpha", "1",
        "--epsilon", "0.0625", "--seed", "1", "--out", str(tmp_path / "out"),
    ])
    assert metrics["model.phase_points"] > 0
    assert metrics["model.scan_points"] > 0
    assert metrics["model.c0_candidates"] > 0


def test_results_header_holds_every_column_the_checks_parse(tmp_path):
    # parse_results converts each of its columns by name, so one missing from
    # the header raises KeyError; every column but scheme comes back a number
    parse_results = perfbench_module("checks").parse_results
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_n": 256, "z_final": 0.2}))
    out = tmp_path / "out"
    assert cli.main([
        "sweep-convergence", "--preset", "schrodinger-a1", "--config", str(config),
        "--epsilon", "0.125", "--tau", "0.01,0.02", "--out", str(out),
    ]) == 0
    text = (out / "results.csv").read_text()
    header = [f.name for f in dataclasses.fields(harness.ErrorRecord)]
    assert text.splitlines()[0] == ",".join(header)
    rows = parse_results(text)
    assert [(r["scheme"], r["tau"]) for r in rows] == [("ei", 0.01), ("ei", 0.02)]
    for column in header[1:]:
        assert all(isinstance(r[column], (int, float)) for r in rows), column
