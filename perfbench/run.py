"""Layered benchmark of the dispersia command line.

    python3 perfbench/run.py --workload compare-schrodinger --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from src/.
One run is this one process: it calls the CLI entry point in whole rounds
until --seconds have passed (at least one round), keeps every round's output
files, checks them after the last round, and prints one JSON object as the
last line of standard output.  The line before it describes the environment
and the rounds.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run, which alternates untraced and traced rounds so that
it can report its own overhead.  See README.md for the workloads.
"""

from __future__ import annotations

import os
import sys

# the program's defaults are what gets measured
for _var in ("DISPERSIA_WORKERS", "DISPERSIA_BACKEND"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
SETUP_PROBES = 7

import checks  # noqa: E402
from checks import PhaseSpec, SweepSpec  # noqa: E402

COMPARE = SweepSpec(
    command="compare", preset="schrodinger-a1", kappa=2, alpha=1.0, half_width=16.0,
    potential="gaussian", epsilons=(2.0**-7,), schemes=("ei", "lt", "strang", "lri"),
)
CONVERGENCE = SweepSpec(
    command="sweep-convergence", preset="kdv-a3/2", kappa=3, alpha=1.5, half_width=32.0,
    potential="exp_abs", epsilons=(2.0**-6, 2.0**-5, 2.0**-4), schemes=("ei",),
)
PHASES = tuple(
    PhaseSpec(kappa=k, alpha=1.0, epsilon=2.0**-6, samples=500_000, grid_points=1500,
              xi_max=8.0)
    for k in (2, 3, 4, 5)
)


class BenchError(Exception):
    """The benchmark cannot run here (program missing, CLI refused its input)."""


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    outputs: list  # per CLI call: (exit code, {file name: text})
    layers: dict | None = None


# ---------------------------------------------------------------------------
# workloads


class SweepWorkload:
    def __init__(self, spec: SweepSpec):
        self.spec = spec

    def operations(self) -> int:
        return len(self.spec.cells())

    def argvs(self, work: Path, seed: int) -> list[list[str]]:
        s = self.spec
        config = work / "config.json"
        config.write_text(json.dumps({"grid_n": s.n}))
        return [[
            s.command, "--preset", s.preset, "--config", str(config),
            "--epsilon", ",".join(repr(e) for e in s.epsilons),
            "--tau", ",".join(repr(t) for t in s.taus),
            "--scheme", ",".join(s.schemes), "--out", str(work / "out"),
        ]]

    def collect(self, work: Path) -> list[dict]:
        out = work / "out"
        return [{name: (out / name).read_text()
                 for name in ("results.csv", "rates.csv", "run.json") if (out / name).exists()}]

    def failed(self, outputs) -> int:
        (code, files), = outputs
        if code == 0:
            return 0
        rows = checks.parse_results(files.get("results.csv", "scheme\n"))
        return self.operations() - len(rows)

    def independent(self, seed: int) -> dict:
        """Recompute the largest-tau cells: `ei` and `lt` for compare, one
        seed-chosen eps for the convergence sweep."""
        s = self.spec
        tau = max(s.taus)
        if s.command == "compare":
            eps = s.epsilons[0]
            cells = [("ei", tau), ("lt", tau)]
        else:
            eps = s.epsilons[seed % len(s.epsilons)]
            cells = [("ei", tau)]
        return checks.independent_errors(s, eps, cells)

    def check(self, outputs, seed: int, independent) -> list[str]:
        (code, files), = outputs
        problems = []
        run = json.loads(files.get("run.json", "{}"))
        if run.get("grid_n") != self.spec.n:
            problems.append(f"run.json grid_n {run.get('grid_n')!r} is not {self.spec.n}")
        return problems + checks.check_sweep(
            files.get("results.csv", ""), files.get("rates.csv", ""), self.spec, independent)


class PhaseWorkload:
    def operations(self) -> int:
        return len(PHASES)

    def argvs(self, work: Path, seed: int) -> list[list[str]]:
        argvs = []
        for p in PHASES:
            config = work / f"k{p.kappa}.json"
            config.write_text(json.dumps({"samples": p.samples, "grid_points": p.grid_points,
                                          "xi_max": p.xi_max}))
            argvs.append([
                "verify-phase", "--config", str(config), "--kappa", str(p.kappa),
                "--alpha", repr(p.alpha), "--epsilon", repr(p.epsilon),
                "--seed", str(seed), "--out", str(work / f"k{p.kappa}"),
            ])
        return argvs

    def collect(self, work: Path) -> list[dict]:
        paths = [work / f"k{p.kappa}" / "phase_report.json" for p in PHASES]
        return [{"phase_report.json": p.read_text()} if p.exists() else {} for p in paths]

    def failed(self, outputs) -> int:
        return sum(1 for code, _ in outputs if code != 0)

    def independent(self, seed: int) -> None:
        return None

    def check(self, outputs, seed: int, independent) -> list[str]:
        problems = []
        for p, (code, files) in zip(PHASES, outputs):
            if code != 0:
                continue
            report = json.loads(files.get("phase_report.json", "{}"))
            problems += [f"kappa={p.kappa}: {m}" for m in checks.check_phase(report, p, seed)]
        return problems


WORKLOADS = {
    "compare-schrodinger": SweepWorkload(COMPARE),
    "convergence-kdv": SweepWorkload(CONVERGENCE),
    "phase-scan": PhaseWorkload(),
}


# ---------------------------------------------------------------------------
# measurement


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_round(cli, workload, work: Path, seed: int, tracer=None) -> Round:
    argvs = workload.argvs(work, seed)
    codes, sink = [], io.StringIO()
    call = cli.main if tracer is None else (lambda argv: tracer.cli_call(cli.main, argv))
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            codes.append(call(argv))
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    if 1 in codes:
        raise BenchError(f"the CLI refused the workload's input:\n{sink.getvalue()}")
    return Round(wall, cpu, list(zip(codes, workload.collect(work))))


def setup_seconds(env: dict) -> list[float]:
    """Fresh interpreters timed from spawn until `dispersia.cli` is imported."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import dispersia.cli; "
            "print('ready', flush=True)")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError("a set-up probe could not import dispersia.cli")
    return samples


def _threads() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return -1


def environment() -> dict:
    import numpy

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dispersia" / "cli.py").is_file():
        raise BenchError(f"no dispersia sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from dispersia import cli, harness, integrators, model

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"dispersia was imported from {cli.__file__}, not from {SRC}")
    from tracing import LAYER_UNITS, Tracer

    workload = WORKLOADS[args.workload]
    work = RUNS / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = setup_seconds(dict(os.environ)) if not args.trace else []
    # whole rounds (untraced/traced pairs with --trace 1) while the next one
    # is expected to end within --seconds; always at least one
    rounds: list[Round] = []
    t_start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, workload, work, args.seed))
        if args.trace:
            with Tracer(cli, harness, integrators, model) as tracer:
                rnd = run_round(cli, workload, work, args.seed, tracer)
            rnd.layers = tracer.metrics()
            rounds.append(rnd)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / (len(rounds) // (1 + args.trace)) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = _threads()

    independent = workload.independent(args.seed)
    problems, failed = [], 0
    for i, rnd in enumerate(rounds):
        failed += workload.failed(rnd.outputs)
        problems += [f"round {i}: {m}" for m in workload.check(rnd.outputs, args.seed, independent)]
    for m in problems[:20]:
        print(f"check failed: {m}", file=sys.stderr)

    plain = [r for r in rounds if r.layers is None]
    traced = [r for r in rounds if r.layers is not None]
    if args.trace:
        # counts repeat exactly from round to round; median_low keeps them whole
        metrics = {name: statistics.median_low(r.layers[name] for r in traced)
                   if LAYER_UNITS[name] == "count" else
                   statistics.median(r.layers[name] for r in traced)
                   for name in traced[0].layers}
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                       - statistics.median(r.wall_s for r in plain))
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in metrics.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r.wall_s for r in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu_s for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    run_json = json.loads(rounds[-1].outputs[0][1].get("run.json", "{}"))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": environment(),
        "threads": threads, "rounds": len(rounds),
        "program": {k: run_json.get(k) for k in ("grid_n", "workers", "reference_tau")},
        "round_wall_s": [r.wall_s for r in rounds], "setup_probes_s": setup,
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.operations() * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
