"""Command line front end: run solves and sweeps, emit CSV/JSON artifacts.

Subcommands
-----------
solve               single run; writes final_state.csv plus a one-row results.csv
sweep-convergence   tau-refinement errors against a certified Richardson truth
sweep-regularity    distance to the free flow across epsilon
compare             scheme comparison on both sides of the tau ~ eps^(kappa-alpha) threshold
reduce-moment       moment reduction to polynomial coefficients (JSON report)
verify-phase        sampled phase-identity check and lower-bound scan (JSON report)

Every run writes run.json echoing every configuration field as read; feeding
that file back through --config reproduces the same outputs.  A null grid_n
stays null there: each solve sizes its grid from half_width and its eps.  A
sweep's null reference_scheme and reference_tau are echoed as the truth the
sweep resolved them to.
Floats are written with 17 significant digits and rows in a fixed order, so
reruns are byte-identical in every column except walltime_s.

Exit codes: 0 success, 1 configuration error (message names the offending
field), 2 numerical failure (message names the failing cell or check).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .harness import (
    ErrorRecord,
    ReferenceRecord,
    SweepConfig,
    comparable,
    compare_methods,
    convergence_sweep,
    measure,
    regularity_normalizer,
    regularity_sweep,
)
from .integrators import NumericalBlowupError, SolveConfig, free_solution, solve
from .model import (
    C0_FLOOR,
    DispersiveModel,
    NoAdmissibleSampleError,
    PhaseBoundReport,
    ReducedModel,
    blocks,
    eval_p,  # unused here, but perfbench's tracer wraps cli.eval_p by name
    eval_phase,
    eval_phase_factored,
    expected_regularity_exponent,
    reduce_moment,
    search_lower_bound_constant,
    verify_phase_lower_bound,
)
from .presets import DESK_EPSILONS, DESK_TAUS, get_preset
from .spectral import InitialDataSpec, PotentialSpec, resolving_grid

RATE_COLUMNS = ("group", "slope", "intercept", "r_squared", "points")

_IDENTITY_RTOL = 1e-10


class ConfigError(Exception):
    """Bad manifest or configuration; the message names the offending field."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on its own; route through the 0/1/2 contract
    def error(self, message):
        raise ConfigError(message)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# ---------------------------------------------------------------------------
# config fields.  A reader turns one value given by a preset, a config file
# or a flag (as text) into the value the run uses; what it raises is
# reported under the field's key.  The library object a field feeds checks
# its bounds, under the same key, when the command's build makes it; only
# the fields that feed no library object carry a check of their own.


def _integer(v) -> int:
    """An int; an integral float is accepted, a bool, a string or a fraction is not."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _items(v) -> list:
    """A list, a comma-separated string or one value, as a list; an empty one
    is refused."""
    if isinstance(v, str):
        v = [p.strip() for p in v.split(",") if p.strip()]
    items = list(v) if isinstance(v, (list, tuple)) else [v]
    if not items:
        raise ValueError("needs at least one value")
    return items


def _numbers(v) -> list[float]:
    return [float(x) for x in _items(v)]


def _beta(v):
    """'3/2' stays an exact fraction; any other number is a float."""
    return Fraction(v) if isinstance(v, str) and "/" in v else float(v)


def _spec(cls, d):
    """The spec of d's kind from that kind's parameters (cls.PARAMS), one not
    given taking the spec's default; any other key is refused."""
    if not isinstance(d, dict) or d.get("kind") not in cls.PARAMS:
        raise ValueError(f"expected an object of kind {' or '.join(cls.PARAMS)}, got {d!r}")
    params = cls.PARAMS[d["kind"]]
    foreign = sorted(set(d) - {"kind", *params})
    if foreign:
        raise ValueError(f"kind {d['kind']} takes only {list(params)}, got {foreign}")
    if d["kind"] == "tabulated":  # samples have no default; complex ones are [re, im] pairs
        return cls.tabulated([complex(*s) if isinstance(s, list) else s for s in d["samples"]])
    return getattr(cls, d["kind"])(*(d.get(p, getattr(cls, p)) for p in params))


def _jsonable(v):
    """The run.json form of a field value that json cannot write by itself."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, Fraction):
        return str(v)
    return {"kind": v.kind, **{p: getattr(v, p) for p in v.PARAMS[v.kind]}}


def _model_at(eps: float, fields: dict) -> DispersiveModel:
    return DispersiveModel(fields["kappa"], fields["coeffs"], fields["alpha"], eps)


def _above(lo):
    def check(v):
        if not v > lo:
            raise ValueError(f"must be > {lo}, got {v}")
    return check


def _finite(span: float = 1.0):
    """Check that a number is > 0 and stays finite times span."""
    def check(v):
        if not (v > 0 and math.isfinite(span * v)):
            times = "" if span == 1 else f" times {span:g}"
            raise ValueError(f"must be > 0 and finite{times}, got {v}")
    return check


def _pure_coeffs(kappa: int) -> list[float]:
    return [1.0] + [0.0] * ((kappa + 1) // 2 - 1)


_REQUIRED = object()


def _field(key, read, default=_REQUIRED, flag=None, check=None) -> tuple:
    """One row of a subcommand's table.  read(raw) gives the value; default (a
    constant or a function of the fields before it) stands in when no source
    gives one; check(value) may raise; flag is the command-line flag, if any."""
    return key, read, default, flag, check


_KAPPA = _field("kappa", _integer, flag="--kappa")
_COEFFS = _field("coeffs", _numbers, lambda f: _pure_coeffs(f["kappa"]))
_ALPHA = _field("alpha", float, flag="--alpha")
_HALF_WIDTH = _field("half_width", float, 16.0)
_Z_FINAL = _field("z_final", float, 1.0)
_DERIV_ORDER = _field("deriv_order", _integer, 0, "--deriv-order")
# None: every solve runs on the grid resolving_grid sizes to h <= its eps
_GRID_N = _field("grid_n", _integer, None)
_POTENTIAL = _field("potential", lambda d: _spec(PotentialSpec, d), {"kind": "gaussian"})
_INITIAL = _field("initial", lambda d: _spec(InitialDataSpec, d), {"kind": "gaussian"})


# one table of fields per subcommand
_SOLVE = (
    _KAPPA, _COEFFS, _ALPHA,
    _field("epsilon", float, flag="--epsilon"),
    _field("tau", float, flag="--tau"),
    _field("scheme", str, "ei", "--scheme"),
    _Z_FINAL, _DERIV_ORDER, _HALF_WIDTH, _GRID_N, _POTENTIAL, _INITIAL,
)


def _sweep_table(schemes: tuple[str, ...] = ()) -> tuple:
    """A sweep's rows; one given default schemes reads a scheme and tau ladder too."""
    ladder = schemes and (_field("taus", _numbers, DESK_TAUS, "--tau"),
                          _field("schemes", _items, schemes, "--scheme"))
    return (
        _KAPPA, _COEFFS, _ALPHA, _HALF_WIDTH,
        _field("epsilons", _numbers, DESK_EPSILONS, "--epsilon"),
        *ladder,
        _Z_FINAL,
        # null: SweepConfig resolves the truth, and run.json echoes what it ran
        _field("reference_tau", float, None),
        _field("reference_scheme", str, None),
        _DERIV_ORDER, _GRID_N, _POTENTIAL, _INITIAL,
    )


_REDUCE_MOMENT = (
    _field("kappa", _integer, flag="--kappa"),
    _field("beta", _beta, flag="--beta"),
    _field("sign", str, flag="--sign"),
    _field("lambda", float, flag="--lambda"),
)

_VERIFY_PHASE = (
    _KAPPA, _COEFFS, _ALPHA,
    _field("epsilon", float, 2.0**-6, "--epsilon"),
    _field("seed", _integer, 12345, "--seed", _above(-1)),
    _field("samples", _integer, 100000, check=_above(0)),
    _field("grid_points", _integer, 400, check=_above(0)),
    # the samples are drawn from [-xi_max, xi_max], whose width must be finite
    _field("xi_max", float, 8.0, check=_finite(span=2.0)),
    _field("c0", float, None, check=_finite()),  # null: search the lower-bound constant
)


# ---------------------------------------------------------------------------
# configuration assembly: preset -> config file -> command-line flags


def _preset_dict(name: str) -> dict:
    try:
        p = get_preset(name)
    except KeyError as exc:
        raise ConfigError(f"preset: {exc.args[0]}")
    # the preset's field names are config keys, apart from its two defaults
    return {**vars(p), "potential": _jsonable(p.potential), "initial": _jsonable(p.initial),
            "epsilon": p.default_epsilon, "tau": p.default_tau}


def _read_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not valid JSON
        raise ConfigError(f"config: cannot read {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    return doc


def _read_fields(args, table) -> dict:
    """Every field of the table, read and checked in table order.  A raw value
    comes from the preset, the config file or the flag, the last one given
    winning; other keys, such as a run.json's command and meta, are not read."""
    sources = [
        _preset_dict(args.preset) if args.preset else {},
        _read_config_file(args.config) if args.config else {},
        vars(args),  # a flag's dest is its field's key
    ]
    fields: dict = {}
    for key, read, default, _, check in table:
        raw = next((src[key] for src in reversed(sources) if src.get(key) is not None), None)
        if raw is None and default is _REQUIRED:
            raise ConfigError(f"{key}: required but not provided (flag, config or preset)")
        try:
            if raw is None:
                raw = default(fields) if callable(default) else default
            value = None if raw is None else read(raw)
            if check and value is not None:
                check(value)
        except (ValueError, TypeError, LookupError, ArithmeticError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
        fields[key] = value
    return fields


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"out: directory {out} is not writable ({exc})")
    return out


# ---------------------------------------------------------------------------
# library inputs.  Each command's fields are turned into the library object it
# runs before --out is made, so that a config error leaves no directory behind;
# verify-phase's build runs its bound scan, which is what refuses a grid.


def _solve_config(f: dict) -> SolveConfig:
    model = _model_at(f["epsilon"], f)
    # the regularity rate that normalizes the error exists only for j < kappa
    expected_regularity_exponent(model.kappa, model.alpha, f["deriv_order"])
    grid = resolving_grid(f["half_width"], model.epsilon, f["grid_n"])
    return SolveConfig(model, grid, f["potential"], f["initial"], f["scheme"], f["tau"],
                       f["z_final"])


def _sweep_config(f: dict) -> SweepConfig:
    """The sweep of f, with the reference it resolves to written back into f."""
    sweep = SweepConfig(**f)
    f["reference_scheme"], f["reference_tau"] = sweep.reference_scheme.value, sweep.reference_tau
    return sweep


def _phase_scan(f: dict) -> tuple[DispersiveModel, PhaseBoundReport]:
    """verify-phase's model and its bound scan over the grid axis x axis: the
    c0 search when c0 is null, the scan at the given c0 otherwise.  A grid
    that the scan's first c0 admits no point of is refused under xi_max."""
    model = _model_at(f["epsilon"], f)
    axis = np.linspace(-f["xi_max"], f["xi_max"], f["grid_points"])
    try:
        if f["c0"] is None:
            return model, search_lower_bound_constant(model, axis, axis)
        return model, verify_phase_lower_bound(model, f["c0"], axis, axis)
    except NoAdmissibleSampleError as exc:
        raise ValueError(f"xi_max: {exc}") from None


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_records(path: Path, kind, records) -> None:
    # one column per field of the record dataclass kind, in field order; the
    # harness fixes the row order
    _write_csv(path, [f.name for f in dataclasses.fields(kind)], map(dataclasses.astuple, records))


def _write_plot_script(path: Path, result, x_field: str, keys) -> None:
    """Small gnuplot script over results.csv: one log-scale curve per group of
    result.positive_groups(keys), keys being columns of it; no plot without one."""
    col = {f.name: i for i, f in enumerate(dataclasses.fields(ErrorRecord), 1)}
    title = {"scheme": "{}", "epsilon": "eps={:.6g}", "j": "j={}"}  # one part per key
    lines = [
        "# gnuplot script; run from the directory containing results.csv",
        "set datafile separator comma",
        "set logscale xy",
        "set key outside",
        f'set xlabel "{x_field}"',
        'set ylabel "error_x"',
    ]
    plots = []
    for gk in result.positive_groups(keys):
        match = " && ".join(f'strcol({col[k]}) eq "{v}"' if isinstance(v, str)
                            else f"${col[k]} == {_fmt(v)}" for k, v in zip(keys, gk))
        name = " ".join(title[k].format(v) for k, v in zip(keys, gk))
        plots.append(f'"results.csv" skip 1 using {col[x_field]}:({match} ? ${col["error_x"]}'
                     f' : 1/0) with linespoints title "{name}"')
    if plots:
        lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def _run_solve(args, f: dict, solve_cfg: SolveConfig, out: Path) -> int:
    j, m = f["deriv_order"], solve_cfg.model
    record_of = measure(solve_cfg, free_solution(solve_cfg), j,
                        regularity_normalizer(m.kappa, m.alpha, j, m.epsilon))
    res = solve(solve_cfg)
    final, record = res.final, record_of(solve_cfg.tau, res.final, res.walltime)

    _write_records(out / "results.csv", ErrorRecord, [record])
    _write_csv(out / "final_state.csv", ("x", "re", "im"), (
        (float(x), float(v.real), float(v.imag)) for x, v in zip(final.grid.nodes, final.values)))
    print(f"solve: {final.grid.n} nodes, error_x vs free flow = {record.error_x:.6g}")
    return 0


def _run_sweep(args, f: dict, sweep: SweepConfig, out: Path) -> int:
    command = args.command
    # built per call, so that a harness function replaced on this module is the one run
    run, x_field, keys = {
        "sweep-convergence": (convergence_sweep, "tau", ("scheme", "epsilon")),
        "sweep-regularity": (regularity_sweep, "epsilon", ("scheme", "j")),
        "compare": (compare_methods, "tau", ("scheme", "epsilon", "regime")),
    }[command]
    result = run(sweep)
    rates = result.rates_by_group(x_field, keys)

    _write_records(out / "results.csv", ErrorRecord, result.records)
    if sweep.taus:  # a ladder sweep's truth carries its certificate
        _write_records(out / "reference.csv", ReferenceRecord, result.references)
    # group labels use ';' so the CSV stays quote-free
    _write_csv(out / "rates.csv", RATE_COLUMNS, (
        (label.replace(",", ";"), fit.slope, fit.intercept, fit.r_squared, fit.n_points)
        for label, fit in rates
    ))
    _write_plot_script(out / "plot.gp", result, x_field, tuple(k for k in keys if k != "regime"))

    sizes = sorted({sweep.cell(e).grid.n for e in sweep.epsilons})
    print(f"{command}: {len(result.records)} cells on grid n={','.join(map(str, sizes))}, "
          f"{len(rates)} fitted rates, {len(result.failures)} failures")
    for label, fit in rates:
        print(f"  {label}: slope={fit.slope:.4f} r2={fit.r_squared:.5f}")
    for fail in result.failures:
        print(f"numerical failure: cell {fail.cell}: {fail.message}", file=sys.stderr)
    return 2 if result.failures else 0


def _run_reduce(args, f: dict, red: ReducedModel, out: Path) -> int:
    doc = {
        "kappa": red.kappa,
        "beta": red.beta,
        "sign": red.sign,
        "lambda": red.lam,
        "alpha": float(red.alpha),
        "parity": red.parity,
        "order": red.order,
        "c": {str(jj): cj for jj, cj in sorted(red.c.items())},
        "signFactor": red.sign_factor,
        "droppedConstant": red.dropped_constant,
    }
    text = json.dumps(doc, indent=2, default=_jsonable)
    (out / "reduction.json").write_text(text + "\n")
    print(text)
    return 0


def _sample_blocks(seed: int, n: int, xi_max: float):
    """verify-phase's samples, a block at a time: xi1 is the first n uniform
    draws of default_rng(seed) on [-xi_max, xi_max) and xi2 the next n, as if
    both were drawn whole.  uniform takes one 64-bit word per double, so xi2
    comes from the seed's generator advanced by n words.  A draw is uniform's
    -xi_max + (2 xi_max) u, formed in place on random()'s u: the same bits."""
    first, second = np.random.default_rng(seed), np.random.default_rng(seed)
    second.bit_generator.advance(n)

    def draw(gen, size):
        u = gen.random(size)
        u *= 2.0 * xi_max
        u -= xi_max
        return u

    for b in blocks(n):
        size = b.stop - b.start
        yield draw(first, size), draw(second, size)


def _max_rel_deviation(model: DispersiveModel, seed: int, n: int, xi_max: float) -> float:
    """The sampled identity check: the largest gap between the subtractive and
    the factored phase, relative to the larger of them, over n sampled pairs.
    Both forms are certified to 2^-36 relative, so it needs no cancellation
    floor."""
    block_max = []  # np.max over these is np.max over every sample, NaN winning
    for xi1, xi2 in _sample_blocks(seed, n, xi_max):
        direct = eval_phase(model, xi1, xi2)
        factored = eval_phase_factored(model, xi1, xi2)
        gap = factored - direct
        np.abs(gap, out=gap)
        denom = np.maximum(np.abs(direct, out=direct), np.abs(factored, out=factored),
                           out=direct)
        # a denominator that is not positive divides as 1.0: both forms are
        # zero there (gap 0) or one is NaN (gap NaN)
        block_max.append(np.max(np.divide(gap, denom, out=gap, where=denom > 0)))
    return float(np.max(block_max))


def _run_verify_phase(args, f: dict, scan: tuple[DispersiveModel, PhaseBoundReport],
                      out: Path) -> int:
    eps, alpha, xi_max = f["epsilon"], f["alpha"], f["xi_max"]
    model, report = scan
    max_dev = _max_rel_deviation(model, f["seed"], f["samples"], xi_max)
    identity_ok = max_dev <= _IDENTITY_RTOL

    searched = f["c0"] is None
    if searched:
        bound_ok = report.min_ratio >= C0_FLOOR
        why = f"no candidate c0 reaches min ratio {C0_FLOOR}; best was {report.min_ratio}"
    else:
        bound_ok = report.min_ratio > 0.0
        why = f"minRatio={report.min_ratio} is not positive"

    doc = {
        "kappa": f["kappa"], "coeffs": list(f["coeffs"]), "alpha": alpha, "epsilon": eps,
        "seed": f["seed"], "samples": f["samples"], "maxRelDeviation": max_dev,
        "identityOk": identity_ok,
        "c0": report.c0, "c0Searched": searched,
        "gridPoints": f["grid_points"], "xiMax": xi_max,
        "minRatio": report.min_ratio,
        "worstPoint": [report.worst_xi1, report.worst_xi2],
        "admissibleCount": report.admissible_count,
        "lowerBoundOk": bound_ok,
    }
    (out / "phase_report.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(f"verify-phase: maxRelDeviation={max_dev:.3e} minRatio={report.min_ratio:.6g} "
          f"(C0={report.c0:g}, {report.admissible_count} admissible)")
    if not identity_ok:
        print("numerical failure: cell identity-check: relative deviation "
              f"{max_dev:.3e} exceeds {_IDENTITY_RTOL}", file=sys.stderr)
        return 2
    if not bound_ok:
        print(f"numerical failure: cell bound-scan: {why}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


# per subcommand: its table, the library input built from the fields, the run
_COMMANDS = {
    "solve": (_SOLVE, _solve_config, _run_solve),
    "sweep-convergence": (_sweep_table(("ei",)), _sweep_config, _run_sweep),
    # the reference solve is all it runs: it reads no ladder
    "sweep-regularity": (_sweep_table(), _sweep_config, _run_sweep),
    "compare": (_sweep_table(("ei", "lt", "strang", "lri")),
                lambda f: comparable(_sweep_config(f)), _run_sweep),
    "reduce-moment": (_REDUCE_MOMENT,
                      lambda f: reduce_moment(f["kappa"], f["beta"], f["sign"], f["lambda"]),
                      _run_reduce),
    "verify-phase": (_VERIFY_PHASE, _phase_scan, _run_verify_phase),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = _Parser(prog="dispersia", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dispersia {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (table, _, run) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--preset", help="named preset supplying model and domain defaults")
        for key, read, _, flag, _ in table:
            if flag:
                # integers are typed here; every other flag reaches its reader as text
                sp.add_argument(flag, dest=key, type=int if read is _integer else None,
                                help=f"sets config key {key}")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        table, build, run = _COMMANDS[args.command]
        fields = _read_fields(args, table)
        job = build(fields)
        out = _out_dir(args)
        code = run(args, fields, job, out)
        # run.json echoes every field as read, so it replays through --config
        meta = {"package": "dispersia", "version": __version__, "written_unix": time.time()}
        doc = {**fields, "command": args.command, "meta": meta}
        (out / "run.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True, default=_jsonable) + "\n")
        return code
    except (ConfigError, ValueError) as exc:
        # the library inputs raise ValueError starting with the config key
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalBlowupError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
