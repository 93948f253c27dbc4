"""Command line front end: run solves and sweeps, emit CSV/JSON artifacts.

Subcommands
-----------
solve               single run; writes final_state.csv plus a one-row results.csv
sweep-convergence   tau-refinement errors against a fine reference solve
sweep-regularity    distance to the free flow across epsilon
compare             scheme comparison on both sides of the tau ~ eps^(kappa-alpha) threshold
reduce-moment       moment reduction to polynomial coefficients (JSON report)
verify-phase        sampled phase-identity check and lower-bound scan (JSON report)

Every run writes run.json echoing the fully resolved configuration; feeding
that file back through --config reproduces the same outputs.  Floats are
written with 17 significant digits and rows in a fixed order, so reruns are
byte-identical in every column except walltime_s.

Exit codes: 0 success, 1 configuration error (message names the offending
field), 2 numerical failure (message names the failing cell or check).
"""

from __future__ import annotations

import argparse
import dataclasses
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
    SweepConfig,
    comparable,
    compare_methods,
    convergence_sweep,
    measure,
    regularity_normalizer,
    regularity_sweep,
)
from .integrators import NumericalBlowupError, SolveConfig, free_solution
from .model import (
    C0_FLOOR,
    DispersiveModel,
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
from .presets import DESK_EPSILONS, DESK_TAUS, REFERENCE_TAU, get_preset
from .spectral import Grid, InitialDataSpec, PotentialSpec, resolving_grid_n

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
    """A list, a comma-separated string or one value, as a list."""
    if isinstance(v, str):
        return [p.strip() for p in v.split(",") if p.strip()]
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _numbers(v) -> list[float]:
    return [float(x) for x in _items(v)]


def _one(read):
    """read, then insist on exactly one value."""
    def one(v):
        values = read(v)
        if len(values) != 1:
            raise ValueError(f"needs exactly one value, got {values!r}")
        return values[0]
    return one


def _beta(v):
    """'3/2' stays an exact fraction; any other number is a float."""
    return Fraction(v) if isinstance(v, str) and "/" in v else float(v)


# the parameters of each potential and initial-data kind, in the order its
# constructor takes them; one not given takes the spec's default
_KINDS = {
    PotentialSpec: {"gaussian": ("amplitude", "width_sq"), "exp_abs": ("amplitude",),
                    "tabulated": ("samples",)},
    InitialDataSpec: {"gaussian": (), "plane_wave": ("xi0",), "tabulated": ("samples",)},
}


def _spec(cls, d):
    kinds = _KINDS[cls]
    if not isinstance(d, dict) or d.get("kind") not in kinds:
        raise ValueError(f"expected an object of kind {' or '.join(kinds)}, got {d!r}")
    if d["kind"] == "tabulated":  # samples have no default; complex ones are [re, im] pairs
        return cls.tabulated([complex(*s) if isinstance(s, list) else s for s in d["samples"]])
    return getattr(cls, d["kind"])(*(d.get(p, getattr(cls, p)) for p in kinds[d["kind"]]))


def _jsonable(v):
    """The run.json form of a field value that json cannot write by itself."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, Fraction):
        return str(v)
    return {"kind": v.kind, **{p: getattr(v, p) for p in _KINDS[type(v)][v.kind]}}


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


def _field(key, read, default=_REQUIRED, flag=None, check=None, also=()) -> tuple:
    """One row of a subcommand's table.  read(raw) gives the value; default (a
    constant or a function of the fields before it) stands in when no source
    gives one; check(value) may raise; flag is the command-line flag,
    if any; also lists keys accepted in place of key."""
    return key, read, default, flag, check, also


_KAPPA = _field("kappa", _integer, flag="--kappa")
_COEFFS = _field("coeffs", _numbers, lambda f: _pure_coeffs(f["kappa"]))
_ALPHA = _field("alpha", float, flag="--alpha")
_HALF_WIDTH = _field("half_width", float, 16.0)
_Z_FINAL = _field("z_final", float, 1.0)
_DERIV_ORDER = _field("deriv_order", _integer, 0, "--deriv-order")
# None: the build sizes the grid to resolve h <= eps (see _solve_config, _sweep_config)
_GRID_N = _field("grid_n", _integer, None)
_POTENTIAL = _field("potential", lambda d: _spec(PotentialSpec, d), {"kind": "gaussian"})
_INITIAL = _field("initial", lambda d: _spec(InitialDataSpec, d), {"kind": "gaussian"})


# one table of fields per subcommand
_SOLVE = (
    _KAPPA, _COEFFS, _ALPHA,
    _field("epsilon", _one(_numbers), flag="--epsilon", also=("epsilons",)),
    _field("tau", _one(_numbers), flag="--tau", also=("taus",)),
    _field("scheme", _one(_items), "ei", "--scheme", also=("schemes",)),
    _Z_FINAL, _DERIV_ORDER, _HALF_WIDTH, _GRID_N, _POTENTIAL, _INITIAL,
)


def _sweep_table(eps_alias: tuple[str, ...], schemes: tuple[str, ...] = ()) -> tuple:
    """A sweep's rows; one given default schemes also reads a scheme and tau ladder."""
    ladder = schemes and (_field("taus", _numbers, DESK_TAUS, "--tau"),
                          _field("schemes", _items, schemes, "--scheme", also=("scheme",)))
    return (
        _KAPPA, _COEFFS, _ALPHA, _HALF_WIDTH,
        _field("epsilons", _numbers, DESK_EPSILONS, "--epsilon", also=eps_alias),
        *ladder,
        _Z_FINAL,
        _field("reference_tau", float, REFERENCE_TAU),
        _field("reference_scheme", str, "ei"),
        _DERIV_ORDER, _GRID_N,
        _field("workers", _integer, 1, "--workers"),
        _POTENTIAL, _INITIAL,
    )


_REDUCE_MOMENT = (
    _field("kappa", _integer, flag="--kappa"),
    _field("beta", _beta, flag="--beta"),
    _field("sign", str, flag="--sign"),
    _field("lambda", float, flag="--lambda"),
)

_VERIFY_PHASE = (
    _KAPPA, _COEFFS, _ALPHA,
    _field("epsilon", _one(_numbers), 2.0**-6, "--epsilon"),
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
    for key, read, default, _, check, also in table:
        raw = None
        for src in sources:
            raw = next((src[k] for k in (key, *also) if src.get(k) is not None), raw)
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
# runs before --out is made, so that a config error leaves no directory behind.


def _solve_config(f: dict) -> SolveConfig:
    model = _model_at(f["epsilon"], f)
    # the regularity rate that normalizes the error exists only for j < kappa
    expected_regularity_exponent(model.kappa, model.alpha, f["deriv_order"])
    hw, n = f["half_width"], f["grid_n"]
    grid = Grid(hw, resolving_grid_n(hw, model.epsilon) if n is None else n)
    f["grid_n"] = grid.n  # run.json echoes the grid the solve runs on
    return SolveConfig(model, grid, f["potential"], f["initial"], f["scheme"], f["tau"],
                       f["z_final"])


def _sweep_config(f: dict) -> SweepConfig:
    sweep = SweepConfig(**f)
    f["grid_n"] = sweep.grid().n  # run.json echoes the grid the sweep runs on
    return sweep


def _regularity_config(f: dict) -> SweepConfig:
    sweep = _sweep_config(f)
    expected_regularity_exponent(sweep.kappa, sweep.alpha, sweep.deriv_order)  # j < kappa
    return sweep


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_results_csv(path: Path, records) -> None:
    # one column per ErrorRecord field, in field order; the harness fixes the row order
    _write_csv(path, [f.name for f in dataclasses.fields(ErrorRecord)],
               map(dataclasses.astuple, records))


def _write_plot_script(path: Path, records, x_field: str) -> None:
    """Small gnuplot script over results.csv: one log-scale curve per (scheme,
    epsilon) whose errors are all > 0, as in rates_by_group; no plot without one."""
    col = {f.name: i for i, f in enumerate(dataclasses.fields(ErrorRecord), 1)}
    zero = {(r.scheme, r.epsilon) for r in records if not r.error_x > 0}
    groups = sorted({(r.scheme, r.epsilon) for r in records} - zero)
    lines = [
        "# gnuplot script; run from the directory containing results.csv",
        "set datafile separator comma",
        "set logscale xy",
        "set key outside",
        f'set xlabel "{x_field}"',
        'set ylabel "error_x"',
    ]
    plots = []
    for scheme, eps in groups:
        sel = (f'(strcol({col["scheme"]}) eq "{scheme}" && ${col["epsilon"]} == {_fmt(eps)}'
               f' ? ${col["error_x"]} : 1/0)')
        plots.append(
            f'"results.csv" skip 1 using {col[x_field]}:{sel} with linespoints'
            f' title "{scheme} eps={eps:.6g}"'
        )
    if plots:
        lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def _run_solve(args, f: dict, solve_cfg: SolveConfig, out: Path) -> int:
    j, m = f["deriv_order"], solve_cfg.model
    record, final = measure(solve_cfg, free_solution(solve_cfg), j,
                            regularity_normalizer(m.kappa, m.alpha, j, m.epsilon))

    _write_results_csv(out / "results.csv", [record])
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

    _write_results_csv(out / "results.csv", result.records)
    # group labels use ';' so the CSV stays quote-free
    _write_csv(out / "rates.csv", RATE_COLUMNS, (
        (label.replace(",", ";"), fit.slope, fit.intercept, fit.r_squared, fit.n_points)
        for label, fit in rates
    ))
    _write_plot_script(out / "plot.gp", result.records, x_field)

    print(f"{command}: {len(result.records)} cells on grid n={f['grid_n']}, "
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


def _run_verify_phase(args, f: dict, model: DispersiveModel, out: Path) -> int:
    eps, alpha, xi_max = f["epsilon"], f["alpha"], f["xi_max"]

    # sampled identity check: both forms are certified to 2^-36 relative, so
    # their gap against the larger of them needs no cancellation floor
    rng = np.random.default_rng(f["seed"])
    xi1 = rng.uniform(-xi_max, xi_max, f["samples"])
    xi2 = rng.uniform(-xi_max, xi_max, f["samples"])
    block_max = []  # np.max over these is np.max over every sample, NaN winning
    for b in blocks(f["samples"]):
        direct = eval_phase(model, xi1[b], xi2[b])
        factored = eval_phase_factored(model, xi1[b], xi2[b])
        denom = np.maximum(np.abs(direct), np.abs(factored))
        block_max.append(np.max(np.abs(factored - direct) / np.where(denom > 0, denom, 1.0)))
    max_dev = float(np.max(block_max))
    identity_ok = max_dev <= _IDENTITY_RTOL

    axis = np.linspace(-xi_max, xi_max, f["grid_points"])
    searched = f["c0"] is None
    if searched:
        report = search_lower_bound_constant(model, axis, axis)
        bound_ok = report.min_ratio >= C0_FLOOR
        why = f"no candidate c0 reaches min ratio {C0_FLOOR}; best was {report.min_ratio}"
    else:
        report = verify_phase_lower_bound(model, f["c0"], axis, axis)
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
    "sweep-convergence": (_sweep_table(("epsilon",), ("ei",)), _sweep_config, _run_sweep),
    # a rate in eps needs several eps values (a preset's single epsilon is
    # ignored), and the reference solve is all it runs: it reads no ladder
    "sweep-regularity": (_sweep_table(()), _regularity_config, _run_sweep),
    "compare": (_sweep_table(("epsilon",), ("ei", "lt", "strang", "lri")),
                lambda f: comparable(_sweep_config(f)), _run_sweep),
    "reduce-moment": (_REDUCE_MOMENT,
                      lambda f: reduce_moment(f["kappa"], f["beta"], f["sign"], f["lambda"]),
                      _run_reduce),
    "verify-phase": (_VERIFY_PHASE, lambda f: _model_at(f["epsilon"], f), _run_verify_phase),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dispersia", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dispersia {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (table, _, run) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--preset", help="named preset supplying model and domain defaults")
        for key, read, _, flag, _, _ in table:
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
