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
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .harness import (
    SweepConfig,
    compare_methods,
    convergence_sweep,
    default_workers,
    error_x,
    regularity_normalizer,
    regularity_sweep,
)
from .integrators import NumericalBlowupError, SolveConfig, free_solution, solve
from .model import (
    DispersiveModel,
    eval_p,
    eval_phase,
    eval_phase_factored,
    reduce_moment,
    search_lower_bound_constant,
    verify_phase_lower_bound,
)
from .presets import DESK_EPSILONS, DESK_TAUS, REFERENCE_TAU, get_preset
from .spectral import Grid, InitialDataSpec, PotentialSpec, resolving_grid_n

RESULT_COLUMNS = (
    "scheme", "kappa", "alpha", "epsilon", "tau", "z_final", "j",
    "error_x", "normalized_error", "walltime_s",
)
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


def _float_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}")


def _str_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _parse_beta(text: str):
    """'3/2' stays an exact fraction, '1' an integer, '1.5' a float."""
    s = text.strip()
    try:
        if "/" in s:
            return Fraction(s)
        if s.lstrip("+-").isdigit():
            return int(s)
        return float(s)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"beta: cannot parse {text!r}")


# ---------------------------------------------------------------------------
# configuration assembly: preset -> config file -> command-line flags


def _potential_to_dict(spec: PotentialSpec) -> dict:
    if spec.kind == "gaussian":
        return {"kind": "gaussian", "amplitude": spec.amplitude, "width_sq": spec.width_sq}
    if spec.kind == "exp_abs":
        return {"kind": "exp_abs", "amplitude": spec.amplitude}
    return {"kind": "tabulated", "samples": list(spec.samples or ())}


def _initial_to_dict(spec: InitialDataSpec) -> dict:
    if spec.kind == "gaussian":
        return {"kind": "gaussian"}
    if spec.kind == "plane_wave":
        return {"kind": "plane_wave", "xi0": spec.xi0}
    return {"kind": "tabulated", "samples": [[s.real, s.imag] for s in spec.samples or ()]}


def _potential_from_dict(d) -> PotentialSpec:
    if isinstance(d, PotentialSpec):
        return d
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("potential: expected an object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "gaussian":
            return PotentialSpec.gaussian(d.get("amplitude", -1.0), d.get("width_sq", 1.0))
        if kind == "exp_abs":
            return PotentialSpec.exp_abs(d.get("amplitude", -1.0))
        if kind == "tabulated":
            return PotentialSpec.tabulated(d["samples"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"potential: {exc}")
    raise ConfigError(f"potential.kind: unknown kind {kind!r}")


def _initial_from_dict(d) -> InitialDataSpec:
    if isinstance(d, InitialDataSpec):
        return d
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("initial: expected an object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "gaussian":
            return InitialDataSpec.gaussian()
        if kind == "plane_wave":
            return InitialDataSpec.plane_wave(d.get("xi0", 0.0))
        if kind == "tabulated":
            samples = [
                complex(s[0], s[1]) if isinstance(s, (list, tuple)) else complex(s)
                for s in d["samples"]
            ]
            return InitialDataSpec.tabulated(samples)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"initial: {exc}")
    raise ConfigError(f"initial.kind: unknown kind {kind!r}")


def _preset_dict(name: str) -> dict:
    try:
        p = get_preset(name)
    except KeyError as exc:
        raise ConfigError(f"preset: {exc.args[0]}")
    return {
        "kappa": p.kappa,
        "coeffs": list(p.coeffs),
        "alpha": p.alpha,
        "half_width": p.half_width,
        "potential": _potential_to_dict(p.potential),
        "initial": _initial_to_dict(p.initial),
        "epsilon": p.default_epsilon,
        "tau": p.default_tau,
        "z_final": p.z_final,
    }


def _read_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    # provenance echoes from a previous run are not configuration
    doc.pop("command", None)
    doc.pop("meta", None)
    return doc


def _resolve(args, flag_keys: dict) -> dict:
    """Merge preset, config file and flags; later sources win."""
    cfg: dict = {}
    if getattr(args, "preset", None):
        cfg.update(_preset_dict(args.preset))
    if getattr(args, "config", None):
        cfg.update(_read_config_file(args.config))
    for key, attr in flag_keys.items():
        val = getattr(args, attr, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _as_list(cfg: dict, plural: str, singular: str, default=None):
    if plural in cfg:
        v = cfg[plural]
        return list(v) if isinstance(v, (list, tuple)) else [v]
    if singular in cfg:
        v = cfg[singular]
        return list(v) if isinstance(v, (list, tuple)) else [v]
    return default


def _pure_coeffs(kappa: int) -> list[float]:
    return [1.0] + [0.0] * ((kappa + 1) // 2 - 1)


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"{key}: required but not provided (flag, config or preset)")
    return cfg[key]


def _int_field(cfg: dict, key: str, default):
    """cfg[key] as an int (an integral float is accepted); missing or null
    gives default, and a bool, a string or a fraction names the key."""
    v = cfg.get(key)
    if v is None:
        return default
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key}: expected an integer, got {v!r}")
    return v


def _model_fields(cfg: dict) -> tuple[int, tuple[float, ...], float]:
    kappa = _require(cfg, "kappa")
    if not isinstance(kappa, int):
        raise ConfigError(f"kappa: expected an integer, got {kappa!r}")
    coeffs = cfg.get("coeffs") or _pure_coeffs(kappa)
    alpha = float(_require(cfg, "alpha"))
    return kappa, tuple(float(c) for c in coeffs), alpha


def _resolved_workers(args, cfg: dict) -> int:
    w = getattr(args, "workers", None)
    if w is None:
        w = _int_field(cfg, "workers", None)
    if w is None:
        w = default_workers()
    if w < 1:
        raise ConfigError(f"workers: must be an integer >= 1, got {w!r}")
    return w


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
# artifact writers


def _write_results_csv(path: Path, records) -> None:
    ordered = sorted(
        records,
        key=lambda r: (r.scheme, r.kappa, r.alpha, r.epsilon, r.tau, r.j, r.regime),
    )
    lines = [",".join(RESULT_COLUMNS)]
    for r in ordered:
        lines.append(",".join((
            r.scheme, str(r.kappa), _fmt(r.alpha), _fmt(r.epsilon), _fmt(r.tau),
            _fmt(r.z_final), str(r.j), _fmt(r.error_x), _fmt(r.normalized_error),
            _fmt(r.walltime_s),
        )))
    path.write_text("\n".join(lines) + "\n")


def _write_rates_csv(path: Path, rates) -> None:
    lines = [",".join(RATE_COLUMNS)]
    for label, fit in rates:
        # group labels use ';' so the CSV stays quote-free
        lines.append(",".join((
            label.replace(",", ";"), _fmt(fit.slope), _fmt(fit.intercept),
            _fmt(fit.r_squared), str(fit.n_points),
        )))
    path.write_text("\n".join(lines) + "\n")


def _write_run_json(path: Path, command: str, cfg: dict) -> None:
    doc = dict(cfg)
    doc["command"] = command
    doc["meta"] = {
        "package": "dispersia",
        "version": __version__,
        "written_unix": time.time(),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_plot_script(path: Path, records, x_field: str) -> None:
    """Small gnuplot script over results.csv; one curve per (scheme, epsilon)."""
    xcol = 5 if x_field == "tau" else 4
    groups = sorted({(r.scheme, r.epsilon) for r in records})
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
        sel = f'(strcol(1) eq "{scheme}" && $4 == {_fmt(eps)} ? $8 : 1/0)'
        plots.append(
            f'"results.csv" skip 1 using {xcol}:{sel} with linespoints'
            f' title "{scheme} eps={eps:.6g}"'
        )
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    path.write_text("\n".join(lines) + "\n")


def _report_failures(failures) -> int:
    for f in failures:
        print(f"numerical failure: cell {f.cell}: {f.message}", file=sys.stderr)
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# commands


def _run_solve(args) -> int:
    cfg = _resolve(args, {
        "kappa": "kappa", "alpha": "alpha", "deriv_order": "deriv_order",
    })
    eps_list = _as_list(cfg, "epsilons", "epsilon")
    if getattr(args, "epsilon", None) is not None:
        eps_list = args.epsilon
    if not eps_list or len(eps_list) != 1:
        raise ConfigError(f"epsilon: solve needs exactly one value, got {eps_list!r}")
    tau_list = _as_list(cfg, "taus", "tau")
    if getattr(args, "tau", None) is not None:
        tau_list = args.tau
    if not tau_list or len(tau_list) != 1:
        raise ConfigError(f"tau: solve needs exactly one value, got {tau_list!r}")
    schemes = _as_list(cfg, "schemes", "scheme", default=["ei"])
    if getattr(args, "scheme", None) is not None:
        schemes = args.scheme
    if len(schemes) != 1:
        raise ConfigError(f"scheme: solve needs exactly one value, got {schemes!r}")

    kappa, coeffs, alpha = _model_fields(cfg)
    eps = float(eps_list[0])
    tau = float(tau_list[0])
    half_width = float(cfg.get("half_width", 16.0))
    z_final = float(cfg.get("z_final", 1.0))
    stride = _int_field(cfg, "snapshot_stride", 0)
    j = _int_field(cfg, "deriv_order", 0)
    grid_n = _int_field(cfg, "grid_n", None) or resolving_grid_n(half_width, eps)
    potential = _potential_from_dict(cfg.get("potential", {"kind": "gaussian"}))
    initial = _initial_from_dict(cfg.get("initial", {"kind": "gaussian"}))

    try:
        model = DispersiveModel(kappa, coeffs, alpha, eps)
        grid = Grid(half_width, grid_n)
        solve_cfg = SolveConfig(
            model=model, grid=grid, potential=potential, initial=initial,
            scheme=schemes[0], tau=tau, z_final=z_final, snapshot_stride=stride,
        )
        solve_cfg.step_count()
    except ValueError as exc:
        raise ConfigError(str(exc))

    result = solve(solve_cfg)
    err = error_x(result.final, free_solution(solve_cfg), j)

    out = _out_dir(args)
    record_row = ",".join((
        str(solve_cfg.scheme.value), str(kappa), _fmt(alpha), _fmt(eps), _fmt(tau),
        _fmt(z_final), str(j), _fmt(err),
        _fmt(err / regularity_normalizer(kappa, alpha, j, eps)), _fmt(result.walltime),
    ))
    (out / "results.csv").write_text(",".join(RESULT_COLUMNS) + "\n" + record_row + "\n")

    vals = result.final.values
    state_lines = ["x,re,im"]
    for x, v in zip(grid.nodes, vals):
        state_lines.append(f"{_fmt(float(x))},{_fmt(float(v.real))},{_fmt(float(v.imag))}")
    (out / "final_state.csv").write_text("\n".join(state_lines) + "\n")

    resolved = {
        "kappa": kappa, "coeffs": list(coeffs), "alpha": alpha,
        "epsilon": eps, "tau": tau, "scheme": str(solve_cfg.scheme.value),
        "z_final": z_final, "snapshot_stride": stride, "deriv_order": j,
        "half_width": half_width, "grid_n": grid_n,
        "potential": _potential_to_dict(potential),
        "initial": _initial_to_dict(initial),
    }
    _write_run_json(out / "run.json", "solve", resolved)
    print(f"solve: {len(vals)} nodes, error_x vs free flow = {err:.6g}")
    return 0


def _sweep_config(args, cfg: dict, command: str) -> tuple[SweepConfig, dict]:
    kappa, coeffs, alpha = _model_fields(cfg)
    half_width = float(cfg.get("half_width", 16.0))

    eps_flag = getattr(args, "epsilon", None)
    if eps_flag is not None:
        epsilons = [float(e) for e in eps_flag]
    elif command == "sweep-regularity":
        # a rate in eps needs several eps values; scalar presets are ignored
        epsilons = _as_list(cfg, "epsilons", "_none", default=list(DESK_EPSILONS))
    else:
        epsilons = _as_list(cfg, "epsilons", "epsilon", default=list(DESK_EPSILONS))

    tau_flag = getattr(args, "tau", None)
    if tau_flag is not None:
        taus = [float(t) for t in tau_flag]
    else:
        taus = _as_list(cfg, "taus", "_none", default=list(DESK_TAUS))

    scheme_flag = getattr(args, "scheme", None)
    if scheme_flag is not None:
        schemes = list(scheme_flag)
    else:
        default_schemes = ["ei", "lt", "strang", "lri"] if command == "compare" else ["ei"]
        schemes = _as_list(cfg, "schemes", "scheme", default=default_schemes)

    workers = _resolved_workers(args, cfg)
    j = _int_field(cfg, "deriv_order", 0)

    try:
        sweep = SweepConfig(
            kappa=kappa, coeffs=coeffs, alpha=alpha,
            potential=_potential_from_dict(cfg.get("potential", {"kind": "gaussian"})),
            initial=_initial_from_dict(cfg.get("initial", {"kind": "gaussian"})),
            half_width=half_width,
            epsilons=tuple(float(e) for e in epsilons),
            taus=tuple(float(t) for t in taus),
            schemes=tuple(schemes),
            z_final=float(cfg.get("z_final", 1.0)),
            reference_tau=float(cfg.get("reference_tau", REFERENCE_TAU)),
            reference_scheme=cfg.get("reference_scheme", "ei"),
            derivative_order=j,
            normalization=cfg.get("normalization", "error"),
            grid_n=_int_field(cfg, "grid_n", None),
            workers=workers,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    resolved = {
        "kappa": kappa, "coeffs": list(coeffs), "alpha": alpha,
        "half_width": half_width,
        "potential": _potential_to_dict(sweep.potential),
        "initial": _initial_to_dict(sweep.initial),
        "epsilons": list(sweep.epsilons), "taus": list(sweep.taus),
        "schemes": [s.value for s in sweep.schemes],
        "z_final": sweep.z_final, "reference_tau": sweep.reference_tau,
        "reference_scheme": sweep.reference_scheme.value,
        "deriv_order": sweep.derivative_order,
        "normalization": sweep.normalization,
        "grid_n": sweep.grid().n, "workers": workers,
    }
    return sweep, resolved


def _run_sweep(args, command: str) -> int:
    cfg = _resolve(args, {"kappa": "kappa", "alpha": "alpha", "deriv_order": "deriv_order"})
    sweep, resolved = _sweep_config(args, cfg, command)

    if command == "sweep-convergence":
        result = convergence_sweep(sweep)
        rates = result.rates_by_group("tau", ("scheme", "epsilon"))
        x_field = "tau"
    elif command == "sweep-regularity":
        result = regularity_sweep(sweep)
        rates = result.rates_by_group("epsilon", ("scheme", "j"))
        x_field = "epsilon"
    else:
        result = compare_methods(sweep)
        rates = result.rates_by_group("tau", ("scheme", "epsilon", "regime"))
        x_field = "tau"

    out = _out_dir(args)
    _write_results_csv(out / "results.csv", result.records)
    _write_rates_csv(out / "rates.csv", rates)
    _write_run_json(out / "run.json", command, resolved)
    if args.emit_plots:
        _write_plot_script(out / "plot.gp", result.records, x_field)

    print(f"{command}: {len(result.records)} cells on grid n={result.grid_n}, "
          f"{len(rates)} fitted rates, {len(result.failures)} failures")
    for label, fit in rates:
        print(f"  {label}: slope={fit.slope:.4f} r2={fit.r_squared:.5f}")
    return _report_failures(result.failures)


def _run_reduce(args) -> int:
    cfg = _resolve(args, {"kappa": "kappa", "beta": "beta", "sign": "sign", "lambda": "lam"})
    kappa = _require(cfg, "kappa")
    beta = cfg.get("beta")
    if beta is None:
        raise ConfigError("beta: required for reduce-moment")
    if isinstance(beta, str):
        beta = _parse_beta(beta)
    sign = _require(cfg, "sign")
    lam = float(_require(cfg, "lambda"))
    try:
        red = reduce_moment(kappa, beta, sign, lam)
    except ValueError as exc:
        raise ConfigError(str(exc))

    doc = {
        "kappa": red.kappa,
        "beta": str(red.beta) if isinstance(red.beta, Fraction) else red.beta,
        "sign": red.sign,
        "lambda": red.lam,
        "alpha": float(red.alpha),
        "parity": red.parity,
        "order": red.order,
        "c": {str(jj): cj for jj, cj in sorted(red.c.items())},
        "signFactor": red.sign_factor,
        "droppedConstant": red.dropped_constant,
    }
    text = json.dumps(doc, indent=2)
    out = _out_dir(args)
    (out / "reduction.json").write_text(text + "\n")
    _write_run_json(out / "run.json", "reduce-moment", {
        "kappa": kappa, "beta": doc["beta"], "sign": sign, "lambda": lam,
    })
    print(text)
    return 0


def _run_verify_phase(args) -> int:
    cfg = _resolve(args, {"kappa": "kappa", "alpha": "alpha"})
    kappa, coeffs, alpha = _model_fields(cfg)
    eps_flag = getattr(args, "epsilon", None)
    if eps_flag is not None:
        if len(eps_flag) != 1:
            raise ConfigError(f"epsilon: verify-phase needs one value, got {eps_flag!r}")
        eps = float(eps_flag[0])
    else:
        eps = float(cfg.get("epsilon", 2.0**-6))
    xi_max = float(cfg.get("xi_max", 8.0))
    grid_points = _int_field(cfg, "grid_points", 400)
    n_samples = _int_field(cfg, "samples", 100000)
    if n_samples < 1:
        raise ConfigError(f"samples: must be an integer >= 1, got {n_samples}")
    if grid_points < 1:
        raise ConfigError(f"grid_points: must be an integer >= 1, got {grid_points}")
    if not xi_max > 0:
        raise ConfigError(f"xi_max: must be positive, got {xi_max}")
    seed = args.seed if args.seed is not None else _int_field(cfg, "seed", 12345)
    if seed < 0:
        raise ConfigError(f"seed: must be an integer >= 0, got {seed}")

    try:
        model = DispersiveModel(kappa, coeffs, alpha, eps)
    except ValueError as exc:
        raise ConfigError(str(exc))

    # sampled identity check with a cancellation floor: the two evaluations
    # subtract P values of size eps^alpha * P(xi1/eps + xi2), so agreement is
    # only meaningful above roundoff of that magnitude
    rng = np.random.default_rng(seed)
    xi1 = rng.uniform(-xi_max, xi_max, n_samples)
    xi2 = rng.uniform(-xi_max, xi_max, n_samples)
    direct = eval_phase(model, xi1, xi2)
    factored = eval_phase_factored(model, xi1, xi2)
    p_big = np.abs(eval_p(model, xi1 / eps + xi2)) + np.abs(eval_p(model, xi2))
    floor = 8.0 * np.finfo(float).eps * eps**alpha * p_big
    denom = np.maximum(np.maximum(np.abs(direct), np.abs(factored)), floor)
    dev = np.abs(factored - direct) / np.where(denom > 0, denom, 1.0)
    max_dev = float(np.max(dev))
    identity_ok = max_dev <= _IDENTITY_RTOL

    axis = np.linspace(-xi_max, xi_max, grid_points)
    c0 = cfg.get("c0")
    searched = c0 is None
    if searched:
        c0, report = search_lower_bound_constant(model, axis, axis)
    else:
        c0 = float(c0)
        report = verify_phase_lower_bound(model, c0, axis, axis)
    bound_ok = report.min_ratio > 0.0

    doc = {
        "kappa": kappa, "coeffs": list(coeffs), "alpha": alpha, "epsilon": eps,
        "seed": seed, "samples": n_samples, "maxRelDeviation": max_dev,
        "identityOk": identity_ok,
        "c0": float(c0), "c0Searched": searched,
        "gridPoints": grid_points, "xiMax": xi_max,
        "minRatio": report.min_ratio,
        "worstPoint": [report.worst_xi1, report.worst_xi2],
        "admissibleCount": report.admissible_count,
        "lowerBoundOk": bound_ok,
    }
    out = _out_dir(args)
    (out / "phase_report.json").write_text(json.dumps(doc, indent=2) + "\n")
    _write_run_json(out / "run.json", "verify-phase", {
        "kappa": kappa, "coeffs": list(coeffs), "alpha": alpha, "epsilon": eps,
        "seed": seed, "samples": n_samples, "c0": float(c0),
        "grid_points": grid_points, "xi_max": xi_max,
    })
    print(f"verify-phase: maxRelDeviation={max_dev:.3e} minRatio={report.min_ratio:.6g} "
          f"(C0={float(c0):g}, {report.admissible_count} admissible)")
    if not identity_ok:
        print("numerical failure: cell identity-check: relative deviation "
              f"{max_dev:.3e} exceeds {_IDENTITY_RTOL}", file=sys.stderr)
        return 2
    if not bound_ok:
        print(f"numerical failure: cell bound-scan: minRatio={report.min_ratio} "
              "is not positive", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sp) -> None:
    sp.add_argument("--config", help="JSON configuration file")
    sp.add_argument("--out", default="out", help="output directory (default: out)")
    sp.add_argument("--workers", type=int, help="worker threads (default: DISPERSIA_WORKERS or 1)")
    sp.add_argument("--emit-plots", action="store_true", dest="emit_plots",
                    help="also write a plot.gp script")
    sp.add_argument("--preset", help="named preset supplying model and domain defaults")
    sp.add_argument("--seed", type=int, help="RNG seed for sampled verification")


def _add_model_overrides(sp, with_lists: bool = True) -> None:
    sp.add_argument("--kappa", type=int, help="dispersion order")
    sp.add_argument("--alpha", type=float, help="oscillation exponent")
    if with_lists:
        sp.add_argument("--epsilon", type=_float_list, metavar="E[,E...]",
                        help="epsilon value or comma list")
        sp.add_argument("--tau", type=_float_list, metavar="T[,T...]",
                        help="tau value or comma list")
        sp.add_argument("--scheme", type=_str_list, metavar="S[,S...]",
                        help="scheme name or comma list (ei, lt, strang, lri)")
        sp.add_argument("--deriv-order", type=int, dest="deriv_order",
                        help="derivative order used by the X-norm")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dispersia", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dispersia {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name in ("solve", "sweep-convergence", "sweep-regularity", "compare"):
        sp = sub.add_parser(name)
        _add_common(sp)
        _add_model_overrides(sp)

    sp = sub.add_parser("reduce-moment")
    _add_common(sp)
    sp.add_argument("--kappa", type=int, help="moment order")
    sp.add_argument("--beta", type=_parse_beta, help="scaling exponent (number or fraction like 3/2)")
    sp.add_argument("--sign", choices=["+", "-"], help="moment branch")
    sp.add_argument("--lambda", type=float, dest="lam", help="moment parameter")

    sp = sub.add_parser("verify-phase")
    _add_common(sp)
    sp.add_argument("--kappa", type=int, help="dispersion order")
    sp.add_argument("--alpha", type=float, help="oscillation exponent")
    sp.add_argument("--epsilon", type=_float_list, metavar="E", help="epsilon value")

    return parser


_COMMANDS = {
    "solve": _run_solve,
    "sweep-convergence": lambda a: _run_sweep(a, "sweep-convergence"),
    "sweep-regularity": lambda a: _run_sweep(a, "sweep-regularity"),
    "compare": lambda a: _run_sweep(a, "compare"),
    "reduce-moment": _run_reduce,
    "verify-phase": _run_verify_phase,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # model/grid/sweep validation all raise ValueError naming the field
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalBlowupError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
