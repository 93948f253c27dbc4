"""Sweep orchestration: reference solves, error records, rate fits.

Error measurement convention: a reference solve at a much smaller step on the
same grid stands in for the exact solution, so spatial error cancels and the
recorded number isolates the time-stepping error.  Records normalize against
the predicted eps-rate so that curves for different eps collapse.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product

import numpy as np

from .integrators import (SolveConfig, StepperKind, free_solution, solve, step_count,
                          stepper_kind)
from .model import (DispersiveModel, RateExponent, check_integer, expected_error_exponent,
                    expected_regularity_exponent)
from .spectral import (
    Grid,
    InitialDataSpec,
    PotentialSpec,
    SpectralField,
    check_sample_count,
    resolving_grid_n,
    x_norm,
)


def error_x(a: SpectralField, b: SpectralField, j: int = 0) -> float:
    """Weighted absolute-coefficient norm of the difference (j derivatives)."""
    return x_norm(a - b, j)


def _rate(r: RateExponent, eps: float) -> float:
    out = eps**r.exponent
    if r.log_factor:
        out *= math.log(1.0 / eps)
    return out


def error_normalizer(kappa: int, alpha: float, eps: float) -> float:
    """Predicted eps-dependence of the first-order-in-tau error (see
    expected_error_exponent)."""
    return _rate(expected_error_exponent(kappa, alpha), eps)


def regularity_normalizer(kappa: int, alpha: float, j: int, eps: float) -> float:
    """Predicted eps-rate of the j-th derivative of the scattered part."""
    return _rate(expected_regularity_exponent(kappa, alpha, j), eps)


@dataclass(frozen=True)
class ErrorRecord:
    scheme: str
    kappa: int
    alpha: float
    epsilon: float
    tau: float
    z_final: float
    j: int
    error_x: float
    normalized_error: float
    walltime_s: float
    regime: str = ""


@dataclass(frozen=True)
class CellFailure:
    cell: str
    message: str


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_rate(x, y) -> RateFit:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two matched points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("rate fits need strictly positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), r2, int(x.size))


@dataclass
class SweepConfig:
    """Cross-product sweep description over (scheme, epsilon, tau).

    One shared grid serves every cell; when grid_n is None it is chosen as
    the smallest power of two resolving h <= min(epsilons).  reference_tau
    must undercut every test tau by at least a factor of ten so reference
    error stays negligible, and it and every tau must divide z_final; a
    regularity sweep, which runs no test tau, leaves taus empty.  A bad
    field is refused under its own name before any cell runs.
    """

    kappa: int
    coeffs: tuple[float, ...]
    alpha: float
    potential: PotentialSpec
    initial: InitialDataSpec
    half_width: float
    epsilons: tuple[float, ...]
    taus: tuple[float, ...] = ()
    schemes: tuple[StepperKind, ...] = (StepperKind.EI,)
    z_final: float = 1.0
    reference_tau: float = 1e-4
    reference_scheme: StepperKind = StepperKind.EI
    deriv_order: int = 0
    grid_n: int | None = None
    workers: int = 1

    def __post_init__(self):
        self.schemes = tuple(stepper_kind(s, "schemes") for s in self.schemes)
        self.reference_scheme = stepper_kind(self.reference_scheme, "reference_scheme")
        self.epsilons = tuple(float(e) for e in self.epsilons)
        self.taus = tuple(float(t) for t in self.taus)
        if not self.epsilons:
            raise ValueError("epsilons: needs at least one value")
        for e in self.epsilons:
            if not 0.0 < e <= 1.0:
                raise ValueError(f"epsilons: must lie in (0, 1], got {e}")
        self.model(self.epsilons[0])  # kappa, coeffs, alpha
        for tau in self.taus:
            step_count(tau, self.z_final, "taus")
        step_count(self.reference_tau, self.z_final, "reference_tau")
        if self.taus and self.reference_tau > min(self.taus) / 10.0:
            raise ValueError(f"reference_tau: must be at most min(taus)/10 = "
                             f"{min(self.taus) / 10.0}, got {self.reference_tau}")
        for key, lo in (("deriv_order", 0), ("workers", 1)):
            setattr(self, key, check_integer(getattr(self, key), lo, key))
        n = self.grid().n  # half_width, grid_n
        check_sample_count(self.potential, n, "potential")
        check_sample_count(self.initial, n, "initial")

    def grid(self) -> Grid:
        n = self.grid_n
        if n is None:
            n = resolving_grid_n(self.half_width, min(self.epsilons))
        return Grid(self.half_width, n)

    def model(self, eps: float) -> DispersiveModel:
        return DispersiveModel(self.kappa, self.coeffs, self.alpha, eps)


@dataclass
class SweepResult:
    records: list[ErrorRecord] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)
    grid_n: int = 0

    def rates_by_group(
        self, x_field: str = "tau", keys: tuple[str, ...] = ("scheme", "epsilon")
    ) -> list[tuple[str, RateFit]]:
        """Log-log slope per group, using error_x against the chosen axis."""
        groups: dict[tuple, list[ErrorRecord]] = {}
        for rec in self.records:
            gk = tuple(getattr(rec, k) for k in keys)
            groups.setdefault(gk, []).append(rec)
        out = []
        for gk in sorted(groups):
            recs = groups[gk]
            if len(recs) < 2:
                continue
            xs = [getattr(r, x_field) for r in recs]
            ys = [r.error_x for r in recs]
            label = ",".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in zip(keys, gk))
            label += f",x={x_field}"
            out.append((label, fit_rate(xs, ys)))
        return out


def _sorted_records(records: list[ErrorRecord]) -> list[ErrorRecord]:
    return sorted(records, key=lambda r: (r.scheme, r.epsilon, r.tau, r.j))


def _sweep_cell(cfg: SweepConfig, grid: Grid, eps: float, schemes, taus, truth, rate):
    """One eps cell: truth(base) once, where base is the reference-solve
    configuration at eps, then a timed solve per scheme and tau, each
    measured against that one truth and normalized by rate(eps).

    A failure to build the truth fails the cell once per scheme (keyed
    scheme=<s>,epsilon=<e>); a failing solve fails only its own tau.
    """
    recs: list[ErrorRecord] = []
    fails: list[CellFailure] = []
    try:
        base = SolveConfig(
            model=cfg.model(eps),
            grid=grid,
            potential=cfg.potential,
            initial=cfg.initial,
            scheme=cfg.reference_scheme,
            tau=cfg.reference_tau,
            z_final=cfg.z_final,
        )
        exact = truth(base)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        msg = f"{type(exc).__name__}: {exc}"
        return recs, [CellFailure(f"scheme={s.value},epsilon={eps:.6g}", msg) for s in schemes]
    for scheme, tau in product(schemes, taus):
        tkey = f"scheme={scheme.value},epsilon={eps:.6g},tau={tau:.6g}"
        try:
            t0 = time.perf_counter()
            res = solve(replace(base, scheme=scheme, tau=tau))
            wall = time.perf_counter() - t0
            err = error_x(res.final, exact, cfg.deriv_order)
            recs.append(
                ErrorRecord(
                    scheme=scheme.value,
                    kappa=cfg.kappa,
                    alpha=cfg.alpha,
                    epsilon=eps,
                    tau=tau,
                    z_final=cfg.z_final,
                    j=cfg.deriv_order,
                    error_x=err,
                    normalized_error=err / rate(eps),
                    walltime_s=wall,
                )
            )
        except Exception as exc:  # noqa: BLE001
            fails.append(CellFailure(tkey, f"{type(exc).__name__}: {exc}"))
    return recs, fails


def _sweep(cfg: SweepConfig, schemes, taus, truth, rate) -> SweepResult:
    """Run one eps cell per epsilon, concurrently; aggregation order is
    fixed by sorting."""
    grid = cfg.grid()

    def run_cell(eps):
        return _sweep_cell(cfg, grid, eps, schemes, taus, truth, rate)

    if cfg.workers <= 1:
        results = [run_cell(e) for e in cfg.epsilons]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_cell, cfg.epsilons))
    records = [r for recs, _ in results for r in recs]
    failures = [f for _, fails in results for f in fails]
    return SweepResult(records=_sorted_records(records),
                       failures=sorted(failures, key=lambda f: f.cell), grid_n=grid.n)


def convergence_sweep(cfg: SweepConfig) -> SweepResult:
    """Error against a small-step reference for every (scheme, eps, tau);
    each eps solves its reference once for all schemes and taus; errors are
    normalized by the predicted eps-rate error_normalizer."""
    return _sweep(cfg, cfg.schemes, cfg.taus, lambda base: solve(base).final,
                  partial(error_normalizer, cfg.kappa, cfg.alpha))


def regularity_sweep(cfg: SweepConfig) -> SweepResult:
    """Distance of the reference solution from the free flow, per epsilon.

    Runs the reference scheme at reference_tau and measures the j-th
    derivative of mu(z) - free(z), normalized by regularity_normalizer;
    cfg.taus and cfg.schemes are not read.
    """
    return _sweep(cfg, (cfg.reference_scheme,), (cfg.reference_tau,), free_solution,
                  partial(regularity_normalizer, cfg.kappa, cfg.alpha, cfg.deriv_order))


def splitting_threshold(kappa: int, alpha: float, eps: float) -> float:
    """Step-size scale eps^(kappa-alpha) where splitting schemes change regime."""
    return eps ** (kappa - alpha)


def comparable(cfg: SweepConfig) -> SweepConfig:
    """cfg, refused under schemes unless it names at least two to compare."""
    if len(cfg.schemes) < 2:
        raise ValueError(f"schemes: a comparison needs at least two, "
                         f"got {[s.value for s in cfg.schemes]}")
    return cfg


def compare_methods(cfg: SweepConfig) -> SweepResult:
    """Convergence sweep across schemes with regime tags tau vs eps^(k-a)."""
    result = convergence_sweep(comparable(cfg))
    tagged = []
    for rec in result.records:
        thr = splitting_threshold(rec.kappa, rec.alpha, rec.epsilon)
        regime = "small_tau" if rec.tau <= thr else "large_tau"
        tagged.append(replace(rec, regime=regime))
    result.records = tagged
    return result
