"""Sweep orchestration: reference solves, error records, rate fits.

Error measurement convention: a reference solve at a much smaller step on the
same grid stands in for the exact solution, so spatial error cancels and the
recorded number isolates the time-stepping error.  Records normalize against
the predicted eps-rate so that curves for different eps collapse.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product

import numpy as np

from .integrators import (SolveConfig, StepperKind, free_solution, solve, step_count,
                          stepper_kind)
from .model import (DispersiveModel, RateExponent, check_integer, expected_error_exponent,
                    expected_regularity_exponent)
from .spectral import Grid, InitialDataSpec, PotentialSpec, SpectralField, resolving_grid_n, x_norm


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


def splitting_threshold(kappa: int, alpha: float, eps: float) -> float:
    """Step-size scale eps^(kappa-alpha) where splitting schemes change regime."""
    return eps ** (kappa - alpha)


@dataclass(frozen=True)
class ErrorRecord:
    """One results row; its fields are the columns of results.csv, in order."""

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

    @property
    def regime(self) -> str:
        """The side of splitting_threshold that tau lies on."""
        small = self.tau <= splitting_threshold(self.kappa, self.alpha, self.epsilon)
        return "small_tau" if small else "large_tau"


def measure(config: SolveConfig, truth: SpectralField, j: int,
            rate: float) -> tuple[ErrorRecord, SpectralField]:
    """solve(config) against truth: its record, with the j-th derivative
    error divided by rate and walltime_s the solve's step-loop time, and its
    final field."""
    res = solve(config)
    err = error_x(res.final, truth, j)
    m = config.model
    record = ErrorRecord(config.scheme.value, m.kappa, m.alpha, m.epsilon, config.tau,
                         config.z_final, j, err, err / rate, res.walltime)
    return record, res.final


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
    field is refused under its own name before any cell runs: cell(eps) is
    built for every eps, so a grid too coarse for one of them is refused too.
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
        for tau in self.taus:
            step_count(tau, self.z_final, "taus")
        step_count(self.reference_tau, self.z_final, "reference_tau")
        if self.taus and self.reference_tau > min(self.taus) / 10.0:
            raise ValueError(f"reference_tau: must be at most min(taus)/10 = "
                             f"{min(self.taus) / 10.0}, got {self.reference_tau}")
        for key, lo in (("deriv_order", 0), ("workers", 1)):
            setattr(self, key, check_integer(getattr(self, key), lo, key))
        for e in self.epsilons:
            self.cell(e)  # the model, the grid and the samples each cell solves on

    def grid(self) -> Grid:
        n = self.grid_n
        if n is None:
            n = resolving_grid_n(self.half_width, min(self.epsilons))
        return Grid(self.half_width, n)

    def cell(self, eps: float) -> SolveConfig:
        """The reference solve of the eps cell, on the sweep's grid."""
        return SolveConfig(DispersiveModel(self.kappa, self.coeffs, self.alpha, eps),
                           self.grid(), self.potential, self.initial, self.reference_scheme,
                           self.reference_tau, self.z_final)


@dataclass
class SweepResult:
    records: list[ErrorRecord] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)

    def rates_by_group(
        self, x_field: str = "tau", keys: tuple[str, ...] = ("scheme", "epsilon")
    ) -> list[tuple[str, RateFit]]:
        """Log-log slope per group, using error_x against the chosen axis.  A
        group of one record, or holding an error that is not > 0, has no slope
        and is left out."""
        groups: dict[tuple, list[ErrorRecord]] = {}
        for rec in self.records:
            gk = tuple(getattr(rec, k) for k in keys)
            groups.setdefault(gk, []).append(rec)
        out = []
        for gk in sorted(groups):
            recs = groups[gk]
            if len(recs) < 2 or not all(r.error_x > 0 for r in recs):
                continue
            xs = [getattr(r, x_field) for r in recs]
            ys = [r.error_x for r in recs]
            label = ",".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in zip(keys, gk))
            label += f",x={x_field}"
            out.append((label, fit_rate(xs, ys)))
        return out


def _sweep_cell(cfg: SweepConfig, eps: float, schemes, taus, truth, rate):
    """One eps cell: truth(base) once, where base is cfg.cell(eps), then one
    measure per scheme and tau against that one truth, normalized by
    rate(eps).

    A failure to build the truth fails the cell once per scheme (keyed
    scheme=<s>,epsilon=<e>); a failing solve fails only its own tau.
    """
    recs: list[ErrorRecord] = []
    fails: list[CellFailure] = []
    base = cfg.cell(eps)
    try:
        exact = truth(base)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        msg = f"{type(exc).__name__}: {exc}"
        return recs, [CellFailure(f"scheme={s.value},epsilon={eps:.6g}", msg) for s in schemes]
    for scheme, tau in product(schemes, taus):
        try:
            config = replace(base, scheme=scheme, tau=tau)
            recs.append(measure(config, exact, cfg.deriv_order, rate(eps))[0])
        except Exception as exc:  # noqa: BLE001
            fails.append(CellFailure(f"scheme={scheme.value},epsilon={eps:.6g},tau={tau:.6g}",
                                     f"{type(exc).__name__}: {exc}"))
    return recs, fails


def _sweep(cfg: SweepConfig, schemes, taus, truth, rate) -> SweepResult:
    """Run one eps cell per epsilon, concurrently; aggregation order is
    fixed by sorting."""
    def run_cell(eps):
        return _sweep_cell(cfg, eps, schemes, taus, truth, rate)

    if cfg.workers <= 1:
        results = [run_cell(e) for e in cfg.epsilons]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_cell, cfg.epsilons))
    records = [r for recs, _ in results for r in recs]
    failures = [f for _, fails in results for f in fails]
    return SweepResult(records=sorted(records, key=lambda r: (r.scheme, r.epsilon, r.tau, r.j)),
                       failures=sorted(failures, key=lambda f: f.cell))


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


def comparable(cfg: SweepConfig) -> SweepConfig:
    """cfg, refused under schemes unless it names at least two to compare."""
    if len(cfg.schemes) < 2:
        raise ValueError(f"schemes: a comparison needs at least two, "
                         f"got {[s.value for s in cfg.schemes]}")
    return cfg


def compare_methods(cfg: SweepConfig) -> SweepResult:
    """Convergence sweep across at least two schemes; each record's regime
    places its tau against eps^(kappa-alpha)."""
    return convergence_sweep(comparable(cfg))
