"""Sweep orchestration: reference solves, error records, rate fits.

Error measurement convention: a reference solve at a much smaller step on the
same grid stands in for the exact solution, so spatial error cancels and the
recorded number isolates the time-stepping error.  Records normalize against
the predicted eps-rate so that curves for different eps collapse.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .integrators import SolveConfig, StepperKind, free_solution, solve
from .model import DispersiveModel, expected_regularity_exponent
from .spectral import (
    Grid,
    InitialDataSpec,
    PotentialSpec,
    SpectralField,
    resolving_grid_n,
    x_norm,
)


def error_x(a: SpectralField, b: SpectralField, j: int = 0) -> float:
    """Weighted absolute-coefficient norm of the difference (j derivatives)."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    return x_norm(a - b, j)


def error_normalizer(
    kappa: int, alpha: float, eps: float, style: str = "figure", tau: float | None = None
) -> float:
    """Predicted eps-dependence of the first-order-in-tau error.

    'figure' keeps the dominant branch eps^beta, beta = min(1 + (k-1)a/k,
    2 - 2a/k), with a log(1/eps) factor only in the kappa = 2 case when the
    second branch strictly dominates (the min is over exponents: the smaller
    exponent is the larger, dominant term).  'theorem' sums both branches
    with their full log refinements and needs tau.
    """
    e1 = 1.0 + (kappa - 1) * alpha / kappa
    e2 = 2.0 - 2.0 * alpha / kappa
    ln = math.log(1.0 / eps)
    if style == "figure":
        if e2 < e1 and kappa == 2:
            return eps**e2 * ln
        return eps ** min(e1, e2)
    if style == "theorem":
        if tau is None:
            raise ValueError("theorem-style normalization needs tau")
        first = eps**e1 * (1.0 + tau ** (1.0 - 1.0 / kappa) * ln)
        extra = 1.0 if kappa >= 3 else (ln + math.log(1.0 / tau)) ** 2
        return first + eps**e2 * ln * extra
    raise ValueError(f"unknown normalization style {style!r}")


def regularity_normalizer(kappa: int, alpha: float, j: int, eps: float) -> float:
    """Predicted eps-rate of the j-th derivative of the scattered part."""
    r = expected_regularity_exponent(kappa, alpha, j)
    out = eps**r.exponent
    if r.log_factor:
        out *= math.log(1.0 / eps)
    return out


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


def default_workers() -> int:
    env = os.environ.get("DISPERSIA_WORKERS", "").strip()
    if env:
        try:
            w = int(env)
        except ValueError as exc:
            raise ValueError(f"DISPERSIA_WORKERS must be an integer, got {env!r}") from exc
        if w < 1:
            raise ValueError(f"DISPERSIA_WORKERS must be >= 1, got {w}")
        return w
    return 1


@dataclass
class SweepConfig:
    """Cross-product sweep description over (scheme, epsilon, tau).

    One shared grid serves every cell; when grid_n is None it is chosen as
    the smallest power of two resolving h <= min(epsilons).  reference_tau
    must undercut every test tau by at least a factor of ten so reference
    error stays negligible.
    """

    kappa: int
    coeffs: tuple[float, ...]
    alpha: float
    potential: PotentialSpec
    initial: InitialDataSpec
    half_width: float
    epsilons: tuple[float, ...]
    taus: tuple[float, ...]
    schemes: tuple[StepperKind, ...] = (StepperKind.EI,)
    z_final: float = 1.0
    reference_tau: float = 1e-4
    reference_scheme: StepperKind = StepperKind.EI
    derivative_order: int = 0
    normalization: str = "error"
    grid_n: int | None = None
    workers: int | None = None

    def __post_init__(self):
        names = [k.value for k in StepperKind]
        try:
            self.schemes = tuple(StepperKind(s) for s in self.schemes)
        except ValueError:
            raise ValueError(f"schemes: expected names from {names}, got {self.schemes!r}")
        try:
            self.reference_scheme = StepperKind(self.reference_scheme)
        except ValueError:
            raise ValueError(
                f"reference_scheme: expected a name from {names}, got {self.reference_scheme!r}"
            )
        self.epsilons = tuple(float(e) for e in self.epsilons)
        self.taus = tuple(float(t) for t in self.taus)
        if not self.epsilons:
            raise ValueError("epsilons must be non-empty")
        for e in self.epsilons:
            if not 0.0 < e <= 1.0:
                raise ValueError(f"epsilon must lie in (0, 1], got {e}")
        if self.taus and self.reference_tau > min(self.taus) / 10.0:
            raise ValueError(
                f"reference_tau={self.reference_tau} must be at most min(taus)/10 = "
                f"{min(self.taus) / 10.0}"
            )
        if self.normalization not in ("error", "regularity", "none"):
            raise ValueError(
                f"normalization must be 'error', 'regularity' or 'none', "
                f"got {self.normalization!r}"
            )

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


def _normalize(cfg: SweepConfig, eps: float, err: float) -> float:
    if cfg.normalization == "error":
        return err / error_normalizer(cfg.kappa, cfg.alpha, eps)
    if cfg.normalization == "regularity":
        return err / regularity_normalizer(cfg.kappa, cfg.alpha, cfg.derivative_order, eps)
    return err


def _sorted_records(records: list[ErrorRecord]) -> list[ErrorRecord]:
    return sorted(records, key=lambda r: (r.scheme, r.epsilon, r.tau, r.j))


def _sweep_cell(cfg: SweepConfig, grid: Grid, eps: float, schemes, taus, truth):
    """One eps cell: truth(base) once, where base is the reference-solve
    configuration at eps, then a timed solve per scheme and tau, each
    measured against that one truth.

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
            err = error_x(res.final, exact, cfg.derivative_order)
            recs.append(
                ErrorRecord(
                    scheme=scheme.value,
                    kappa=cfg.kappa,
                    alpha=cfg.alpha,
                    epsilon=eps,
                    tau=tau,
                    z_final=cfg.z_final,
                    j=cfg.derivative_order,
                    error_x=err,
                    normalized_error=_normalize(cfg, eps, err),
                    walltime_s=wall,
                )
            )
        except Exception as exc:  # noqa: BLE001
            fails.append(CellFailure(tkey, f"{type(exc).__name__}: {exc}"))
    return recs, fails


def _sweep(cfg: SweepConfig, schemes, taus, truth) -> SweepResult:
    """Run one eps cell per epsilon, concurrently; aggregation order is
    fixed by sorting."""
    grid = cfg.grid()
    workers = cfg.workers if cfg.workers is not None else default_workers()

    def run_cell(eps):
        return _sweep_cell(cfg, grid, eps, schemes, taus, truth)

    if workers <= 1:
        results = [run_cell(e) for e in cfg.epsilons]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_cell, cfg.epsilons))
    records = [r for recs, _ in results for r in recs]
    failures = [f for _, fails in results for f in fails]
    return SweepResult(records=_sorted_records(records),
                       failures=sorted(failures, key=lambda f: f.cell), grid_n=grid.n)


def convergence_sweep(cfg: SweepConfig) -> SweepResult:
    """Error against a small-step reference for every (scheme, eps, tau);
    each eps solves its reference once for all schemes and taus."""
    return _sweep(cfg, cfg.schemes, cfg.taus, lambda base: solve(base).final)


def regularity_sweep(cfg: SweepConfig) -> SweepResult:
    """Distance of the reference solution from the free flow, per epsilon.

    Runs the reference scheme at reference_tau and measures the j-th
    derivative of mu(z) - free(z); cfg.taus is ignored.
    """
    if cfg.normalization == "error":
        cfg = replace(cfg, normalization="regularity")
    return _sweep(cfg, (cfg.reference_scheme,), (cfg.reference_tau,), free_solution)


def splitting_threshold(kappa: int, alpha: float, eps: float) -> float:
    """Step-size scale eps^(kappa-alpha) where splitting schemes change regime."""
    return eps ** (kappa - alpha)


def compare_methods(cfg: SweepConfig) -> SweepResult:
    """Convergence sweep across schemes with regime tags tau vs eps^(k-a)."""
    if len(cfg.schemes) < 2:
        raise ValueError("compare_methods needs at least two schemes")
    result = convergence_sweep(cfg)
    tagged = []
    for rec in result.records:
        thr = splitting_threshold(rec.kappa, rec.alpha, rec.epsilon)
        regime = "small_tau" if rec.tau <= thr else "large_tau"
        tagged.append(replace(rec, regime=regime))
    result.records = tagged
    return result
