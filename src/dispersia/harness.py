"""Sweep orchestration: reference solves, error records, rate fits.

Error measurement convention: the Richardson combination of two reference
rows on the same grid, at reference_tau and at twice it, stands in for the
exact solution, so spatial error cancels and the recorded number isolates
the time-stepping error.  A third row at four times reference_tau certifies
it: the rows' observed order, and the truth's distance to the three-level
extrapolation, which estimates the truth's own error.  Records normalize
against the predicted eps-rate so that curves for different eps collapse.

Each eps cell makes one solve of three rows for its truth, then one solve
per scheme with a row per tau of the ladder, each row measured as it retires
(integrators.solve marches a solve's rows two at a time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .integrators import (SolveConfig, StepperKind, free_solution, solve, step_count,
                          stepper_kind)
from .model import (DispersiveModel, RateExponent, check_integer, expected_error_exponent,
                    expected_regularity_exponent)
from .presets import REFERENCE_TAU
from .spectral import InitialDataSpec, PotentialSpec, SpectralField, resolving_grid, x_norm


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


def measure(config: SolveConfig, truth: SpectralField, j: int, rate: float):
    """The reduce that makes a row (tau, final, seconds) of solve(config, ...)
    its record against truth: the j-th derivative error, divided by rate,
    with walltime_s the row's share of the stepping time."""
    m = config.model

    def record(tau: float, final: SpectralField, seconds: float) -> ErrorRecord:
        err = error_x(final, truth, j)
        return ErrorRecord(config.scheme.value, m.kappa, m.alpha, m.epsilon, tau,
                           config.z_final, j, err, err / rate, seconds)
    return record


class UncertifiedReferenceError(RuntimeError):
    """A truth that the sweep gates failed its certificate."""


# the gate on a truth the rule picks: its observed order within _ORDER_BAND
# of its scheme's, and its estimated error at most _SELF_ERROR_SHARE of the
# fine row's own
_ORDER_BAND = 0.02
_SELF_ERROR_SHARE = 1e-2


@dataclass(frozen=True)
class ReferenceRecord:
    """One reference.csv row: an eps cell's truth and its certificate, each
    distance in the sweep's j-th derivative norm.  fine_error is the fine
    row's distance to the truth R2, observed_order is log2 of
    |R(4 tau) - R(2 tau)| over |R(2 tau) - R(tau)|, and self_error is
    |R3 - R2|, which estimates R2's own error; self_error_ratio divides it
    by the cell's smallest test error (NaN when that is not > 0)."""

    scheme: str
    epsilon: float
    tau: float
    grid_n: int
    order: int
    observed_order: float
    fine_error: float
    self_error: float
    self_error_ratio: float = math.nan

    def check(self) -> None:
        """Raise UncertifiedReferenceError unless the certificate holds."""
        if not (abs(self.observed_order - self.order) <= _ORDER_BAND
                and self.self_error <= _SELF_ERROR_SHARE * self.fine_error):
            raise UncertifiedReferenceError(
                f"{self.scheme} truth at tau={self.tau:.6g}: observed order "
                f"{self.observed_order:.4f}, needs {self.order} +/- {_ORDER_BAND}; estimated "
                f"error {self.self_error:.3g}, needs at most {_SELF_ERROR_SHARE} of the fine "
                f"row's {self.fine_error:.3g}")


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


# the Strang truths a ladder sweep given no reference key may run, largest
# first: dyadic, so that four times one divides a dyadic z_final, and none
# is a desk tau
_STRANG_REFERENCE_TAUS = (2.0**-10, 2.0**-11)


def _divides(tau: float, z_final: float) -> bool:
    """Whether steps of tau reach z_final > 0 in a whole number of steps."""
    try:
        return step_count(tau, z_final) > 0
    except ValueError:
        return False


@dataclass
class SweepConfig:
    """Cross-product sweep description over (scheme, epsilon, tau).

    Every tau and reference_tau must divide z_final.  Each eps cell measures
    against richardson_truth(cell(eps)), the reference scheme's rows at
    reference_tau, twice it and four times it, so with a tau ladder
    z_final/reference_tau must be a multiple of 4.

    A ladder sweep given neither reference key runs the truth the rule picks
    (auto_reference), and stores it in both keys: on a gaussian well, the
    Strang pair deep in its tau^2 regime, or else ei at REFERENCE_TAU.  Such
    a Strang truth is gated by its certificate (gates_reference): a cell
    whose truth fails it fails.  Every other ladder truth must have
    reference_tau at most min(taus)/4; at the desk's 2.5e-4 the ei truth's
    own error measured at most 7e-3 of ei's error at tau 1e-3 on every cell
    held against a Taylor-series truth.  A given pair of keys that is the
    rule's Strang pick counts as that pick, so that run.json replays.

    A regularity sweep, which runs no test tau, leaves taus empty and runs
    its reference scheme at reference_tau alone, ei at REFERENCE_TAU where a
    key is not given.  A bad field is refused under its own name before any
    cell runs: cell(eps) is built for every eps, so a grid_n too coarse for
    one of them is refused too.
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
    reference_tau: float | None = None
    reference_scheme: StepperKind | None = None
    deriv_order: int = 0
    grid_n: int | None = None

    def __post_init__(self):
        self.schemes = tuple(stepper_kind(s, "schemes") for s in self.schemes)
        if self.reference_scheme is not None:
            self.reference_scheme = stepper_kind(self.reference_scheme, "reference_scheme")
        self.epsilons = tuple(float(e) for e in self.epsilons)
        self.taus = tuple(float(t) for t in self.taus)
        if not self.epsilons:
            raise ValueError("epsilons: needs at least one value")
        for e in self.epsilons:
            if not 0.0 < e <= 1.0:
                raise ValueError(f"epsilons: must lie in (0, 1], got {e}")
        for key in ("epsilons", "taus", "schemes"):  # a repeat would measure a cell twice
            values = [getattr(v, "value", v) for v in getattr(self, key)]
            if len(set(values)) < len(values):
                raise ValueError(f"{key}: each value may appear once, got {values}")
        for tau in self.taus:
            step_count(tau, self.z_final, "taus")
        if self.taus and self.reference_scheme is None and self.reference_tau is None:
            self.reference_scheme, self.reference_tau = self.auto_reference()
        if self.reference_scheme is None:
            self.reference_scheme = StepperKind.EI
        if self.reference_tau is None:
            self.reference_tau = REFERENCE_TAU
        reference_steps = step_count(self.reference_tau, self.z_final, "reference_tau")
        if self.taus:  # measured against richardson_truth
            if reference_steps % 4:
                raise ValueError(f"reference_tau: the truth also solves at twice and four "
                                 f"times it, so z_final/reference_tau must be a multiple of 4, "
                                 f"got {reference_steps}")
            if not self.gates_reference and self.reference_tau > min(self.taus) / 4.0:
                raise ValueError(f"reference_tau: must be at most min(taus)/4 = "
                                 f"{min(self.taus) / 4.0}, got {self.reference_tau}")
        self.deriv_order = check_integer(self.deriv_order, 0, "deriv_order")
        for e in self.epsilons:
            self.cell(e)  # the model, the grid and the samples each cell solves on

    def auto_reference(self) -> tuple[StepperKind, float]:
        """The rule's truth: on a gaussian well, strang at the largest tau of
        _STRANG_REFERENCE_TAUS that is at most splitting_threshold/8 at every
        eps, four times which divides z_final > 0; ei at REFERENCE_TAU
        otherwise.  That Strang triple takes at most half the ei triple's
        steps."""
        if self.potential.kind == "gaussian":
            # refuses a kappa or alpha out of range, so that kappa - alpha >= 0
            m = DispersiveModel(self.kappa, self.coeffs, self.alpha, self.epsilons[0])
            bound = min(splitting_threshold(m.kappa, m.alpha, e) for e in self.epsilons) / 8.0
            for tau in _STRANG_REFERENCE_TAUS:
                if tau <= bound and _divides(4.0 * tau, self.z_final):
                    return StepperKind.STRANG, tau
        return StepperKind.EI, REFERENCE_TAU

    @property
    def gates_reference(self) -> bool:
        """Whether each cell's truth must pass its certificate: a ladder
        sweep's truth that is the rule's Strang pick."""
        return (bool(self.taus) and self.reference_scheme is StepperKind.STRANG
                and (self.reference_scheme, self.reference_tau) == self.auto_reference())

    def cell(self, eps: float) -> SolveConfig:
        """The reference solve of the eps cell at reference_tau, on the grid
        resolving_grid gives eps: grid_n points when it is set."""
        return SolveConfig(DispersiveModel(self.kappa, self.coeffs, self.alpha, eps),
                           resolving_grid(self.half_width, eps, self.grid_n), self.potential,
                           self.initial, self.reference_scheme, self.reference_tau,
                           self.z_final)


@dataclass
class SweepResult:
    records: list[ErrorRecord] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)
    references: list[ReferenceRecord] = field(default_factory=list)

    def positive_groups(self, keys: tuple[str, ...]) -> dict[tuple, list[ErrorRecord]]:
        """The records by their values of keys, sorted; no log scale shows a
        group with an error that is not > 0, so it is left out."""
        groups: dict[tuple, list[ErrorRecord]] = {}
        for rec in self.records:
            groups.setdefault(tuple(getattr(rec, k) for k in keys), []).append(rec)
        return {gk: recs for gk, recs in sorted(groups.items())
                if all(r.error_x > 0 for r in recs)}

    def rates_by_group(
        self, x_field: str = "tau", keys: tuple[str, ...] = ("scheme", "epsilon")
    ) -> list[tuple[str, RateFit]]:
        """Log-log slope per positive group, using error_x against the chosen
        axis; a group of one record has no slope and is left out."""
        out = []
        for gk, recs in self.positive_groups(keys).items():
            if len(recs) < 2:
                continue
            xs = [getattr(r, x_field) for r in recs]
            ys = [r.error_x for r in recs]
            label = ",".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in zip(keys, gk))
            label += f",x={x_field}"
            out.append((label, fit_rate(xs, ys)))
        return out


_ORDER = {StepperKind.EI: 1, StepperKind.LT: 1, StepperKind.LRI: 1, StepperKind.STRANG: 2}
# per order p, the (fine, coarse) weights of the Richardson truth, 2^p/(2^p - 1)
# and -1/(2^p - 1), and the (tau, 2 tau, 4 tau) weights of the three-level
# extrapolation, which also cancels the next term: tau^2 at first order,
# tau^4 in Strang's tau^2 series
_PAIR_WEIGHTS = {1: (2.0, -1.0), 2: (4.0 / 3.0, -1.0 / 3.0)}
_TRIPLE_WEIGHTS = {1: (8.0 / 3.0, -6.0 / 3.0, 1.0 / 3.0),
                   2: (64.0 / 45.0, -20.0 / 45.0, 1.0 / 45.0)}


def richardson_truth(config: SolveConfig, j: int = 0) -> tuple[SpectralField, ReferenceRecord]:
    """The solve of config at its tau and at twice it, combined with the
    Richardson weights of its scheme's order so that their leading error
    terms cancel, and its certificate (see ReferenceRecord) in the j-th
    derivative norm.  The certificate's third row, at four times tau, marches
    in the same solve in the lane the second row leaves idle, and changes no
    bit of the other two."""
    fine, coarse, coarsest = solve(config, 2.0 * config.tau, 4.0 * config.tau).rows
    order = _ORDER[config.scheme]
    w_fine, w_coarse = _PAIR_WEIGHTS[order]
    truth = SpectralField(config.grid, values=w_fine * fine.values + w_coarse * coarse.values)
    a, b, c = _TRIPLE_WEIGHTS[order]
    r3 = SpectralField(config.grid,
                       values=a * fine.values + b * coarse.values + c * coarsest.values)
    near, far = error_x(coarse, fine, j), error_x(coarsest, coarse, j)
    observed = math.log2(far / near) if near > 0 and far > 0 else math.nan
    return truth, ReferenceRecord(config.scheme.value, config.model.epsilon, config.tau,
                                  config.grid.n, order, observed, error_x(fine, truth, j),
                                  error_x(r3, truth, j))


def _sweep_cell(cfg: SweepConfig, eps: float, schemes, taus, truth, rate):
    """One eps cell: truth(base) once, where base is cfg.cell(eps), then per
    scheme one solve whose rows are the taus, each row measured against that
    one truth as it retires, normalized by rate(eps).  truth returns the
    field and its ReferenceRecord, or None for a truth with no certificate;
    the cell returns its records, its failures and that ReferenceRecord,
    with its ratio to the cell's smallest error.

    A failure to build the truth, or a certificate that cfg gates and that
    fails, fails the cell once per scheme (keyed scheme=<s>,epsilon=<e>); a
    row that fails fails only its own tau, and a solve that fails as a whole
    fails each of its taus.
    """
    recs: list[ErrorRecord] = []
    fails: list[CellFailure] = []
    base, reference = cfg.cell(eps), None
    try:
        exact, reference = truth(base)
        if cfg.gates_reference:
            reference.check()
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        msg = f"{type(exc).__name__}: {exc}"
        return recs, [CellFailure(f"scheme={s.value},epsilon={eps:.6g}", msg)
                      for s in schemes], reference
    for scheme in schemes:
        try:
            config = replace(base, scheme=scheme, tau=taus[0])
            rows = solve(config, *taus[1:],
                         reduce=measure(config, exact, cfg.deriv_order, rate(eps))).rows
        except Exception as exc:  # noqa: BLE001
            rows = [exc] * len(taus)
        for tau, row in zip(taus, rows):
            if isinstance(row, Exception):
                fails.append(CellFailure(f"scheme={scheme.value},epsilon={eps:.6g},tau={tau:.6g}",
                                         f"{type(row).__name__}: {row}"))
            else:
                recs.append(row)
    if reference is not None:
        least = min((r.error_x for r in recs), default=0.0)
        reference = replace(reference, self_error_ratio=reference.self_error / least
                            if least > 0 else math.nan)
    return recs, fails, reference


def _sweep(cfg: SweepConfig, schemes, taus, truth, rate) -> SweepResult:
    """Run one eps cell per epsilon, in order; rows, failures and
    references are sorted."""
    results = [_sweep_cell(cfg, eps, schemes, taus, truth, rate) for eps in cfg.epsilons]
    records = [r for recs, _, _ in results for r in recs]
    failures = [f for _, fails, _ in results for f in fails]
    references = [ref for _, _, ref in results if ref is not None]
    return SweepResult(records=sorted(records, key=lambda r: (r.scheme, r.epsilon, r.tau, r.j)),
                       failures=sorted(failures, key=lambda f: f.cell),
                       references=sorted(references, key=lambda r: r.epsilon))


def convergence_sweep(cfg: SweepConfig) -> SweepResult:
    """Error against the Richardson truth for every (scheme, eps, tau); each
    eps solves its reference rows once for all schemes and taus, and reports
    the truth's certificate; errors are normalized by the predicted eps-rate
    error_normalizer."""
    return _sweep(cfg, cfg.schemes, cfg.taus, lambda base: richardson_truth(base, cfg.deriv_order),
                  partial(error_normalizer, cfg.kappa, cfg.alpha))


def regularity_sweep(cfg: SweepConfig) -> SweepResult:
    """Distance of the reference solution from the free flow, per epsilon.

    Runs the reference scheme at reference_tau and measures the j-th
    derivative of mu(z) - free(z), normalized by regularity_normalizer;
    cfg.taus and cfg.schemes are not read.
    """
    return _sweep(cfg, (cfg.reference_scheme,), (cfg.reference_tau,),
                  lambda base: (free_solution(base), None),
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
