"""Correctness checks on the output files of the benchmark's workloads.

The checks rest on properties of the method (first-order convergence in tau,
error falling with eps, the predicted eps-rate) and on computations made here
with numpy and exact rationals, apart from the dispersia package, which this
module never imports.  Every check returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DESK_TAUS = (1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1)

# The program measures against an `ei` solve at tau = 1e-4, whose own error
# is about 1e-3 of the error at tau = 0.1; the recomputation below uses a
# converged reference, so the two differ by that much and no more.
INDEPENDENT_RTOL = 1e-2
SLOPE_BAND = 0.15
FIT_ATOL = 1e-9
NORMALIZED_RTOL = 1e-12
RATIO_RTOL = 1e-9


@dataclass(frozen=True)
class SweepSpec:
    """What one sweep workload asks of the program, in the program's terms."""

    command: str
    preset: str
    kappa: int
    alpha: float
    half_width: float
    potential: str  # "gaussian": -exp(-y^2/8); "exp_abs": -exp(-|y|)
    epsilons: tuple[float, ...]
    schemes: tuple[str, ...]
    taus: tuple[float, ...] = DESK_TAUS
    n: int = 4096
    z_final: float = 1.0

    def cells(self) -> set[tuple[str, float, float]]:
        return {(s, e, t) for s in self.schemes for e in self.epsilons for t in self.taus}


@dataclass(frozen=True)
class PhaseSpec:
    kappa: int
    alpha: float
    epsilon: float
    samples: int
    grid_points: int
    xi_max: float


# ---------------------------------------------------------------------------
# parsing


def parse_results(text: str) -> list[dict]:
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = dict(raw)
        for key in ("alpha", "epsilon", "tau", "z_final", "error_x",
                    "normalized_error", "walltime_s"):
            row[key] = float(row[key])
        row["kappa"] = int(row["kappa"])
        row["j"] = int(row["j"])
        rows.append(row)
    return rows


def parse_rates(text: str) -> list[dict]:
    """rates.csv rows with the group label split into its key=value parts."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        group = dict(part.split("=", 1) for part in raw["group"].split(";"))
        rows.append({
            "group": group,
            "slope": float(raw["slope"]),
            "intercept": float(raw["intercept"]),
            "points": int(raw["points"]),
        })
    return rows


# ---------------------------------------------------------------------------
# properties of the method


def error_normalizer(kappa: int, alpha: float, eps: float) -> float:
    """Predicted eps-dependence eps^beta of the first-order error.

    beta = min(1 + (kappa-1) alpha/kappa, 2 - 2 alpha/kappa); for kappa = 2
    a strictly dominant second branch carries a log(1/eps) factor.
    """
    e1 = 1.0 + (kappa - 1) * alpha / kappa
    e2 = 2.0 - 2.0 * alpha / kappa
    if kappa == 2 and e2 < e1:
        return eps**e2 * math.log(1.0 / eps)
    return eps ** min(e1, e2)


def loglog_fit(x, y) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log x."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    dx = lx - lx.mean()
    slope = float(np.dot(dx, ly - ly.mean()) / np.dot(dx, dx))
    return slope, float(ly.mean() - slope * lx.mean())


def _close(a: float, b: float, rel: float = 1e-6) -> bool:
    return math.isclose(a, b, rel_tol=rel)


def _sweep_table(rows, spec: SweepSpec, problems: list[str]) -> dict:
    """Map (scheme, eps, tau) -> row, noting missing, extra and repeated cells."""
    table = {}
    for row in rows:
        key = (row["scheme"], row["epsilon"], row["tau"])
        if key in table:
            problems.append(f"cell {key} appears twice")
        table[key] = row
    want = spec.cells()
    for key in sorted(want - set(table)):
        problems.append(f"cell {key} is missing")
    for key in sorted(set(table) - want):
        problems.append(f"unexpected cell {key}")
    return {k: v for k, v in table.items() if k in want}


def _regime(spec: SweepSpec, eps: float, tau: float) -> str:
    return "small_tau" if tau <= eps ** (spec.kappa - spec.alpha) else "large_tau"


def _check_rates(table, rates, spec: SweepSpec, problems: list[str]) -> None:
    """rates.csv must hold the log-log fit of results.csv for each group."""
    groups: dict[tuple, list] = {}
    for (scheme, eps, tau), row in table.items():
        key = (scheme, eps)
        if spec.command == "compare":
            key += (_regime(spec, eps, tau),)
        groups.setdefault(key, []).append(row)
    groups = {k: v for k, v in groups.items() if len(v) >= 2}
    seen = set()
    for rate in rates:
        g = rate["group"]
        match = [k for k in groups
                 if k[0] == g.get("scheme") and _close(k[1], float(g.get("epsilon", "nan")))
                 and (len(k) == 2 or k[2] == g.get("regime"))]
        if len(match) != 1:
            problems.append(f"rates.csv group {g} matches no results group")
            continue
        key = match[0]
        seen.add(key)
        recs = groups[key]
        slope, intercept = loglog_fit([r["tau"] for r in recs], [r["error_x"] for r in recs])
        if rate["points"] != len(recs):
            problems.append(f"rates.csv group {g}: {rate['points']} points, results have {len(recs)}")
        if abs(rate["slope"] - slope) > FIT_ATOL or abs(rate["intercept"] - intercept) > FIT_ATOL:
            problems.append(
                f"rates.csv group {g}: slope {rate['slope']!r} / intercept "
                f"{rate['intercept']!r} differ from the fit of results.csv "
                f"({slope!r} / {intercept!r})"
            )
    for key in sorted(set(groups) - seen):
        problems.append(f"rates.csv lacks group {key}")


def check_sweep(results_text: str, rates_text: str, spec: SweepSpec,
                independent: dict[tuple[str, float, float], float]) -> list[str]:
    """Checks shared by both sweep workloads, then the workload's own."""
    problems: list[str] = []
    table = _sweep_table(parse_results(results_text), spec, problems)
    for key, row in sorted(table.items()):
        err = row["error_x"]
        if not (math.isfinite(err) and err > 0.0):
            problems.append(f"cell {key}: error_x {err!r} is not finite and positive")
            continue
        if (row["kappa"], row["alpha"], row["j"], row["z_final"]) != (
                spec.kappa, spec.alpha, 0, spec.z_final):
            problems.append(f"cell {key}: model fields {row} do not echo the workload")
        want = err / error_normalizer(spec.kappa, spec.alpha, row["epsilon"])
        if not _close(row["normalized_error"], want, NORMALIZED_RTOL):
            problems.append(
                f"cell {key}: normalized_error {row['normalized_error']!r} is not "
                f"error_x / eps^beta = {want!r}"
            )
    if problems:
        return problems

    for scheme in spec.schemes:
        for eps in spec.epsilons:
            errs = [table[(scheme, eps, t)]["error_x"] for t in spec.taus]
            if any(b <= a for a, b in zip(errs, errs[1:])):
                problems.append(f"{scheme} at eps={eps}: errors do not rise with tau: {errs}")
    _check_rates(table, parse_rates(rates_text), spec, problems)

    for key, value in sorted(independent.items()):
        got = table[key]["error_x"]
        if not _close(got, value, INDEPENDENT_RTOL):
            problems.append(
                f"cell {key}: error_x {got:.6e} differs from the independent "
                f"recomputation {value:.6e} by more than {INDEPENDENT_RTOL:.0e} relative"
            )

    if spec.command == "compare":
        problems += _compare_properties(table, spec)
    else:
        problems += _convergence_properties(table, spec)
    return problems


def _ei_slope_problems(table, spec: SweepSpec, eps: float) -> list[str]:
    errs = [table[("ei", eps, t)]["error_x"] for t in spec.taus]
    slope, _ = loglog_fit(spec.taus, errs)
    if abs(slope - 1.0) > SLOPE_BAND:
        return [f"ei tau-slope {slope:.4f} at eps={eps} is outside 1 +/- {SLOPE_BAND}"]
    return []


def _compare_properties(table, spec: SweepSpec) -> list[str]:
    problems = []
    for eps in spec.epsilons:
        problems += _ei_slope_problems(table, spec, eps)
        for tau in spec.taus:
            if tau < 0.05:
                continue
            ei = table[("ei", eps, tau)]["error_x"]
            for scheme in ("lt", "lri"):
                err = table[(scheme, eps, tau)]["error_x"]
                if err < 10.0 * ei:
                    problems.append(
                        f"{scheme} error {err:.3e} at eps={eps}, tau={tau} is below "
                        f"10x the ei error {ei:.3e}"
                    )
    return problems


def _convergence_properties(table, spec: SweepSpec) -> list[str]:
    problems = []
    eps_desc = sorted(spec.epsilons, reverse=True)
    for eps in eps_desc:
        problems += _ei_slope_problems(table, spec, eps)
    for tau in spec.taus:
        errs = [table[("ei", e, tau)]["error_x"] for e in eps_desc]
        if any(b >= a for a, b in zip(errs, errs[1:])):
            problems.append(f"ei at tau={tau}: error does not fall as eps falls: {errs}")
        normed = [table[("ei", e, tau)]["normalized_error"] for e in eps_desc]
        if max(normed) > 3.0 * min(normed):
            problems.append(f"ei at tau={tau}: normalized errors spread over x3: {normed}")
    return problems


# ---------------------------------------------------------------------------
# independent recomputation of sweep cells (numpy only)


def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    nz = z != 0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _ei_coefficients(mu0, r, omega, tau: float, steps: int) -> np.ndarray:
    """`steps` exponential-integrator steps, returning fft of the final state:
    u+ = e^(-i tau omega) u + tau phi1(-i tau omega) fft(r * ifft(u))."""
    flow = np.exp(-1j * tau * omega)
    weight = tau * _phi1(-1j * tau * omega)
    u = np.fft.fft(mu0)
    for _ in range(steps):
        u = flow * u + weight * np.fft.fft(r * np.fft.ifft(u))
    return u


def independent_errors(spec: SweepSpec, eps: float, cells: list[tuple[str, float]],
                       ref_steps: int = 2048) -> dict[tuple[str, float, float], float]:
    """X-norm errors of `ei`/`lt` cells against an extrapolated reference.

    Grid x_j = -L + j h, frequencies xi = 2 pi fftfreq(n, h); the free flow
    multiplies by exp(-i t omega), omega = eps^alpha xi^kappa, the potential
    term by R(x/eps).  The reference is the Richardson extrapolation
    2 ei(z/N) - ei(2z/N) of the first-order scheme, N = ref_steps; at
    N = 2048 it is converged to about 1e-5 of the largest-tau errors.  The
    X-norm of a grid function f is h * dxi * sum |fft(f)|.
    """
    n, L = spec.n, spec.half_width
    h = 2.0 * L / n
    x = -L + h * np.arange(n)
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    y = x / eps
    if spec.potential == "gaussian":
        r = -np.exp(-(y * y) / 8.0)
    elif spec.potential == "exp_abs":
        r = -np.exp(-np.abs(y))
    else:
        raise ValueError(f"unknown potential {spec.potential!r}")
    omega = eps**spec.alpha * xi**spec.kappa
    mu0 = np.exp(-(x * x) / 2.0).astype(np.complex128)
    z = spec.z_final
    ref = (2.0 * _ei_coefficients(mu0, r, omega, z / ref_steps, ref_steps)
           - _ei_coefficients(mu0, r, omega, 2.0 * z / ref_steps, ref_steps // 2))

    out = {}
    for scheme, tau in cells:
        steps = round(z / tau)
        if scheme == "ei":
            u = _ei_coefficients(mu0, r, omega, tau, steps)
        elif scheme == "lt":
            flow, lie = np.exp(-1j * tau * omega), np.exp(tau * r)
            mu = mu0
            for _ in range(steps):
                mu = np.fft.ifft(flow * np.fft.fft(lie * mu))
            u = np.fft.fft(mu)
        else:
            raise ValueError(f"no independent implementation of {scheme!r}")
        out[(scheme, eps, tau)] = h * (np.pi / L) * float(np.abs(u - ref).sum())
    return out


# ---------------------------------------------------------------------------
# phase report


def _scaled_phase_exact(kappa: int, coeffs, eps: Fraction, a: Fraction, b: Fraction) -> Fraction:
    """eps^kappa (P(a/eps + b) - P(b)) in exact rationals."""
    def p(v):
        return sum(Fraction(c) * v ** (kappa - 2 * j) for j, c in enumerate(coeffs))
    return eps**kappa * (p(a / eps + b) - p(b))


def _envelope(kappa: int, a, eta):
    sigma = 1 if kappa % 2 == 0 else 0
    pw = kappa - 1 - sigma
    return abs(a) * abs(eta) ** sigma * (a**pw + eta**pw)


def _scaled_phase_pure(kappa: int, eps: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """eps^kappa ((a/eps + b)^kappa - b^kappa) for P(y) = y^kappa.

    With u = a + eps b and v = eps b this is u^kappa - v^kappa = (u - v) S,
    u - v = a.  For even kappa S = (u + v) sum (u^2)^i (v^2)^(k/2-1-i), a sum
    of non-negative terms; for odd kappa S = sum u^i v^(k-1-i) is a positive
    definite form.  Neither loses digits to cancellation.
    """
    u = a + eps * b
    v = eps * b
    if kappa % 2 == 0:
        u2, v2 = u * u, v * v
        s = sum(u2**i * v2 ** (kappa // 2 - 1 - i) for i in range(kappa // 2))
        return a * (u + v) * s
    return a * sum(u**i * v ** (kappa - 1 - i) for i in range(kappa))


def check_phase(report: dict, spec: PhaseSpec, seed: int, subsample: int = 20000) -> list[str]:
    problems: list[str] = []
    echo = {"kappa": spec.kappa, "alpha": spec.alpha, "epsilon": spec.epsilon,
            "samples": spec.samples, "gridPoints": spec.grid_points,
            "xiMax": spec.xi_max, "seed": seed}
    for key, want in echo.items():
        if report.get(key) != want:
            problems.append(f"{key} is {report.get(key)!r}, the workload asked for {want!r}")
    coeffs = report.get("coeffs")
    if coeffs != [1.0] + [0.0] * ((spec.kappa + 1) // 2 - 1):
        problems.append(f"coeffs {coeffs!r} are not the pure power x^{spec.kappa}")
    if report.get("identityOk") is not True or report.get("lowerBoundOk") is not True:
        problems.append("identityOk and lowerBoundOk must both be true")
    dev = report.get("maxRelDeviation")
    if not (isinstance(dev, float) and 0.0 <= dev <= 1e-10):
        problems.append(f"maxRelDeviation {dev!r} is not within [0, 1e-10]")
    if problems:
        return problems

    kappa, eps, c0 = spec.kappa, spec.epsilon, float(report["c0"])
    axis = np.linspace(-spec.xi_max, spec.xi_max, spec.grid_points)
    thresh = c0 * eps
    count = 0
    for row in np.array_split(np.arange(axis.size), 8):
        eta = axis[row, None] + 2.0 * eps * axis[None, :]
        count += int(np.count_nonzero((np.abs(axis[row, None]) >= thresh) | (np.abs(eta) >= thresh)))
    if report["admissibleCount"] != count:
        problems.append(f"admissibleCount {report['admissibleCount']} differs from the "
                        f"recount {count} at c0={c0}")

    min_ratio = report["minRatio"]
    w1, w2 = report["worstPoint"]
    if w1 not in axis or w2 not in axis:
        problems.append(f"worstPoint {report['worstPoint']} is not a grid point")
        return problems
    a, b, e = Fraction(w1), Fraction(w2), Fraction(eps)
    eta = a + 2 * e * b
    exact = abs(_scaled_phase_exact(kappa, coeffs, e, a, b)) / _envelope(kappa, a, eta)
    if not _close(min_ratio, float(exact), RATIO_RTOL):
        problems.append(f"minRatio {min_ratio!r} differs from the exact ratio "
                        f"{float(exact)!r} at worstPoint")

    rng = np.random.default_rng(seed)
    i = rng.integers(0, axis.size, subsample)
    j = rng.integers(0, axis.size, subsample)
    a, b = axis[i], axis[j]
    eta = a + 2.0 * eps * b
    env = _envelope(kappa, a, eta)
    keep = ((np.abs(a) >= thresh) | (np.abs(eta) >= thresh)) & (env > 0.0)
    ratio = np.abs(_scaled_phase_pure(kappa, eps, a[keep], b[keep])) / env[keep]
    if ratio.size and ratio.min() < min_ratio * (1.0 - RATIO_RTOL):
        k = int(np.argmin(ratio))
        problems.append(f"grid point ({a[keep][k]!r}, {b[keep][k]!r}) has ratio "
                        f"{ratio[k]!r} below minRatio {min_ratio!r}")
    return problems
