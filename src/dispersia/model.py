"""Problem description and the oscillatory-phase algebra.

The propagation problem is a linear constant-coefficient dispersive equation
with a potential that oscillates on a small spatial scale eps.  The symbol of
the dispersive part is a one-sided-parity polynomial

    P(y) = sum_{0 <= 2j < kappa} d_{kappa-2j} y^(kappa-2j),    d_kappa = 1,

so only powers of the same parity as kappa appear.  Everything downstream
(integrator symbols, error and regularity rate maps, the bilinear phase and
its factored form) is driven by (kappa, coeffs, alpha, eps) collected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real

import numpy as np


class DegenerateReductionError(ValueError):
    """Raised when a moment reduction leaves no derivative term."""


def _scalar_or_array(out, *inputs):
    """A python float when every input is a scalar, the array otherwise."""
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


@dataclass(frozen=True)
class DispersiveModel:
    """Immutable problem parameters.

    coeffs lists (d_kappa, d_{kappa-2}, ...) down to d_2 or d_1 depending on
    parity; the leading coefficient must be exactly 1.
    """

    kappa: int
    coeffs: tuple[float, ...]
    alpha: float
    epsilon: float

    def __post_init__(self):
        if not isinstance(self.kappa, int) or self.kappa < 2:
            raise ValueError(f"kappa must be an integer >= 2, got {self.kappa!r}")
        want = (self.kappa + 1) // 2
        if len(self.coeffs) != want:
            raise ValueError(
                f"kappa={self.kappa} needs {want} coefficients "
                f"(orders {self.kappa}, {self.kappa - 2}, ...), got {len(self.coeffs)}"
            )
        if self.coeffs[0] != 1.0:
            raise ValueError(f"leading coefficient must be 1, got {self.coeffs[0]!r}")
        if not 0.0 <= self.alpha <= self.kappa:
            raise ValueError(f"alpha must lie in [0, kappa], got {self.alpha!r}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))


def eval_p(model: DispersiveModel, y) -> np.ndarray | float:
    """Dispersion polynomial P(y), vectorized over y.

    Nested form in y^2 times the parity factor (y for odd kappa, y^2 for even).
    """
    y = np.asarray(y, dtype=np.float64)
    y2 = y * y
    acc = np.full_like(y2, model.coeffs[0])
    for c in model.coeffs[1:]:
        acc = acc * y2 + c
    return _scalar_or_array(acc * (y if model.kappa % 2 else y2), y)


def _q(r: int, x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    acc = np.zeros(np.broadcast(x, y).shape)
    if r % 2 == 0:
        p = r // 2
        for j in range(p):
            acc += math.comb(r, 2 * j + 1) * x**j * y ** (p - 1 - j)
    else:
        p = (r - 1) // 2
        for j in range(p + 1):
            acc += math.comb(r, 2 * j + 1) * x**j * y ** (p - j)
    return acc


def eval_q(r: int, x, y) -> np.ndarray | float:
    """Q_r(x, y): the odd-column binomial sum entering the phase factorization.

    Q_1 is identically 1; for r >= 2 all terms carry positive binomial
    weights, which is what makes the factored phase cancellation-free.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"r must be an integer >= 1, got {r!r}")
    return _scalar_or_array(_q(r, x, y), x, y)


def eval_phase(model: DispersiveModel, xi1, xi2) -> np.ndarray | float:
    """Oscillatory phase eps^alpha * (P(xi1/eps + xi2) - P(xi2)).

    This is the defining subtractive form; for |xi1| << eps*|xi2| it loses
    digits to cancellation, which eval_phase_factored avoids.
    """
    xi1 = np.asarray(xi1, dtype=np.float64)
    xi2 = np.asarray(xi2, dtype=np.float64)
    eps = model.epsilon
    out = eps**model.alpha * (eval_p(model, xi1 / eps + xi2) - eval_p(model, xi2))
    return _scalar_or_array(out, xi1, xi2)


def _phase_core(model: DispersiveModel, xi1, xi2) -> tuple[np.ndarray, np.ndarray]:
    """The factored form of eval_phase_factored as (sum over j, F).

    Their product is eps^(kappa-alpha) times the phase; they are returned
    apart so that a caller can rescale the sum before the final product.
    """
    xi1 = np.asarray(xi1, dtype=np.float64)
    xi2 = np.asarray(xi2, dtype=np.float64)
    kappa, eps = model.kappa, model.epsilon
    eta = xi1 + 2.0 * eps * xi2
    x = xi1 * xi1
    y = eta * eta
    acc = np.zeros(np.broadcast(x, y).shape)
    for j, d in enumerate(model.coeffs):
        r = kappa - 2 * j
        acc += eps ** (2 * j) * (d / 2.0 ** (r - 1)) * _q(r, x, y)
    return acc, (xi1 * eta if kappa % 2 == 0 else xi1)


def eval_phase_factored(model: DispersiveModel, xi1, xi2) -> np.ndarray | float:
    """Same phase through the factored form

        eps^(alpha-kappa) * sum_j eps^(2j) d~_{k-2j} Q_{k-2j}(xi1^2, eta^2) * F,

    with eta = xi1 + 2 eps xi2, F = xi1*eta (kappa even) or xi1 (odd), and
    d~_r = d_r / 2^(r-1).  Algebraically identical to eval_phase.  The
    eps^(alpha-kappa) scale multiplies the sum before F does: scaling the
    finished product instead lets a tiny xi1 drive it subnormal first, which
    loses digits that the scale cannot bring back.
    """
    acc, factor = _phase_core(model, xi1, xi2)
    out = model.epsilon ** (model.alpha - model.kappa) * acc * factor
    return _scalar_or_array(out, xi1, xi2)


def eval_phase_scaled(model: DispersiveModel, xi1, xi2) -> np.ndarray | float:
    """eps^(kappa-alpha) times the phase, evaluated in factored form.

    This is the natural quantity for lower-bound scans: it stays O(1) where
    the phase itself carries the eps^(alpha-kappa) amplification.
    """
    acc, factor = _phase_core(model, xi1, xi2)
    return _scalar_or_array(acc * factor, xi1, xi2)


@dataclass(frozen=True)
class PhaseBoundReport:
    """Result of a lower-bound scan over a (xi1, xi2) product grid."""

    min_ratio: float
    worst_xi1: float
    worst_xi2: float
    admissible_count: int
    c0: float


def verify_phase_lower_bound(
    model: DispersiveModel,
    c0: float,
    xi1: np.ndarray,
    xi2: np.ndarray,
) -> PhaseBoundReport:
    """Scan min over the grid of |scaled phase| / envelope.

    The envelope is |xi1| * |eta|^sigma * (xi1^pw + eta^pw) with sigma = 1 for
    even kappa, 0 for odd, and pw = kappa - 1 - sigma (always even).  Points
    are admissible when |xi1| >= c0*eps or |eta| >= c0*eps; a strictly
    positive min ratio certifies the non-resonance bound on that grid.
    """
    if c0 <= 0:
        raise ValueError(f"c0 must be positive, got {c0!r}")
    xi1 = np.asarray(xi1, dtype=np.float64).ravel()
    xi2 = np.asarray(xi2, dtype=np.float64).ravel()
    if xi1.size == 0 or xi2.size == 0:
        raise ValueError("sample axes must be non-empty")
    kappa, eps = model.kappa, model.epsilon
    g1, g2 = np.meshgrid(xi1, xi2, indexing="ij")
    eta = g1 + 2.0 * eps * g2
    sigma = 1 if kappa % 2 == 0 else 0
    num = np.abs(eval_phase_scaled(model, g1, g2))
    pw = kappa - 1 - sigma  # always even
    denom = np.abs(g1) * np.abs(eta) ** sigma * (g1**pw + eta**pw)
    admissible = (np.abs(g1) >= c0 * eps) | (np.abs(eta) >= c0 * eps)
    n_adm = int(np.count_nonzero(admissible))
    if n_adm == 0:
        raise ValueError(
            f"no admissible samples: all |xi1| and |eta| below c0*eps = {c0 * eps}"
        )
    # points where the envelope vanishes identically carry no information
    valid = admissible & (denom > 0.0)
    best, w1, w2 = math.inf, math.nan, math.nan
    if valid.any():
        ratio = np.where(valid, num / np.where(denom > 0.0, denom, 1.0), math.inf)
        i, j = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
        best, w1, w2 = float(ratio[i, j]), float(g1[i, j]), float(g2[i, j])
    return PhaseBoundReport(
        min_ratio=best,
        worst_xi1=w1,
        worst_xi2=w2,
        admissible_count=n_adm,
        c0=float(c0),
    )


def search_lower_bound_constant(
    model: DispersiveModel,
    xi1: np.ndarray,
    xi2: np.ndarray,
    floor: float = 0.05,
    candidates: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
) -> tuple[float, PhaseBoundReport]:
    """Smallest candidate c0 whose scan ratio clears the floor.

    Brute-force calibration for the admissibility constant: growing c0
    excludes a wider near-resonant strip and can only raise the min ratio.
    """
    last = None
    for c0 in candidates:
        report = verify_phase_lower_bound(model, c0, xi1, xi2)
        last = report
        if report.min_ratio >= floor:
            return c0, report
    raise ValueError(
        f"no candidate c0 reaches min ratio {floor}; best was {last.min_ratio}"
    )


def expected_error_exponent(kappa: int, alpha: float) -> float:
    """Heuristic first-order-in-tau error exponent beta in eps:

        beta = min(1 + (kappa-1)*alpha/kappa, 2 - 2*alpha/kappa).

    The two branches cross at alpha = kappa/(kappa+1).
    """
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa!r}")
    if not 0.0 <= alpha <= kappa:
        raise ValueError(f"alpha must lie in [0, kappa], got {alpha!r}")
    return min(1.0 + (kappa - 1) * alpha / kappa, 2.0 - 2.0 * alpha / kappa)


@dataclass(frozen=True)
class RegularityExponent:
    exponent: float
    log_factor: bool


def expected_regularity_exponent(kappa: int, alpha: float, j: int) -> RegularityExponent:
    """Exponent of eps in the j-th derivative bound of the potential-driven part.

    For 0 <= j <= kappa-2 the bound is eps^(1-(1+j)*alpha/kappa); the top
    derivative j = kappa-1 degrades to eps^(1-alpha) with a log factor.
    """
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa!r}")
    if not 0.0 <= alpha <= kappa:
        raise ValueError(f"alpha must lie in [0, kappa], got {alpha!r}")
    if not isinstance(j, int) or j < 0:
        raise ValueError(f"derivative order must be a non-negative integer, got {j!r}")
    if j >= kappa:
        raise ValueError(f"derivative order must be < kappa, got j={j}, kappa={kappa}")
    if j == kappa - 1:
        return RegularityExponent(exponent=1.0 - alpha, log_factor=True)
    return RegularityExponent(
        exponent=1.0 - (1 + j) * alpha / kappa, log_factor=False
    )


@dataclass(frozen=True)
class ReducedModel:
    """Constant-coefficient operator produced by the moment reduction.

    The reduced operator is sign_factor * sum_j c[j] (-i d/dr)^j with all
    c[j] > 0.  For the '+' branch the j = 0 entry is a constant that a gauge
    rotation removes; it is kept in `c` and echoed in `dropped_constant`.
    """

    kappa: int
    beta: float | Fraction
    sign: str
    lam: float
    alpha: float | Fraction
    c: dict[int, float] = field(compare=False)
    sign_factor: int = 1
    dropped_constant: float | None = None
    parity: str = "even"

    @property
    def order(self) -> int:
        return max(j for j in self.c if j >= 1)


def reduce_moment(
    kappa: int, beta: float | Fraction, sign: str, lam: float
) -> ReducedModel:
    """Map a kappa-th moment description to the reduced dispersive operator.

    alpha = kappa - 1/beta ties the moment exponent to the dispersion scale;
    beta >= 1 keeps alpha in [kappa-1, kappa).  The '+' branch keeps even
    derivative orders, the '-' branch odd ones; surviving coefficients are

        c_j = binom(kappa, j) |lam|^(kappa-j) / 2^(kappa-j-1),

    and the overall sign is sgn(lam^kappa) ('+') or sgn(lam^(kappa-1)) ('-').
    lam = 0 collapses everything onto j = kappa, which survives only when the
    branch parity matches kappa; otherwise the reduction is degenerate.
    """
    if not isinstance(kappa, int) or kappa < 2:
        raise ValueError(f"kappa must be an integer >= 2, got {kappa!r}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if isinstance(beta, Fraction):
        if beta < 1:
            raise ValueError(f"beta must be >= 1, got {beta}")
        alpha: float | Fraction = kappa - 1 / beta
    else:
        if not isinstance(beta, Real) or not beta >= 1:
            raise ValueError(f"beta must be >= 1, got {beta!r}")
        beta = float(beta)
        alpha = kappa - 1.0 / beta
    if not isinstance(lam, Real):
        raise ValueError(f"lam must be a real number, got {lam!r}")
    lam = float(lam)

    keep = 0 if sign == "+" else 1
    c: dict[int, float] = {}
    for j in range(kappa + 1):
        if j % 2 != keep:
            continue
        if lam == 0.0 and j < kappa:
            continue
        c[j] = math.comb(kappa, j) * abs(lam) ** (kappa - j) / 2.0 ** (kappa - j - 1)
    if not any(j >= 1 for j in c):
        raise DegenerateReductionError(
            f"reduction is degenerate for kappa={kappa}, sign={sign!r}, lam={lam}: "
            "no derivative term survives the parity filter"
        )

    if lam == 0.0:
        sign_factor = 1
    elif sign == "+":
        sign_factor = 1 if (kappa % 2 == 0 or lam > 0) else -1
    else:
        sign_factor = 1 if ((kappa - 1) % 2 == 0 or lam > 0) else -1

    return ReducedModel(
        kappa=kappa,
        beta=beta,
        sign=sign,
        lam=lam,
        alpha=alpha,
        c=c,
        sign_factor=sign_factor,
        dropped_constant=c.get(0) if sign == "+" else None,
        parity="even" if sign == "+" else "odd",
    )


def reduced_to_model(reduced: ReducedModel, epsilon: float) -> tuple[DispersiveModel, float]:
    """Rescale a reduction to the normalized leading-one model form.

    Dividing by the top coefficient c_K makes d_K = 1 and stretches the
    propagation variable by z_scale = sign_factor * c_K: evolving the
    returned model to z corresponds to the reduced operator at z / z_scale,
    with a negative z_scale meaning complex conjugation (time reversal).
    The '+' branch constant is a pure phase and is already dropped here.
    """
    order = reduced.order
    if order < 2:
        raise ValueError(
            f"reduced operator has top order {order}; the model form needs order >= 2"
        )
    alpha = float(reduced.alpha)
    if alpha > order:
        raise ValueError(
            f"alpha={alpha} exceeds the reduced top order {order}; "
            "this reduction does not fit the normalized model range 0 <= alpha <= kappa"
        )
    top = reduced.c[order]
    coeffs = []
    r = order
    while r >= 1:
        coeffs.append(reduced.c.get(r, 0.0) / top)
        r -= 2
    model = DispersiveModel(
        kappa=order,
        coeffs=tuple(coeffs),
        alpha=alpha,
        epsilon=epsilon,
    )
    return model, reduced.sign_factor * top
