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
from numbers import Integral, Real

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
        object.__setattr__(self, "kappa", _check_kappa_alpha(self.kappa, self.alpha))
        want = (self.kappa + 1) // 2
        if len(self.coeffs) != want:
            raise ValueError(
                f"coeffs: kappa={self.kappa} needs {want} coefficients "
                f"(orders {self.kappa}, {self.kappa - 2}, ...), got {len(self.coeffs)}"
            )
        if self.coeffs[0] != 1.0:
            raise ValueError(f"coeffs: leading coefficient must be 1, got {self.coeffs[0]!r}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon: must lie in (0, 1], got {self.epsilon!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))


def check_integer(v, lo: int, key: str) -> int:
    """v as an int, refused under key unless it is an integer >= lo: a numpy
    integer will do, a bool will not."""
    if isinstance(v, bool) or not isinstance(v, Integral) or v < lo:
        raise ValueError(f"{key}: must be an integer >= {lo}, got {v!r}")
    return int(v)


def _check_kappa_alpha(kappa, alpha) -> int:
    """kappa as an int; a kappa that is not an integer >= 2 and an alpha
    outside [0, kappa] are refused, each under its config key."""
    kappa = check_integer(kappa, 2, "kappa")
    if not 0.0 <= alpha <= kappa:
        raise ValueError(f"alpha: must lie in [0, kappa], got {alpha!r}")
    return kappa


def _nested(coeffs, y2):
    """sum_j coeffs[j] * y2^(n-1-j) in nested form."""
    acc = np.full_like(y2, coeffs[0])
    for c in coeffs[1:]:
        acc = acc * y2 + c
    return acc


def eval_p(model: DispersiveModel, y) -> np.ndarray | float:
    """Dispersion polynomial P(y), vectorized over y.

    Nested form in y^2 times the parity factor (y for odd kappa, y^2 for even).
    """
    y = np.asarray(y, dtype=np.float64)
    y2 = y * y
    return _scalar_or_array(_nested(model.coeffs, y2) * (y if model.kappa % 2 else y2), y)


def _q(r: int, x, y):
    """sum_j C(r, 2j+1) x^j y^(m-j), m = (r-1)//2, with no zeroth power formed
    (exact, as a factor 1 rounds nothing): the number r when m = 0."""
    m = (r - 1) // 2
    if m == 0:
        return r
    acc = r * y**m
    for j in range(1, m + 1):
        term = math.comb(r, 2 * j + 1) * x**j
        acc += term * y ** (m - j) if j < m else term
    return acc


def eval_q(r: int, x, y) -> np.ndarray | float:
    """Q_r(x, y): the odd-column binomial sum entering the phase factorization.

    Q_1 is identically 1; for r >= 2 all terms carry positive binomial
    weights, so Q_r itself never cancels.
    """
    r = check_integer(r, 1, "r")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    return _scalar_or_array(np.full(x.shape, _q(r, x, y), dtype=np.float64), x, y)


# Both phase evaluations below carry a running bound on their rounding error.
# Where the bound is not small against the value, the point is evaluated again
# in exact rational arithmetic and rounded once: the plain float forms lose
# digits where P(xi1/eps + xi2) and P(xi2), or the signed terms of the factored
# sum, nearly cancel, and where squares of tiny inputs leave the normal range.
_U = 2.0**-53  # unit roundoff
_TRUST_RTOL = 2.0**-36  # largest error bound, relative to the value, kept as is
_MAX_SHIFT = 2.0**-20  # largest relative input error the linear bound covers
_TINY_INPUT = 2.0**-500  # smaller inputs square below the normal range
_TINY_SIZE = 2.0**-900  # smaller term sizes may have lost digits to underflow
_CHUNK = 1 << 16  # points per pass, which bounds the size of the temporaries


def blocks(n: int, size: int = _CHUNK):
    """Consecutive slices of range(n), each of at most size items."""
    for s in range(0, n, size):
        yield slice(s, s + size)


def _round_scaled(r: Fraction, scale: float) -> float:
    """The float nearest r * scale: int / int rounds once, subnormals included."""
    try:
        return float(r * Fraction(scale))
    except OverflowError:
        return math.inf if r > 0 else -math.inf


def _certified(out, bound, size, inputs, exact, xi1, xi2) -> np.ndarray:
    """out, with the points whose bound exceeds _TRUST_RTOL * |out|, whose
    term size is below _TINY_SIZE, or that square an input below _TINY_INPUT
    replaced by exact(xi1, xi2); xi1 and xi2 have the shape of out."""
    out = np.asarray(out, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        redo = ~(bound <= _TRUST_RTOL * np.abs(out)) | (size < _TINY_SIZE)
        for v in inputs:
            redo |= np.abs(v) < _TINY_INPUT
    redo &= np.isfinite(out)
    for i in np.flatnonzero(redo):
        out.flat[i] = exact(float(xi1.flat[i]), float(xi2.flat[i]))
    return out


def _shift_bound(size, theta, k: int, evaluation: float):
    """Error bound for terms of total size `size` and degree <= k, evaluated
    with `evaluation` unit roundoffs from an argument off by relative theta."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(theta <= _MAX_SHIFT, size * (evaluation * _U + 2 * k * theta), np.inf)


def _p_and_size(model: DispersiveModel, y):
    """P(y) and T(y) = sum_j |d_j| |y|^(kappa-2j), which sizes its rounding error."""
    y2 = y * y
    parity = y if model.kappa % 2 else y2
    size = _nested([abs(c) for c in model.coeffs], y2) * np.abs(parity)
    return _nested(model.coeffs, y2) * parity, size


def _phase_exact(model: DispersiveModel, xi1: float, xi2: float, m: int) -> float:
    """The float nearest eps^alpha (P(xi1/eps + xi2) - P(xi2)), formed as the
    exact rational eps^m (P(xi1/eps + xi2) - P(xi2)) and rounded once with the
    float scale eps^(alpha-m): m = 0 is the subtractive form's scale and
    m = kappa the factored form's, whose sum times F is that rational."""
    eps = Fraction(model.epsilon)
    coeffs = [Fraction(c) for c in model.coeffs]

    def p(y):
        y2 = y * y
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * y2 + c
        return acc * (y if model.kappa % 2 else y2)

    b = Fraction(xi2)
    diff = p(Fraction(xi1) / eps + b) - p(b)
    return _round_scaled(eps**m * diff, model.epsilon ** (model.alpha - m))


def eval_phase(model: DispersiveModel, xi1, xi2) -> np.ndarray | float:
    """Oscillatory phase eps^alpha * (P(xi1/eps + xi2) - P(xi2)).

    This is the defining subtractive form.  Where it loses digits to
    cancellation (|xi1| << eps*|xi2|, or xi1/eps + xi2 near a root of the
    difference), the point is evaluated exactly instead.
    """
    xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=np.float64),
                                   np.asarray(xi2, dtype=np.float64))
    return _scalar_or_array(_phase_certified(model, xi1, xi2), xi1, xi2)


def _phase_certified(model: DispersiveModel, xi1, xi2) -> np.ndarray:
    eps, kappa = model.epsilon, model.kappa
    scale = eps**model.alpha
    h = xi1 / eps
    a = h + xi2
    pa, ta = _p_and_size(model, a)
    pb, tb = _p_and_size(model, xi2)
    out = scale * (pa - pb)
    # a is off by up to 2u (|xi1/eps| + |xi2|), which moves every term of P(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = 2 * _U * (np.abs(h) + np.abs(xi2)) / np.abs(a)
    ta, tb = scale * ta, scale * tb
    bound = _shift_bound(ta, theta, kappa, 4 * kappa + 8) + (4 * kappa + 8) * _U * tb
    return _certified(out, bound, np.maximum(ta, tb), (a, xi2),
                      lambda u, v: _phase_exact(model, u, v, 0), xi1, xi2)


def _factored_coeffs(model: DispersiveModel):
    """(c_j, r) with the factored sum = sum_j c_j Q_r(xi1^2, eta^2), r = kappa - 2j."""
    for j, d in enumerate(model.coeffs):
        r = model.kappa - 2 * j
        yield model.epsilon ** (2 * j) * (d / 2 ** (r - 1)), r


def _factored_sum(model: DispersiveModel, x, y, sizes: bool = False):
    """sum_j c_j Q_r(x, y) at x = xi1^2, y = eta^2, and with sizes the same
    sum taken with |c_j| (None otherwise)."""
    acc = np.zeros(np.broadcast(x, y).shape)
    size = np.zeros_like(acc) if sizes else None
    for c, r in _factored_coeffs(model):
        q = _q(r, x, y)
        acc += c * q
        if sizes:
            size += abs(c) * q
        del q  # a scan's Q is large: drop it before forming the next
    return acc, size


def eval_phase_factored(model: DispersiveModel, xi1, xi2) -> np.ndarray | float:
    """Same phase through the factored form

        eps^(alpha-kappa) * sum_j eps^(2j) d~_{k-2j} Q_{k-2j}(xi1^2, eta^2) * F,

    with eta = xi1 + 2 eps xi2, F = xi1*eta (kappa even) or xi1 (odd), and
    d~_r = d_r / 2^(r-1).  Algebraically identical to eval_phase.  The
    eps^(alpha-kappa) scale multiplies the sum before F does: scaling the
    finished product instead lets a tiny xi1 drive it subnormal first, which
    loses digits that the scale cannot bring back.  Q_r never cancels, but
    the sum over j does when the d_r differ in sign, and eta does when
    xi1 ~ -2 eps xi2; such points are evaluated exactly instead.
    """
    xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=np.float64),
                                   np.asarray(xi2, dtype=np.float64))
    return _scalar_or_array(_phase_factored_certified(model, xi1, xi2), xi1, xi2)


def _phase_factored_certified(model: DispersiveModel, xi1, xi2) -> np.ndarray:
    scale = model.epsilon ** (model.alpha - model.kappa)
    eta = xi1 + 2.0 * model.epsilon * xi2
    acc, size = _factored_sum(model, xi1 * xi1, eta * eta, sizes=True)
    factor = xi1 * eta if model.kappa % 2 == 0 else xi1
    out = scale * acc * factor
    size = scale * size * np.abs(factor)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = 2 * _U * (np.abs(xi1) + 2.0 * model.epsilon * np.abs(xi2)) / np.abs(eta)
    bound = _shift_bound(size, theta, model.kappa, 4 * model.kappa + 16)
    return _certified(out, bound, size, (xi1, eta),
                      lambda u, v: _phase_exact(model, u, v, model.kappa), xi1, xi2)


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
    """Scan min over the grid of |eps^(kappa-alpha) phase| / envelope.

    The envelope is |xi1| * |eta|^sigma * (xi1^pw + eta^pw) with sigma = 1 for
    even kappa, 0 for odd, and pw = kappa - 1 - sigma (always even).  Points
    are admissible when |xi1| >= c0*eps or |eta| >= c0*eps; a strictly
    positive min ratio certifies the non-resonance bound on that grid.

    The grid is walked in blocks of whole xi1 rows of at most _CHUNK points
    (one row when xi2 alone is longer), so no array of grid size is formed.
    The result is that of one argmin over the whole grid in C order: the
    first NaN ratio wins, ties go to the earliest point, and when every
    valid ratio is inf the worst point is the grid's first point.
    """
    if not (math.isfinite(c0) and c0 > 0):
        raise ValueError(f"c0 must be finite and positive, got {c0!r}")
    xi1 = np.asarray(xi1, dtype=np.float64).ravel()
    xi2 = np.asarray(xi2, dtype=np.float64).ravel()
    if xi1.size == 0 or xi2.size == 0:
        raise ValueError("sample axes must be non-empty")
    kappa, eps = model.kappa, model.epsilon
    h = (kappa - 1) // 2  # the envelope's pw is 2h
    c0_eps, shift = c0 * eps, 2.0 * eps * xi2
    n_adm, any_valid = 0, False
    best, w1, w2 = math.inf, float(xi1[0]), float(xi2[0])
    for rows in blocks(xi1.size, max(1, _CHUNK // xi2.size)):
        # a column of xi1 against the xi2 row: what depends on xi1 alone is
        # computed once per row, and the rest broadcasts to the block
        g1 = xi1[rows, None]
        a1 = np.abs(g1)
        eta = g1 + shift
        valid = np.abs(eta) >= c0_eps
        valid |= a1 >= c0_eps
        n_adm += int(np.count_nonzero(valid))
        x, y = g1 * g1, eta * eta
        ratio, _ = _factored_sum(model, x, y)
        # xi1^pw + eta^pw as x^h + y^h: no negative base meets a power
        denom = x**h + y**h
        del y  # the dels keep the block's peak at the phase evaluation
        if kappa % 2:
            ratio *= g1
            denom *= a1
        else:
            f = g1 * eta  # |xi1 eta| = |xi1| |eta| exactly
            ratio *= f
            denom *= np.abs(f, out=f)
            del f
        del eta
        np.abs(ratio, out=ratio)
        # points where the envelope vanishes identically carry no information
        valid &= denom > 0.0
        if not valid.any():
            continue
        any_valid = True
        np.divide(ratio, denom, out=ratio, where=valid)
        ratio[~valid] = math.inf
        i, j = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
        r = float(ratio[i, j])
        # strictly smaller, or the first NaN: what one argmin over the grid picks
        if r < best or (math.isnan(r) and not math.isnan(best)):
            best, w1, w2 = r, float(g1[i, 0]), float(xi2[j])
    if n_adm == 0:
        raise ValueError(
            f"no admissible samples: all |xi1| and |eta| below c0*eps = {c0 * eps}"
        )
    if not any_valid:
        best, w1, w2 = math.inf, math.nan, math.nan
    return PhaseBoundReport(
        min_ratio=best,
        worst_xi1=w1,
        worst_xi2=w2,
        admissible_count=n_adm,
        c0=float(c0),
    )


# the c0 search: the first candidate whose scan ratio reaches the floor
C0_FLOOR = 0.05
_C0_CANDIDATES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def search_lower_bound_constant(
    model: DispersiveModel, xi1: np.ndarray, xi2: np.ndarray
) -> PhaseBoundReport:
    """The scan at the smallest candidate c0 whose ratio clears C0_FLOOR, or,
    when none does, at the largest: the caller judges its ratio.

    Brute-force calibration for the admissibility constant: growing c0
    excludes a wider near-resonant strip and can only raise the min ratio.
    """
    for c0 in _C0_CANDIDATES:
        report = verify_phase_lower_bound(model, c0, xi1, xi2)
        if report.min_ratio >= C0_FLOOR:
            break
    return report


@dataclass(frozen=True)
class RateExponent:
    """A predicted eps-rate eps^exponent, times log(1/eps) when log_factor."""

    exponent: float
    log_factor: bool


def expected_error_exponent(kappa: int, alpha: float) -> RateExponent:
    """Heuristic first-order-in-tau error exponent beta in eps:

        beta = min(1 + (kappa-1)*alpha/kappa, 2 - 2*alpha/kappa).

    The two branches cross at alpha = kappa/(kappa+1).  The min is over
    exponents, so the smaller one is the dominant term; a log(1/eps) factor
    comes only with kappa = 2 when the second branch strictly dominates.
    """
    kappa = _check_kappa_alpha(kappa, alpha)
    first = 1.0 + (kappa - 1) * alpha / kappa
    second = 2.0 - 2.0 * alpha / kappa
    return RateExponent(min(first, second), kappa == 2 and second < first)


def expected_regularity_exponent(kappa: int, alpha: float, j: int) -> RateExponent:
    """Exponent of eps in the j-th derivative bound of the potential-driven part.

    For 0 <= j <= kappa-2 the bound is eps^(1-(1+j)*alpha/kappa); the top
    derivative j = kappa-1 degrades to eps^(1-alpha) with a log factor.
    """
    kappa = _check_kappa_alpha(kappa, alpha)
    j = check_integer(j, 0, "deriv_order")
    if j >= kappa:
        raise ValueError(f"deriv_order: derivative order must be < kappa, "
                         f"got j={j}, kappa={kappa}")
    if j == kappa - 1:
        return RateExponent(exponent=1.0 - alpha, log_factor=True)
    return RateExponent(exponent=1.0 - (1 + j) * alpha / kappa, log_factor=False)


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
    kappa = check_integer(kappa, 2, "kappa")
    if sign not in ("+", "-"):
        raise ValueError(f"sign: must be '+' or '-', got {sign!r}")
    if not isinstance(beta, Real) or not (beta >= 1 and math.isfinite(beta)):
        raise ValueError(f"beta: must be finite and >= 1, got {beta}")
    if not isinstance(beta, Fraction):
        beta = float(beta)
    alpha = kappa - 1 / beta
    if not isinstance(lam, Real) or not math.isfinite(lam):
        raise ValueError(f"lambda: must be a finite real number, got {lam!r}")
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
            f"lambda: reduction is degenerate for kappa={kappa}, sign={sign!r}, lam={lam}: "
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
