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


class NoAdmissibleSampleError(ValueError):
    """Raised when a bound scan's grid holds no admissible point."""


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


def _poly(coeffs, odd, y, y2):
    """sum_j coeffs[j] y^(r-2j), of odd degree r when odd and even otherwise,
    for coeffs[0] = 1 and y2 = y * y: the nested form in y2, whose leading 1
    multiplies nothing, times the parity factor (y when odd, y2 otherwise).
    Serves arrays and Fractions alike."""
    acc, signed = None, False
    for c in coeffs[1:]:
        acc = y2 if acc is None else acc * y2
        # acc + 0 is acc unless acc is -0, which needs an earlier negative c
        if c or signed:
            acc = acc + c
        signed = signed or c < 0
    parity = y if odd else y2
    return parity if acc is None else acc * parity


def eval_p(model: DispersiveModel, y) -> np.ndarray:
    """Dispersion polynomial P(y), vectorized over y (0-d for a scalar y)."""
    y = np.asarray(y, dtype=np.float64)
    return np.asarray(_poly(model.coeffs, model.kappa % 2, y, y * y))


def _power(v, k: int):
    """v**k, with v itself for k = 1: v**1 is a copy of v."""
    return v if k == 1 else v**k


def _q(r: int, x, y):
    """sum_j C(r, 2j+1) x^j y^(m-j), m = (r-1)//2, with no zeroth power formed
    and no factor 1 applied (exact, as a factor 1 rounds nothing): the
    number r when m = 0."""
    m = (r - 1) // 2
    if m == 0:
        return r
    acc = r * _power(y, m)
    for j in range(1, m + 1):
        weight, term = math.comb(r, 2 * j + 1), _power(x, j)
        if weight != 1:
            term = weight * term
        acc += term * _power(y, m - j) if j < m else term
    return acc


def eval_q(r: int, x, y) -> np.ndarray:
    """Q_r(x, y): the odd-column binomial sum entering the phase factorization.

    Q_1 is identically 1; for r >= 2 all terms carry positive binomial
    weights, so Q_r itself never cancels.
    """
    r = check_integer(r, 1, "r")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    return np.full(x.shape, _q(r, x, y), dtype=np.float64)


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
# Points per pass, which bounds the size of the temporaries.  A block of
# float64 stays below glibc's 128 KiB mmap threshold, so its temporaries come
# from the heap; larger ones are mapped and fault in fresh pages on every
# pass, and much smaller blocks pay for it in per-pass overhead.
_CHUNK = 16_000
# glibc also gives free memory at the top of the heap back to the system once
# it exceeds M_TRIM_THRESHOLD (128 KiB by default), and a pass frees about
# 1.4 MB of temporaries, so every pass would fault its pages in again.  Freeing
# a mapped allocation of this many bytes raises that threshold to twice its
# size (the dynamic mmap threshold of mallopt(3)); it is never touched, so
# it costs no page.
_HEAP_KEEP = 128 * _CHUNK


def blocks(n: int, size: int = _CHUNK):
    """Consecutive slices of range(n), each of at most size items, clipped
    to n so that s.stop - s.start is the block's length.  The heap is kept
    across the passes (see _HEAP_KEEP) before the first slice."""
    np.empty(_HEAP_KEEP, dtype=np.uint8)
    for s in range(0, n, size):
        yield slice(s, min(s + size, n))


def _round_scaled(r: Fraction, scale: float) -> float:
    """The float nearest r * scale: int / int rounds once, subnormals included."""
    try:
        return float(r * Fraction(scale))
    except OverflowError:
        return math.inf if r > 0 else -math.inf


def _phase_inputs(xi1, xi2):
    """xi1 and xi2 as float64 arrays of their broadcast shape, and that shape.
    A 0-d pair comes back as one point, so that every ufunc over them returns
    an array the next pass can work in.  Broadcast views are read-only: no
    pass writes to them."""
    xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=np.float64),
                                   np.asarray(xi2, dtype=np.float64))
    return xi1.reshape(xi1.shape or 1), xi2.reshape(xi2.shape or 1), xi1.shape


def _certified(out, bound, size, tiny, exact, xi1, xi2) -> np.ndarray:
    """out, with the points whose bound exceeds _TRUST_RTOL * |out|, whose
    term size is below _TINY_SIZE, or where an array of tiny (the absolute
    values of the inputs that get squared) is below _TINY_INPUT replaced by
    exact(xi1, xi2); xi1 and xi2 have the shape of out.  A rare flag is
    masked only when its array's min is below its limit or NaN (np.fmin would
    not pass over a signaling NaN), and a point that is not finite keeps its
    value."""
    limit = np.abs(out)
    limit *= _TRUST_RTOL
    with np.errstate(invalid="ignore"):
        redo = bound <= limit
        np.logical_not(redo, out=redo)
        for v, least in [(size, _TINY_SIZE)] + [(t, _TINY_INPUT) for t in tiny]:
            if not v.min(initial=np.inf) >= least:
                redo |= v < least
    for i in np.flatnonzero(redo):
        if math.isfinite(out.flat[i]):
            out.flat[i] = exact(float(xi1.flat[i]), float(xi2.flat[i]))
    return out


def _shift_bound(size, theta, k: int, evaluation: float):
    """Error bound for terms of total size `size` and degree <= k, evaluated
    with `evaluation` unit roundoffs from an argument off by relative theta,
    formed in theta's place: inf where theta exceeds _MAX_SHIFT (or is NaN),
    masked only when some theta does."""
    beyond = None if theta.max(initial=-np.inf) <= _MAX_SHIFT else ~(theta <= _MAX_SHIFT)
    with np.errstate(over="ignore", invalid="ignore"):
        theta *= 2 * k
        theta += evaluation * _U
        theta *= size
    if beyond is not None:
        theta[beyond] = np.inf
    return theta


def _p_and_size(model: DispersiveModel, y, y_abs):
    """P(y) and T(y) = sum_j |d_j| |y|^(kappa-2j), which sizes its rounding
    error, from one y^2 (|y| |y| is y y); y_abs is |y|.  With no negative
    d_j, T is |P| bit for bit (the nested form is the same, and its factor
    |y| or y^2 takes the sign off symmetrically): P itself at even kappa."""
    odd, y2 = model.kappa % 2, y * y
    p = _poly(model.coeffs, odd, y, y2)
    if min(model.coeffs) >= 0:
        return p, (np.abs(p) if odd else p)
    return p, _poly([abs(c) for c in model.coeffs], odd, y_abs, y2)


def _phase_exact(model: DispersiveModel, xi1: float, xi2: float, m: int) -> float:
    """The float nearest eps^alpha (P(xi1/eps + xi2) - P(xi2)), formed as the
    exact rational eps^m (P(xi1/eps + xi2) - P(xi2)) and rounded once with the
    float scale eps^(alpha-m): m = 0 is the subtractive form's scale and
    m = kappa the factored form's, whose sum times F is that rational."""
    eps = Fraction(model.epsilon)
    coeffs, odd = [Fraction(c) for c in model.coeffs], model.kappa % 2
    a, b = Fraction(xi1) / eps + Fraction(xi2), Fraction(xi2)
    diff = _poly(coeffs, odd, a, a * a) - _poly(coeffs, odd, b, b * b)
    return _round_scaled(eps**m * diff, model.epsilon ** (model.alpha - m))


def eval_phase(model: DispersiveModel, xi1, xi2) -> np.ndarray:
    """Oscillatory phase eps^alpha * (P(xi1/eps + xi2) - P(xi2)), in the
    broadcast shape of xi1 and xi2 (0-d for scalars).

    This is the defining subtractive form.  Where it loses digits to
    cancellation (|xi1| << eps*|xi2|, or xi1/eps + xi2 near a root of the
    difference), the point is evaluated exactly instead.
    """
    xi1, xi2, shape = _phase_inputs(xi1, xi2)
    eps, kappa = model.epsilon, model.kappa
    scale = eps**model.alpha
    h = xi1 / eps
    a = h + xi2
    a_abs, b_abs = np.abs(a), np.abs(xi2)
    pa, ta = _p_and_size(model, a, a_abs)
    pb, tb = _p_and_size(model, xi2, b_abs)
    out = pa - pb
    out *= scale
    # a is off by up to 2u (|xi1/eps| + |xi2|), which moves every term of P(a)
    theta = np.abs(h, out=h)
    theta += b_abs
    theta *= 2 * _U
    with np.errstate(divide="ignore", invalid="ignore"):
        theta /= a_abs
    ta *= scale  # for kappa = 2, P(a) itself, which out no longer needs
    tb *= scale
    bound = _shift_bound(ta, theta, kappa, 4 * kappa + 8)
    bound += tb * ((4 * kappa + 8) * _U)
    return _certified(out, bound, np.maximum(ta, tb, out=ta), (a_abs, b_abs),
                      lambda u, v: _phase_exact(model, u, v, 0), xi1, xi2).reshape(shape)


def _factored_coeffs(model: DispersiveModel):
    """(c_j, r) with the factored sum = sum_j c_j Q_r(xi1^2, eta^2), r = kappa - 2j."""
    for j, d in enumerate(model.coeffs):
        r = model.kappa - 2 * j
        yield model.epsilon ** (2 * j) * (d / 2 ** (r - 1)), r


def _factored_sum(model: DispersiveModel, x, y, sizes: bool = False):
    """sum_j c_j Q_r(x, y) at x = xi1^2, y = eta^2, and with sizes the same
    sum taken with |c_j| (None otherwise).  Q_r >= +0 and c_0 > 0, so the
    sum starts at its leading term as it would at +0; |c_j| Q_r is -(c_j Q_r)
    where c_j < 0.  The sum is never -0, so a term 0 * Q_r adds nothing and
    is passed over: always for a constant Q_r, and for another while every
    acc is finite (Q_r then is, where 0 * inf would be NaN)."""
    acc = size = None
    for c, r in _factored_coeffs(model):
        if c == 0 and (r <= 2 or acc.max(initial=-np.inf) < math.inf):
            continue
        q = _q(r, x, y)
        # a constant Q_r (r <= 2) adds as a number
        term = c * q if np.ndim(q) == 0 else np.multiply(q, c, out=q)
        if acc is None:
            acc = np.full(np.broadcast(x, y).shape, term) if np.ndim(term) == 0 else term
            size = acc.copy() if sizes else None
        else:
            acc += term
            if sizes:
                (np.subtract if c < 0 else np.add)(size, term, out=size)
        del q, term  # a scan's Q is large: drop it before forming the next
    return acc, size


def eval_phase_factored(model: DispersiveModel, xi1, xi2) -> np.ndarray:
    """Same phase through the factored form

        eps^(alpha-kappa) * sum_j eps^(2j) d~_{k-2j} Q_{k-2j}(xi1^2, eta^2) * F,

    with eta = xi1 + 2 eps xi2, F = xi1*eta (kappa even) or xi1 (odd), and
    d~_r = d_r / 2^(r-1).  Algebraically identical to eval_phase.  The
    eps^(alpha-kappa) scale multiplies the sum before F does: scaling the
    finished product instead lets a tiny xi1 drive it subnormal first, which
    loses digits that the scale cannot bring back.  Q_r never cancels, but
    the sum over j does when the d_r differ in sign, and eta does when
    xi1 ~ -2 eps xi2; such points are evaluated exactly instead.  Shaped
    as eval_phase.
    """
    xi1, xi2, shape = _phase_inputs(xi1, xi2)
    kappa, two_eps = model.kappa, 2.0 * model.epsilon
    scale = model.epsilon ** (model.alpha - kappa)
    eta = np.multiply(xi2, two_eps)
    np.add(xi1, eta, out=eta)
    # with no negative c_j the size sum is the sum, and the size is |out|
    signed = min(model.coeffs) < 0
    out, size = _factored_sum(model, xi1 * xi1, eta * eta, sizes=signed)
    out *= scale
    xi1_abs, eta_abs = np.abs(xi1), np.abs(eta)
    factor_abs = xi1_abs
    if kappa % 2:
        out *= xi1
    else:
        factor = xi1 * eta
        out *= factor
        factor_abs = np.abs(factor, out=factor)
    if signed:
        size *= scale
        size *= factor_abs
    else:
        size = np.abs(out)
    theta = np.abs(xi2)
    theta *= two_eps
    np.add(xi1_abs, theta, out=theta)
    theta *= 2 * _U
    with np.errstate(divide="ignore", invalid="ignore"):
        theta /= eta_abs
    bound = _shift_bound(size, theta, kappa, 4 * kappa + 16)
    return _certified(out, bound, size, (xi1_abs, eta_abs),
                      lambda u, v: _phase_exact(model, u, v, kappa), xi1, xi2).reshape(shape)


@dataclass(frozen=True)
class PhaseBoundReport:
    """Result of a lower-bound scan over a (xi1, xi2) product grid."""

    min_ratio: float
    worst_xi1: float
    worst_xi2: float
    admissible_count: int
    c0: float


# The bound scan passes over a block of rows whose floor, a lower bound on
# every ratio in it, exceeds the least ratio found so far.  Rounding is
# monotone, so every float x = xi1^2 of the block lies in [x_lo, x_hi], the
# squares of its least and largest |xi1|, and every eta = xi1 + 2 eps xi2 lies
# between the rounded sums of the least and of the largest xi1 and shift; y =
# eta^2 then lies in [y_lo, y_hi], with y_lo = 0 where that bracket holds 0.
# With every c_j >= 0 the sum cannot cancel and each Q_r is nondecreasing in
# x and y, so the exact ratio at the float x and y, sum_j c_j Q_r(x, y) over
# x^h + y^h (the factor |F| is in both), is at least
#
#     floor = sum_j c_j Q_r(x_lo, y_lo) / (x_hi^h + y_hi^h).
#
# While no power leaves the normal range, the scan's float ratio and the
# float floor are each off from it by fewer than kappa + 20 unit roundoffs:
# sums of nonnegative terms add one per term to the few of a term (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 3), and the range below
# admits kappa < 450 only, so under 2^-43, which _FLOOR_SLACK covers with
# room.  That range:
# with |xi1| in [2^(-e/kappa), 2^(e/kappa)], e = 900 - 2 kappa, and |eta| as
# well at even kappa (F = xi1 eta), every monomial of degree <= kappa lies in
# [2^-e, 2^e], so the envelope |F| (x^h + y^h) is normal, each Q_r <= 2^(r-1)
# 2^e stays finite (a c_j = 0 adds 0, not NaN) and |sum F| >= c_0 |F| x^m >=
# 2^(1-kappa-e) is normal.  At odd kappa eta may lie anywhere in [-2^(e/kappa),
# 2^(e/kappa)]: a power of y that underflows is off by under 2^-1074, which
# its weight and x^j <= 2^(kappa-1+e) scale to under 2^(-175-kappa) of the
# term c_j Q_r >= c_j x^m_r that bounds it.  A block outside the range, with
# a row below c0 eps or with a NaN is always computed.
_FLOOR_SLACK = 1.0 - 2.0**-30


def _block_floors(model: DispersiveModel, c0_eps: float, xi1, shift, starts) -> np.ndarray:
    """Per block of xi1 rows starting at starts, its floor times _FLOOR_SLACK
    where the block may be passed over (see above), -inf elsewhere."""
    floors = np.full(starts.size, -np.inf)
    if min(model.coeffs) < 0:
        return floors
    kappa = model.kappa
    e = 900 - 2 * kappa
    lo, hi = 2.0 ** (-e / kappa), 2.0 ** (e / kappa)
    g_abs = np.abs(xi1)
    a_lo, a_hi = np.minimum.reduceat(g_abs, starts), np.maximum.reduceat(g_abs, starts)
    eta_lo = np.minimum.reduceat(xi1, starts) + shift.min()
    eta_hi = np.maximum.reduceat(xi1, starts) + shift.max()
    # the bracket's end nearest 0, or 0 where it holds 0, and its farther end
    near = np.where(eta_lo > 0.0, eta_lo, np.where(eta_hi < 0.0, -eta_hi, 0.0))
    far = np.maximum(np.abs(eta_lo), np.abs(eta_hi))
    ok = (a_lo >= max(c0_eps, lo)) & (a_hi <= hi) & (far <= hi)
    if kappa % 2 == 0:
        ok &= near >= lo
    h = (kappa - 1) // 2
    with np.errstate(all="ignore"):
        floor, _ = _factored_sum(model, a_lo * a_lo, near * near)
        floor /= 2.0 if h == 0 else _power(a_hi * a_hi, h) + _power(far * far, h)
        floor *= _FLOOR_SLACK
        ok &= np.isfinite(floor)
    floors[ok] = floor[ok]
    return floors


def _block_ratio(model: DispersiveModel, g1, shift, c0_eps: float):
    """The scan's ratios for the rows of the xi1 column g1 against the xi2
    row's shift 2 eps xi2, inf where a point is not valid (None when none
    is), and the block's admissible count.

    What depends on xi1 alone is computed once per row and broadcasts to
    the block.  A block whose xi1 rows all clear c0*eps is counted whole
    without a mask, and one whose envelope is also positive throughout
    divides without one."""
    eta = g1 + shift
    # admissible: |xi1| >= c0 eps or |eta| >= c0 eps, which no NaN is
    valid = None
    if not np.abs(g1).min() >= c0_eps:
        valid = np.abs(eta) >= c0_eps
        valid |= np.abs(g1) >= c0_eps
    n_adm = eta.size if valid is None else int(np.count_nonzero(valid))
    x, y = g1 * g1, eta * eta
    ratio, _ = _factored_sum(model, x, y)
    # xi1^pw + eta^pw as x^h + y^h: no negative base meets a power, and
    # x^0 + y^0 is 2 whatever x and y are
    h = (model.kappa - 1) // 2
    denom = 2.0 if h == 0 else _power(x, h) + _power(y, h)
    del y  # the dels keep the block's peak at the phase evaluation
    if model.kappa % 2:
        ratio *= g1
        denom *= np.abs(g1)
    else:
        f = g1 * eta  # |xi1 eta| = |xi1| |eta| exactly
        ratio *= f
        denom = np.multiply(np.abs(f, out=f), denom, out=f)
        del f
    del eta
    np.abs(ratio, out=ratio)
    # points where the envelope vanishes identically carry no information
    if valid is None and denom.min() > 0.0:
        return np.divide(ratio, denom, out=ratio), n_adm
    valid = denom > 0.0 if valid is None else valid & (denom > 0.0)
    if not valid.any():
        return None, n_adm
    np.divide(ratio, denom, out=ratio, where=valid)
    ratio[~valid] = math.inf
    return ratio, n_adm


@np.errstate(invalid="ignore")
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
    (one row when xi2 alone is longer), so no array of grid size is formed,
    and the blocks are visited in ascending order of their floors (see
    _block_floors); a block whose floor exceeds the least ratio found, while
    no NaN is, is counted whole and not computed.  The result is that of one
    argmin over the whole grid in C order: the first NaN ratio wins, ties go
    to the earliest point, and when every valid ratio is inf the worst point
    is the grid's first point.  The invalid flag that NaN or inf entries
    raise is ignored, as those rules report them.  A grid whose count of
    admissible points is 0 raises NoAdmissibleSampleError after the scan.
    """
    if not (math.isfinite(c0) and c0 > 0):
        raise ValueError(f"c0 must be finite and positive, got {c0!r}")
    xi1 = np.asarray(xi1, dtype=np.float64).ravel()
    xi2 = np.asarray(xi2, dtype=np.float64).ravel()
    if xi1.size == 0 or xi2.size == 0:
        raise ValueError("sample axes must be non-empty")
    eps = model.epsilon
    c0_eps, shift, n2 = c0 * eps, 2.0 * eps * xi2, xi2.size
    spans = list(blocks(xi1.size, max(1, _CHUNK // n2)))
    floors = _block_floors(model, c0_eps, xi1, shift, np.array([s.start for s in spans]))
    # the incumbent and the first NaN by flat index in C order
    best, best_at, nan_at = math.inf, 0, None
    n_adm, any_valid = 0, False
    for b in np.argsort(floors, kind="stable").tolist():
        rows = spans[b]
        # -inf never exceeds, and nothing exceeds an inf incumbent
        if nan_at is None and floors[b] > best:
            n_adm += (rows.stop - rows.start) * n2
            continue
        ratio, count = _block_ratio(model, xi1[rows, None], shift, c0_eps)
        n_adm += count
        if ratio is None:
            continue
        any_valid = True
        k = int(np.argmin(ratio))  # the block's first NaN, else its first least
        r, at = float(ratio.flat[k]), rows.start * n2 + k
        if math.isnan(r):
            if nan_at is None or at < nan_at:
                nan_r, nan_at = r, at
        elif r < best or (r == best and at < best_at):
            best, best_at = r, at
    if n_adm == 0:
        raise NoAdmissibleSampleError(
            f"no admissible samples: all |xi1| and |eta| below c0*eps = {c0_eps}"
        )
    if not any_valid:
        return PhaseBoundReport(math.inf, math.nan, math.nan, n_adm, float(c0))
    if nan_at is not None:
        best, best_at = nan_r, nan_at
    i, j = divmod(best_at, n2)
    return PhaseBoundReport(
        min_ratio=best,
        worst_xi1=float(xi1[i]),
        worst_xi2=float(xi2[j]),
        admissible_count=n_adm,
        c0=float(c0),
    )


# the c0 search: the first candidate whose scan ratio reaches the floor
C0_FLOOR = 0.05
C0_CANDIDATES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def search_lower_bound_constant(
    model: DispersiveModel, xi1: np.ndarray, xi2: np.ndarray
) -> PhaseBoundReport:
    """The scan at the smallest candidate c0 whose ratio clears C0_FLOOR, or,
    when none does, at the last candidate before the first whose scan admits
    no point of the grid: the caller judges its ratio.

    Brute-force calibration for the admissibility constant: growing c0
    excludes a wider near-resonant strip and can only raise the min ratio,
    until it excludes every point.
    """
    report = verify_phase_lower_bound(model, C0_CANDIDATES[0], xi1, xi2)
    for c0 in C0_CANDIDATES[1:]:
        if report.min_ratio >= C0_FLOOR:
            break
        try:
            report = verify_phase_lower_bound(model, c0, xi1, xi2)
        except NoAdmissibleSampleError:
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
