"""Polynomial, phase, lower-bound and moment-reduction layer.

Expected values are frozen from independent oracles: direct summation for P,
a surd identity for Q, exact Fraction arithmetic for the moment reduction,
and pure-python grid scans for the phase lower bound.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersia import model as model_module
from dispersia.model import (
    DegenerateReductionError,
    DispersiveModel,
    NoAdmissibleSampleError,
    PhaseBoundReport,
    _CHUNK,
    _block_floors,
    _block_ratio,
    _factored_sum,
    _phase_exact,
    eval_p,
    eval_phase,
    eval_phase_factored,
    eval_q,
    expected_error_exponent,
    expected_regularity_exponent,
    reduce_moment,
    search_lower_bound_constant,
    verify_phase_lower_bound,
)

def brute_p(coeffs, kappa, y):
    """Direct power-by-power summation, the stability-free oracle."""
    return sum(d * y ** (kappa - 2 * j) for j, d in enumerate(coeffs))


def brute_q(r, x, y):
    """Surd identity: Q_r(x,y) = ((s+t)^r - (t-s)^r) / (2 s t^(r even)),
    s = sqrt(x), t = sqrt(y); requires x, y > 0."""
    s, t = math.sqrt(x), math.sqrt(y)
    num = (s + t) ** r - (t - s) ** r
    den = 2.0 * s * (t if r % 2 == 0 else 1.0)
    return num / den


def brute_phase(model, xi1, xi2):
    p = lambda y: brute_p(model.coeffs, model.kappa, y)
    return model.epsilon**model.alpha * (p(xi1 / model.epsilon + xi2) - p(xi2))


# ---------------------------------------------------------------------------
# DispersiveModel validation


def test_model_accepts_valid():
    m = DispersiveModel(kappa=4, coeffs=(1.0, -1.0), alpha=2.0, epsilon=0.25)
    assert m.kappa == 4 and m.coeffs == (1.0, -1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kappa=1, coeffs=(1.0,), alpha=0.5, epsilon=0.5),
        dict(kappa=2, coeffs=(1.0, 0.0), alpha=1.0, epsilon=0.5),  # wrong length
        dict(kappa=2, coeffs=(2.0,), alpha=1.0, epsilon=0.5),  # leading must be 1
        dict(kappa=2, coeffs=(1.0,), alpha=-0.1, epsilon=0.5),
        dict(kappa=2, coeffs=(1.0,), alpha=2.5, epsilon=0.5),  # alpha > kappa
        dict(kappa=2, coeffs=(1.0,), alpha=1.0, epsilon=0.0),
        dict(kappa=2, coeffs=(1.0,), alpha=1.0, epsilon=1.5),
        dict(kappa=True, coeffs=(1.0,), alpha=0.5, epsilon=0.5),
        dict(kappa=2.0, coeffs=(1.0,), alpha=0.5, epsilon=0.5),
    ],
)
def test_model_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        DispersiveModel(**kwargs)


def test_coeffs_length_one_per_parity_power():
    for kappa in range(2, 9):
        n = (kappa + 1) // 2
        m = DispersiveModel(kappa, (1.0,) + (0.0,) * (n - 1), 0.0, 1.0)
        assert len(m.coeffs) == n


# ---------------------------------------------------------------------------
# eval_p


def test_eval_p_frozen_examples():
    m2 = DispersiveModel(2, (1.0,), 1.0, 0.5)
    assert eval_p(m2, 3.0) == 9.0
    m4 = DispersiveModel(4, (1.0, -1.0), 1.0, 0.5)
    assert eval_p(m4, 2.0) == 12.0
    m3 = DispersiveModel(3, (1.0, 0.5), 1.0, 0.5)
    assert eval_p(m3, -1.0) == -1.5


def test_eval_p_vectorized_matches_scalar():
    m = DispersiveModel(5, (1.0, -2.0, 0.5), 2.0, 0.5)
    ys = np.linspace(-4, 4, 17)
    out = eval_p(m, ys)
    assert out.shape == ys.shape
    for y, v in zip(ys, out):
        assert v == pytest.approx(eval_p(m, float(y)), rel=1e-14, abs=1e-14)


@given(
    kappa=st.integers(2, 6),
    tail=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    y=st.floats(-30, 30),
)
@settings(deadline=None, max_examples=60)
def test_eval_p_matches_direct_sum(kappa, tail, y):
    n = (kappa + 1) // 2
    coeffs = tuple([1.0] + tail)[:n]
    m = DispersiveModel(kappa, coeffs, 0.0, 1.0)
    got = eval_p(m, y)
    want = brute_p(coeffs, kappa, y)
    scale = sum(abs(d) * abs(y) ** (kappa - 2 * j) for j, d in enumerate(coeffs))
    assert abs(got - want) <= 1e-13 * (1.0 + scale)


# ---------------------------------------------------------------------------
# eval_q


def test_eval_q_frozen_examples():
    assert eval_q(1, 7.0, -3.0) == 1.0
    assert eval_q(2, 5.0, 9.0) == 2.0
    assert eval_q(3, 2.0, 1.0) == 5.0


def test_eval_q_rejects_bad_r():
    with pytest.raises(ValueError):
        eval_q(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        eval_q(-2, 1.0, 1.0)


@given(
    r=st.integers(1, 9),
    x=st.floats(1e-2, 1e2),
    y=st.floats(1e-2, 1e2),
)
@settings(deadline=None, max_examples=80)
def test_eval_q_surd_identity(r, x, y):
    got = eval_q(r, x, y)
    want = brute_q(r, x, y)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_eval_q_positive_coefficients():
    # every surviving binomial column is positive, so Q > 0 on the open quadrant
    for r in range(1, 8):
        vals = eval_q(r, np.linspace(0.1, 50, 23), np.linspace(0.1, 50, 23))
        assert vals.shape == (23,) and np.all(vals > 0)
        # the output takes the broadcast shape of the inputs, also where Q_r is a constant
        assert eval_q(r, np.ones((2, 1)), np.ones(3)).shape == (2, 3)


# ---------------------------------------------------------------------------
# phase: direct and factored


def test_phase_frozen_examples():
    m = DispersiveModel(2, (1.0,), 1.0, 0.25)
    assert eval_phase(m, 0.0, 5.0) == 0.0
    assert eval_phase(m, 1.0, 2.0) == pytest.approx(8.0, rel=1e-14, abs=0.0)
    m3 = DispersiveModel(3, (1.0, 0.0), 0.0, 0.5)
    assert eval_phase(m3, 1.0, 0.0) == pytest.approx(8.0, rel=1e-14, abs=0.0)


def test_phase_factored_frozen_examples():
    m = DispersiveModel(2, (1.0,), 1.0, 0.25)
    assert eval_phase_factored(m, 1.0, 2.0) == pytest.approx(8.0, rel=1e-12, abs=0.0)
    for m_any in (m, DispersiveModel(5, (1.0, -1.0, 2.0), 3.0, 0.125)):
        assert eval_phase_factored(m_any, 0.0, 11.3) == 0.0


def test_scalar_inputs_give_0d_arrays():
    m = DispersiveModel(3, (1.0, -2.0), 1.0, 0.25)
    # the last point is evaluated exactly: xi1 = 1e-300 squares below the normal range
    for out in (eval_p(m, 2.0), eval_q(3, 2.0, 1.0), eval_phase(m, 1.0, 2.0),
                eval_phase_factored(m, 1.0, 2.0), eval_phase(m, 1e-300, 2.0)):
        assert isinstance(out, np.ndarray) and out.shape == () and out.dtype == np.float64


def _identity_gap(model, xi1, xi2):
    # both forms are certified, so no cancellation floor is needed
    direct = eval_phase(model, xi1, xi2)
    fact = eval_phase_factored(model, xi1, xi2)
    return abs(fact - direct), 1e-10 * max(abs(direct), abs(fact))


@given(
    kappa=st.integers(2, 5),
    tail=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    alpha_frac=st.floats(0, 1),
    eps=st.sampled_from([1.0, 0.25, 2.0**-6, 2.0**-10]),
    xi1=st.floats(-50, 50),
    xi2=st.floats(-50, 50),
)
@settings(deadline=None, max_examples=150)
# a subnormal xi1: scaling the finished factored product lost digits here
@example(kappa=5, tail=[0.0, 1.0], alpha_frac=0.0, eps=0.25, xi1=2.2e-313, xi2=0.0)
# P(xi1/eps + xi2) and P(xi2) subnormal: each rounded apart, their difference
# was off by a whole subnormal step
@example(kappa=5, tail=[0.0, 6.189363410061298e-173], alpha_frac=0.0, eps=1.0,
         xi1=3.3386074114889146e-152, xi2=3.3386074114889146e-152)
# xi1 * eta subnormal before the scale: the factored product lost digits
@example(kappa=2, tail=[0.0, 0.0], alpha_frac=0.7758745223329808, eps=2.0**-6,
         xi1=-3.1962140877627566e-160, xi2=-3.1962140877627566e-160)
# 1 + xi2 rounds to 1, a root of P = y^3 - y: both forms lost every digit
@example(kappa=3, tail=[-1.0, 0.0], alpha_frac=0.0, eps=1.0,
         xi1=1.0, xi2=1.9186903436356264e-202)
def test_phase_identity_random(kappa, tail, alpha_frac, eps, xi1, xi2):
    n = (kappa + 1) // 2
    coeffs = tuple([1.0] + tail)[:n]
    m = DispersiveModel(kappa, coeffs, alpha_frac * kappa, eps)
    gap, tol = _identity_gap(m, xi1, xi2)
    assert gap <= tol


def exact_phase(model, xi1, xi2):
    """eps^alpha (P(xi1/eps + xi2) - P(xi2)) in Fractions, for integer alpha."""
    p = lambda y: sum(Fraction(d) * y ** (model.kappa - 2 * j) for j, d in enumerate(model.coeffs))
    eps, b = Fraction(model.epsilon), Fraction(xi2)
    return float(eps ** int(model.alpha) * (p(Fraction(xi1) / eps + b) - p(b)))


@pytest.mark.parametrize(
    "kappa, coeffs, alpha, eps, xi1, xi2",
    [
        (3, (1.0, -1.0), 0.0, 1.0, 1.0, 1.9186903436356264e-202),  # 1 + xi2 == 1
        (4, (1.0, -2.0), 1.0, 0.25, 0.25, 1e-9),  # P(y) = y^4 - 2y^2 flat at y = 1
        (3, (1.0, 2.0), 0.0, 1.0, -5e-324, -5e-324),  # subnormal throughout
        (2, (1.0,), 1.0, 2.0**-6, -3.2e-160, -3.2e-160),  # xi1 * eta subnormal
        (5, (1.0, -1.0, 0.25), 2.0, 0.5, 1e-12, 3.0),  # |xi1| << eps |xi2|
    ],
)
def test_phase_forms_match_exact_value(kappa, coeffs, alpha, eps, xi1, xi2):
    m = DispersiveModel(kappa, coeffs, alpha, eps)
    want = exact_phase(m, xi1, xi2)
    assert eval_phase(m, xi1, xi2) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert eval_phase_factored(m, xi1, xi2) == pytest.approx(want, rel=1e-13, abs=0.0)
    arr = eval_phase(m, np.array([xi1, 1.0]), np.array([xi2, 2.0]))
    assert arr[0] == eval_phase(m, xi1, xi2)


def test_phase_vanishes_at_zero_xi1():
    for kappa, coeffs in [(2, (1.0,)), (3, (1.0, -1.0)), (4, (1.0, 0.5))]:
        m = DispersiveModel(kappa, coeffs, 1.0, 0.125)
        xi2 = np.linspace(-20, 20, 41)
        assert np.all(eval_phase(m, np.zeros_like(xi2), xi2) == 0.0)


def test_even_kappa_phase_vanishes_on_eta_zero():
    # eta = xi1 + 2 eps xi2 = 0 kills the even-kappa factor
    m = DispersiveModel(4, (1.0, -1.0), 2.0, 0.25)
    for xi1 in (0.5, -1.5, 3.0):
        xi2 = -xi1 / (2 * m.epsilon)
        assert eval_phase_factored(m, xi1, xi2) == 0.0
        gap, tol = _identity_gap(m, xi1, xi2)
        assert gap <= tol  # the direct form vanishes too


# ---------------------------------------------------------------------------
# the phase forms against the forms they replaced


def _oracle_poly(coeffs, odd, y):
    y2 = y * y
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * y2 + c
    return acc * (y if odd else y2)


def _oracle_q(r, x, y):
    m = (r - 1) // 2
    if m == 0:
        return r
    acc = r * y**m
    for j in range(1, m + 1):
        term = math.comb(r, 2 * j + 1) * x**j
        acc += term * y ** (m - j) if j < m else term
    return acc


def _oracle_shift_bound(size, theta, k, evaluation):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(theta <= 2.0**-20, size * (evaluation * 2.0**-53 + 2 * k * theta), np.inf)


def _oracle_certified(out, bound, size, inputs, exact, xi1, xi2):
    out = np.asarray(out, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        redo = ~(bound <= 2.0**-36 * np.abs(out)) | (size < 2.0**-900)
        for v in inputs:
            redo |= np.abs(v) < 2.0**-500
    redo &= np.isfinite(out)
    for i in np.flatnonzero(redo):
        out.flat[i] = exact(float(xi1.flat[i]), float(xi2.flat[i]))
    return out


def oracle_eval_phase(model, xi1, xi2):
    """eval_phase as it was before it worked in place: the oracle for it, bit for bit."""
    xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=np.float64),
                                   np.asarray(xi2, dtype=np.float64))
    eps, kappa, odd = model.epsilon, model.kappa, model.kappa % 2
    sizes = [abs(c) for c in model.coeffs]
    scale = eps**model.alpha
    h = xi1 / eps
    a = h + xi2
    pa, ta = _oracle_poly(model.coeffs, odd, a), _oracle_poly(sizes, odd, np.abs(a))
    pb, tb = _oracle_poly(model.coeffs, odd, xi2), _oracle_poly(sizes, odd, np.abs(xi2))
    out = scale * (pa - pb)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = 2 * 2.0**-53 * (np.abs(h) + np.abs(xi2)) / np.abs(a)
    ta, tb = scale * ta, scale * tb
    bound = (_oracle_shift_bound(ta, theta, kappa, 4 * kappa + 8)
             + (4 * kappa + 8) * 2.0**-53 * tb)
    return _oracle_certified(out, bound, np.maximum(ta, tb), (a, xi2),
                             lambda u, v: _phase_exact(model, u, v, 0), xi1, xi2)


def oracle_eval_phase_factored(model, xi1, xi2):
    """eval_phase_factored as it was before it worked in place."""
    xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=np.float64),
                                   np.asarray(xi2, dtype=np.float64))
    scale = model.epsilon ** (model.alpha - model.kappa)
    eta = xi1 + 2.0 * model.epsilon * xi2
    x, y = xi1 * xi1, eta * eta
    acc = np.zeros(np.broadcast(x, y).shape)
    size = np.zeros_like(acc)
    for j, d in enumerate(model.coeffs):
        r = model.kappa - 2 * j
        c = model.epsilon ** (2 * j) * (d / 2 ** (r - 1))
        q = _oracle_q(r, x, y)
        acc += c * q
        size += abs(c) * q
    factor = xi1 * eta if model.kappa % 2 == 0 else xi1
    out = scale * acc * factor
    size = scale * size * np.abs(factor)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = 2 * 2.0**-53 * (np.abs(xi1) + 2.0 * model.epsilon * np.abs(xi2)) / np.abs(eta)
    bound = _oracle_shift_bound(size, theta, model.kappa, 4 * model.kappa + 16)
    return _oracle_certified(out, bound, size, (xi1, eta),
                             lambda u, v: _phase_exact(model, u, v, model.kappa), xi1, xi2)


PHASE_FORMS = [(eval_phase, oracle_eval_phase),
               (eval_phase_factored, oracle_eval_phase_factored)]


def assert_forms_are_their_oracles(model, xi1, xi2):
    """Both phase forms give their oracles' bits, NaN payloads included, and
    write to no input: xi1 and xi2 are handed over read-only."""
    xi1, xi2 = np.array(xi1, dtype=np.float64), np.array(xi2, dtype=np.float64)
    xi1.flags.writeable = xi2.flags.writeable = False
    with np.errstate(all="ignore"):
        for form, oracle in PHASE_FORMS:
            got, want = form(model, xi1, xi2), oracle(model, xi1, xi2)
            assert got.shape == want.shape, form.__name__
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), form.__name__


# edge values: signed zeros, subnormals, inputs that square below the normal
# range (2^-500) and near it, overflow, infinities and NaNs with and without a
# sign or payload
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 2.0**-501, -2.0**-520,
               2.0**-499, 1e-160, 1e154, -1e200, 1e300, math.inf, -math.inf, math.nan,
               -math.nan, np.uint64(0x7FF8000000000123).view(np.float64).item(),
               np.uint64(0xFFF4000000000001).view(np.float64).item()]
phase_inputs = st.one_of(st.floats(-50, 50), st.floats(allow_nan=True, allow_infinity=True),
                         st.sampled_from(EDGE_VALUES))


@given(
    kappa=st.integers(2, 6),
    tail=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.25, 1e-3, -1e300]),
                  min_size=2, max_size=2),
    alpha_frac=st.floats(0, 1),
    eps=st.sampled_from([1.0, 0.25, 2.0**-6, 0.3]),
    pairs=st.lists(st.tuples(phase_inputs, phase_inputs,
                             st.sampled_from(["as drawn", "tiny xi1", "eta near 0"])),
                   min_size=1, max_size=6),
)
@settings(deadline=None, max_examples=200)
# Q_5 and then Q_3 overflow: the zero d_3's term is 0 * inf, NaN, not nothing
@example(kappa=5, tail=[0.0, 0.0], alpha_frac=0.0, eps=1.0,
         pairs=[(6.71e153, 0.0, "as drawn"), (6.7e153, 0.0, "as drawn")])
def test_phase_forms_are_bit_identical_to_their_oracles(kappa, tail, alpha_frac, eps, pairs):
    coeffs = tuple([1.0] + tail)[:(kappa + 1) // 2]
    model = DispersiveModel(kappa, coeffs, alpha_frac * kappa, eps)
    xi1, xi2 = [], []
    for u, v, kind in pairs:
        if kind == "tiny xi1":  # |xi1| << eps |xi2|: the subtractive form cancels
            u = v * eps * 1e-9
        elif kind == "eta near 0":  # xi1 ~ -2 eps xi2: the factored form's eta cancels
            u = -2.0 * eps * v * (1.0 + 1e-12 * (u if math.isfinite(u) else 1.0) / 50)
        xi1.append(u)
        xi2.append(v)
    assert_forms_are_their_oracles(model, xi1, xi2)


@pytest.mark.parametrize("kappa,coeffs", [(2, (1.0,)), (3, (1.0, -2.0)), (4, (1.0, 0.0)),
                                          (5, (1.0, -1.0, 0.25)), (6, (1.0, 2.0, -3.0))])
def test_phase_forms_on_a_block_of_draws_and_edges_are_their_oracles(kappa, coeffs):
    # a block of random draws, every pair of edge values, and points that fall
    # back to exact evaluation, through a broadcast and a 0-d call as well
    model = DispersiveModel(kappa, coeffs, 1.0, 2.0**-6)
    rng = np.random.default_rng(kappa)
    edges = np.array(EDGE_VALUES)
    xi2 = np.concatenate([rng.uniform(-8, 8, 3000), np.repeat(edges, edges.size),
                          rng.uniform(-8, 8, 200)])
    xi1 = np.concatenate([rng.uniform(-8, 8, 3000), np.tile(edges, edges.size),
                          xi2[-200:] * 2.0**-6 * 1e-9])
    xi1[-100:] = -2.0 * model.epsilon * xi2[-100:] * (1.0 + rng.uniform(-1e-12, 1e-12, 100))
    assert_forms_are_their_oracles(model, xi1, xi2)
    assert_forms_are_their_oracles(model, xi1[:7, None], xi2[None, 3000:3030])
    for form, oracle in PHASE_FORMS:
        got = form(model, 1e-300, 2.0)
        assert got.shape == () and got.view(np.int64) == oracle(model, 1e-300, 2.0).view(np.int64)


# ---------------------------------------------------------------------------
# lower-bound scan


def brute_bound_scan(model, c0, xi1_axis, xi2_axis):
    """Plain-python reference for the ratio scan."""
    kappa, eps = model.kappa, model.epsilon
    sigma = 1 if kappa % 2 == 0 else 0
    pw = kappa - 1 - sigma
    best, worst, count = math.inf, (math.nan, math.nan), 0
    for a in xi1_axis:
        for b in xi2_axis:
            eta = a + 2 * eps * b
            if abs(a) < c0 * eps and abs(eta) < c0 * eps:
                continue
            count += 1
            den = abs(a) * abs(eta) ** sigma * (a**pw + eta**pw)
            if den <= 0:
                continue
            num = abs(
                eps ** (kappa - model.alpha) * eval_phase_factored(model, float(a), float(b))
            )
            if num / den < best:
                best, worst = num / den, (a, b)
    return best, worst, count


@pytest.mark.parametrize("c0", [0.5, 1.0, 17.0])
def test_bound_scan_kappa2_is_exactly_half(c0):
    # pure quadratic: scaled phase == xi1*eta and the envelope is 2|xi1*eta|
    m = DispersiveModel(2, (1.0,), 1.0, 2.0**-6)
    axis = np.linspace(-8, 8, 201)
    rep = verify_phase_lower_bound(m, c0, axis, axis)
    assert rep.min_ratio == pytest.approx(0.5, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "kappa,coeffs", [(3, (1.0, 0.0)), (4, (1.0, -1.0)), (5, (1.0, 1.0, -2.0)),
                     (6, (1.0, -1.0, 0.5)), (7, (1.0, 0.5, -1.0, 2.0))]
)
def test_bound_scan_matches_brute_force(kappa, coeffs):
    m = DispersiveModel(kappa, coeffs, 1.0, 2.0**-4)
    axis = np.linspace(-6, 6, 41)
    c0 = 32.0
    rep = verify_phase_lower_bound(m, c0, axis, axis)
    b_best, _b_worst, b_count = brute_bound_scan(m, c0, axis, axis)
    assert rep.admissible_count == b_count
    assert rep.min_ratio == pytest.approx(b_best, rel=1e-10, abs=0.0)
    # the reported worst point reproduces the reported minimum
    best_again, _, _ = brute_bound_scan(
        m, c0, np.array([rep.worst_xi1]), np.array([(rep.worst_xi2)])
    )
    assert best_again == pytest.approx(rep.min_ratio, rel=1e-10, abs=0.0)


def test_bound_scan_filters_inadmissible_points():
    m = DispersiveModel(2, (1.0,), 1.0, 0.25)
    # with c0=1 the strip |xi1| < 0.25 and |eta| < 0.25 is excluded
    xi1 = np.array([0.0, 0.1, 1.0])
    xi2 = np.array([0.0])
    rep = verify_phase_lower_bound(m, 1.0, xi1, xi2)
    assert rep.admissible_count == 1  # only xi1 = 1.0 qualifies


def test_bound_scan_empty_admissible_raises():
    m = DispersiveModel(2, (1.0,), 1.0, 0.25)
    with pytest.raises(NoAdmissibleSampleError):
        verify_phase_lower_bound(m, 1.0, np.array([0.01]), np.array([0.0]))
    with pytest.raises(ValueError):
        verify_phase_lower_bound(m, -1.0, np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize("c0", [0.0, -1.0, math.nan, math.inf])
def test_bound_scan_refuses_bad_c0_before_scanning(monkeypatch, c0):
    def no_scan(*args):
        raise AssertionError("the grid was scanned")

    monkeypatch.setattr("dispersia.model._factored_sum", no_scan)
    m = DispersiveModel(2, (1.0,), 1.0, 0.25)
    axis = np.linspace(-4, 4, 50)
    with pytest.raises(ValueError, match=r"^c0 must be .*positive, got"):
        verify_phase_lower_bound(m, c0, axis, axis)


def test_bound_scan_kappa4_mixed_sign_positive():
    m = DispersiveModel(4, (1.0, -1.0), 1.0, 2.0**-6)
    axis = np.linspace(-8, 8, 200)
    rep = verify_phase_lower_bound(m, 64.0, axis, axis)
    assert rep.min_ratio > 0


def test_search_lower_bound_constant():
    m = DispersiveModel(4, (1.0, -1.0), 1.0, 2.0**-6)
    axis = np.linspace(-8, 8, 400)
    rep = search_lower_bound_constant(m, axis, axis)
    assert rep.min_ratio >= 0.05
    # the first candidate that clears the floor: the one before it does not
    assert rep.c0 == 2.0
    assert verify_phase_lower_bound(m, 1.0, axis, axis).min_ratio < 0.05


def test_search_stops_at_the_first_candidate_whose_scan_admits_no_point(monkeypatch):
    # c0 = 1 admits points but keeps the ratio below the floor; at c0 = 2,
    # c0*eps exceeds every |xi1| and |eta|: that scan runs once and raises,
    # and the search returns the scan at c0 = 1
    scanned, scan = [], verify_phase_lower_bound

    def counting(model, c0, xi1, xi2):
        scanned.append(c0)
        return scan(model, c0, xi1, xi2)

    monkeypatch.setattr(model_module, "verify_phase_lower_bound", counting)
    m = DispersiveModel(4, (1.0, -1.0), 1.0, 2.0**-6)
    axis = np.linspace(-0.0234, 0.0234, 101)
    rep = search_lower_bound_constant(m, axis, axis)
    assert scanned == [1.0, 2.0]
    assert rep == scan(m, 1.0, axis, axis) and rep.min_ratio < 0.05


def test_search_reports_failure_when_floor_unreachable(monkeypatch):
    # the pure quadratic's ratio is 0.5 at every candidate: the search returns
    # the scan at the largest, whose ratio the caller finds below the floor
    monkeypatch.setattr("dispersia.model.C0_FLOOR", 10.0)
    m = DispersiveModel(2, (1.0,), 1.0, 2.0**-6)
    axis = np.linspace(-8, 8, 60)
    rep = search_lower_bound_constant(m, axis, axis)
    assert rep == verify_phase_lower_bound(m, 64.0, axis, axis)
    assert rep.min_ratio == pytest.approx(0.5, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# the blocked scan against the full-grid scan it replaced


def full_grid_scan(model, c0, xi1, xi2):
    """The scan over one meshgrid of the whole grid, as it was before the scan
    was blocked: the oracle for the blocked scan, bit for bit."""
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
    # the scaled phase in the scan's own operation order: the factored sum times F
    acc, _ = _factored_sum(model, g1 * g1, eta * eta)
    num = np.abs(acc * (g1 * eta if kappa % 2 == 0 else g1))
    # xi1^pw + eta^pw, pw = kappa - 1 - sigma = 2h, from the squares as the scan forms it
    h = (kappa - 1) // 2
    denom = np.abs(g1) * np.abs(eta) ** sigma * ((g1 * g1) ** h + (eta * eta) ** h)
    admissible = (np.abs(g1) >= c0 * eps) | (np.abs(eta) >= c0 * eps)
    n_adm = int(np.count_nonzero(admissible))
    if n_adm == 0:
        raise ValueError(
            f"no admissible samples: all |xi1| and |eta| below c0*eps = {c0 * eps}"
        )
    valid = admissible & (denom > 0.0)
    best, w1, w2 = math.inf, math.nan, math.nan
    if valid.any():
        ratio = np.where(valid, num / np.where(denom > 0.0, denom, 1.0), math.inf)
        i, j = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
        best, w1, w2 = float(ratio[i, j]), float(g1[i, j]), float(g2[i, j])
    return PhaseBoundReport(min_ratio=best, worst_xi1=w1, worst_xi2=w2,
                            admissible_count=n_adm, c0=float(c0))


def bits(report):
    """The report's fields with every float as its exact hex form (nan, -0.0 kept)."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


def rows_per_block(xi2):
    return max(1, _CHUNK // np.size(xi2))


def assert_scan_matches_full_grid(model, c0, xi1, xi2):
    rep = verify_phase_lower_bound(model, c0, xi1, xi2)
    assert np.size(xi1) > rows_per_block(xi2), "the grid must span several blocks"
    with np.errstate(invalid="ignore", over="ignore"):  # the oracle's own NaN and inf
        want = full_grid_scan(model, c0, xi1, xi2)
    assert bits(rep) == bits(want)
    return rep


SCAN_MODELS = [
    DispersiveModel(2, (1.0,), 1.0, 2.0**-6),
    DispersiveModel(3, (1.0, 0.5), 1.5, 2.0**-5),
    DispersiveModel(4, (1.0, -1.0), 1.0, 2.0**-6),
    DispersiveModel(5, (1.0, 1.0, -2.0), 1.0, 2.0**-4),
]


@pytest.mark.parametrize("model", SCAN_MODELS, ids=lambda m: f"kappa{m.kappa}")
def test_blocked_scan_is_the_full_grid_scan_with_a_partial_last_block(model):
    xi2 = np.linspace(-8, 8, 1000)
    xi1 = np.random.default_rng(model.kappa).uniform(-8, 8, 200)
    assert xi1.size % rows_per_block(xi2) != 0
    for c0 in (1.0, 32.0):
        assert_scan_matches_full_grid(model, c0, xi1, xi2)


def test_blocked_scan_takes_one_row_per_block_when_xi2_is_long():
    xi2 = np.linspace(-8, 8, _CHUNK + 4465)
    assert rows_per_block(xi2) == 1
    for model in (SCAN_MODELS[1], SCAN_MODELS[3]):
        assert_scan_matches_full_grid(model, 4.0, np.array([-3.0, 0.01, 5.5]), xi2)


def test_blocked_scan_tie_across_blocks_goes_to_the_earliest_point():
    # the scaled phase of an odd kappa is odd under (xi1, xi2) -> (-xi1, -xi2)
    # and the envelope is even, so on mirrored axes every ratio recurs at the
    # mirrored point; 2 * (_CHUNK // 300) xi2 points make blocks of 150 rows,
    # so the negative xi1 rows are the first block and the positive ones the second
    model = DispersiveModel(3, (1.0, 0.5), 1.0, 2.0**-5)
    mirror = lambda half: np.concatenate([-half[::-1], half])  # noqa: E731
    xi1 = mirror(np.linspace(0.05, 6, 150))
    xi2 = mirror(np.linspace(0.05, 6, _CHUNK // 300))
    assert rows_per_block(xi2) == 150
    rep = assert_scan_matches_full_grid(model, 4.0, xi1, xi2)
    mirrored = verify_phase_lower_bound(model, 4.0, [-rep.worst_xi1], [-rep.worst_xi2])
    assert mirrored.min_ratio == rep.min_ratio  # the tie is exact
    assert rep.worst_xi1 < 0  # the earlier of the two blocks


def test_blocked_scan_first_nan_in_a_later_block_wins():
    model = SCAN_MODELS[0]
    xi2 = np.linspace(-8, 8, 1000)
    xi1 = np.linspace(-8, 8, 300)
    rows = rows_per_block(xi2)
    # an infinite xi1 makes its whole row inf / inf; -inf comes first in C order
    xi1[2 * rows + 3], xi1[3 * rows + 1] = -math.inf, math.inf
    with np.errstate(invalid="ignore"):
        rep = assert_scan_matches_full_grid(model, 1.0, xi1, xi2)
    assert math.isnan(rep.min_ratio) and rep.worst_xi1 == -math.inf


def test_blocked_scan_all_inf_ratios_report_the_grid_first_point():
    # d_1 = 1.5e308 overflows the scaled phase where |eta| ~ 1e154, while the
    # envelope |xi1| (xi1^2 + eta^2) stays finite for |xi1| ~ 1e-3; the first
    # block's xi1 = 0 rows are admissible but carry no valid point
    model = DispersiveModel(3, (1.0, 1.5e308), 1.0, 1.0)
    xi2 = np.linspace(5e153, 6e153, 1000)
    rows = rows_per_block(xi2)
    xi1 = np.concatenate([np.zeros(rows), np.linspace(1e-3, 2e-3, 2 * rows + 7)])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = assert_scan_matches_full_grid(model, 1.0, xi1, xi2)
    assert rep.min_ratio == math.inf
    assert (rep.worst_xi1, rep.worst_xi2) == (0.0, xi2[0])


def test_blocked_scan_with_no_valid_point_reports_none():
    # xi1 = 0 leaves the envelope zero, yet |eta| = 2 eps |xi2| is admissible
    xi2 = np.linspace(1, 8, 1000)
    rep = assert_scan_matches_full_grid(SCAN_MODELS[2], 1.0, np.zeros(200), xi2)
    assert rep.admissible_count == 200_000
    assert math.isinf(rep.min_ratio) and math.isnan(rep.worst_xi1)


def test_a_scan_of_the_axis_extremes_admits_a_point_when_the_full_scan_does():
    # |xi1| and |eta| = |xi1 + 2 eps xi2|, rounded as the scan rounds them,
    # peak at the corners of the grid, so the scan of the axis ends is refused
    # exactly where the scan of the whole grid is.  A NaN entry is never
    # admitted and must not hide the others.
    model = SCAN_MODELS[0]

    def refused(scan, c0, xi1, xi2):
        try:
            scan(model, c0, xi1, xi2)
        except ValueError:
            return True
        return False

    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        c0 = float(rng.choice([0.5, 1.0, 2.0]))
        xi1, xi2 = (rng.uniform(-1.0, 1.0, size) * model.epsilon * rng.uniform(0.0, 2.0)
                    for size in rng.integers(1, 6, 2))
        if rng.random() < 0.3:
            xi2 = np.insert(xi2, rng.integers(0, xi2.size + 1), math.nan)
        whole = refused(full_grid_scan, c0, xi1, xi2)
        assert refused(verify_phase_lower_bound, c0, xi1, xi2) == whole
        ends = [np.nanmin(xi2), np.nanmax(xi2)]
        assert refused(verify_phase_lower_bound, c0, [xi1.min(), xi1.max()], ends) == whole
        seen.add(whole)
    assert seen == {True, False}


def test_a_signaling_nan_on_an_axis_hides_no_admissible_point():
    # np.fmin.reduce does not pass over a signaling NaN, so axis ends taken
    # with it read NaN; arithmetic on it raises the invalid flag, which the
    # scan, unlike its oracle, must not turn into a warning
    snan = np.array([0x7FF4000000000001], dtype=np.uint64).view(np.float64)[0]
    model = DispersiveModel(2, (1.0,), 1.0, 2.0**-6)
    for xi1, xi2 in (([0.5, snan], [1.0]), ([1.0], [0.5, snan]), ([snan, 0.5], [snan, 1.0])):
        rep = verify_phase_lower_bound(model, 1.0, xi1, xi2)
        with np.errstate(invalid="ignore"):
            assert rep == full_grid_scan(model, 1.0, xi1, xi2)
    with pytest.raises(NoAdmissibleSampleError, match="^no admissible samples: "):
        verify_phase_lower_bound(model, 1.0, [snan, math.nan], [1.0])


def test_blocked_scan_with_no_admissible_point_raises_the_same_error():
    model = SCAN_MODELS[2]
    axis = np.linspace(-1e-3, 1e-3, 1000)
    with pytest.raises(NoAdmissibleSampleError) as blocked:
        verify_phase_lower_bound(model, 1.0, axis[:200], axis)
    with pytest.raises(ValueError) as full:
        full_grid_scan(model, 1.0, axis[:200], axis)
    assert str(blocked.value) == str(full.value)


def test_blocked_scan_memory_stays_block_sized():
    model = DispersiveModel(5, (1.0, 1.0, -2.0), 1.0, 2.0**-6)
    axis = np.linspace(-8, 8, 2000)
    tracemalloc.start()
    try:
        verify_phase_lower_bound(model, 1.0, axis, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2000 x 2000 float array alone is 32 MB
    assert peak < 16e6


@pytest.mark.parametrize("model", SCAN_MODELS, ids=lambda m: f"kappa{m.kappa}")
def test_blocked_scan_of_wholly_admitted_blocks_is_the_full_grid_scan(model):
    # every |xi1| clears c0 eps, so each block is admitted whole and, away
    # from eta = 0 at even kappa, divides by a positive envelope throughout
    xi1 = np.concatenate([-np.geomspace(8, 0.5, 100), np.geomspace(0.5, 8, 100)])
    xi2 = np.random.default_rng(model.kappa).uniform(-8, 8, 1000)
    rep = assert_scan_matches_full_grid(model, 1.0, xi1, xi2)
    assert rep.admissible_count == xi1.size * xi2.size


@pytest.mark.parametrize("model", SCAN_MODELS, ids=lambda m: f"kappa{m.kappa}")
def test_blocked_scan_with_inadmissible_and_zero_envelope_points_is_the_full_grid_scan(model):
    # rows with |xi1| below c0 eps (xi1 = 0 among them, whose envelope is 0)
    # share blocks with admitted rows; at even kappa, xi2 = -xi1 / (2 eps)
    # puts eta = 0 exactly, another zero of the envelope
    eps = model.epsilon
    xi1 = np.linspace(-2.0, 2.0, 257)
    assert 0.0 in xi1 and np.count_nonzero(np.abs(xi1) < 4.0 * eps) > 1
    xi2 = np.concatenate([np.linspace(-8, 8, 900), -xi1[::3] / (2.0 * eps)])
    rep = assert_scan_matches_full_grid(model, 4.0, xi1, xi2)
    assert 0 < rep.admissible_count < xi1.size * xi2.size


def test_blocked_scan_with_nan_grid_entries_is_the_full_grid_scan():
    # a NaN row is never admitted and a NaN column leaves an admitted point
    # whose envelope is NaN: neither may count, in a whole block or not
    xi2 = np.linspace(-8, 8, 1000)
    xi2[[3, 517]] = math.nan
    xi1 = np.linspace(0.5, 8, 200)
    xi1[[5, 150]] = math.nan
    for model in SCAN_MODELS:
        with np.errstate(invalid="ignore"):
            assert_scan_matches_full_grid(model, 1.0, xi1, xi2)
            assert_scan_matches_full_grid(model, 1.0, -xi1[::-1], xi2[::-1])


# ---------------------------------------------------------------------------
# the branch-and-bound scan: blocks passed over on their floors


NONNEGATIVE_MODELS = [
    DispersiveModel(3, (1.0, 0.5), 1.0, 2.0**-5),
    DispersiveModel(5, (1.0, 0.0, 1.0), 1.0, 2.0**-6),
    DispersiveModel(6, (1.0, 2.0, 0.5), 1.0, 2.0**-4),
    DispersiveModel(7, (1.0, 0.0, 0.5, 0.25), 1.0, 2.0**-4),
]


def counted_blocks(monkeypatch):
    """A list that gets the row count of every block the scan computes."""
    seen, compute = [], model_module._block_ratio

    def counting(*args):
        seen.append(args[1].shape[0])
        return compute(*args)

    monkeypatch.setattr(model_module, "_block_ratio", counting)
    return seen


@pytest.mark.parametrize("model", NONNEGATIVE_MODELS, ids=lambda m: f"kappa{m.kappa}")
def test_scan_that_passes_over_blocks_is_the_full_grid_scan(model, monkeypatch):
    # ordered xi1 axes against 1600 xi2 points: blocks of 10 narrow rows
    seen = counted_blocks(monkeypatch)
    xi2 = np.linspace(-8, 8, 1600)
    axes = (np.linspace(-8, 8, 300), np.sort(np.random.default_rng(model.kappa).uniform(-8, 8, 331)))
    for c0 in (1.0, 8.0):
        for xi1 in axes:
            assert_scan_matches_full_grid(model, c0, xi1, xi2)
    blocks_in_all = 2 * sum(-(-xi1.size // rows_per_block(xi2)) for xi1 in axes)
    assert len(seen) < blocks_in_all  # some were passed over


def test_scan_of_mixed_sign_models_computes_every_block(monkeypatch):
    seen = counted_blocks(monkeypatch)
    axis = np.linspace(-8, 8, 300)
    for model in (SCAN_MODELS[2], SCAN_MODELS[3]):
        assert_scan_matches_full_grid(model, 1.0, axis, axis)
    assert sum(seen) == 2 * axis.size


@pytest.mark.parametrize("model", [SCAN_MODELS[0]] + NONNEGATIVE_MODELS,
                         ids=lambda m: f"kappa{m.kappa}")
def test_scan_in_reverse_block_order_keeps_the_earliest_tie_and_first_nan(model, monkeypatch):
    # floors that order the blocks last to first, and that nothing exceeds:
    # the scan visits every block against C order
    monkeypatch.setattr(model_module, "_block_floors",
                        lambda m, c0_eps, xi1, shift, starts: -1.0 - np.arange(starts.size))
    # the ratio is even under (xi1, xi2) -> (-xi1, -xi2), bit for bit, so on
    # mirrored axes every ratio of the negative rows recurs in a later block
    mirror = lambda half: np.concatenate([-half[::-1], half])  # noqa: E731
    xi2 = mirror(np.linspace(0.05, 8, 500))
    rows = rows_per_block(xi2)
    rep = assert_scan_matches_full_grid(model, 1.0, mirror(np.linspace(0.5, 8, 2 * rows + 5)),
                                        xi2)
    assert rep.worst_xi1 < 0
    xi1 = np.linspace(0.5, 8, 5 * rows)
    # rows of inf / inf ratios in the second and the fourth block: the
    # second's first NaN comes first, from an infinite row and from one
    # whose square overflows
    for big in (math.inf, 1e300):
        xi1[[rows + 2, 3 * rows + 1]] = big, -big
        with np.errstate(over="ignore", invalid="ignore"):
            rep = assert_scan_matches_full_grid(model, 1.0, xi1, xi2)
        assert math.isnan(rep.min_ratio)
        assert (rep.worst_xi1, rep.worst_xi2) == (big, xi2[0])


def test_scan_with_nan_and_inf_entries_in_a_nonnegative_model_is_the_full_grid_scan():
    xi2 = np.linspace(-8, 8, 1000)
    xi2[[3, 517]] = math.nan
    xi1 = np.linspace(-8, 8, 200)
    xi1[[5, 150]] = math.nan, math.inf
    for model in NONNEGATIVE_MODELS:
        assert_scan_matches_full_grid(model, 1.0, xi1, xi2)
        assert_scan_matches_full_grid(model, 1.0, xi1, np.linspace(-8, 8, 1000))


@given(
    kappa=st.integers(2, 7),
    tail=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0, 1e-3, 1e5, -1.0]),
                  min_size=3, max_size=3),
    eps=st.sampled_from([1.0, 0.25, 2.0**-6]),
    c0=st.sampled_from([0.5, 1.0, 2.0, 8.0]),
    n1=st.integers(2, 250),
    n2=st.integers(800, 2000),
    width=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**16),
    ordered=st.booleans(),
)
@settings(deadline=None, max_examples=60)
def test_scan_on_random_axes_is_the_full_grid_scan(kappa, tail, eps, c0, n1, n2, width, seed,
                                                   ordered):
    # an ordered xi1 axis makes narrow blocks, whose floors pass some over
    model = DispersiveModel(kappa, tuple([1.0] + tail)[:(kappa + 1) // 2], 1.0, eps)
    rng = np.random.default_rng(seed)
    xi1, xi2 = rng.uniform(-width, width, n1), rng.uniform(-width, width, n2)
    if ordered:
        xi1.sort()
    with np.errstate(all="ignore"):
        try:
            want = full_grid_scan(model, c0, xi1, xi2)
        except ValueError:
            return  # no admissible point, which the axis-extremes test covers
        assert bits(verify_phase_lower_bound(model, c0, xi1, xi2)) == bits(want)


def test_block_floor_is_below_every_ratio_of_its_block():
    # blocks anywhere in the guarded range, narrow ones (down to a single
    # point, where floor and ratio are the same quotient rounded apart) and
    # wide ones, with eta straddling 0 at odd kappa
    rng = np.random.default_rng(30)
    guarded = 0
    for _ in range(3000):
        kappa = int(rng.integers(2, 9))
        tail = rng.choice([0.0, 0.25, 1.0, 7.0, 1e-200, 1e200], (kappa + 1) // 2 - 1)
        model = DispersiveModel(kappa, (1.0, *tail), 1.0, float(rng.choice([1.0, 2.0**-6])))
        e = (900 - 2 * kappa) / kappa
        center = 2.0 ** rng.uniform(-e, e) * rng.choice([-1.0, 1.0])
        spread = float(rng.choice([0.0, 1e-12, 1e-3, 0.5]))
        xi1 = center * (1.0 + spread * rng.uniform(-1, 1, int(rng.integers(1, 4))))
        shift = center * rng.choice([-3.0, -1.0, 0.0, 1.0]) + center * spread * rng.uniform(
            -1, 1, int(rng.integers(1, 6)))
        c0_eps = float(np.min(np.abs(xi1)))
        floor = _block_floors(model, c0_eps, xi1, shift, np.array([0]))[0]
        if floor == -math.inf:
            continue
        guarded += 1
        with np.errstate(all="ignore"):
            ratio, count = _block_ratio(model, xi1[:, None], shift, c0_eps)
        assert count == xi1.size * shift.size
        assert ratio.min() >= floor, (model, xi1, shift)
    assert guarded > 1500


def test_block_floors_pass_over_no_block_outside_their_guard():
    def floor(model, xi1, shift, c0_eps=2.0**-5):
        return _block_floors(model, c0_eps, np.array(xi1), np.array(shift), np.array([0]))[0]

    odd, even = NONNEGATIVE_MODELS[0], NONNEGATIVE_MODELS[2]  # kappa 3 and 6
    hi = 2.0 ** ((900 - 2 * 3) / 3)  # the kappa 3 range is [1 / hi, hi]
    assert floor(odd, [1.0, hi / 2.0], [0.5]) > 0
    assert floor(odd, [1.0, 2.0], [-1.5, 0.5]) > 0  # eta holds 0: allowed at odd kappa
    assert floor(even, [1.0, 2.0], [-1.5, 0.5]) == -math.inf
    assert floor(even, [1.0, 2.0], [0.5]) > 0
    refused = [
        ([1.0, 2.0], [0.5], 1.5),  # a row below c0 eps
        ([1.0, math.nan], [0.5], 0.0),
        ([1.0, 2.0], [0.5, math.nan], 0.0),
        ([1.0, 2.0 * hi], [0.5], 0.0),
        ([1.0, 2.0], [2.0 * hi], 0.0),
        ([0.5 / hi, 1.0], [0.5], 0.0),
    ]
    for xi1, shift, c0_eps in refused:
        assert floor(odd, xi1, shift, c0_eps) == -math.inf, (xi1, shift)
    assert floor(SCAN_MODELS[2], [1.0], [0.5]) == -math.inf  # a negative coefficient


def test_phase_scan_workload_at_kappa_3_computes_under_a_third_of_its_blocks(monkeypatch):
    # verify-phase's scan for the benchmark's kappa 3 model (1500-point axes
    # on [-8, 8], eps 2^-6, the c0 search's first candidate)
    seen = counted_blocks(monkeypatch)
    model = DispersiveModel(3, (1.0, 0.0), 1.0, 2.0**-6)
    axis = np.linspace(-8, 8, 1500)
    rep = verify_phase_lower_bound(model, 1.0, axis, axis)
    assert rep.min_ratio >= 0.05 and rep.admissible_count == 2249812
    assert len(seen) < -(-axis.size // rows_per_block(axis)) / 3


def test_g_ratio_sampled_lower_bound():
    """(g(y) - g(x)) / (y^kappa - x^kappa) stays positive for x, y >= c0p*eps,
    where g(y) = sum_j eps^(2j) * d_r/2^(r-1) * r * y^r over surviving powers."""

    def g(coeffs, kappa, eps, y):
        total = 0.0
        for j, d in enumerate(coeffs):
            r = kappa - 2 * j
            total += eps ** (2 * j) * (d / 2.0 ** (r - 1)) * r * y**r
        return total

    for kappa, coeffs in [(2, (1.0,)), (3, (1.0, 0.0)), (4, (1.0, -1.0))]:
        eps = 2.0**-6
        found = None
        for c0p in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            lo = c0p * eps
            pts = np.geomspace(lo, 100.0, 60)
            worst = math.inf
            for i, x in enumerate(pts):
                for y in pts[i + 1 :]:
                    ratio = (g(coeffs, kappa, eps, y) - g(coeffs, kappa, eps, x)) / (
                        y**kappa - x**kappa
                    )
                    worst = min(worst, ratio)
            if worst > 0.01:
                found = (c0p, worst)
                break
        assert found is not None, f"no positive ratio constant for kappa={kappa}"


# ---------------------------------------------------------------------------
# rate formulas


def test_error_exponent_frozen_examples():
    r = expected_error_exponent(2, 1.0)
    assert (r.exponent, r.log_factor) == (pytest.approx(1.0), True)
    r = expected_error_exponent(2, 0.5)
    assert (r.exponent, r.log_factor) == (pytest.approx(1.25), False)
    assert expected_error_exponent(2, 2.0 / 3.0).exponent == pytest.approx(4.0 / 3.0)
    r = expected_error_exponent(3, 0.0)
    assert (r.exponent, r.log_factor) == (pytest.approx(1.0), False)


def test_error_exponent_is_min_of_the_two_branches():
    for kappa in range(2, 7):
        for alpha in np.linspace(0, kappa, 33):
            b1 = 1 + (kappa - 1) * alpha / kappa
            b2 = 2 - 2 * alpha / kappa
            r = expected_error_exponent(kappa, float(alpha))
            assert r.exponent == pytest.approx(min(b1, b2), abs=1e-14)
            # the log factor comes only with kappa = 2 on the second branch
            assert r.log_factor == (kappa == 2 and b2 < b1)


def test_error_exponent_kink_at_branch_equality():
    # the two branches cross at alpha = kappa/(kappa+1)
    for kappa in range(2, 7):
        a_star = kappa / (kappa + 1)
        b1 = 1 + (kappa - 1) * a_star / kappa
        b2 = 2 - 2 * a_star / kappa
        assert b1 == pytest.approx(b2, abs=1e-13)
        left = expected_error_exponent(kappa, a_star - 1e-9).exponent
        right = expected_error_exponent(kappa, a_star + 1e-9).exponent
        assert left == pytest.approx(right, abs=1e-8)  # continuous through the kink


def test_regularity_exponent_frozen_examples():
    r = expected_regularity_exponent(2, 1.0, 0)
    assert (r.exponent, r.log_factor) == (pytest.approx(0.5), False)
    r = expected_regularity_exponent(2, 1.0, 1)
    assert (r.exponent, r.log_factor) == (pytest.approx(0.0), True)
    r = expected_regularity_exponent(3, 1.5, 1)
    assert (r.exponent, r.log_factor) == (pytest.approx(0.0), False)


def test_regularity_exponent_rejects_bad_j():
    with pytest.raises(ValueError, match="^deriv_order: "):
        expected_regularity_exponent(3, 1.0, -1)
    with pytest.raises(ValueError, match="^deriv_order: "):
        expected_regularity_exponent(3, 1.0, 3)


@pytest.mark.parametrize("make,key", [
    (lambda: DispersiveModel(1, (1.0,), 0.0, 0.5), "kappa"),
    (lambda: DispersiveModel(3, (1.0,), 0.0, 0.5), "coeffs"),
    (lambda: DispersiveModel(2, (2.0,), 0.0, 0.5), "coeffs"),
    (lambda: DispersiveModel(2, (1.0,), 3.0, 0.5), "alpha"),
    (lambda: DispersiveModel(2, (1.0,), 1.0, 0.0), "epsilon"),
    (lambda: reduce_moment(1, 1.0, "+", 1.0), "kappa"),
    (lambda: reduce_moment(2, 0.5, "+", 1.0), "beta"),
    (lambda: reduce_moment(2, Fraction(1, 2), "+", 1.0), "beta"),
    (lambda: reduce_moment(2, math.inf, "+", 1.0), "beta"),
    (lambda: reduce_moment(2, 1.0, "x", 1.0), "sign"),
    (lambda: reduce_moment(2, 1.0, "-", 0.0), "lambda"),
    (lambda: reduce_moment(2, 1.0, "+", math.nan), "lambda"),
], ids=["kappa", "coeffs-count", "coeffs-leading", "alpha", "epsilon", "reduce-kappa",
        "reduce-beta", "reduce-beta-fraction", "reduce-beta-inf", "reduce-sign",
        "reduce-degenerate", "reduce-lambda-nan"])
def test_refusals_start_with_the_config_key(make, key):
    with pytest.raises(ValueError, match=f"^{key}: "):
        make()


# ---------------------------------------------------------------------------
# moment reduction


def test_reduce_frozen_examples():
    r = reduce_moment(2, 1, "+", 1.0)
    assert r.alpha == 1.0
    assert r.dropped_constant == pytest.approx(0.5)
    assert r.c == {0: 0.5, 2: 2.0}
    assert r.sign_factor == 1

    r = reduce_moment(2, 1, "-", -3.0)
    assert r.alpha == 1.0
    assert r.c == {1: 6.0}
    assert r.sign_factor == -1
    assert r.parity == "odd"

    for sign in ("+", "-"):
        assert reduce_moment(3, 1, sign, 1.0).alpha == 2.0


def test_reduce_rejects_beta_below_one():
    for bad in (0.5, 0.999, Fraction(1, 2), 0, -1):
        with pytest.raises(ValueError):
            reduce_moment(2, bad, "+", 1.0)


def test_reduce_fraction_beta_exact_alpha():
    r = reduce_moment(5, Fraction(3, 2), "+", 2.0)
    assert r.alpha == Fraction(5, 1) - Fraction(2, 3)
    assert isinstance(r.alpha, Fraction)


def test_reduce_degenerate_lambda_zero():
    # '-' keeps odd j only, so lambda=0 with even kappa leaves nothing
    with pytest.raises(DegenerateReductionError):
        reduce_moment(4, 1, "-", 0.0)
    r = reduce_moment(4, 1, "+", 0.0)
    assert r.c == {4: 2.0}
    assert r.sign_factor == 1
    r = reduce_moment(3, 1, "-", 0.0)
    assert r.c == {3: 2.0}


def brute_dhat(kappa, sign, lam):
    """Exact expansion: coeff_j = binom(k,j) lam^(k-j) / 2^(k-j) * (1 +- (-1)^j)."""
    lam = Fraction(lam)
    pm = 1 if sign == "+" else -1
    out = {}
    for j in range(kappa + 1):
        gate = 1 + pm * (-1) ** j
        if gate == 0:
            continue
        c = Fraction(math.comb(kappa, j)) * lam ** (kappa - j) / Fraction(2) ** (kappa - j)
        val = c * gate
        if val != 0:
            out[j] = val
    return out


@pytest.mark.parametrize("kappa", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("lam", [3.0, -3.0, 1.0, -1.0, 0.5, -0.5])
def test_reduce_matches_fraction_expansion(kappa, sign, lam):
    red = reduce_moment(kappa, 1, sign, lam)
    want = brute_dhat(kappa, sign, lam)
    assert set(red.c) == set(want)
    for j, frac in want.items():
        # c_j are dyadic-rational times powers of |lam|, exact in binary
        assert red.sign_factor * red.c[j] == float(frac)
    assert all(cj > 0 for cj in red.c.values())
