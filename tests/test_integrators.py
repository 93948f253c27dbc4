"""Stepper structure, cross-scheme identities, and the solve driver.

Scheme-order facts used below: all four steppers are exact on the free flow;
one-step defects are O(tau^2), so Richardson-style slopes sit at 2; global
slopes sit at the scheme order (1 for ei/lt/lri, 2 for strang).
"""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from test_acceptance import lri_filter_rescaled

from dispersia.harness import fit_rate
from dispersia.integrators import (
    NumericalBlowupError,
    PrecomputedStep,
    SolveConfig,
    SolveResult,
    StepperKind,
    _all_finite,
    _march,
    free_solution,
    precompute,
    solve,
    step,
)
from dispersia.model import DispersiveModel
from dispersia.spectral import (
    Grid,
    InitialDataSpec,
    MeshResolutionError,
    MeshResolutionWarning,
    PotentialSpec,
    SpectralField,
    flow_phase,
    phi1,
    sample_initial,
    sample_potential,
    x_norm,
)

MODEL = DispersiveModel(2, (1.0,), 1.0, 0.5)
# odd kappa: real data marches the real half-spectrum path
KDV = DispersiveModel(3, (1.0, -1.0), 1.5, 0.5)
GRID = Grid(4.0, 256)
GAUSS_POT = PotentialSpec.gaussian(-1.0, 1.0)
GAUSS_INI = InitialDataSpec.gaussian()
# every scheme on MODEL (complex path) and on KDV (real path)
SCHEME_MODELS = ([pytest.param(s, MODEL, id=s.value) for s in StepperKind]
                 + [pytest.param(s, KDV, id=f"{s.value}-kappa3") for s in StepperKind])


def l2_norm(grid, values):
    return math.sqrt(grid.h * float(np.sum(np.abs(values) ** 2)))


def diff_norm(grid, a, b):
    return x_norm(SpectralField(grid, values=a) - SpectralField(grid, values=b))


# ---------------------------------------------------------------------------
# precompute


def test_precompute_populates_only_scheme_fields():
    # a gain picks the dressed kernel (ei, lri); only strang has an entry factor
    for scheme in StepperKind:
        pc = precompute(MODEL, GRID, GAUSS_POT, scheme, 0.01)
        assert pc.flow.shape == pc.weight.shape == (GRID.n,), scheme
        if scheme is StepperKind.EI:
            assert pc.gain.shape == (GRID.n,)
        elif scheme is StepperKind.LRI:
            assert pc.gain == 0.01
        else:
            assert pc.gain is None, scheme
        if scheme is StepperKind.STRANG:
            assert pc.entry.shape == (GRID.n,)
        else:
            assert pc.entry == 1.0, scheme


def test_precompute_rejects_zero_tau_allows_negative():
    with pytest.raises(ValueError):
        precompute(MODEL, GRID, GAUSS_POT, StepperKind.EI, 0.0)
    pc = precompute(MODEL, GRID, GAUSS_POT, StepperKind.STRANG, -0.01)
    assert pc.tau == -0.01


def test_precompute_small_tau_limits():
    pc = precompute(MODEL, GRID, GAUSS_POT, StepperKind.EI, 1e-12)
    np.testing.assert_allclose(pc.gain / pc.tau, 1.0, atol=1e-9)
    pc = precompute(MODEL, GRID, GAUSS_POT, StepperKind.LT, 1e-12)
    np.testing.assert_allclose(pc.weight, 1.0, atol=1e-9)


def test_full_flow_is_half_flow_squared():
    tau = 0.02
    full = precompute(MODEL, GRID, GAUSS_POT, StepperKind.LT, tau).flow
    strang = precompute(MODEL, GRID, GAUSS_POT, StepperKind.STRANG, tau)
    np.testing.assert_allclose(strang.entry * strang.entry, full, rtol=1e-12)
    np.testing.assert_allclose(strang.flow, full, rtol=1e-12)


def test_zero_potential_precompute():
    none_pot = PotentialSpec.gaussian(0.0, 1.0)
    pc = precompute(MODEL, GRID, none_pot, StepperKind.LRI, 0.01)
    np.testing.assert_allclose(pc.weight, 0.0, atol=1e-15)
    pc = precompute(MODEL, GRID, none_pot, StepperKind.LT, 0.01)
    np.testing.assert_allclose(pc.weight, 1.0, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# single-step structure


def free_step_oracle(model, grid, tau, mu):
    p = np.array([sum(d * x ** (model.kappa - 2 * j) for j, d in enumerate(model.coeffs))
                  for x in grid.xi])
    sym = np.exp(-1j * tau * model.epsilon**model.alpha * p)
    return np.fft.ifft(sym * np.fft.fft(mu))


@pytest.mark.parametrize("scheme", list(StepperKind))
def test_zero_potential_step_is_free_flow(scheme):
    mu = sample_initial(GAUSS_INI, GRID)
    pc = precompute(MODEL, GRID, PotentialSpec.gaussian(0.0, 1.0), scheme, 0.05)
    stepped = step(mu, pc)
    want = free_step_oracle(MODEL, GRID, 0.05, mu)
    np.testing.assert_allclose(stepped, want, atol=1e-12)


def test_ei_zero_mode_recursion():
    # P(0) = 0, so the DC coefficient obeys c+ = c + tau * fft(R mu)[0]
    tau = 0.03
    mu = sample_initial(GAUSS_INI, GRID)
    pc = precompute(MODEL, GRID, GAUSS_POT, StepperKind.EI, tau)
    out = step(mu, pc)
    got = np.fft.fft(out)[0]
    r = sample_potential(GAUSS_POT, GRID, MODEL.epsilon)
    want = np.fft.fft(mu)[0] + tau * np.fft.fft(r * mu)[0]
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_lt_with_identity_flow_is_pure_potential_factor():
    # direct PrecomputedStep construction: disabling the flow symbol isolates
    # the potential factor exactly
    tau = 0.04
    r = np.cos(GRID.nodes)
    pc = PrecomputedStep(
        scheme=StepperKind.LT,
        tau=tau,
        flow=np.ones(GRID.n, dtype=complex),
        weight=np.exp(tau * r),
    )
    mu = sample_initial(GAUSS_INI, GRID)
    np.testing.assert_allclose(step(mu, pc), np.exp(tau * r) * mu, atol=1e-13)


def test_ei_richardson_local_order():
    # || S_tau - S_{tau/2}^2 || ~ tau^2 on a fixed state
    mu = sample_initial(GAUSS_INI, GRID)
    taus = [0.1, 0.05, 0.025, 0.0125]
    defects = []
    for tau in taus:
        pc1 = precompute(MODEL, GRID, GAUSS_POT, StepperKind.EI, tau)
        pc2 = precompute(MODEL, GRID, GAUSS_POT, StepperKind.EI, tau / 2)
        one = step(mu, pc1)
        two = step(step(mu, pc2), pc2)
        defects.append(diff_norm(GRID, one, two))
    fit = fit_rate(np.array(taus), np.array(defects))
    assert fit.slope == pytest.approx(2.0, abs=0.1)


def test_lt_minus_ei_is_second_order_in_tau():
    mu = sample_initial(GAUSS_INI, GRID)
    taus = [0.1, 0.05, 0.025, 0.0125]
    gaps = []
    for tau in taus:
        lt = step(mu, precompute(MODEL, GRID, GAUSS_POT, StepperKind.LT, tau))
        ei = step(mu, precompute(MODEL, GRID, GAUSS_POT, StepperKind.EI, tau))
        gaps.append(diff_norm(GRID, lt, ei))
    fit = fit_rate(np.array(taus), np.array(gaps))
    assert fit.slope == pytest.approx(2.0, abs=0.2)


def test_strang_step_is_time_symmetric():
    mu = sample_initial(GAUSS_INI, GRID)
    fwd = precompute(MODEL, GRID, GAUSS_POT, StepperKind.STRANG, 0.05)
    bwd = precompute(MODEL, GRID, GAUSS_POT, StepperKind.STRANG, -0.05)
    back = step(step(mu, fwd), bwd)
    np.testing.assert_allclose(back, mu, atol=1e-10)


# ---------------------------------------------------------------------------
# LRI filter dual route


@pytest.mark.parametrize("eps", [0.25, 0.0625])
def test_lri_filter_matches_rescaled_route(eps):
    model = DispersiveModel(2, (1.0,), 1.0, eps)
    grid = Grid(4.0, 512)
    tau = 0.01
    pc = precompute(model, grid, GAUSS_POT, StepperKind.LRI, tau)
    other = lri_filter_rescaled(model, grid, GAUSS_POT, tau)
    scale = float(np.abs(pc.weight).max())
    np.testing.assert_allclose(other, pc.weight, atol=1e-10 * max(scale, 1.0))


def test_lri_filter_rescaled_odd_kappa():
    model = DispersiveModel(3, (1.0, -1.0), 1.5, 0.25)
    grid = Grid(8.0, 512)
    pc = precompute(model, grid, GAUSS_POT, StepperKind.LRI, 0.02)
    other = lri_filter_rescaled(model, grid, GAUSS_POT, 0.02)
    np.testing.assert_allclose(other, pc.weight, atol=1e-10)


# ---------------------------------------------------------------------------
# constant potential: where ei and lri meet


CONST = -0.7


def const_setup(tau, n=256):
    pot = PotentialSpec.tabulated(np.full(n, CONST))
    grid = Grid(4.0, n)
    ei = precompute(MODEL, grid, pot, StepperKind.EI, tau)
    lri = precompute(MODEL, grid, pot, StepperKind.LRI, tau)
    return grid, ei, lri


def test_constant_potential_filter_collapses_to_scalar():
    _, _, lri = const_setup(0.05)
    np.testing.assert_allclose(lri.weight, CONST, atol=1e-12)


def test_constant_potential_schemes_agree_on_constant_state():
    grid, ei, lri = const_setup(0.05)
    mu = np.ones(grid.n, dtype=complex)
    np.testing.assert_allclose(step(mu, ei), step(mu, lri), atol=1e-12)


def test_constant_potential_scheme_gap_is_second_order():
    gaps, taus = [], [0.1, 0.05, 0.025, 0.0125]
    for tau in taus:
        grid, ei, lri = const_setup(tau)
        mu = sample_initial(GAUSS_INI, grid)
        gaps.append(diff_norm(grid, step(mu, ei), step(mu, lri)))
    fit = fit_rate(np.array(taus), np.array(gaps))
    assert fit.slope == pytest.approx(2.0, abs=0.2)


# ---------------------------------------------------------------------------
# solve driver


def make_config(scheme=StepperKind.EI, tau=0.05, z_final=0.5, **kw):
    defaults = dict(
        model=MODEL,
        grid=GRID,
        potential=GAUSS_POT,
        initial=GAUSS_INI,
        scheme=scheme,
        tau=tau,
        z_final=z_final,
    )
    defaults.update(kw)
    return SolveConfig(**defaults)


def test_solve_zero_z_final_returns_initial_data():
    res = solve(make_config(z_final=0.0))
    assert res.steps == 0
    np.testing.assert_array_equal(res.final.values, sample_initial(GAUSS_INI, GRID))


def test_solve_step_count_rules():
    assert make_config(tau=0.1, z_final=1.0).step_count() == 10
    assert make_config(tau=1.0 / 3.0, z_final=1.0).step_count() == 3
    with pytest.raises(ValueError):
        make_config(tau=0.3, z_final=1.0).step_count()


def test_solve_config_validation():
    with pytest.raises(ValueError):
        make_config(tau=0.0)
    with pytest.raises(ValueError):
        make_config(tau=-0.1)
    with pytest.raises(ValueError):
        make_config(z_final=-1.0)
    for z_final in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^z_final: must be finite"):
            make_config(z_final=z_final)
    with pytest.raises(ValueError, match="^scheme: "):
        make_config(scheme="rk4")
    assert make_config(scheme="strang").scheme is StepperKind.STRANG


def test_solve_config_enforces_mesh_rule():
    # h = 0.5: refused under grid_n past 4 eps, a warning in (eps, 4 eps]
    grid = Grid(16.0, 64)
    with pytest.raises(MeshResolutionError, match="^grid_n: grid spacing h=0.5 exceeds"):
        make_config(grid=grid, model=DispersiveModel(2, (1.0,), 1.0, 0.1))
    with pytest.warns(MeshResolutionWarning, match="exceeds epsilon=0.25"):
        make_config(grid=grid, model=DispersiveModel(2, (1.0,), 1.0, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_config(grid=grid)  # h = eps = 0.5: resolved, silent


def test_solve_config_checks_tabulated_sample_counts():
    # one sample per node of GRID (256), under the key of the spec that holds them
    with pytest.raises(ValueError, match="^potential: tabulated data needs exactly 256 "
                                         "samples, got 32"):
        make_config(potential=PotentialSpec.tabulated(np.zeros(32)))
    with pytest.raises(ValueError, match="^initial: tabulated data needs exactly 256 "
                                         "samples, got 32"):
        make_config(initial=InitialDataSpec.tabulated(np.zeros(32, dtype=complex)))
    assert make_config(potential=PotentialSpec.tabulated(np.zeros(256))).grid.n == 256


@pytest.mark.parametrize("scheme", list(StepperKind))
def test_solve_zero_potential_matches_free_solution(scheme):
    cfg = make_config(scheme=scheme, potential=PotentialSpec.gaussian(0.0, 1.0))
    res = solve(cfg)
    gap = x_norm(res.final - free_solution(cfg))
    assert gap <= 1e-12


def test_free_solution_plane_wave_oracle():
    xi0 = 8 * GRID.dxi
    cfg = make_config(initial=InitialDataSpec.plane_wave(xi0), z_final=0.7)
    f = free_solution(cfg)
    phase = math.e ** complex(
        0.0, -0.7 * MODEL.epsilon**MODEL.alpha * float(xi0**2)
    )
    np.testing.assert_allclose(
        f.values, phase * np.exp(1j * xi0 * GRID.nodes), atol=1e-12
    )


def test_free_solution_is_isometry():
    cfg = make_config(z_final=1.0)
    mu0 = SpectralField(GRID, values=sample_initial(GAUSS_INI, GRID))
    for j in (0, 1):
        assert x_norm(free_solution(cfg), j) == pytest.approx(
            x_norm(mu0, j), rel=1e-12, abs=0.0
        )


@pytest.mark.parametrize("scheme", [StepperKind.LT, StepperKind.STRANG])
def test_splitting_is_l2_dissipative_for_nonpositive_potential(scheme):
    states = [sample_initial(GAUSS_INI, GRID)] + [
        solve(make_config(scheme=scheme, tau=0.05, z_final=k * 0.05)).final.values
        for k in range(1, 11)
    ]
    norms = [l2_norm(GRID, v) for v in states]
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1.0 + 1e-12)


def test_global_first_order_error_ratio():
    # EI error at tau = 1e-2 vs 1e-3 against a tau = 1e-4 reference: first
    # order predicts a ratio near 10 once the reference is negligible
    ref = solve(make_config(tau=1e-4, z_final=0.2)).final
    errs = {
        tau: x_norm(solve(make_config(tau=tau, z_final=0.2)).final - ref)
        for tau in (1e-2, 1e-3)
    }
    ratio = errs[1e-2] / errs[1e-3]
    assert 7.0 <= ratio <= 15.0


def test_solve_determinism():
    a = solve(make_config(scheme=StepperKind.LRI))
    b = solve(make_config(scheme=StepperKind.LRI))
    np.testing.assert_array_equal(a.final.values, b.final.values)
    assert isinstance(a, SolveResult) and a.steps == 10 and a.walltime >= 0.0


# The step each scheme names for R = 700, tau = 1.  lri's state after step
# 108 is fft(mu_108), whose sum overflows although mu_108 itself is finite; a
# loop that held values would name step 109, whose first transform overflows.
BLOWUP_STEP = {StepperKind.EI: 108, StepperKind.LT: 2, StepperKind.STRANG: 2,
               StepperKind.LRI: 108}


@pytest.mark.parametrize("scheme", list(StepperKind))
def test_blowup_detection_names_the_step(scheme):
    pot = PotentialSpec.tabulated(np.full(GRID.n, 700.0))
    cfg = make_config(scheme=scheme, potential=pot, tau=1.0, z_final=200.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowupError,
                           match=rf"step {BLOWUP_STEP[scheme]}/200 .*scheme={scheme.value},"):
            solve(cfg).final


def test_all_finite_scans_only_when_the_sum_is_not_finite():
    # 2n same-sign parts near 1e306 overflow their float sum but are all finite
    v = np.full(GRID.n, 1e306 + 1e306j)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(v.view(np.float64).sum())
        assert _all_finite(v) and _all_finite(np.ones(GRID.n, complex))
        for big in (v, np.ones(GRID.n, complex)):
            for bad in (math.nan, math.inf, -math.inf):
                for part in (bad, complex(0.0, bad)):
                    w = big.copy()
                    w[17] = part
                    assert not _all_finite(w), (big[0], part)


def test_solve_state_whose_sum_overflows_is_not_a_blowup():
    # mu0 = c delta has fft(mu0) = c everywhere; with no potential and a flow
    # within 1e-2 of 1 the 2n parts of every state stay near 5e305 and positive,
    # so their sum overflows at every step, though no value does
    c = 5e305 * (1 + 1j)
    ini = InitialDataSpec.tabulated([c] + [0.0] * (GRID.n - 1))
    zero = PotentialSpec.tabulated(np.zeros(GRID.n))
    for scheme in StepperKind:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflowing sum warns nothing either
            res = solve(make_config(scheme=scheme, potential=zero, initial=ini, tau=1e-6,
                                    z_final=1e-5))
        v = np.fft.fft(res.final.values)
        with np.errstate(over="ignore"):
            assert not np.isfinite(v.view(np.float64).sum())
        assert res.steps == 10 and np.all(v.real > 4e305) and np.all(v.imag > 4e305)


def physical_step(model, scheme, tau):
    """One step marched in values, with the transforms the formulas name:
    3 FFTs for ei, 4 for strang, 2 for lt and lri.  Its flow, phi1 weight,
    potential factor and lri filter are built here, not taken from precompute."""
    fft, ifft = np.fft.fft, np.fft.ifft
    r = sample_potential(GAUSS_POT, GRID, model.epsilon)
    theta = flow_phase(model, GRID, tau)
    flow, half, factor = np.exp(-1j * theta), np.exp(-0.5j * theta), np.exp(tau * r)
    if scheme is StepperKind.EI:
        weight = tau * phi1(-1j * theta)
        return lambda mu: ifft(flow * fft(mu) + weight * fft(r * mu))
    if scheme is StepperKind.LT:
        return lambda mu: ifft(flow * fft(factor * mu))
    if scheme is StepperKind.STRANG:
        return lambda mu: ifft(half * fft(factor * ifft(half * fft(mu))))
    filtered = ifft(phi1(1j * theta) * fft(r))
    return lambda mu: ifft(flow * fft(mu)) + tau * (filtered * mu)


@pytest.mark.parametrize("scheme,model", SCHEME_MODELS)
def test_fourier_state_loop_matches_physical_space_steps(scheme, model):
    tau = 0.005
    one_step = physical_step(model, scheme, tau)
    mu = sample_initial(GAUSS_INI, GRID)
    for k in range(1, 201):
        mu = one_step(mu)
        if k % 50 == 0:
            cfg = make_config(model=model, scheme=scheme, tau=tau, z_final=k * tau)
            res = solve(cfg)
            assert res.steps == k
            assert diff_norm(GRID, res.final.values, mu) <= 1e-11, (scheme, k)
            np.testing.assert_array_equal(solve(cfg).final.values, res.final.values)


# 20, 10, 50 and 25 steps to z_final 0.5: the 50-step row marches in lane 0
# and the 25-, 20- and 10-step rows in turn in lane 1, which outlives lane 0
# and so moves into it
LADDER = (0.025, 0.05, 0.01, 0.02)


@pytest.mark.parametrize("scheme,model", SCHEME_MODELS)
def test_stacked_ladder_is_bit_identical_to_lone_solves(scheme, model):
    cfg = make_config(model=model, scheme=scheme, tau=LADDER[0])
    res = solve(cfg, *LADDER[1:])
    assert res.steps == 105
    for tau, final in zip(LADDER, res.rows, strict=True):
        np.testing.assert_array_equal(final.values, solve(replace(cfg, tau=tau)).final.values)
    # at z_final 0 every row takes no step and keeps the sampled data
    still = solve(replace(cfg, z_final=0.0), *LADDER[1:])
    assert still.steps == 0 and len(still.rows) == len(LADDER)
    for final in still.rows:
        np.testing.assert_array_equal(final.values, sample_initial(GAUSS_INI, GRID))


@pytest.mark.parametrize("scheme,model", SCHEME_MODELS)
def test_a_tau_asked_twice_marches_once(scheme, model):
    # 20 steps at 0.025, asked first and last, and 10 at 0.05: the repeat
    # takes no lane, and both its positions get the one row and its seconds
    cfg = make_config(model=model, scheme=scheme, tau=0.025)
    res = solve(cfg, 0.05, 0.025)
    assert res.steps == 20 + 10
    first, coarse, again = res.rows
    assert again is first and res.seconds[2] == res.seconds[0]
    np.testing.assert_array_equal(first.values, solve(cfg).final.values)
    np.testing.assert_array_equal(coarse.values, solve(replace(cfg, tau=0.05)).final.values)
    # so with the repeat alone
    res = solve(cfg, 0.025)
    assert res.steps == 20 and res.rows[1] is res.rows[0]
    np.testing.assert_array_equal(res.final.values, first.values)


@pytest.mark.parametrize("scheme,model", SCHEME_MODELS)
def test_march_retires_a_row_of_no_steps_at_once(scheme, model):
    # rows of 3, 0 and 5 steps of different taus: the 0-step row retires
    # with mu itself, and each other row with the values of its lone march
    mu = sample_initial(GAUSS_INI, GRID)
    real = model.kappa % 2 == 1
    rows = [(count, lambda tau=tau: precompute(model, GRID, GAUSS_POT, scheme, tau))
            for count, tau in ((3, 0.05), (0, 0.02), (5, 0.01))]

    def march(rows):  # the steps taken, and per row its step and values
        out = dict(enumerate((k, values) for k, values, _ in _march(mu, real, rows)))
        return sum(k for k, _ in out.values()), out

    steps, out = march(rows)
    assert steps == 8 and out[1][0] == 0 and out[1][1] is mu
    for i in (0, 2):
        lone_steps, lone = march([rows[i]])
        assert out[i][0] == lone_steps == rows[i][0]
        np.testing.assert_array_equal(out[i][1], lone[0][1])


def test_a_ladder_row_that_blows_up_retires_alone():
    # R = 700 grows the solution like exp(700 z), past the float range
    # before z = 2: the finest row retires there with its own step, while
    # the coarsest, whose ei steps grow it about 701-fold each, marches on
    cfg = make_config(potential=PotentialSpec.tabulated(np.full(GRID.n, 700.0)), tau=1e-3,
                      z_final=2.0)
    res = solve(cfg, 1.0)
    fine, coarse = res.rows
    assert isinstance(fine, NumericalBlowupError)
    k = int(re.match(r"non-finite values at step (\d+)/2000 \(z=", str(fine)).group(1))
    assert 1000 < k < 2000 and res.steps == k + 2
    assert str(fine).endswith(f"(z={k * 1e-3:.6g}, scheme=ei, epsilon=0.5, tau=0.001)")
    np.testing.assert_array_equal(coarse.values, solve(replace(cfg, tau=1.0)).final.values)
    # a failed first row's error is raised by final
    with pytest.raises(NumericalBlowupError) as raised:
        res.final
    assert str(raised.value) == str(fine)


@pytest.mark.parametrize("scheme,model", SCHEME_MODELS)
def test_step_is_a_one_step_solve(scheme, model):
    # step() and solve() run one kernel: a single step agrees bit for bit
    tau = 0.05
    res = solve(make_config(model=model, scheme=scheme, tau=tau, z_final=tau))
    pc = precompute(model, GRID, GAUSS_POT, scheme, tau)
    assert res.steps == 1
    np.testing.assert_array_equal(step(sample_initial(GAUSS_INI, GRID), pc), res.final.values)


@pytest.mark.parametrize("scheme", list(StepperKind))
def test_odd_kappa_real_data_stays_exactly_real(scheme):
    # the Nyquist mode's flow is real, so real data has a real solution, and
    # the half-spectrum march returns it with no imaginary part at all
    res = solve(make_config(model=KDV, scheme=scheme, tau=0.01, z_final=0.5))
    assert res.steps == 50
    assert not res.final.values.imag.any()
    assert res.final.values.real.any()


@pytest.mark.parametrize("scheme", list(StepperKind))
def test_odd_kappa_real_path_matches_complex_path(scheme):
    # the problem is linear, so solving from 1j g on the complex path is 1j
    # times solving from g on the real path, up to rounding
    g = sample_initial(GAUSS_INI, GRID)
    real = solve(make_config(model=KDV, scheme=scheme, tau=0.01, z_final=0.5)).final
    cplx = solve(make_config(model=KDV, scheme=scheme, tau=0.01, z_final=0.5,
                             initial=InitialDataSpec.tabulated(1j * g))).final
    gap = x_norm(cplx - SpectralField(GRID, values=1j * real.values))
    assert gap <= 1e-13 * x_norm(cplx)


def test_all_schemes_hit_their_global_order_at_eps_one():
    model = DispersiveModel(2, (1.0,), 1.0, 1.0)
    grid = Grid(4.0, 128)
    z = 0.4
    taus = np.array([0.05, 0.025, 0.0125])
    ref_tau = 1e-3 / 2.0
    orders = {
        StepperKind.EI: 1.0,
        StepperKind.LT: 1.0,
        StepperKind.LRI: 1.0,
        StepperKind.STRANG: 2.0,
    }
    for scheme, order in orders.items():
        ref = solve(
            SolveConfig(model, grid, GAUSS_POT, GAUSS_INI, scheme, ref_tau, z)
        ).final
        errs = np.array(
            [
                x_norm(
                    solve(SolveConfig(model, grid, GAUSS_POT, GAUSS_INI, scheme, t, z)).final
                    - ref
                )
                for t in taus
            ]
        )
        fit = fit_rate(taus, errs)
        assert order - 0.15 <= fit.slope <= order + 0.3, (scheme, fit.slope)
