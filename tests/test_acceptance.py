"""Acceptance suite: ten numbered end-to-end checks with stated tolerances.

Each test prints one `[criterion N] PASS/FAIL` line (replayed in the terminal
summary by conftest) and asserts both the numerical claim and its runtime
budget.  Budgets are wall-clock on a single desk core.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from conftest import record_criterion

from dispersia.harness import SweepConfig, convergence_sweep, fit_rate, regularity_sweep
from dispersia.integrators import (
    SolveConfig,
    StepperKind,
    free_solution,
    precompute,
    solve,
)
from dispersia.model import (
    C0_FLOOR,
    DispersiveModel,
    eval_phase,
    eval_phase_factored,
    reduce_moment,
    search_lower_bound_constant,
)
from dispersia.presets import DESK_EPSILONS, DESK_TAUS, PRESETS, REFERENCE_TAU, get_preset
from dispersia.spectral import (
    Grid,
    InitialDataSpec,
    PotentialSpec,
    SpectralField,
    phi1,
    resolving_grid,
    sample_initial,
    sample_potential,
    x_norm,
)

GAUSS_WELL = PotentialSpec.gaussian(-1.0, 8.0)
ROUGH_WELL = PotentialSpec.exp_abs(-1.0)
GAUSS_INI = InitialDataSpec.gaussian()


def slope_for(result, **match):
    recs = [r for r in result.records
            if all(math.isclose(getattr(r, k), v) if isinstance(v, float)
                   else getattr(r, k) == v for k, v in match.items())]
    assert len(recs) >= 2, f"no records matching {match}"
    x = "tau" if len({r.tau for r in recs}) > 1 else "epsilon"
    return fit_rate([getattr(r, x) for r in recs], [r.error_x for r in recs]).slope


def band_over_eps(result):
    """Worst max/min spread of normalized errors across epsilon, per tau."""
    worst = 0.0
    for tau in sorted({r.tau for r in result.records}):
        vals = [r.normalized_error for r in result.records if r.tau == tau]
        worst = max(worst, max(vals) / min(vals))
    return worst


# ---------------------------------------------------------------------------
# 1. factored phase == subtractive phase


def test_criterion_1_phase_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260801)
    worst = 0.0
    total = 0
    for kappa in (2, 3, 4, 5):
        for _ in range(100):
            n_extra = (kappa + 1) // 2 - 1
            coeffs = (1.0, *rng.uniform(-2.0, 2.0, n_extra))
            alpha = kappa * rng.random()
            eps = 2.0 ** rng.uniform(-10.0, 0.0)
            model = DispersiveModel(kappa, coeffs, alpha, eps)
            xi1 = rng.uniform(-8.0, 8.0, 250)
            xi2 = rng.uniform(-8.0, 8.0, 250)
            direct = eval_phase(model, xi1, xi2)
            factored = eval_phase_factored(model, xi1, xi2)
            # both forms are certified to 2^-36 relative: no cancellation floor
            denom = np.maximum(np.abs(direct), np.abs(factored))
            worst = max(worst, float(np.max(np.abs(direct - factored) / denom)))
            total += xi1.size
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and elapsed < 5.0
    line = (f"[criterion 1] {'PASS' if ok else 'FAIL'} - phase identity: "
            f"max rel deviation {worst:.3e} <= 1e-10 over {total} samples, "
            f"kappa 2..5 ({elapsed:.1f}s < 5s)")
    record_criterion(line)
    assert total == 100_000
    assert ok, line


def preset_model_and_grid(preset):
    """The preset's model at its default epsilon, on the grid that resolves it."""
    eps = preset.default_epsilon
    model = DispersiveModel(preset.kappa, preset.coeffs, preset.alpha, eps)
    return model, resolving_grid(preset.half_width, eps)


# ---------------------------------------------------------------------------
# 2. free-flow exactness and isometry for every scheme on every preset


def test_criterion_2_free_flow_and_isometry():
    t0 = time.perf_counter()
    silent = PotentialSpec.gaussian(0.0, 1.0)
    worst_err = 0.0
    worst_iso = 0.0
    for name in sorted(PRESETS):
        preset = get_preset(name)
        model, grid = preset_model_and_grid(preset)
        initial = SpectralField(grid, values=sample_initial(preset.initial, grid))
        scale = x_norm(initial)
        for scheme in StepperKind:
            cfg = SolveConfig(model, grid, silent, preset.initial, scheme, preset.default_tau,
                              preset.z_final)
            free = free_solution(cfg)
            res = solve(cfg)
            worst_err = max(worst_err, x_norm(res.final - free) / scale)
            worst_iso = max(worst_iso, abs(x_norm(free) - scale) / scale)
    elapsed = time.perf_counter() - t0

    ok = worst_err <= 1e-12 and worst_iso <= 1e-12 and elapsed < 10.0
    line = (f"[criterion 2] {'PASS' if ok else 'FAIL'} - free flow: "
            f"scheme error {worst_err:.2e} <= 1e-12, X-norm drift {worst_iso:.2e} "
            f"<= 1e-12 over {len(PRESETS)} presets x 4 schemes ({elapsed:.1f}s < 10s)")
    record_criterion(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 3 + 4 share one desk-scale sweep


@pytest.fixture(scope="module")
def collapse_sweep():
    cfg = SweepConfig(
        kappa=2, coeffs=(1.0,), alpha=1.0,
        potential=GAUSS_WELL, initial=GAUSS_INI, half_width=16.0,
        epsilons=DESK_EPSILONS, taus=DESK_TAUS,
        reference_tau=REFERENCE_TAU,
    )
    t0 = time.perf_counter()
    result = convergence_sweep(cfg)
    assert not result.failures, result.failures
    return result, time.perf_counter() - t0


def test_criterion_3_time_order(collapse_sweep):
    result, elapsed = collapse_sweep
    slope = slope_for(result, epsilon=2.0**-6)

    ok = abs(slope - 1.0) <= 0.15 and elapsed < 180.0
    line = (f"[criterion 3] {'PASS' if ok else 'FAIL'} - tau order: "
            f"slope {slope:.3f} within 1.0 +/- 0.15 at eps=2^-6 "
            f"({elapsed:.0f}s < 180s)")
    record_criterion(line)
    assert ok, line


def test_criterion_4_epsilon_collapse(collapse_sweep):
    result, elapsed = collapse_sweep
    band = band_over_eps(result)

    ok = band <= 3.0 and elapsed < 600.0
    line = (f"[criterion 4] {'PASS' if ok else 'FAIL'} - eps collapse: "
            f"normalized errors within x{band:.2f} <= x3 across eps 2^-8..2^-4 "
            f"at every tau ({elapsed:.0f}s < 600s)")
    record_criterion(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 5. distance-to-free-flow rates in epsilon


def test_criterion_5_regularity_rates():
    t0 = time.perf_counter()
    base = dict(potential=GAUSS_WELL, initial=GAUSS_INI,
                epsilons=DESK_EPSILONS, taus=(), reference_tau=REFERENCE_TAU)
    r2 = regularity_sweep(SweepConfig(kappa=2, coeffs=(1.0,), alpha=1.0,
                                      half_width=16.0, **base))
    base["potential"] = ROUGH_WELL
    r3 = regularity_sweep(SweepConfig(kappa=3, coeffs=(1.0, 0.0), alpha=1.5,
                                      half_width=32.0, deriv_order=1, **base))
    assert not r2.failures and not r3.failures
    s2 = slope_for(r2, kappa=2)
    s3 = slope_for(r3, kappa=3)
    elapsed = time.perf_counter() - t0

    # measured on this desk window the kappa=2 rate is still climbing toward
    # its limit (local slopes 0.26 at 2^-4 up to 0.45 by 2^-10), so its fit
    # lands out of band; the kappa=3 j=1 fit, each eps on its own grid,
    # lands in band while its local slopes still drift toward 0
    ok2 = abs(s2 - 0.5) <= 0.1
    ok3 = abs(s3 - 0.0) <= 0.1
    ok = ok2 and ok3 and elapsed < 300.0
    line = (f"[criterion 5] {'PASS' if ok else 'FAIL'} - regularity rates: "
            f"kappa=2 slope {s2:.3f} vs 0.5 +/- 0.1 "
            f"({'ok' if ok2 else 'out of band'}); "
            f"kappa=3 j=1 slope {s3:.3f} vs 0.0 +/- 0.1 "
            f"({'ok' if ok3 else 'out of band'}) ({elapsed:.0f}s < 300s)")
    record_criterion(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 6. third-order collapse at the branch-balancing alpha


def test_criterion_6_kdv_collapse():
    t0 = time.perf_counter()
    cfg = SweepConfig(
        kappa=3, coeffs=(1.0, 0.0), alpha=0.75,
        potential=ROUGH_WELL, initial=GAUSS_INI, half_width=32.0,
        epsilons=DESK_EPSILONS, taus=DESK_TAUS,
        reference_tau=REFERENCE_TAU,
    )
    result = convergence_sweep(cfg)
    assert not result.failures, result.failures
    band = band_over_eps(result)
    elapsed = time.perf_counter() - t0

    ok = band <= 3.0 and elapsed < 600.0
    line = (f"[criterion 6] {'PASS' if ok else 'FAIL'} - kappa=3 collapse: "
            f"errors over eps^(3/2) within x{band:.2f} <= x3 "
            f"({elapsed:.0f}s < 600s)")
    record_criterion(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 7. splitting regimes: small-tau orders and the large-tau crossover


def test_criterion_7_splitting_regimes():
    t0 = time.perf_counter()
    eps = 2.0**-8
    sweep = SweepConfig(
        kappa=2, coeffs=(1.0,), alpha=1.0,
        potential=GAUSS_WELL, initial=GAUSS_INI, half_width=16.0,
        epsilons=(eps,), taus=(2.0**-10, 2.0**-11, 2.0**-12),
        schemes=(StepperKind.LT, StepperKind.STRANG),
        reference_scheme=StepperKind.STRANG, reference_tau=2.0**-14,  # min(taus)/4
    )
    result = convergence_sweep(sweep)
    assert not result.failures, result.failures
    lt_slope = slope_for(result, scheme="lt")
    st_slope = slope_for(result, scheme="strang")

    # crossover: one large step per unit interval dwarfs the splitting error
    mk = lambda scheme, tau: replace(sweep.cell(eps), scheme=scheme, tau=tau)
    ref = solve(mk(StepperKind.EI, 1e-4)).final
    ei_err = x_norm(solve(mk(StepperKind.EI, 0.05)).final - ref)
    lt_err = x_norm(solve(mk(StepperKind.LT, 0.05)).final - ref)
    ratio = lt_err / ei_err
    elapsed = time.perf_counter() - t0

    ok = (abs(lt_slope - 1.0) <= 0.2 and abs(st_slope - 2.0) <= 0.2
          and ratio >= 10.0 and elapsed < 300.0)
    line = (f"[criterion 7] {'PASS' if ok else 'FAIL'} - splitting: "
            f"small-tau slopes lt {lt_slope:.3f} (1.0 +/- 0.2), "
            f"strang {st_slope:.3f} (2.0 +/- 0.2); at tau=0.05 lt/ei error "
            f"ratio {ratio:.1f} >= 10 ({elapsed:.0f}s < 300s)")
    record_criterion(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 8. filtered potential: direct symbol route == stretched-variable route


def lri_filter_rescaled(model, grid, potential, tau):
    """The LRI filtered potential via the stretched-variable route.

    Working at y = x/eps, the filter phi1(-i tau eps^a D) applied to R(x/eps)
    equals phi1(-i tau eps^(a-kappa) D~) applied to R(y), where D~ carries
    eps^(2j)-weighted coefficients.  This evaluator takes that second route on
    the stretched grid (half width L/eps, same n) and is kept deliberately
    separate from precompute() as an independent cross-check path.
    """
    eps = model.epsilon
    sgrid = Grid(grid.half_width / eps, grid.n)
    r = sample_potential(potential, sgrid, 1.0)
    # P~(xi) = sum_j d_{k-2j} eps^(2j) xi^(k-2j), evaluated directly
    p = np.zeros_like(sgrid.xi)
    for j, d in enumerate(model.coeffs):
        p += d * eps ** (2 * j) * sgrid.xi ** (model.kappa - 2 * j)
    if model.kappa % 2:
        p[grid.n // 2] = 0.0  # flow_phase's Nyquist rule
    theta = tau * eps ** (model.alpha - model.kappa) * p
    return np.fft.ifft(phi1(1j * theta) * np.fft.fft(r.astype(np.complex128)))


def test_criterion_8_filter_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for name in sorted(PRESETS):
        preset = get_preset(name)
        model, grid = preset_model_and_grid(preset)
        pc = precompute(model, grid, preset.potential, StepperKind.LRI,
                        preset.default_tau)
        rescaled = lri_filter_rescaled(model, grid, preset.potential,
                                       preset.default_tau)
        worst = max(worst, float(np.max(np.abs(pc.weight - rescaled))))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and elapsed < 5.0
    line = (f"[criterion 8] {'PASS' if ok else 'FAIL'} - filter identity: "
            f"max gap {worst:.2e} <= 1e-10 over {len(PRESETS)} presets "
            f"({elapsed:.1f}s < 5s)")
    record_criterion(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 9. moment reduction against the brute-force binomial expansion


def brute_reduction(kappa, sign, lam):
    keep = 0 if sign == "+" else 1
    lam_q = Fraction(lam)
    out = {}
    for j in range(kappa + 1):
        if j % 2 != keep:
            continue
        c = (Fraction(math.comb(kappa, j))
             * lam_q ** (kappa - j) / Fraction(2 ** (kappa - j)) * 2)
        if c != 0:
            out[j] = c
    return out


def test_criterion_9_moment_reduction():
    t0 = time.perf_counter()
    beta = Fraction(3, 2)
    checked = 0
    for kappa in range(2, 7):
        for sign in ("+", "-"):
            for lam in (3.0, -3.0, 1.0, -1.0, 0.5, -0.5):
                want = brute_reduction(kappa, sign, lam)
                if all(j == 0 for j in want):
                    continue  # no derivative term survives; reduction degenerates
                got = reduce_moment(kappa, beta, sign, lam)
                assert got.alpha == Fraction(kappa) - 1 / beta  # exact, no rounding
                assert set(got.c) == set(want)
                for j, frac in want.items():
                    assert got.sign_factor * got.c[j] == float(frac), (kappa, sign, lam, j)
                if sign == "+":
                    assert got.dropped_constant == got.c.get(0)
                checked += 1
    elapsed = time.perf_counter() - t0

    ok = elapsed < 1.0
    line = (f"[criterion 9] {'PASS' if ok else 'FAIL'} - moment reduction: "
            f"{checked} cases kappa<=6 match the exact expansion, alpha exact "
            f"({elapsed:.2f}s < 1s)")
    record_criterion(line)
    assert checked == 60
    assert ok, line


# ---------------------------------------------------------------------------
# 10. certified positive lower-bound ratio on the phase


def test_criterion_10_phase_lower_bound():
    t0 = time.perf_counter()
    axis = np.linspace(-8.0, 8.0, 400)
    outcomes = []
    for kappa, coeffs in ((2, (1.0,)), (3, (1.0, 0.0)), (4, (1.0, -1.0))):
        model = DispersiveModel(kappa, coeffs, 1.0, 2.0**-6)
        report = search_lower_bound_constant(model, axis, axis)
        assert report.min_ratio >= C0_FLOOR  # the search found its constant
        assert report.admissible_count > 0
        outcomes.append(f"kappa={kappa}: C0={report.c0:g} minRatio={report.min_ratio:.4g}")
    elapsed = time.perf_counter() - t0

    ok = elapsed < 10.0
    line = (f"[criterion 10] {'PASS' if ok else 'FAIL'} - phase lower bound: "
            f"{'; '.join(outcomes)} on 400x400 ({elapsed:.1f}s < 10s)")
    record_criterion(line)
    assert ok, line
