"""Rate fitting, normalizers, and the sweep drivers.

The sweep invariants checked here: the Richardson truth dominates (halving
the reference step moves measured errors by under 1%), errors shrink with tau
up to a 10% band, and normalized_error times the normalizer reproduces error_x.
"""

import functools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dispersia import harness
from dispersia.harness import (
    CellFailure,
    ErrorRecord,
    SweepConfig,
    SweepResult,
    compare_methods,
    convergence_sweep,
    error_normalizer,
    error_x,
    fit_rate,
    measure,
    regularity_normalizer,
    regularity_sweep,
    richardson_truth,
    splitting_threshold,
)
from dispersia.integrators import (NumericalBlowupError, SolveConfig, StepperKind,
                                  free_solution, solve)
from dispersia.model import DispersiveModel, eval_q, expected_regularity_exponent, reduce_moment
from dispersia.presets import DESK_EPSILONS, DESK_TAUS, REFERENCE_TAU, get_preset
from dispersia.spectral import (Grid, InitialDataSpec, MeshResolutionError,
                                MeshResolutionWarning, PotentialSpec, SpectralField,
                                resolving_grid, sample_initial, sample_potential, x_norm)


def small_sweep_config(**kw):
    defaults = dict(
        kappa=2,
        coeffs=(1.0,),
        alpha=1.0,
        potential=PotentialSpec.gaussian(-1.0, 1.0),
        initial=InitialDataSpec.gaussian(),
        half_width=4.0,
        epsilons=(0.5,),
        taus=(0.05, 0.025, 0.0125),
        z_final=0.4,
        reference_tau=1e-3,
        grid_n=128,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


# ---------------------------------------------------------------------------
# fit_rate


def test_fit_rate_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_rate(x, x**2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 4


def test_fit_rate_two_points():
    fit = fit_rate([1.0, 10.0], [5.0, 50.0])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)


def test_fit_rate_noisy_power_law():
    rng = np.random.default_rng(42)
    x = np.geomspace(1.0, 10.0, 8)
    y = 3.0 * x**1.5 * (1.0 + 0.01 * rng.standard_normal(8))
    fit = fit_rate(x, y)
    assert fit.slope == pytest.approx(1.5, abs=0.05)
    assert fit.r_squared > 0.999


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([1.0], [1.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, -2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0], [0.0, 2.0])


# ---------------------------------------------------------------------------
# normalizers


def test_error_normalizer_figure_style():
    eps = 2.0**-6
    # kappa=2, alpha=1: second branch dominates, log factor present
    want = eps * math.log(64.0)
    assert error_normalizer(2, 1.0, eps) == pytest.approx(want, rel=1e-14, abs=0.0)
    # kappa=2, alpha=0.5: first branch dominates, no log
    assert error_normalizer(2, 0.5, eps) == pytest.approx(eps**1.25, rel=1e-14, abs=0.0)
    # kappa=3 never carries the log
    assert error_normalizer(3, 3.0, eps) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert error_normalizer(3, 0.75, eps) == pytest.approx(eps**1.5, rel=1e-14, abs=0.0)


def test_regularity_normalizer():
    eps = 0.25
    assert regularity_normalizer(2, 1.0, 0, eps) == pytest.approx(math.sqrt(eps))
    assert regularity_normalizer(2, 1.0, 1, eps) == pytest.approx(math.log(4.0))
    assert regularity_normalizer(3, 1.5, 1, eps) == pytest.approx(1.0)


def test_splitting_threshold():
    assert splitting_threshold(2, 1.0, 0.25) == pytest.approx(0.25)
    assert splitting_threshold(3, 1.5, 0.25) == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# error_x


def test_error_x_requires_matching_grids():
    a = SpectralField(Grid(4.0, 64), values=np.ones(64, dtype=complex))
    b = SpectralField(Grid(4.0, 128), values=np.ones(128, dtype=complex))
    with pytest.raises(ValueError):
        error_x(a, b)


# ---------------------------------------------------------------------------
# SweepConfig


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="schemes"):
        small_sweep_config(schemes=("bogus",))
    with pytest.raises(ValueError, match="reference_scheme"):
        small_sweep_config(reference_scheme="bogus")
    with pytest.raises(ValueError, match="^epsilons: "):
        small_sweep_config(epsilons=())
    with pytest.raises(ValueError, match="^epsilons: "):
        small_sweep_config(epsilons=(1.5,))
    with pytest.raises(ValueError, match="^epsilons: "):
        small_sweep_config(epsilons=(math.nan,))
    # the pair at reference_tau and twice it sits at most at min(taus)/4
    with pytest.raises(ValueError, match=r"^reference_tau: must be at most min\(taus\)/4 = "
                                         r"0.003125, got 0.01$"):
        small_sweep_config(reference_tau=0.01)
    for fine_enough in (0.003125, 0.0025):
        assert small_sweep_config(reference_tau=fine_enough).reference_tau == fine_enough
    # every step size is finite, positive and divides z_final = 0.4
    for bad in (math.nan, math.inf, -math.inf, 0.0, -0.05, 0.3):
        with pytest.raises(ValueError, match="^taus: "):
            small_sweep_config(taus=(0.05, bad))
        with pytest.raises(ValueError, match="^reference_tau: "):
            small_sweep_config(reference_tau=bad)
    for bad in (math.nan, math.inf, -0.4):
        with pytest.raises(ValueError, match="^z_final: "):
            small_sweep_config(z_final=bad)
    with pytest.raises(ValueError, match="^reference_tau: .*integer step count"):
        small_sweep_config(reference_tau=3e-4)
    # the model, the derivative order and the grid are refused before any cell runs
    for key, bad in (("kappa", 1), ("alpha", 9.0), ("coeffs", (2.0,)), ("deriv_order", -1),
                     ("deriv_order", 0.5), ("half_width", -1.0), ("half_width", math.inf),
                     ("grid_n", 12), ("potential", PotentialSpec.tabulated([0.0] * 3)),
                     ("initial", InitialDataSpec.tabulated([1.0] * 127))):
        with pytest.raises(ValueError, match=f"^{key}: "):
            small_sweep_config(**{key: bad})
    with pytest.raises(ValueError, match="^half_width: "):
        small_sweep_config(half_width=-1.0, grid_n=None)
    cfg = small_sweep_config(schemes=("ei", "strang"))
    assert cfg.schemes == (StepperKind.EI, StepperKind.STRANG)
    with pytest.raises(TypeError, match="workers"):  # a sweep runs its cells in order
        small_sweep_config(workers=2)


def test_sweep_config_refuses_a_reference_tau_whose_quadruple_does_not_divide_z_final():
    # 1/0.2 = 5 steps, but the truth's coarse row at 0.4 would take 2.5; 1/0.1
    # = 10 is even, but its third row at 0.4 would take 2.5 too
    for tau_r, steps in ((0.2, 5), (0.1, 10)):
        with pytest.raises(ValueError, match="^reference_tau: .*must be a multiple of 4, "
                                             f"got {steps}$"):
            small_sweep_config(taus=(1.0,), z_final=1.0, reference_tau=tau_r)
    assert small_sweep_config(taus=(1.0,), z_final=1.0, reference_tau=0.125).reference_tau \
        == 0.125
    # a regularity sweep runs reference_tau alone, so its step count may be odd
    assert small_sweep_config(taus=(), z_final=1.0, reference_tau=0.2).reference_tau == 0.2


def test_sweep_runs_with_numpy_integer_fields():
    # SweepConfig stores deriv_order as int, which the error norm needs; the
    # model and the grid take a numpy kappa and grid_n and store int
    cfg = small_sweep_config(taus=(0.05,), deriv_order=np.int64(1),
                             kappa=np.int64(2), grid_n=np.int64(128))
    assert type(cfg.deriv_order) is int
    assert type(cfg.cell(0.5).model.kappa) is int and type(cfg.cell(0.5).grid.n) is int
    result = convergence_sweep(cfg)
    assert not result.failures
    assert [(r.tau, r.j) for r in result.records] == [(0.05, 1)]


def test_library_integers_take_numpy_ints_and_refuse_bools():
    f = SpectralField(Grid(8.0, 64), values=np.ones(64))
    assert reduce_moment(np.int64(3), 1.0, "-", 2.0) == reduce_moment(3, 1.0, "-", 2.0)
    assert expected_regularity_exponent(3, 1.0, np.int64(1)) == \
        expected_regularity_exponent(3, 1.0, 1)
    assert x_norm(f, np.int64(1)) == x_norm(f, 1)
    assert eval_q(np.int64(3), 1.0, 2.0) == eval_q(3, 1.0, 2.0)
    for key, call in (("deriv_order", lambda: expected_regularity_exponent(2, 1.0, True)),
                      ("deriv_order", lambda: x_norm(f, True)),
                      ("r", lambda: eval_q(True, 1.0, 2.0))):
        with pytest.raises(ValueError, match=f"^{key}: must be an integer >= "):
            call()


def test_sweep_grid_auto_sizing():
    # each eps cell runs on the grid a solve at that eps runs on
    cfg = small_sweep_config(half_width=16.0, epsilons=(0.0625, 0.05), grid_n=None)
    assert cfg.cell(0.0625).grid.n == 512  # 2L/eps = 512 exactly
    assert cfg.cell(0.05).grid.n == 1024  # next power of two above 640
    # a given grid_n applies to every cell
    cfg = small_sweep_config(epsilons=(0.5, 0.25), grid_n=256)
    assert [cfg.cell(e).grid.n for e in cfg.epsilons] == [256, 256]


# ---------------------------------------------------------------------------
# convergence sweep


@pytest.fixture(scope="module")
def small_sweep():
    cfg = small_sweep_config()
    return cfg, convergence_sweep(cfg)


def test_convergence_sweep_shape(small_sweep):
    cfg, result = small_sweep
    assert not result.failures
    assert len(result.records) == len(cfg.taus)
    assert cfg.cell(0.5).grid.n == 128
    assert all(r.scheme == "ei" and r.epsilon == 0.5 for r in result.records)
    # records are sorted by (scheme, epsilon, tau, j)
    assert [r.tau for r in result.records] == sorted(cfg.taus)


def test_convergence_sweep_monotone_in_tau(small_sweep):
    _, result = small_sweep
    errs = [r.error_x for r in result.records]  # ascending tau
    for smaller, larger in zip(errs, errs[1:]):
        assert smaller <= larger * 1.1


def test_convergence_sweep_normalization_identity(small_sweep):
    cfg, result = small_sweep
    for r in result.records:
        back = r.normalized_error * error_normalizer(r.kappa, r.alpha, r.epsilon)
        assert back == pytest.approx(r.error_x, rel=1e-14, abs=0.0)


def test_convergence_sweep_reference_dominates(small_sweep):
    cfg, result = small_sweep
    finest = min(result.records, key=lambda r: r.tau)
    # recompute the same cell against the truth of a pair twice as fine
    base = replace(cfg.cell(0.5), tau=cfg.reference_tau / 2.0)
    ref2, _ = richardson_truth(base)
    test_run = solve(replace(base, tau=finest.tau)).final
    err2 = error_x(test_run, ref2)
    assert abs(finest.error_x - err2) <= 0.01 * err2


def test_convergence_sweep_rate_slope(small_sweep):
    _, result = small_sweep
    rates = result.rates_by_group()
    assert len(rates) == 1
    label, fit = rates[0]
    assert label == "scheme=ei,epsilon=0.5,x=tau"
    assert fit.slope == pytest.approx(1.0, abs=0.15)
    assert fit.n_points == 3


def blow_up_at(epsilon):
    """harness.solve, raising NumericalBlowupError for every solve at epsilon."""
    def solve_or_blow_up(config, *taus, **kw):
        if config.model.epsilon == epsilon:
            raise NumericalBlowupError("non-finite values at step 1/1")
        return solve(config, *taus, **kw)
    return solve_or_blow_up


def test_sweep_cell_failure_continues(monkeypatch):
    # the reference at eps 0.25 blows up: that cell fails once per scheme, and
    # the other epsilon still produces every record
    monkeypatch.setattr(harness, "solve", blow_up_at(0.25))
    cfg = small_sweep_config(epsilons=(0.5, 0.25), taus=(0.05,), schemes=("ei", "lt"))
    result = convergence_sweep(cfg)
    assert [(r.scheme, r.epsilon) for r in result.records] == [("ei", 0.5), ("lt", 0.5)]
    assert [f.cell for f in result.failures] == ["scheme=ei,epsilon=0.25",
                                                 "scheme=lt,epsilon=0.25"]
    for f in result.failures:
        assert f.message == "NumericalBlowupError: non-finite values at step 1/1"


def test_a_row_that_blows_up_fails_only_its_own_cell_or_tau(monkeypatch):
    # R = 700 overflows every march finer than tau 1 before z = 2; ei and lri
    # steps of tau 1 grow the solution only about 701-fold each
    cfg = small_sweep_config(potential=PotentialSpec.tabulated(np.full(128, 700.0)),
                             taus=(1e-3, 1.0), schemes=("ei", "lri"), z_final=2.0,
                             reference_tau=2.5e-4)
    # a truth row that blows up fails the cell once per scheme
    result = convergence_sweep(cfg)
    assert not result.records
    assert [f.cell for f in result.failures] == ["scheme=ei,epsilon=0.5",
                                                 "scheme=lri,epsilon=0.5"]
    for f in result.failures:
        assert f.message.startswith("NumericalBlowupError: non-finite values at step ")
        assert f.message.endswith("scheme=ei, epsilon=0.5, tau=0.00025)")
    # against a finite truth, each scheme's finest row fails alone and its
    # coarsest is measured
    monkeypatch.setattr(harness, "richardson_truth",
                        lambda config, j: (free_solution(config), None))
    result = convergence_sweep(cfg)
    assert [(r.scheme, r.tau) for r in result.records] == [("ei", 1.0), ("lri", 1.0)]
    assert [f.cell for f in result.failures] == ["scheme=ei,epsilon=0.5,tau=0.001",
                                                 "scheme=lri,epsilon=0.5,tau=0.001"]
    for f, scheme in zip(result.failures, ("ei", "lri")):
        assert f.message.startswith("NumericalBlowupError: non-finite values at step ")
        assert f.message.endswith(f"scheme={scheme}, epsilon=0.5, tau=0.001)")


def test_sweep_config_refuses_a_grid_too_coarse_for_one_epsilon():
    # h = 0.5 resolves eps 0.6 but exceeds 4 * 0.1: refused before any cell
    # runs, under grid_n; h in (eps, 4 eps] only warns
    with pytest.raises(MeshResolutionError, match=r"^grid_n: grid spacing h=0.5 exceeds "
                                                  r"4\*epsilon=0.4"):
        small_sweep_config(half_width=16.0, epsilons=(0.6, 0.1), grid_n=64)
    with pytest.warns(MeshResolutionWarning, match="exceeds epsilon=0.25"):
        small_sweep_config(half_width=16.0, epsilons=(0.6, 0.25), grid_n=64)


# ---------------------------------------------------------------------------
# regularity sweep


def test_regularity_sweep_zero_potential_is_free():
    cfg = small_sweep_config(
        potential=PotentialSpec.gaussian(0.0, 1.0),
        epsilons=(0.5, 0.25),
        taus=(),
        reference_tau=2e-3,
        z_final=1.0,
    )
    result = regularity_sweep(cfg)
    assert not result.failures
    assert len(result.records) == 2
    for r in result.records:
        assert r.error_x <= 1e-12
        assert r.tau == cfg.reference_tau


def test_regularity_sweep_normalization_and_orders():
    cfg = small_sweep_config(
        epsilons=(0.5, 0.25),
        taus=(),
        reference_tau=2e-3,
        z_final=0.5,
        deriv_order=1,
        grid_n=64,
    )
    result = regularity_sweep(cfg)
    assert not result.failures
    for r in result.records:
        assert r.j == 1
        norm = regularity_normalizer(r.kappa, r.alpha, r.j, r.epsilon)
        assert r.normalized_error * norm == pytest.approx(r.error_x, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# compare_methods


def test_compare_methods_needs_two_schemes():
    with pytest.raises(ValueError):
        compare_methods(small_sweep_config())


def test_compare_methods_regime_tags_and_strang_scaling():
    cfg = small_sweep_config(
        epsilons=(0.25, 0.125),
        taus=(0.4, 0.02, 0.01),
        schemes=("lt", "strang"),
        grid_n=128,
        reference_tau=1e-3,
        z_final=0.4,
    )
    result = compare_methods(cfg)
    assert not result.failures
    for r in result.records:
        want = "small_tau" if r.tau <= r.epsilon else "large_tau"  # kappa-alpha = 1
        assert r.regime == want
    # in the small-tau regime the strang error magnitude tracks tau^2/eps
    consts = [
        r.error_x * r.epsilon / r.tau**2
        for r in result.records
        if r.scheme == "strang" and r.regime == "small_tau"
    ]
    assert len(consts) >= 4
    assert max(consts) / min(consts) <= 5.0


def test_compare_methods_shares_the_reference_exactly():
    # every scheme and tau of an eps is measured against the one Richardson
    # pair of that eps, w_fine R(tau_r) + w_coarse R(2 tau_r) with weights
    # of the reference scheme's order, so each error is bit-identical to a
    # direct recompute
    p = get_preset("schrodinger-a1")
    grid = Grid(p.half_width, 256)
    for reference_scheme, (w_fine, w_coarse) in (("ei", (2.0, -1.0)),
                                                 ("strang", (4.0 / 3.0, -1.0 / 3.0))):
        cfg = SweepConfig(
            kappa=p.kappa, coeffs=p.coeffs, alpha=p.alpha, potential=p.potential,
            initial=p.initial, half_width=p.half_width, epsilons=(0.125, 0.25),
            taus=(0.005, 0.01), schemes=("ei", "lt", "strang", "lri"), z_final=0.01,
            reference_scheme=reference_scheme, grid_n=256,
        )
        result = compare_methods(cfg)
        assert not result.failures
        assert len(result.records) == 2 * 2 * 4
        for r in result.records:
            mk = lambda scheme, tau: SolveConfig(
                model=DispersiveModel(p.kappa, p.coeffs, p.alpha, r.epsilon), grid=grid,
                potential=p.potential, initial=p.initial, scheme=scheme, tau=tau,
                z_final=0.01)
            fine = solve(mk(reference_scheme, cfg.reference_tau)).final
            coarse = solve(mk(reference_scheme, 2.0 * cfg.reference_tau)).final
            ref = SpectralField(grid, values=w_fine * fine.values + w_coarse * coarse.values)
            assert r.error_x == error_x(solve(mk(r.scheme, r.tau)).final, ref)


def test_compare_solves_the_reference_pair_and_each_test_once_per_eps(monkeypatch):
    # per eps: one solve of the reference scheme with rows at reference_tau,
    # twice it and four times it, then one solve per scheme with a row per
    # tau, all through harness.solve
    calls = Counter()

    def counting_solve(config, *taus, **kw):
        calls[(config.model.epsilon, config.scheme.value, (config.tau, *taus))] += 1
        return solve(config, *taus, **kw)

    monkeypatch.setattr(harness, "solve", counting_solve)
    cfg = small_sweep_config(epsilons=(0.5, 0.25), taus=(0.05, 0.025), schemes=("ei", "lt"))
    assert not compare_methods(cfg).failures
    tau_r = cfg.reference_tau
    marches = [("ei", (tau_r, 2.0 * tau_r, 4.0 * tau_r)), ("ei", (0.05, 0.025)),
               ("lt", (0.05, 0.025))]
    assert calls == Counter({(eps, s, rows): 1 for eps in (0.5, 0.25) for s, rows in marches})


# ---------------------------------------------------------------------------
# the Richardson truth against a Taylor-series truth

@functools.cache
def taylor_truth(name: str, eps: float) -> SpectralField:
    """The preset's solution at eps and z_final on the grid that resolves
    eps, exp(z_final A) mu0 for A v = ifft(-i eps^a P(xi) fft(v)) + R_eps v,
    the semi-discrete problem every scheme approximates, with flow_phase's
    Nyquist rule for odd kappa.  The Taylor series of the exponential is
    summed to rounding in substeps dt with rho dt <= 1, rho = max eps^a
    |P(xi)| + max |R_eps| bounding the norm of A, so that no term outgrows
    the sum."""
    p = get_preset(name)
    grid = resolving_grid(p.half_width, eps)
    poly = sum(c * grid.xi ** (p.kappa - 2 * j) for j, c in enumerate(p.coeffs))
    if p.kappa % 2:
        poly[grid.n // 2] = 0.0  # the mean of P(+-pi/h), as spectral.flow_phase takes it
    symbol = -1j * eps**p.alpha * poly
    r = sample_potential(p.potential, grid, eps)
    substeps = math.ceil((np.max(np.abs(symbol)) + np.max(np.abs(r))) * p.z_final)
    dt = p.z_final / substeps
    v = sample_initial(p.initial, grid).astype(np.complex128)
    for _ in range(substeps):
        term, total, k = v, v.copy(), 0
        while np.max(np.abs(term)) > 1e-17 * np.max(np.abs(total)):
            k += 1
            term = (dt / k) * (np.fft.ifft(symbol * np.fft.fft(term)) + r * term)
            total += term
        v = total
    return SpectralField(grid, values=v)


# ei on the finest desk steps, against the pair at the desk's reference_tau
EI_TAUS = (1e-3, 2e-3, 5e-3, 1e-2)
# Strang in its tau^2 regime, which on the rough well starts near 2^-10,
# against the pair at min(taus)/4
STRANG_TAUS = (2.0**-12, 2.0**-11, 2.0**-10)


@pytest.mark.parametrize("name,eps,scheme,taus,order,band,rounding", [
    # n = 512 and 1024 at eps 2^-4
    pytest.param("schrodinger-a1", 2.0**-4, "ei", EI_TAUS, 1, 0.05, False,
                 id="ei-schrodinger-a1"),
    pytest.param("kdv-a3/2", 2.0**-4, "ei", EI_TAUS, 1, 0.05, False, id="ei-kdv-a3/2"),
    pytest.param("schrodinger-a1", 2.0**-4, "strang", STRANG_TAUS, 2, 0.1, True,
                 id="strang-schrodinger-a1"),
    pytest.param("kdv-a3/2", 2.0**-4, "strang", STRANG_TAUS, 2, 0.1, False,
                 id="strang-kdv-a3/2"),
    # criterion 7's kind of cell: the Strang pair at min(taus)/4 on the Gaussian well, n = 2048
    pytest.param("schrodinger-a1", 2.0**-6, "strang", STRANG_TAUS, 2, 0.1, True,
                 id="strang-schrodinger-a1-eps2^-6"),
])
def test_richardson_truth_is_certified_by_a_taylor_truth(monkeypatch, name, eps, scheme, taus,
                                                         order, band, rounding):
    # a sweep of scheme against its own pair; the truth and the finals it
    # hands to measure are held against the Taylor truth, and so is the
    # truth's certificate
    p = get_preset(name)
    cfg = SweepConfig(kappa=p.kappa, coeffs=p.coeffs, alpha=p.alpha, potential=p.potential,
                      initial=p.initial, half_width=p.half_width, epsilons=(eps,),
                      taus=taus, schemes=(scheme,), reference_scheme=scheme,
                      reference_tau=REFERENCE_TAU if scheme == "ei" else taus[0] / 4)
    seen = {}

    def recording_measure(config, truth, j, rate):
        record = measure(config, truth, j, rate)

        def recording(tau, final, seconds):
            seen[tau] = truth, final
            return record(tau, final, seconds)
        return recording

    monkeypatch.setattr(harness, "measure", recording_measure)
    result = convergence_sweep(cfg)
    assert not result.failures
    exact = taylor_truth(name, eps)
    errors = [error_x(seen[tau][1], exact) for tau in taus]
    truth_error = error_x(seen[taus[0]][0], exact)
    # the truth's own error is under 1% of the smallest-tau error it measures
    assert truth_error <= 0.01 * errors[0]
    assert fit_rate(taus, errors).slope == pytest.approx(order, abs=band)
    (reference,) = result.references
    assert abs(reference.observed_order - order) <= 0.02
    assert reference.self_error_ratio == \
        reference.self_error / min(r.error_x for r in result.records)
    if not rounding:
        # the three-level estimate reads the pair's own error
        assert 0.8 * truth_error <= reference.self_error <= 1.25 * truth_error
    else:
        # 16,384 Strang steps on the smooth well leave the pair at the
        # rounding floor, which grows with the step count and which no tau
        # expansion holds: the estimate reads about 1/20 of it
        assert truth_error <= 1e-10
        assert reference.self_error <= 0.1 * truth_error


def test_certificate_reads_an_lri_truth_off_its_order():
    # lri's error has no clean tau expansion on the rough well at eps 2^-6
    p = get_preset("kdv-a3/2")
    cfg = SweepConfig(kappa=p.kappa, coeffs=p.coeffs, alpha=p.alpha, potential=p.potential,
                      initial=p.initial, half_width=p.half_width, epsilons=(2.0**-6,),
                      taus=(1e-2,), schemes=("lri",), reference_scheme="lri",
                      reference_tau=5e-4)
    _, reference = richardson_truth(cfg.cell(2.0**-6))
    assert (reference.scheme, reference.order, reference.grid_n) == ("lri", 1, 4096)
    assert abs(reference.observed_order - 1) > 0.1


# ---------------------------------------------------------------------------
# the rule that picks a ladder sweep's truth


def preset_sweep(name, **kw):
    """The preset's ladder sweep with no reference key, as the CLI builds it."""
    p = get_preset(name)
    fields = dict(kappa=p.kappa, coeffs=p.coeffs, alpha=p.alpha, potential=p.potential,
                  initial=p.initial, half_width=p.half_width, epsilons=DESK_EPSILONS,
                  taus=DESK_TAUS, z_final=p.z_final)
    return SweepConfig(**{**fields, **kw})


def test_a_ladder_sweep_given_no_reference_key_runs_the_rules_truth():
    strang, ei = StepperKind.STRANG, StepperKind.EI
    for name, kw, want in [
        # eps/8 is 2^-10 at eps 2^-7, and 2^-11 at the desk window's 2^-8
        ("schrodinger-a1", dict(epsilons=(2.0**-7,)), (strang, 2.0**-10)),
        ("schrodinger-a1", {}, (strang, 2.0**-11)),
        # eps^(2/3)/8 at 2^-8 lies between 2^-9 and 2^-8
        ("schrodinger-a4/3", {}, (strang, 2.0**-10)),
        # eps^(5/4)/8 at 2^-8 is 2^-13
        ("schrodinger-a3/4", {}, (ei, REFERENCE_TAU)),
        # the rough well
        ("kdv-a1", {}, (ei, REFERENCE_TAU)),
        ("kdv-a3/2", {}, (ei, REFERENCE_TAU)),
        ("kdv-a2", {}, (ei, REFERENCE_TAU)),
        # 4 tau_r = 2^-8 does not divide 0.2, and z_final 0 takes no step
        ("schrodinger-a1", dict(z_final=0.2), (ei, REFERENCE_TAU)),
        ("schrodinger-a1", dict(z_final=0.0), (ei, REFERENCE_TAU)),
    ]:
        cfg = preset_sweep(name, **kw)
        assert (cfg.reference_scheme, cfg.reference_tau) == want, (name, kw)
        assert cfg.gates_reference == (want[0] is strang), (name, kw)
    # the rule's Strang truth is certified, so min(taus)/4 does not bound it
    assert 2.0**-10 > min(DESK_TAUS) / 4


def test_a_given_reference_key_keeps_the_truth_it_names():
    strang, ei = StepperKind.STRANG, StepperKind.EI
    one_eps = dict(epsilons=(2.0**-7,))
    for kw, want in [
        (dict(reference_scheme="ei"), (ei, REFERENCE_TAU)),
        (dict(reference_tau=1e-4), (ei, 1e-4)),
        (dict(reference_scheme="strang", reference_tau=2.0**-12), (strang, 2.0**-12)),
    ]:
        cfg = preset_sweep("schrodinger-a1", **one_eps, **kw)
        assert (cfg.reference_scheme, cfg.reference_tau) == want
        assert not cfg.gates_reference
    # a given truth other than the rule's is bounded by min(taus)/4 ...
    with pytest.raises(ValueError, match=r"^reference_tau: must be at most min\(taus\)/4"):
        preset_sweep("schrodinger-a1", **one_eps, reference_scheme="strang",
                     reference_tau=2.0**-11)
    # ... and the rule's own pick, as run.json echoes it, is that truth
    cfg = preset_sweep("schrodinger-a1", **one_eps, reference_scheme="strang",
                       reference_tau=2.0**-10)
    assert cfg.gates_reference
    # a regularity sweep runs ei at REFERENCE_TAU unless told otherwise
    cfg = preset_sweep("schrodinger-a1", taus=())
    assert (cfg.reference_scheme, cfg.reference_tau) == (ei, REFERENCE_TAU)
    assert not cfg.gates_reference


def certificate_off_by(delta):
    """harness.richardson_truth, with each observed order moved by delta."""
    def truth(config, j=0):
        field, reference = richardson_truth(config, j)
        return field, replace(reference, observed_order=reference.observed_order + delta)
    return truth


# schrodinger-a1 at eps 1/4 on its 128-point grid: the rule picks strang at
# 2^-10, and 2^-6 is 16 of its steps
GATED = dict(epsilons=(0.25,), taus=(2.0**-7, 2.0**-6), schemes=("ei", "lt"), z_final=2.0**-6)


def test_the_rules_truth_that_fails_its_certificate_fails_its_cell(monkeypatch):
    cfg = preset_sweep("schrodinger-a1", **GATED)
    assert cfg.gates_reference
    result = convergence_sweep(cfg)
    assert not result.failures
    (passed,) = result.references
    assert (passed.scheme, passed.tau, passed.grid_n) == ("strang", 2.0**-10, 128)
    assert abs(passed.observed_order - 2) <= 0.02
    assert passed.self_error <= 0.01 * passed.fine_error
    monkeypatch.setattr(harness, "richardson_truth", certificate_off_by(0.05))
    result = convergence_sweep(cfg)
    assert not result.records
    assert [f.cell for f in result.failures] == ["scheme=ei,epsilon=0.25",
                                                 "scheme=lt,epsilon=0.25"]
    for f in result.failures:
        assert f.message.startswith("UncertifiedReferenceError: strang truth at "
                                    "tau=0.000976562: observed order 2.0")
    # the failed certificate is still reported
    (failed,) = result.references
    assert failed.observed_order == passed.observed_order + 0.05
    assert math.isnan(failed.self_error_ratio)
    # a truth the rule did not pick is reported, not gated
    given = preset_sweep("schrodinger-a1", **GATED, reference_scheme="ei", reference_tau=2.0**-10)
    result = convergence_sweep(given)
    assert not result.failures and len(result.records) == 4
    assert result.references[0].scheme == "ei"


# ---------------------------------------------------------------------------
# grouping plumbing


def test_rates_by_group_labels_and_slopes():
    recs = []
    for scheme in ("ei", "lt"):
        factor = 1.0 if scheme == "ei" else 3.0
        for tau in (0.1, 0.05, 0.025):
            recs.append(
                ErrorRecord(
                    scheme=scheme,
                    kappa=2,
                    alpha=1.0,
                    epsilon=0.0625,
                    tau=tau,
                    z_final=1.0,
                    j=0,
                    error_x=factor * tau,
                    normalized_error=0.0,
                    walltime_s=0.0,
                )
            )
    result = SweepResult(records=recs)
    rates = result.rates_by_group()
    assert [label for label, _ in rates] == [
        "scheme=ei,epsilon=0.0625,x=tau",
        "scheme=lt,epsilon=0.0625,x=tau",
    ]
    for _, fit in rates:
        assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_rates_by_group_skips_singletons():
    rec = ErrorRecord("ei", 2, 1.0, 0.5, 0.1, 1.0, 0, 0.1, 0.0, 0.0)
    assert SweepResult(records=[rec]).rates_by_group() == []


def test_rates_by_group_skips_groups_holding_a_zero_error():
    # a log-log slope needs every error > 0; the other group is still fitted
    recs = [ErrorRecord(s, 2, 1.0, 0.5, tau, 1.0, 0, err, 0.0, 0.0)
            for s, errs in (("ei", (0.0, 0.2)), ("lt", (0.1, 0.2)))
            for tau, err in zip((0.1, 0.2), errs)]
    rates = SweepResult(records=recs).rates_by_group()
    assert [label for label, _ in rates] == ["scheme=lt,epsilon=0.5,x=tau"]
