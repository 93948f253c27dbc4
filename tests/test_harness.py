"""Rate fitting, normalizers, and the sweep drivers.

The sweep invariants checked here: the reference solve dominates (halving the
reference step moves measured errors by under 5%), errors shrink with tau up
to a 10% band, and normalized_error times the normalizer reproduces error_x.
"""

import math

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
    regularity_normalizer,
    regularity_sweep,
    splitting_threshold,
)
from dispersia.integrators import NumericalBlowupError, SolveConfig, StepperKind, solve
from dispersia.model import DispersiveModel, eval_q, expected_regularity_exponent, reduce_moment
from dispersia.presets import get_preset
from dispersia.spectral import (Grid, InitialDataSpec, MeshResolutionError,
                                MeshResolutionWarning, PotentialSpec, SpectralField, x_norm)


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
    with pytest.raises(ValueError, match="^reference_tau: must be at most"):
        small_sweep_config(reference_tau=0.01)
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
    for workers in (0, -3, 1.5, "2", True):
        with pytest.raises(ValueError, match="workers"):
            small_sweep_config(workers=workers)
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


def test_sweep_runs_with_numpy_integer_fields():
    # SweepConfig stores them as int, which the error norm's derivative order
    # needs; the model and the grid take a numpy kappa and grid_n and store int
    cfg = small_sweep_config(taus=(0.05,), deriv_order=np.int64(1), workers=np.int64(2),
                             kappa=np.int64(2), grid_n=np.int64(128))
    assert type(cfg.deriv_order) is int and type(cfg.workers) is int
    assert type(cfg.cell(0.5).model.kappa) is int and type(cfg.grid().n) is int
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
    cfg = small_sweep_config(half_width=16.0, epsilons=(0.0625,), grid_n=None)
    assert cfg.grid().n == 512  # 2L/eps = 512 exactly
    cfg = small_sweep_config(half_width=16.0, epsilons=(0.05,), grid_n=None)
    assert cfg.grid().n == 1024  # next power of two above 640
    cfg = small_sweep_config(grid_n=256)
    assert cfg.grid().n == 256


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
    assert cfg.grid().n == 128
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
    # recompute the same cell against a reference twice as fine
    grid = cfg.grid()
    base = SolveConfig(
        model=DispersiveModel(cfg.kappa, cfg.coeffs, cfg.alpha, 0.5),
        grid=grid,
        potential=cfg.potential,
        initial=cfg.initial,
        scheme=StepperKind.EI,
        tau=cfg.reference_tau / 2.0,
        z_final=cfg.z_final,
    )
    ref2 = solve(base).final
    from dataclasses import replace

    test_run = solve(replace(base, tau=finest.tau)).final
    err2 = error_x(test_run, ref2)
    assert abs(finest.error_x - err2) <= 0.05 * err2


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
    def solve_or_blow_up(config):
        if config.model.epsilon == epsilon:
            raise NumericalBlowupError("non-finite values at step 1/1")
        return solve(config)
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


def test_sweep_config_refuses_a_grid_too_coarse_for_one_epsilon():
    # h = 0.5 resolves eps 0.6 but exceeds 4 * 0.1: refused before any cell
    # runs, under grid_n; h in (eps, 4 eps] only warns
    with pytest.raises(MeshResolutionError, match=r"^grid_n: grid spacing h=0.5 exceeds "
                                                  r"4\*epsilon=0.4"):
        small_sweep_config(half_width=16.0, epsilons=(0.6, 0.1), grid_n=64)
    with pytest.warns(MeshResolutionWarning, match="exceeds epsilon=0.25"):
        small_sweep_config(half_width=16.0, epsilons=(0.6, 0.25), grid_n=64)


def test_sweep_workers_equivalence():
    cfg1 = small_sweep_config(epsilons=(0.5, 0.25), taus=(0.05, 0.025))
    cfg2 = small_sweep_config(epsilons=(0.5, 0.25), taus=(0.05, 0.025), workers=2)
    r1 = convergence_sweep(cfg1)
    r2 = convergence_sweep(cfg2)
    strip = lambda r: (r.scheme, r.kappa, r.alpha, r.epsilon, r.tau, r.z_final, r.j,
                       r.error_x, r.normalized_error)
    assert [strip(r) for r in r1.records] == [strip(r) for r in r2.records]


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
    # every scheme and tau of an eps is measured against the one reference
    # solve of that eps, so each error is bit-identical to a direct recompute
    p = get_preset("schrodinger-a1")
    cfg = SweepConfig(
        kappa=p.kappa, coeffs=p.coeffs, alpha=p.alpha, potential=p.potential,
        initial=p.initial, half_width=p.half_width, epsilons=(0.125, 0.25),
        taus=(0.005, 0.01), schemes=("ei", "lt", "strang", "lri"), z_final=0.01,
        grid_n=256,
    )
    result = compare_methods(cfg)
    assert not result.failures
    assert len(result.records) == 2 * 2 * 4
    grid = Grid(p.half_width, 256)
    for r in result.records:
        mk = lambda scheme, tau: SolveConfig(
            model=DispersiveModel(p.kappa, p.coeffs, p.alpha, r.epsilon), grid=grid,
            potential=p.potential, initial=p.initial, scheme=scheme, tau=tau, z_final=0.01)
        ref = solve(mk(cfg.reference_scheme, cfg.reference_tau)).final
        assert r.error_x == error_x(solve(mk(r.scheme, r.tau)).final, ref)


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
