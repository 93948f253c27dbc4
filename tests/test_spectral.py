"""Grid, transform convention, symbols, norms, and sampling guards.

Transform oracles: a lattice plane wave maps to a single coefficient of size
2L, a unit Gaussian to sqrt(2 pi) exp(-xi^2/2).  phi1 is checked against
cancellation-free reformulations (expm1 on the real axis, half-angle sines on
the imaginary axis).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersia.model import DispersiveModel
from dispersia.spectral import (
    Grid,
    InitialDataSpec,
    MeshResolutionError,
    MeshResolutionWarning,
    PotentialSpec,
    SpectralField,
    check_mesh,
    free_propagator_symbol,
    phi1,
    resolving_grid_n,
    sample_initial,
    sample_potential,
    x_norm,
)


def unit_gaussian_field(half_width=16.0, n=1024):
    g = Grid(half_width, n)
    return SpectralField(g, values=sample_initial(InitialDataSpec.gaussian(), g))


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return SpectralField(grid, values=v)


# ---------------------------------------------------------------------------
# Grid


def test_grid_basic_layout():
    g = Grid(16.0, 64)
    assert g.h == 0.5
    assert g.nodes[0] == -16.0
    assert g.nodes[-1] == pytest.approx(16.0 - g.h)
    assert g.dxi == pytest.approx(math.pi / 16.0)
    assert g.xi[0] == 0.0
    # frequencies live on the lattice pi k / L
    assert sorted(g.xi)[-1] == pytest.approx(math.pi / g.h - g.dxi)


@pytest.mark.parametrize("bad", [(0.0, 64), (-2.0, 64), (16.0, 12), (16.0, 4), (16.0, 0),
                                 (16.0, True), (16.0, 64.0)])
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(ValueError):
        Grid(*bad)


@pytest.mark.parametrize("half_width,n,key", [
    (-2.0, 64, "half_width"), (math.inf, 64, "half_width"), (math.nan, 64, "half_width"),
    (16.0, 12, "grid_n"),
])
def test_grid_refusals_start_with_the_config_key(half_width, n, key):
    with pytest.raises(ValueError, match=f"^{key}: "):
        Grid(half_width, n)


def test_resolving_grid_n_leaves_a_bad_half_width_to_the_grid():
    assert resolving_grid_n(16.0, 0.05) == 1024
    for half_width in (-1.0, 0.0, math.inf, math.nan):
        assert resolving_grid_n(half_width, 0.05) == 8


def test_grid_equality_and_hash():
    assert Grid(8.0, 64) == Grid(8.0, 64)
    assert Grid(8.0, 64) != Grid(8.0, 128)
    assert Grid(8.0, 64) != Grid(4.0, 64)
    assert hash(Grid(8.0, 64)) == hash(Grid(8.0, 64))


# ---------------------------------------------------------------------------
# SpectralField and the transform pair


def test_field_values_must_fit_the_grid():
    with pytest.raises(ValueError, match=r"values must have shape \(64,\), got \(32,\)"):
        SpectralField(Grid(8.0, 64), values=np.zeros(32))


def test_field_subtraction_requires_same_grid():
    a = random_field(Grid(8.0, 64), 0)
    b = random_field(Grid(8.0, 128), 1)
    with pytest.raises(ValueError):
        a - b


def test_plane_wave_transforms_to_single_coefficient():
    g = Grid(16.0, 256)
    xi0 = 5 * g.dxi  # on the frequency lattice
    f = SpectralField(g, values=sample_initial(InitialDataSpec.plane_wave(xi0), g))
    c = f.coefficients
    k = int(np.argmin(np.abs(g.xi - xi0)))
    assert g.xi[k] == pytest.approx(xi0, rel=1e-14, abs=0.0)
    assert c[k] == pytest.approx(2.0 * g.half_width, rel=1e-11, abs=0.0)
    rest = np.abs(np.delete(c, k))
    assert rest.max() <= 1e-9 * 2.0 * g.half_width


def gaussian_coeff_exact(xi) -> np.ndarray:
    """Continuum transform of exp(-x^2/2): sqrt(2 pi) exp(-xi^2/2)."""
    xi = np.asarray(xi, dtype=np.float64)
    return math.sqrt(2.0 * math.pi) * np.exp(-(xi * xi) / 2.0)


def test_gaussian_matches_continuum_transform():
    f = unit_gaussian_field()
    g = f.grid
    mask = np.abs(g.xi) <= 10.0
    np.testing.assert_allclose(
        f.coefficients[mask], gaussian_coeff_exact(g.xi[mask]), atol=1e-8, rtol=0
    )


def test_roundtrip_values_coeffs_values():
    g = Grid(12.0, 512)
    f = random_field(g, 7)
    # the inverse of the module's pair: value(x_j) = (dxi / 2 pi) sum_k coeff(xi_k) e^(i xi_k x_j)
    phase = np.exp(1j * np.outer(g.nodes, g.xi))
    back = (g.dxi / (2.0 * np.pi)) * (phase @ f.coefficients)
    np.testing.assert_allclose(back, f.values, atol=1e-12, rtol=0)
    again = SpectralField(g, values=back)
    np.testing.assert_allclose(again.coefficients, f.coefficients, atol=1e-12, rtol=0)


def test_real_field_has_conjugate_symmetric_coefficients():
    g = Grid(10.0, 128)
    rng = np.random.default_rng(3)
    f = SpectralField(g, values=rng.standard_normal(g.n).astype(np.complex128))
    c = f.coefficients
    idx = (-np.arange(g.n)) % g.n  # bin of -xi_k
    np.testing.assert_allclose(c[idx], np.conj(c), atol=1e-12 * np.abs(c).max())


def test_parseval_identity():
    g = Grid(9.0, 256)
    f = random_field(g, 11)
    phys = g.h * float(np.sum(np.abs(f.values) ** 2))
    spec = g.dxi / (2.0 * math.pi) * float(np.sum(np.abs(f.coefficients) ** 2))
    assert spec == pytest.approx(phys, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# norms


def test_x_norm_gaussian_is_two_pi():
    f = unit_gaussian_field()
    assert x_norm(f) == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_x_norm_weighted_gaussian():
    # integral of |xi| sqrt(2 pi) exp(-xi^2/2) is 2 sqrt(2 pi); the kink of
    # |xi| at 0 costs the Riemann sum about dxi^2 sqrt(2 pi)/4, so 3e-3 here
    f = unit_gaussian_field()
    assert x_norm(f, j=1) == pytest.approx(2.0 * math.sqrt(2.0 * math.pi), rel=5e-3, abs=0.0)


def test_x_norm_dilation_invariance():
    # stretching x by lam leaves the j=0 norm unchanged
    g = Grid(16.0, 1024)
    base = x_norm(SpectralField(g, values=np.exp(-(g.nodes**2) / 2.0)))
    for lam in (2.0, 0.5):
        stretched = x_norm(SpectralField(g, values=np.exp(-((lam * g.nodes) ** 2) / 2.0)))
        assert stretched == pytest.approx(base, rel=1e-8, abs=0.0)


def test_x_norm_rejects_bad_weight():
    f = unit_gaussian_field(8.0, 64)
    with pytest.raises(ValueError):
        x_norm(f, j=-1)
    with pytest.raises(ValueError):
        x_norm(f, j=1.5)


def test_sup_bounded_by_x_norm():
    for seed in range(4):
        f = random_field(Grid(7.0, 128), seed)
        sup = float(np.abs(f.values).max())
        assert sup <= x_norm(f) / (2.0 * math.pi) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# phi1


def phi1_real_oracle(t: float) -> float:
    return math.expm1(t) / t


def phi1_imag_oracle(y: float) -> complex:
    # e^(iy) - 1 = -2 sin^2(y/2) + i sin(y), no cancellation
    s = math.sin(y / 2.0)
    return complex(-2.0 * s * s, math.sin(y)) / complex(0.0, y)


def test_phi1_special_values():
    assert phi1(0.0) == 1.0 + 0.0j
    assert phi1(math.log(2.0)) == pytest.approx(1.0 / math.log(2.0), rel=1e-14, abs=0.0)
    assert phi1(1.0) == pytest.approx(math.e - 1.0, rel=1e-14, abs=0.0)


def test_phi1_scalar_and_array_paths_agree():
    zs = np.array([0.0, 1e-6, 1e-4, 0.3j, -2.0 + 1.0j])
    arr = phi1(zs)
    assert arr.shape == zs.shape
    for z, v in zip(zs, arr):
        assert phi1(complex(z)) == v


# expm1 forms e^z - 1 without cancellation, so phi1 keeps every digit up to a
# few roundings on either side of the 1e-4 series switch
PHI1_RTOL = 1e-15


@given(t=st.floats(-50, 50))
@settings(deadline=None, max_examples=200)
def test_phi1_real_axis_matches_expm1(t):
    if t == 0.0:
        return
    assert phi1(t) == pytest.approx(phi1_real_oracle(t), rel=PHI1_RTOL, abs=0.0)


@given(y=st.floats(-50, 50))
@settings(deadline=None, max_examples=200)
# e^(iy) - 1 cancels in its real part near y = 2 pi
@example(y=6.283203125)
def test_phi1_imag_axis_matches_half_angle(y):
    if y == 0.0:
        return
    assert phi1(1j * y) == pytest.approx(
        phi1_imag_oracle(y), rel=PHI1_RTOL, abs=1e-300
    )


@pytest.mark.parametrize("k", [1, 2, 7, -3])
def test_phi1_keeps_digits_near_imag_period(k):
    # phi1(iy) vanishes at y = 2 pi k; e^(iy) - 1 cancels in its real part there
    for d in (3e-4, -1e-6, 2e-9):
        y = 2.0 * math.pi * k + d
        assert phi1(1j * y) == pytest.approx(phi1_imag_oracle(y), rel=1e-13, abs=1e-300)


def test_phi1_is_seamless_across_taylor_boundary():
    # the series branch and the expm1 quotient meet to a few roundings
    for mag in (0.2e-4, 0.9e-4, 0.999e-4, 1.001e-4, 1.1e-4, 5e-4):
        for z, want in ((mag, phi1_real_oracle(mag)), (-mag, phi1_real_oracle(-mag)),
                        (1j * mag, phi1_imag_oracle(mag)), (-1j * mag, phi1_imag_oracle(-mag))):
            assert phi1(z) == pytest.approx(want, rel=PHI1_RTOL, abs=0.0)


# ---------------------------------------------------------------------------
# symbols


def test_free_symbol_group_law():
    m = DispersiveModel(3, (1.0, -1.0), 1.5, 0.25)
    g = Grid(8.0, 128)
    s1 = free_propagator_symbol(m, g, 0.3)
    s2 = free_propagator_symbol(m, g, 0.45)
    s12 = free_propagator_symbol(m, g, 0.75)
    np.testing.assert_allclose(s1 * s2, s12, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        free_propagator_symbol(m, g, 0.0), np.ones(g.n), rtol=0, atol=0
    )
    np.testing.assert_allclose(np.abs(s1), 1.0, rtol=1e-14)
    np.testing.assert_allclose(
        free_propagator_symbol(m, g, -0.3), np.conj(s1), rtol=1e-13
    )


# ---------------------------------------------------------------------------
# mesh-resolution rule


def test_mesh_rule_thresholds():
    g = Grid(16.0, 64)  # h = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_mesh(g, 0.6)  # resolved, silent
    with pytest.warns(MeshResolutionWarning):
        check_mesh(g, 0.3)  # h in (eps, 4 eps]
    with pytest.raises(MeshResolutionError):
        check_mesh(g, 0.1)  # h > 4 eps


# ---------------------------------------------------------------------------
# sampling


def test_sample_gaussian_potential_values():
    g = Grid(8.0, 256)
    eps = 0.5
    r = sample_potential(PotentialSpec.gaussian(-2.0, 4.0), g, eps)
    want = -2.0 * np.exp(-((g.nodes / eps) ** 2) / 4.0)
    np.testing.assert_allclose(r, want, rtol=1e-14)
    assert r[g.n // 2] == -2.0  # center node x = 0


def test_sample_exp_abs_potential_values():
    g = Grid(8.0, 256)
    r = sample_potential(PotentialSpec.exp_abs(3.0), g, 0.25)
    np.testing.assert_allclose(r, 3.0 * np.exp(-np.abs(g.nodes / 0.25)), rtol=1e-14)


def test_tabulated_potential_guard():
    vals = np.exp(-np.linspace(-4, 4, 64) ** 2)
    spec = PotentialSpec.tabulated(vals + 1e-12j * vals)  # noise is zeroed
    assert all(isinstance(s, float) for s in spec.samples)
    with pytest.raises(ValueError):
        PotentialSpec.tabulated(vals + 1e-5j * vals)


def test_unknown_kind_rejected():
    # refused when the spec is built, before a sweep config can carry it
    with pytest.raises(ValueError, match="^potential: unknown kind 'lattice'"):
        PotentialSpec(kind="lattice")
    with pytest.raises(ValueError, match="^initial: unknown kind 'soliton'"):
        InitialDataSpec(kind="soliton")


def test_sample_plane_wave_and_tabulated_initial():
    g = Grid(8.0, 64)
    v = sample_initial(InitialDataSpec.plane_wave(2.0), g)
    np.testing.assert_allclose(v, np.exp(2.0j * g.nodes), rtol=1e-14)
    data = np.exp(1j * np.linspace(0, 1, 64))
    np.testing.assert_allclose(
        sample_initial(InitialDataSpec.tabulated(data), g), data, rtol=1e-15
    )


def test_width_sq_validation():
    with pytest.raises(ValueError):
        PotentialSpec.gaussian(-1.0, 0.0)
    with pytest.raises(ValueError):
        PotentialSpec.gaussian(-1.0, -2.0)
    # the constructor holds the invariant too, not only the named builder
    for width_sq in (0.0, -1.0):
        with pytest.raises(ValueError, match="^width_sq must be positive"):
            PotentialSpec("gaussian", width_sq=width_sq)
