"""Periodic grid, transform conventions, symbols, and norms.

The transform pair approximates the line integrals

    coeff(xi_k) = h * sum_j value(x_j) exp(-i xi_k x_j)
    value(x_j)  = (dxi / 2 pi) * sum_k coeff(xi_k) exp(i xi_k x_j)

on x_j = -L + j h, xi_k = pi k / L, so coefficients track the continuum
transform (a unit Gaussian maps to sqrt(2 pi) exp(-xi^2 / 2)).  Frequencies
are stored in standard transform layout; address them by value via grid.xi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .model import DispersiveModel, check_integer, eval_p


class MeshResolutionWarning(UserWarning):
    """Grid spacing is coarser than the oscillation scale."""


class MeshResolutionError(ValueError):
    """Grid spacing is far too coarse for the oscillation scale."""


class Grid:
    """Uniform periodic grid on [-L, L) with a power-of-two point count."""

    __slots__ = ("half_width", "n", "h", "nodes", "xi", "dxi", "_alt")

    def __init__(self, half_width: float, n: int):
        if not (math.isfinite(half_width) and half_width > 0):
            raise ValueError(f"half_width: must be finite and > 0, got {half_width!r}")
        n = check_integer(n, 8, "grid_n")
        if n & (n - 1):
            raise ValueError(f"grid_n: must be a power of two >= 8, got {n!r}")
        self.half_width = float(half_width)
        self.n = n
        self.h = 2.0 * self.half_width / n
        self.nodes = -self.half_width + self.h * np.arange(n)
        self.xi = 2.0 * np.pi * np.fft.fftfreq(n, d=self.h)
        self.dxi = np.pi / self.half_width
        # (-1)^k in transform layout compensates the -L grid origin
        self._alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and other.half_width == self.half_width
            and other.n == self.n
        )

    def __hash__(self):
        return hash((self.half_width, self.n))

    def __repr__(self):
        return f"Grid(half_width={self.half_width}, n={self.n})"


def resolving_grid(half_width: float, epsilon: float, n: int | None = None) -> Grid:
    """Grid(half_width, n); when n is None, n is the smallest power of two
    >= 8 whose spacing 2L/n resolves h <= epsilon, for epsilon > 0.  A
    half_width that is not finite and > 0 is refused by the Grid."""
    if n is None:
        r = 2.0 * half_width / epsilon
        n = 2 ** math.ceil(math.log2(r)) if 8 < r < math.inf else 8
    return Grid(half_width, n)


class SpectralField:
    """Field on a grid: its values, float64 when real and complex128
    otherwise, and their coefficients, formed from them on each use."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.ascontiguousarray(
            values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)
        if values.shape != (grid.n,):
            raise ValueError(f"values must have shape ({grid.n},), got {values.shape}")
        self.grid = grid
        self.values = values

    @property
    def coefficients(self) -> np.ndarray:
        g = self.grid
        return g.h * g._alt * np.fft.fft(self.values)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if self.grid != other.grid:
            raise ValueError("grids differ")
        return SpectralField(self.grid, values=self.values - other.values)


def x_norm(f: SpectralField, j: int = 0) -> float:
    """Absolute-coefficient norm with a |xi|^j weight (trapezoid-free sum)."""
    j = check_integer(j, 0, "deriv_order")
    w = np.abs(f.coefficients)
    if j:
        w = w * np.abs(f.grid.xi) ** j
    return float(w.sum() * f.grid.dxi)


def phi1(z):
    """phi1(z) = (e^z - 1)/z: np.expm1(z) / z, with a 4-term Taylor branch for
    |z| < 1e-4; an array in the shape of z (0-d for a scalar z).

    numpy forms the real part of e^z - 1 as expm1(x) cos(y) - 2 sin^2(y/2),
    so the quotient cancels nowhere, neither near 0 nor near z = 2*pi*i*k.
    The series keeps tiny z out of the complex division, which gives inf+nanj
    at subnormal z; at the switch its truncation error is below 1e-17
    relative, so the switch is seamless.
    """
    za = np.asarray(z, dtype=np.complex128)
    small = np.abs(za) < 1e-4
    out = np.empty_like(za)
    zs = za[small]
    out[small] = 1.0 + zs * (0.5 + zs * (1.0 / 6.0 + zs / 24.0))
    zb = za[~small]
    out[~small] = np.expm1(zb) / zb
    return out


def flow_phase(model: DispersiveModel, grid: Grid, z: float) -> np.ndarray:
    """theta = z eps^alpha P(xi): the free flow over z has symbol exp(-i theta).

    For odd kappa, theta at the Nyquist index n/2 is 0, the mean of P(+-pi/h).
    That one mode stands for both ends of the band, and an odd P takes
    opposite values there, so P(-pi/h) alone would turn real data complex;
    with the mean, theta is odd on the whole grid and the flow, and every
    symbol built from theta, maps real values to real values (the usual
    rule for odd derivatives, Trefethen, Spectral Methods in MATLAB, ch. 3).
    """
    theta = z * model.epsilon**model.alpha * eval_p(model, grid.xi)
    if model.kappa % 2:
        theta[grid.n // 2] = 0.0
    return theta


def free_propagator_symbol(model: DispersiveModel, grid: Grid, z: float) -> np.ndarray:
    """Multiplier exp(-i z eps^alpha P(xi)) advancing the free flow by z."""
    return np.exp(-1j * flow_phase(model, grid, z))


def _check_spec(spec, key: str) -> None:
    """Refuse, under key, a spec of a kind not in its PARAMS; and refuse one
    whose kind's parameters, samples included, are not all finite: one NaN
    or infinity would only surface as a blowup of the first step."""
    if spec.kind not in spec.PARAMS:
        raise ValueError(f"{key}: unknown kind {spec.kind!r}")
    for name in spec.PARAMS[spec.kind]:
        v = getattr(spec, name)
        if v is not None and not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PotentialSpec:
    """Potential profile R; the solver samples R(x/eps) on the grid.

    kinds: 'gaussian'  -> amplitude * exp(-x^2 / width_sq)
           'exp_abs'   -> amplitude * exp(-|x|)
           'tabulated' -> samples of the already-scaled R(x_j/eps)
    """

    # the parameters of each kind, in the order its named builder takes them
    PARAMS: ClassVar[dict[str, tuple[str, ...]]] = {
        "gaussian": ("amplitude", "width_sq"), "exp_abs": ("amplitude",),
        "tabulated": ("samples",)}

    kind: str
    amplitude: float = -1.0
    width_sq: float = 1.0
    samples: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_spec(self, "potential")
        if not self.width_sq > 0:
            raise ValueError(f"width_sq must be positive, got {self.width_sq!r}")

    @classmethod
    def gaussian(cls, amplitude: float, width_sq: float) -> "PotentialSpec":
        return cls(kind="gaussian", amplitude=float(amplitude), width_sq=float(width_sq))

    @classmethod
    def exp_abs(cls, amplitude: float) -> "PotentialSpec":
        return cls(kind="exp_abs", amplitude=float(amplitude))

    @classmethod
    def tabulated(cls, samples) -> "PotentialSpec":
        arr = np.asarray(list(samples), dtype=np.complex128)
        scale = float(np.max(np.abs(arr.real))) if arr.size else 0.0
        if arr.size and float(np.max(np.abs(arr.imag))) > 1e-8 * (1.0 + scale):
            raise ValueError(
                "tabulated potential has a non-negligible imaginary part; "
                "only tiny imaginary noise is zeroed at ingestion"
            )
        return cls(kind="tabulated", samples=tuple(float(v) for v in arr.real))


@dataclass(frozen=True)
class InitialDataSpec:
    """Initial state mu0; complex-valued kinds are allowed.

    kinds: 'gaussian'   -> exp(-x^2 / 2)
           'plane_wave' -> exp(i xi0 x)
           'tabulated'  -> complex samples on the grid nodes
    """

    PARAMS: ClassVar[dict[str, tuple[str, ...]]] = {
        "gaussian": (), "plane_wave": ("xi0",), "tabulated": ("samples",)}

    kind: str
    xi0: float = 0.0
    samples: tuple[complex, ...] | None = None

    def __post_init__(self):
        _check_spec(self, "initial")

    @classmethod
    def gaussian(cls) -> "InitialDataSpec":
        return cls(kind="gaussian")

    @classmethod
    def plane_wave(cls, xi0: float) -> "InitialDataSpec":
        return cls(kind="plane_wave", xi0=float(xi0))

    @classmethod
    def tabulated(cls, samples) -> "InitialDataSpec":
        return cls(kind="tabulated", samples=tuple(complex(s) for s in samples))


def check_mesh(grid: Grid, epsilon: float) -> None:
    """Warn when h > eps, refuse when h > 4 eps: the potential oscillates on
    scale eps and an unresolved sampling aliases it silently."""
    if grid.h > 4.0 * epsilon:
        raise MeshResolutionError(
            f"grid_n: grid spacing h={grid.h:.3g} exceeds 4*epsilon={4 * epsilon:.3g}; "
            "refusing an aliased potential"
        )
    if grid.h > epsilon:
        warnings.warn(
            f"grid spacing h={grid.h:.3g} exceeds epsilon={epsilon:.3g}; "
            "the potential is marginally resolved",
            MeshResolutionWarning,
            stacklevel=2,
        )


def check_sample_count(spec: PotentialSpec | InitialDataSpec, n: int, key: str) -> None:
    """Refuse, under key, a tabulated spec that does not hold exactly n samples."""
    if spec.kind == "tabulated":
        got = 0 if spec.samples is None else len(spec.samples)
        if got != n:
            raise ValueError(f"{key}: tabulated data needs exactly {n} samples, got {got}")


def sample_potential(spec: PotentialSpec, grid: Grid, epsilon: float) -> np.ndarray:
    """Real samples of R(x_j / eps); SolveConfig checks the mesh and counts."""
    y = grid.nodes / epsilon
    if spec.kind == "gaussian":
        return spec.amplitude * np.exp(-(y * y) / spec.width_sq)
    if spec.kind == "exp_abs":
        return spec.amplitude * np.exp(-np.abs(y))
    return np.asarray(spec.samples, dtype=np.float64)  # tabulated


def sample_initial(spec: InitialDataSpec, grid: Grid) -> np.ndarray:
    x = grid.nodes
    if spec.kind == "gaussian":
        return np.exp(-(x * x) / 2.0).astype(np.complex128)
    if spec.kind == "plane_wave":
        return np.exp(1j * spec.xi0 * x)
    return np.asarray(spec.samples, dtype=np.complex128)  # tabulated

