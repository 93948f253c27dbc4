"""Time steppers for the oscillatory-potential propagation problem.

All four schemes advance mu' = i eps^alpha D mu + R(x/eps) mu with D the
Fourier multiplier -P(xi); F = flow(tau) has symbol exp(-i tau eps^a P(xi)):

    ei     exponential integrator  mu+ = F mu + tau phi1(i tau eps^a D) (R_eps mu)
    lt     Lie splitting           mu+ = F exp(tau R_eps) mu
    strang symmetric splitting     mu+ = H exp(tau R_eps) H mu,  H = flow(tau/2)
    lri    low-regularity variant  mu+ = F mu + tau (phi1(-i tau eps^a D) R_eps) * mu

precompute() is the one place that tells the schemes apart: it turns a scheme
into the inputs of one of two in-place kernels of exactly 2 FFTs, which solve()
runs on the raw transform v = fft(mu), forming values only at the end (a solve
of N steps costs 2N + 2):

    dressed (ei, lri)   v <- flow v + gain fft(weight ifft(v)); gain = tau phi1 and
                        weight = R_eps for ei, gain = tau and weight = the
                        filtered R_eps for lri
    split (lt, strang)  v <- flow fft(weight ifft(v)), weight = exp(tau R_eps)

Strang marches v = H fft(mu), its entry factor: as |H| = 1, H E H = H^-1 (F E) H
is a Lie step with flow F = H^2, entered with H and left with conj(H).  step()
takes one kernel step from values.  Plain transforms suffice: the h and
origin-phase factors of the field convention cancel for pure multipliers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import DispersiveModel
from .spectral import (Grid, InitialDataSpec, PotentialSpec, SpectralField, check_mesh,
                       check_sample_count, flow_phase, free_propagator_symbol, phi1,
                       sample_initial, sample_potential)


class NumericalBlowupError(RuntimeError):
    """A stepper produced non-finite field values."""


class StepperKind(str, Enum):
    EI = "ei"
    LT = "lt"
    STRANG = "strang"
    LRI = "lri"


def stepper_kind(name, key: str = "scheme") -> StepperKind:
    """The scheme called name; an unknown name is refused under key."""
    try:
        return StepperKind(name)
    except ValueError:
        raise ValueError(f"{key}: expected a name from {[k.value for k in StepperKind]}, "
                         f"got {name!r}") from None


@dataclass
class SolveConfig:
    """One solve's inputs, checked when built: a grid too coarse for eps is
    refused under grid_n (a marginal one warns), and tabulated data must hold
    one sample per grid node."""

    model: DispersiveModel
    grid: Grid
    potential: PotentialSpec
    initial: InitialDataSpec
    scheme: StepperKind
    tau: float
    z_final: float

    def __post_init__(self):
        self.scheme = stepper_kind(self.scheme)
        self.step_count()  # tau, z_final
        check_mesh(self.grid, self.model.epsilon)
        check_sample_count(self.potential, self.grid.n, "potential")
        check_sample_count(self.initial, self.grid.n, "initial")

    def step_count(self) -> int:
        return step_count(self.tau, self.z_final)


def step_count(tau: float, z_final: float, key: str = "tau") -> int:
    """Number of steps of size tau reaching z_final.  A tau that is not
    finite and > 0, or does not divide z_final, is refused under key, and a
    z_final that is not finite and >= 0 under z_final; z_final = 0 is the
    no-op solve returning the sampled data."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"{key}: must be finite and > 0, got {tau}")
    if not (math.isfinite(z_final) and z_final >= 0):
        raise ValueError(f"z_final: must be finite and >= 0, got {z_final}")
    if z_final == 0:
        return 0
    r = z_final / tau
    n = round(r)
    # tolerate the rounding of the division itself, not fractional steps
    if n < 1 or not math.isclose(r, n, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(f"{key}: z_final/tau = {r} is not an integer step count "
                         f"(tau={tau}, z_final={z_final})")
    return n


@dataclass
class PrecomputedStep:
    """One step of a scheme as the inputs of its kernel, for one (model, grid,
    tau).  The dressed kernel (ei, lri) has a gain; the split kernel (lt,
    strang) has none.  entry is the factor v = entry fft(mu) is marched in:
    the half flow H for strang, 1.0 otherwise."""

    scheme: StepperKind
    tau: float
    flow: np.ndarray
    weight: np.ndarray
    gain: np.ndarray | float | None = None
    entry: np.ndarray | float = 1.0


def precompute(model: DispersiveModel, grid: Grid, potential: PotentialSpec,
               scheme: StepperKind, tau: float) -> PrecomputedStep:
    scheme = StepperKind(scheme)
    if tau == 0:
        # negative tau is legitimate (adjoint/time-reversal checks)
        raise ValueError("tau must be nonzero")
    tau = float(tau)
    r = sample_potential(potential, grid, model.epsilon)
    theta = flow_phase(model, grid, tau)
    if scheme is StepperKind.STRANG:
        half = np.exp(-1j * (theta / 2.0))
        return PrecomputedStep(scheme, tau, half * half, np.exp(tau * r), entry=half)
    flow = np.exp(-1j * theta)
    if scheme is StepperKind.EI:
        return PrecomputedStep(scheme, tau, flow, r, gain=tau * phi1(-1j * theta))
    if scheme is StepperKind.LT:
        return PrecomputedStep(scheme, tau, flow, np.exp(tau * r))
    r_hat = np.fft.fft(r.astype(np.complex128))
    return PrecomputedStep(scheme, tau, flow, np.fft.ifft(phi1(1j * theta) * r_hat), gain=tau)


def _kernel(pc: PrecomputedStep):
    """pc's step as an in-place kernel on v = entry fft(mu); s is scratch.

    The weight is cast to complex once, with ifft's 1/n folded in (exact, as n
    is a power of two), so that the step's ifft runs unscaled and the product
    with the weight casts nothing."""
    flow, gain = pc.flow, pc.gain
    weight = (pc.weight * (1.0 / pc.flow.size)).astype(np.complex128, copy=False)
    if gain is None:
        def split(v, s):  # v <- flow fft(weight ifft(v))
            np.fft.ifft(v, out=s, norm="forward")
            s *= weight
            np.fft.fft(s, out=v)
            v *= flow
        return split

    def dressed(v, s):  # v <- flow v + gain fft(weight ifft(v))
        np.fft.ifft(v, out=s, norm="forward")
        s *= weight
        np.fft.fft(s, out=s)
        s *= gain
        v *= flow
        v += s
    return dressed


def _all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the complex array v is finite.  A finite float
    sum of its parts decides it in one pass; a sum that is not finite, from a
    non-finite part or from finite ones whose sum overflows, meets the full
    scan."""
    parts = v.view(np.float64)
    return math.isfinite(parts.sum()) or bool(np.isfinite(parts).all())


def step(mu: np.ndarray, pc: PrecomputedStep) -> np.ndarray:
    """One step from values mu through the kernel solve() marches."""
    v = pc.entry * np.fft.fft(mu)
    _kernel(pc)(v, np.empty_like(v))
    return np.fft.ifft(np.conj(pc.entry) * v)


@dataclass
class SolveResult:
    final: SpectralField
    steps: int
    walltime: float


def solve(config: SolveConfig) -> SolveResult:
    """March the configured scheme to z_final, aborting on non-finite values."""
    n_steps = config.step_count()
    grid = config.grid
    pc = precompute(config.model, grid, config.potential, config.scheme, config.tau)
    kernel = _kernel(pc)
    mu = sample_initial(config.initial, grid).copy()
    v = pc.entry * np.fft.fft(mu)
    scratch = np.empty_like(v)
    t0 = time.perf_counter()
    # _all_finite's sum may overflow on a finite state, which is no blowup
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            kernel(v, scratch)
            if not _all_finite(v):
                raise NumericalBlowupError(
                    f"non-finite values at step {k}/{n_steps} (z={k * config.tau:.6g}, "
                    f"scheme={config.scheme.value}, epsilon={config.model.epsilon:.6g}, "
                    f"tau={config.tau:.6g})"
                )
    if n_steps:
        mu = np.fft.ifft(np.conj(pc.entry) * v)
    walltime = time.perf_counter() - t0
    return SolveResult(SpectralField(grid, values=mu), n_steps, walltime)


def free_solution(config: SolveConfig) -> SpectralField:
    """Potential-free flow of the configured initial state to z_final."""
    mu0 = sample_initial(config.initial, config.grid)
    sym = free_propagator_symbol(config.model, config.grid, config.z_final)
    return SpectralField(config.grid, values=np.fft.ifft(sym * np.fft.fft(mu0)))


def lri_filter_rescaled(model: DispersiveModel, grid: Grid, potential: PotentialSpec,
                        tau: float) -> np.ndarray:
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
    theta = tau * eps ** (model.alpha - model.kappa) * p
    return np.fft.ifft(phi1(1j * theta) * np.fft.fft(r.astype(np.complex128)))
