"""Time steppers for the oscillatory-potential propagation problem.

All four schemes advance mu' = i eps^alpha D mu + R(x/eps) mu with D the
Fourier multiplier -P(xi); F = flow(tau) has symbol exp(-i tau eps^a P(xi)):

    ei     exponential integrator  mu+ = F mu + tau phi1(i tau eps^a D) (R_eps mu)
    lt     Lie splitting           mu+ = F exp(tau R_eps) mu
    strang symmetric splitting     mu+ = H exp(tau R_eps) H mu,  H = flow(tau/2)
    lri    low-regularity variant  mu+ = F mu + tau (phi1(-i tau eps^a D) R_eps) * mu

precompute() is the one place that tells the schemes apart: it turns a scheme
into the inputs of one of two in-place kernels of exactly 2 transforms, which
run on the raw transform v = T(mu), forming values only at the end:

    dressed (ei, lri)   v <- flow v + gain T(weight T^-1(v)); gain = tau phi1 and
                        weight = R_eps for ei, gain = tau and weight = the
                        filtered R_eps for lri
    split (lt, strang)  v <- flow T(weight T^-1(v)), weight = exp(tau R_eps)

Strang marches v = H T(mu), its entry factor: as |H| = 1, H E H = H^-1 (F E) H
is a Lie step with flow F = H^2, entered with H and left with conj(H).  Plain
transforms suffice: the h and origin-phase factors of the field convention
cancel for pure multipliers.

solve() marches rows, one scheme from one initial state at one or more taus,
two at a time: a transform of a two-row stack costs much less than two lone
ones.  A march of K steps costs 2K stack transforms, 1 for the shared T(mu)
and 1 per row for its values: 2N + 2 for a lone solve of N steps, 2N + 4 for
a Richardson triple of N, N/2 and N/4 (3.5N + 6 as three solves), whose third
row takes the lane the second leaves.  step() takes one kernel step from values.

T is one of two transform pairs, run by the same kernels.  For odd kappa
P is odd and R real, so every symbol is Hermitian (flow_phase's Nyquist rule
sees to the mode n/2) and real data stays real: such a solve marches the n/2 + 1
entries of T = rfft, with irfft as its inverse, and returns values whose
imaginary part is exactly 0.  Every other solve marches T = fft.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial

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
    strang) has none.  entry is the factor v = entry T(mu) is marched in:
    the half flow H for strang, 1.0 otherwise.  odd is whether kappa is odd,
    so that every symbol is Hermitian and real values may march on rfft."""

    scheme: StepperKind
    tau: float
    flow: np.ndarray
    weight: np.ndarray
    gain: np.ndarray | float | None = None
    entry: np.ndarray | float = 1.0
    odd: bool = False


def precompute(model: DispersiveModel, grid: Grid, potential: PotentialSpec,
               scheme: StepperKind, tau: float) -> PrecomputedStep:
    scheme = StepperKind(scheme)
    if tau == 0:
        # negative tau is legitimate (adjoint/time-reversal checks)
        raise ValueError("tau must be nonzero")
    tau = float(tau)
    odd = bool(model.kappa % 2)
    r = sample_potential(potential, grid, model.epsilon)
    theta = flow_phase(model, grid, tau)
    if scheme is StepperKind.STRANG:
        half = np.exp(-1j * (theta / 2.0))
        return PrecomputedStep(scheme, tau, half * half, np.exp(tau * r), entry=half, odd=odd)
    flow = np.exp(-1j * theta)
    if scheme is StepperKind.EI:
        return PrecomputedStep(scheme, tau, flow, r, gain=tau * phi1(-1j * theta), odd=odd)
    if scheme is StepperKind.LT:
        return PrecomputedStep(scheme, tau, flow, np.exp(tau * r), odd=odd)
    r_hat = np.fft.fft(r.astype(np.complex128))
    return PrecomputedStep(scheme, tau, flow, np.fft.ifft(phi1(1j * theta) * r_hat), gain=tau,
                           odd=odd)


LANES = 2  # the rows one march advances together


def _march(mu: np.ndarray, real: bool, rows, retire) -> tuple[int, float]:
    """March rows from the values mu on a stack of at most LANES lanes, and
    return the steps the rows took and the seconds the steps took.

    rows holds each row's (step count, load), and load() builds its
    PrecomputedStep as it enters a lane.  The rows share one scheme, so one
    kernel advances the live slice v[:live].  Rows march longest first, each
    entering as v = entry T(mu); when one retires, the next queued row takes
    its lane, or the last live lane moves into it.  retire(i, k, values,
    seconds) is called once per row: after its last step k with its values,
    or at the step k whose state is not finite with values None (a row of
    no steps retires at once with mu).  seconds is its share of the stepping
    time, each stretch split evenly among the rows live in it.

    T is rfft when real (kappa odd and mu real), with the symbols cut to
    their n/2 + 1 entries and the weight to its real part; fft otherwise.
    The weight takes the inverse's 1/n (exact, as n is a power of two), so
    that the step's inverse runs unscaled and the product with the weight
    casts nothing.
    """
    queue = sorted(range(len(rows)), key=lambda i: -rows[i][0])
    steps, seconds, shares = 0, 0.0, [0.0] * len(rows)
    while queue and rows[queue[-1]][0] == 0:
        retire(queue.pop(), 0, mu, 0.0)
    if not queue:
        return steps, seconds
    n, height = mu.size, min(LANES, len(queue))
    if real:
        m, forward, inverse, rtype = n // 2 + 1, np.fft.rfft, np.fft.irfft, np.float64
    else:
        m, forward, inverse, rtype = n, np.fft.fft, np.fft.ifft, np.complex128
    s, weight = np.empty((height, n), rtype), np.empty((height, n), rtype)
    v, flow, gain = (np.empty((height, m), np.complex128) for _ in range(3))
    t = np.empty((height, m), np.complex128) if real else s
    transformed = forward(mu.real if real else mu)
    dressed = False

    def cut(a):
        return a[:m] if isinstance(a, np.ndarray) else a

    def load(lane, k):  # the next queued row enters lane at step k
        nonlocal dressed
        i = queue.pop(0)
        pc = rows[i][1]()
        entry, dressed = cut(pc.entry), pc.gain is not None
        flow[lane] = cut(pc.flow)
        weight[lane] = (pc.weight.real if real else pc.weight) * (1.0 / n)
        if dressed:
            gain[lane] = cut(pc.gain)
        v[lane] = entry * transformed
        return i, entry, k

    lanes = [load(lane, 0) for lane in range(height)]
    k = 0
    while lanes:
        live = len(lanes)
        vl, sl, tl, wl, fl, gl = (a[:live] for a in (v, s, t, weight, flow, gain))
        stop = min(start + rows[i][0] for i, _, start in lanes)
        t0 = time.perf_counter()
        # _all_finite's sum may overflow on a finite state, which is no blowup
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                k += 1
                inverse(vl, n, out=sl, norm="forward")
                np.multiply(sl, wl, out=sl)
                if dressed:
                    forward(sl, out=tl)
                    np.multiply(tl, gl, out=tl)
                    vl *= fl
                    vl += tl
                else:
                    forward(sl, out=vl)
                    vl *= fl
                if not _all_finite(vl):
                    bad = [lane for lane in range(live) if not _all_finite(v[lane])]
                    break
                if k == stop:
                    bad = []
                    break
        dt = time.perf_counter() - t0
        seconds += dt
        for i, _, _ in lanes:
            shares[i] += dt / live
        for lane in reversed(range(live)):
            i, entry, start = lanes[lane]
            failed = lane in bad
            if not failed and k < start + rows[i][0]:
                continue
            steps += k - start
            values = None
            if not failed:
                values = inverse(np.conj(entry) * v[lane], n).astype(np.complex128, copy=False)
            retire(i, k - start, values, shares[i])
            if queue:
                lanes[lane] = load(lane, k)
                continue
            last = lanes.pop()
            if lane < len(lanes):  # the last live lane moves into the free one
                for a in (v, weight, flow, gain):
                    a[lane] = a[len(lanes)]
                lanes[lane] = last
    return steps, seconds


def _all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the complex array v is finite.  A finite float
    sum of its parts decides it in one pass; a sum that is not finite, from a
    non-finite part or from finite ones whose sum overflows, meets the full
    scan."""
    parts = v.view(np.float64)
    return math.isfinite(parts.sum()) or bool(np.isfinite(parts).all())


def step(mu: np.ndarray, pc: PrecomputedStep) -> np.ndarray:
    """One step from values mu through the kernel solve() marches; a step to
    non-finite values raises NumericalBlowupError."""
    out = []
    _march(mu, pc.odd and not mu.imag.any(), [(1, lambda: pc)],
           lambda i, k, values, seconds: out.append(values))
    if out[0] is None:
        raise NumericalBlowupError(f"non-finite values at step 1/1 "
                                   f"(scheme={pc.scheme.value}, tau={pc.tau:.6g})")
    return out[0]


@dataclass
class SolveResult:
    """One march's rows, in the order solve was given them: each its final
    field, what reduce made of it, or its NumericalBlowupError.  steps sums
    the steps the rows took, and walltime is the time those steps took."""

    rows: list
    steps: int
    walltime: float

    @property
    def final(self):
        """The first row: a lone solve's final field."""
        return self.rows[0]


def solve(config: SolveConfig, *taus: float, reduce=None) -> SolveResult:
    """March the configured scheme to z_final, one row at config.tau and one
    at each of taus, two rows at a time (see _march).

    A row whose values go non-finite retires with a NumericalBlowupError
    naming its step, and the other rows march on.  Given reduce, each row
    keeps reduce(tau, final, seconds), made from its final field as it
    retires, or its error.  With no reduce each row keeps its final field,
    and the first failed row's error is raised once the march is done.
    """
    grid, model = config.grid, config.model
    row_taus = (config.tau, *(float(tau) for tau in taus))
    counts = [step_count(tau, config.z_final) for tau in row_taus]
    out: list = [None] * len(row_taus)

    def retire(i, k, values, seconds):
        tau = row_taus[i]
        if values is None:
            out[i] = NumericalBlowupError(
                f"non-finite values at step {k}/{counts[i]} (z={k * tau:.6g}, "
                f"scheme={config.scheme.value}, epsilon={model.epsilon:.6g}, tau={tau:.6g})")
        else:
            final = SpectralField(grid, values=values)
            out[i] = final if reduce is None else reduce(tau, final, seconds)

    mu = sample_initial(config.initial, grid)
    rows = [(count, partial(precompute, model, grid, config.potential, config.scheme, tau))
            for count, tau in zip(counts, row_taus)]
    steps, walltime = _march(mu, bool(model.kappa % 2) and not mu.imag.any(), rows, retire)
    if reduce is None:
        for row in out:
            if isinstance(row, NumericalBlowupError):
                raise row
    return SolveResult(out, steps, walltime)


def free_solution(config: SolveConfig) -> SpectralField:
    """Potential-free flow of the configured initial state to z_final; at
    z_final 0 the sampled data, as solve returns them."""
    mu0 = sample_initial(config.initial, config.grid)
    if config.z_final == 0:
        return SpectralField(config.grid, values=mu0)
    sym = free_propagator_symbol(config.model, config.grid, config.z_final)
    return SpectralField(config.grid, values=np.fft.ifft(sym * np.fft.fft(mu0)))
