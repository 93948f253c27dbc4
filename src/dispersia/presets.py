"""Bundled model setups used throughout the experiments.

Two families: a second-order (Schrodinger-type) model on [-16, 16) with a
Gaussian well R(x) = -exp(-x^2/8), and a third-order (Airy/KdV-type) model on
[-32, 32) with the rough well R(x) = -exp(-|x|).  Preset names append the
alpha value, e.g. 'schrodinger-a1' or 'kdv-a3/2'.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spectral import InitialDataSpec, PotentialSpec

DESK_EPSILONS = (2.0**-8, 2.0**-7, 2.0**-6, 2.0**-5, 2.0**-4)
DESK_TAUS = (1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1)
REFERENCE_TAU = 2.5e-4


@dataclass(frozen=True)
class Preset:
    name: str
    kappa: int
    coeffs: tuple[float, ...]
    alpha: float
    half_width: float
    potential: PotentialSpec
    initial: InitialDataSpec
    default_epsilon: float = 2.0**-6
    default_tau: float = 1e-2
    z_final: float = 1.0


def _schrodinger(alpha: float, tag: str) -> Preset:
    return Preset(
        name=f"schrodinger-a{tag}",
        kappa=2,
        coeffs=(1.0,),
        alpha=alpha,
        half_width=16.0,
        potential=PotentialSpec.gaussian(-1.0, 8.0),
        initial=InitialDataSpec.gaussian(),
    )


def _kdv(alpha: float, tag: str) -> Preset:
    return Preset(
        name=f"kdv-a{tag}",
        kappa=3,
        coeffs=(1.0, 0.0),
        alpha=alpha,
        half_width=32.0,
        potential=PotentialSpec.exp_abs(-1.0),
        initial=InitialDataSpec.gaussian(),
    )


PRESETS: dict[str, Preset] = {
    p.name: p
    for p in (
        _schrodinger(0.75, "3/4"),
        _schrodinger(1.0, "1"),
        _schrodinger(4.0 / 3.0, "4/3"),
        _kdv(1.0, "1"),
        _kdv(1.5, "3/2"),
        _kdv(2.0, "2"),
    )
}


def get_preset(name: str) -> Preset:
    key = name.strip().lower()
    if key not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}")
    return PRESETS[key]
