"""Preset catalogue sanity: names and the grids their domains need."""

import pytest

from dispersia.presets import (
    DESK_EPSILONS,
    DESK_TAUS,
    PRESETS,
    REFERENCE_TAU,
    get_preset,
)
from dispersia.integrators import step_count
from dispersia.spectral import resolving_grid


def test_catalogue_names():
    assert sorted(PRESETS) == [
        "kdv-a1", "kdv-a2", "kdv-a3/2",
        "schrodinger-a1", "schrodinger-a3/4", "schrodinger-a4/3",
    ]


def test_a_preset_has_one_name_up_to_case_and_spaces():
    assert get_preset("  KdV-a3/2 ") is PRESETS["kdv-a3/2"]


@pytest.mark.parametrize("decimal", ["kdv-a1.5", "schrodinger-a0.75", "kdv-a1.0"])
def test_decimal_preset_names_are_refused(decimal):
    with pytest.raises(KeyError, match="known presets: kdv-a1, kdv-a2"):
        get_preset(decimal)


def test_unknown_preset_lists_known_names():
    with pytest.raises(KeyError, match="known presets"):
        get_preset("burgers-a1")


def test_desk_scales():
    assert DESK_EPSILONS == (2.0**-8, 2.0**-7, 2.0**-6, 2.0**-5, 2.0**-4)
    assert len(DESK_TAUS) == 7
    assert all(t1 < t2 for t1, t2 in zip(DESK_TAUS, DESK_TAUS[1:]))
    # the Richardson truth pairs solves at REFERENCE_TAU and twice it: the
    # pair sits at a quarter of the finest desk step or below, and both
    # steps divide a unit z_final
    assert REFERENCE_TAU <= min(DESK_TAUS) / 4
    assert step_count(2.0 * REFERENCE_TAU, 1.0) == 2000


def test_grid_resolves_small_epsilon():
    p = get_preset("schrodinger-a1")
    grid = resolving_grid(p.half_width, 2.0**-6)
    assert grid.n == 2048
    assert grid.h <= 2.0**-6  # mesh below epsilon, no resolution warning
    assert resolving_grid(get_preset("kdv-a2").half_width, 0.25).n == 256
