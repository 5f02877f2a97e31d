"""Convex duality layer: the traced dual-body boundary, psi by duality,
the growth form, the concavity audit and the deformation scan."""

import dataclasses

import numpy as np
import pytest

from limcone import (
    Functional,
    InvalidParameterError,
    NEG_INFINITY,
    boundary_curve,
    concavity_audit,
    continuity_scan,
    growth_form,
    limit_cone,
    pressure_root,
    psi_from_duality,
    sym_power_embed,
)
from limcone.growth import _chamber_direction


@pytest.fixture(scope="module")
def body(p3):
    return boundary_curve(p3, 16)


def test_boundary_functionals_have_unit_root(p3, body):
    assert len(body) == 16 and body.gaps == () and not body.degenerate
    for bp in body.boundary:
        assert abs(pressure_root(p3, bp.functional) - 1.0) < 1e-5


def test_concavity_audit(body):
    report = concavity_audit(body)
    assert report.pairs_tested > 0 and report.concave_ok


def test_strict_pairs_ignore_rounding(body):
    # some p3 margins are 1e-16 or 0 by rounding alone; scaling every
    # functional by 1 + O(1e-15) flips their sign but not the count
    strict = concavity_audit(body).strict_pairs
    for j in range(-4, 5):
        scaled = dataclasses.replace(body, boundary=tuple(
            dataclasses.replace(bp, functional=(1 + j * 1e-15) * bp.functional)
            for bp in body.boundary))
        assert concavity_audit(scaled).strict_pairs == strict, j


def test_psi_at_cone_ends_and_centre(p3, body):
    lo, hi = limit_cone(p3, 12).interval
    assert lo == pytest.approx(-0.0341, abs=1e-4) and hi == pytest.approx(0.0341, abs=1e-4)
    for t in (lo, hi):
        assert psi_from_duality(body, _chamber_direction(t)) is NEG_INFINITY
    centre = psi_from_duality(body, _chamber_direction(0.5 * (lo + hi)))
    assert centre == pytest.approx(0.55126, abs=1e-5)


def test_s2_growth_rate_is_scaled_gap_root(s2):
    # d = 2: the one boundary functional is s* (1, -1)/sqrt 2, so its norm
    # is sqrt 2 times the root of the gap functional (1, -1)
    h = growth_form(boundary_curve(s2, 16)).h
    assert h == pytest.approx(np.sqrt(2) * pressure_root(s2, Functional.gap(2, 1)), abs=1e-12)
    assert h == pytest.approx(1.0610332, abs=1e-7)


def test_continuity_scan_at_zero_deformation(p3):
    lo, hi = limit_cone(p3, 12).interval
    (row,) = continuity_scan(p3, [0.0], 1, [_chamber_direction(0.5 * (lo + hi))])
    assert not row.failed
    assert row.hausdorff == row.dpsi_max == row.dh == row.dtheta == 0.0
    assert row.dpsi == (0.0,)


def test_boundary_curve_preconditions(p3, s2):
    with pytest.raises(InvalidParameterError):
        boundary_curve(p3, 7)
    with pytest.raises(InvalidParameterError):
        boundary_curve(sym_power_embed(s2, 4), 16)
