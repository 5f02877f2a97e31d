"""Convex duality layer: the traced dual-body boundary, psi by duality,
the growth form, the concavity audit and the deformation scan."""

import dataclasses

import numpy as np
import pytest

from limcone import (
    BracketFailureError,
    DegenerateConeError,
    Functional,
    InvalidParameterError,
    NEG_INFINITY,
    boundary_curve,
    concavity_audit,
    continuity_scan,
    entropy_of_state,
    growth_form,
    is_neg_infinity,
    limit_cone,
    perturb,
    pressure_root,
    psi_from_duality,
    sym_power_embed,
)
from limcone import growth
from limcone.growth import _U1, _U2
from limcone.pressure import gibbs_direction
from reference import copying_gibbs_direction


def plain_chamber_direction(t):
    """Unit d = 3 chamber vector with gap coordinate t."""
    v = np.array([(1.0 - t) / 2.0, t, (-1.0 - t) / 2.0])
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def body(p3):
    return boundary_curve(p3, 16)


def test_boundary_functionals_have_unit_root(p3, body):
    assert len(body) == 16 and body.cone.width > growth._DEGENERATE_WIDTH
    for bp in body.boundary:
        assert abs(pressure_root(p3, bp.functional) - 1.0) < 1e-5


def test_concavity_audit(body):
    report = concavity_audit(body)
    assert report.pairs_tested > 0 and report.concave_ok


def test_strict_pairs_ignore_rounding(body):
    # some p3 margins are 1e-16 or 0 by rounding alone; scaling every
    # functional by 1 + O(1e-15) flips their sign but not the concave count
    concave = concavity_audit(body).concave_pairs
    for j in range(-4, 5):
        scaled = dataclasses.replace(body, boundary=tuple(
            dataclasses.replace(bp, functional=(1 + j * 1e-15) * bp.functional)
            for bp in body.boundary))
        assert concavity_audit(scaled).concave_pairs == concave, j


def test_psi_at_cone_ends_and_centre(p3, body):
    lo, hi = limit_cone(p3, 12).interval
    assert lo == pytest.approx(-0.0341, abs=1e-4) and hi == pytest.approx(0.0341, abs=1e-4)
    for t in (lo, hi):
        assert psi_from_duality(body, plain_chamber_direction(t)) is NEG_INFINITY
    centre = psi_from_duality(body, plain_chamber_direction(0.5 * (lo + hi)))
    assert centre == pytest.approx(0.55126, abs=1e-5)


def test_s2_growth_rate_is_scaled_gap_root(s2):
    # d = 2: the one boundary functional is s* (1, -1)/sqrt 2, so its norm
    # is sqrt 2 times the root of the gap functional (1, -1)
    h = growth_form(boundary_curve(s2, 16)).h
    assert h == pytest.approx(np.sqrt(2) * pressure_root(s2, Functional.gap(2, 1)), abs=1e-12)
    assert h == pytest.approx(1.0610332, abs=1e-7)


def test_s2_psi_is_minus_infinity_against_the_cone(s2):
    # the limit cone of s2 is the ray of (1, -1)
    body = boundary_curve(s2, 16)
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert psi_from_duality(body, u) == pytest.approx(growth_form(body).h, abs=1e-12)
    assert psi_from_duality(body, -u) is NEG_INFINITY


@pytest.mark.parametrize("v", [[np.nan, 0.0, 0.0], [1.0, -1.0], [[1.0, 0.0, -1.0]]])
def test_psi_refuses_a_bad_direction(body, v):
    with pytest.raises(InvalidParameterError):
        psi_from_duality(body, v)


def test_psi_takes_any_scale(body):
    # psi is homogeneous of degree one; v need not be a unit vector
    assert psi_from_duality(body, 3.0 * _U1) == pytest.approx(3.0 * psi_from_duality(body, _U1))


@pytest.mark.parametrize("u", [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [np.nan, 0.0, 0.0]])
def test_boundary_point_refuses_a_zero_or_non_finite_direction(p3, u):
    # [1, 1, 1] is zero on sum-zero vectors
    with pytest.raises(InvalidParameterError):
        growth.boundary_point(p3, u, 8)


def test_audit_needs_sixteen_pairs(body):
    with pytest.raises(InvalidParameterError):
        concavity_audit(body, samples=8)


def test_continuity_scan_probe_preconditions(p3, f3):
    lo, _ = limit_cone(p3, 12).interval
    with pytest.raises(InvalidParameterError, match="margin"):
        continuity_scan(p3, [0.0], 1, [plain_chamber_direction(lo)])
    with pytest.raises(InvalidParameterError, match="ray"):
        continuity_scan(f3, [0.0], 1, [plain_chamber_direction(0.1)])


def test_continuity_scan_marks_a_failed_step(s2):
    # the 5.0 perturbation of s2 has a class with zero gap: that step fails, the scan goes on
    rows = continuity_scan(s2, [0.0, 5.0], 3, [np.array([1.0, -1.0]) / np.sqrt(2.0)])
    assert [row.failed for row in rows] == [False, True]


def test_continuity_scan_at_zero_deformation(p3):
    lo, hi = limit_cone(p3, 12).interval
    (row,) = continuity_scan(p3, [0.0], 1, [plain_chamber_direction(0.5 * (lo + hi))])
    assert not row.failed
    assert row.hausdorff == row.dpsi_max == row.dh == 0.0


def test_near_single_ray_cone_is_degenerate(f3):
    # a two-row hull 1.3e-10 wide is still one ray for tracing
    rep = perturb(f3, 1e-10, 1)
    cone = limit_cone(rep, 12)
    assert len(cone.hull) == 2 and 1e-10 < cone.width < 1e-9
    with pytest.raises(DegenerateConeError):
        boundary_curve(rep, 16)


def test_boundary_curve_preconditions(p3, s2):
    with pytest.raises(InvalidParameterError):
        boundary_curve(p3, 7)
    with pytest.raises(InvalidParameterError):
        boundary_curve(sym_power_embed(s2, 4), 16)


# ---------------------------------------------------------------------------
# the opposition involution iota(v) = -(v_3, v_2, v_1)
# ---------------------------------------------------------------------------

def iota(c):
    return -np.asarray(c)[::-1]


def angles(body):
    """The tracing angle of each point, read back from its direction;
    mirrored angles are antisymmetric up to rounding (theta = 0 reads
    about -2e-17)."""
    u = np.stack([bp.direction.coeffs for bp in body.boundary])
    return np.arctan2(u @ _U2, u @ _U1)


@pytest.fixture(scope="module", params=["p3", "f3-0.03-7"])
def mirrored(request, f3, p3):
    rep = p3 if request.param == "p3" else perturb(f3, 0.03, 7)
    return rep, boundary_curve(rep, 16)


def test_window_is_antisymmetric(mirrored):
    _, body = mirrored
    th = angles(body)
    assert len(th) == 16 and list(th) == sorted(th)


def test_points_at_opposite_angles_are_iota_images(mirrored):
    _, body = mirrored
    for bp, partner in zip(body.boundary, reversed(body.boundary)):
        np.testing.assert_allclose(bp.direction.coeffs, iota(partner.direction.coeffs),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(bp.functional.coeffs, iota(partner.functional.coeffs),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(bp.gibbs_vector, iota(partner.gibbs_vector),
                                   rtol=0, atol=1e-15)
        assert bp.s_star == partner.s_star and bp.entropy == partner.entropy


def test_mirrored_points_carry_their_own_root(mirrored):
    # the lower half is mirrored, not traced: its s* is the root at iota(u)
    # up to the summation order of the level sums
    rep, body = mirrored
    for bp in body.boundary[:8]:
        assert pressure_root(rep, bp.direction) == pytest.approx(bp.s_star, rel=1e-15, abs=0)


def test_pressure_root_is_iota_invariant(mirrored):
    rep, _ = mirrored
    phi = Functional(np.array([1.0, 0.3, -1.3]))
    assert pressure_root(rep, Functional(iota(phi.coeffs))) == pytest.approx(
        pressure_root(rep, phi), rel=1e-15, abs=0)


def test_sampled_cone_is_iota_invariant(mirrored):
    rep, _ = mirrored
    lo, hi = limit_cone(rep, 12).interval
    assert lo < 0 < hi and abs(lo + hi) <= 1e-15


def test_psi_is_iota_invariant(mirrored):
    # iota(v) is the chamber direction at -t; finite values sum three
    # products in reversed order, so they agree to rounding
    rep, body = mirrored
    lo, hi = limit_cone(rep, 12).interval
    finite = 0
    for t in 0.5 * (lo + hi) + 0.4 * (hi - lo) * np.linspace(-1.0, 1.0, 9):
        v = plain_chamber_direction(t)
        a, b = psi_from_duality(body, v), psi_from_duality(body, iota(v))
        if a is NEG_INFINITY:
            assert b is NEG_INFINITY, t
        else:
            assert isinstance(b, float) and abs(a - b) <= 1e-15, t
            finite += 1
    assert 0 < finite < 9


@pytest.mark.parametrize("resolution, traced", [(16, 8), (17, 9), (64, 32)])
def test_half_the_window_is_traced(p3, monkeypatch, resolution, traced):
    calls = []
    trace = growth.boundary_point

    def counted(rep, u, n_max):
        calls.append(np.arctan2(u.coeffs @ _U2, u.coeffs @ _U1))
        return trace(rep, u, n_max=n_max)

    monkeypatch.setattr(growth, "boundary_point", counted)
    body = boundary_curve(p3, resolution=resolution)
    assert len(calls) == traced and len(body) == resolution
    np.testing.assert_allclose(calls, angles(body)[resolution // 2:], rtol=0, atol=1e-15)
    if resolution % 2:
        assert abs(angles(body)[resolution // 2]) <= 1e-15


def test_failed_angle_is_a_gap_on_both_sides(p3, monkeypatch):
    trace = growth.boundary_point
    calls = []

    def fail_third(rep, u, n_max):
        calls.append(u)
        if len(calls) == 3:
            raise BracketFailureError("injected")
        return trace(rep, u, n_max=n_max)

    whole = boundary_curve(p3, resolution=17)
    monkeypatch.setattr(growth, "boundary_point", fail_third)
    body = boundary_curve(p3, resolution=17)
    th = angles(whole)
    assert len(calls) == 9 and len(body) == 15 and abs(th[6] + th[10]) <= 1e-15
    assert np.array_equal(angles(body), np.delete(th, [6, 10]))
    assert body.functionals().tolist() == np.delete(whole.functionals(), [6, 10], 0).tolist()


def test_threads_other_than_one_are_refused(s2, p3, monkeypatch):
    # tracing runs on the calling thread; the refusal comes before any root
    calls = []
    monkeypatch.setattr(growth, "boundary_point", lambda *a, **k: calls.append(a))
    for rep in (s2, p3):
        for threads in (0, 2, 4, -1):
            with pytest.raises(InvalidParameterError, match="threads"):
                boundary_curve(rep, 17, threads=threads)
    assert calls == []


# ---------------------------------------------------------------------------
# the envelope product against the per-functional loops it replaced
# ---------------------------------------------------------------------------

def plain_angle(v):
    """Angle of v in the sum-zero plane: from U1 towards U2 for d = 3,
    0 along (1, -1) and pi against it for d = 2."""
    v = np.asarray(v, dtype=float)
    if len(v) == 2:
        return 0.0 if v[0] >= v[1] else np.pi
    return float(np.arctan2(v @ _U2, v @ _U1))


def plain_psi_from_duality(body, v):
    """One boundary functional at a time, finite only on the arc of the
    traced Gibbs directions."""
    arc = [plain_angle(bp.gibbs_vector) for bp in body.boundary]
    if not min(arc) <= plain_angle(v) <= max(arc):
        return NEG_INFINITY
    return float(min(bp.functional(np.asarray(v, dtype=float)) for bp in body.boundary))


def plain_concavity_audit(body, samples=32, seed=0, tol=1e-6):
    """One pair and one point at a time: (tested, concave)."""
    if len(body.boundary) == 1:
        return samples, samples
    arc = [plain_angle(bp.gibbs_vector) for bp in body.boundary]
    rng = np.random.default_rng(seed)
    tested = concave = 0
    for _ in range(samples):
        ta, tb = rng.uniform(min(arc), max(arc), 2)
        va, vb = (np.cos(t) * _U1 + np.sin(t) * _U2 for t in (ta, tb))
        pa, pb = plain_psi_from_duality(body, va), plain_psi_from_duality(body, vb)
        if is_neg_infinity(pa) or is_neg_infinity(pb):
            continue
        margins = []
        ok = True
        for t in (0.25, 0.5, 0.75):
            pm = plain_psi_from_duality(body, t * va + (1 - t) * vb)
            if is_neg_infinity(pm):
                ok = False
                break
            margins.append(pm - (t * pa + (1 - t) * pb))
        if not ok:
            continue
        tested += 1
        if min(margins) >= -tol:
            concave += 1
    return tested, concave


@pytest.fixture(scope="module", params=[
    ("p3", 16), ("p3", 64), ("f3-0.03-7", 16), ("f3-0.03-7", 64),
    ("f3-0.08-3", 16), ("f3-0.08-3", 64), ("s2", 16),
], ids=lambda p: f"{p[0]}-res{p[1]}")
def traced(request, s2, f3, p3):
    name, resolution = request.param
    rep = {"s2": s2, "p3": p3, "f3-0.03-7": perturb(f3, 0.03, 7),
           "f3-0.08-3": perturb(f3, 0.08, 3)}[name]
    return rep, boundary_curve(rep, resolution)


def test_envelope_matches_per_functional_loop(traced):
    rep, body = traced
    if rep.dim == 2:
        angles = np.linspace(-np.pi, np.pi, 301)
        probes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        lo, hi = limit_cone(rep, 12).interval
        probes = [plain_chamber_direction(t) for t in np.linspace(lo - 0.01, hi + 0.01, 301)]
    finite = 0
    for v in probes:
        want, got = plain_psi_from_duality(body, v), psi_from_duality(body, v)
        if is_neg_infinity(want):
            assert got is NEG_INFINITY, v
        else:
            assert isinstance(got, float) and abs(got - want) <= 1e-15, v
            finite += 1
    assert finite > 0


def test_gibbs_direction_matches_copying_form(traced):
    # in place, the same bits
    rep, body = traced
    for bp in body.boundary:
        assert np.array_equal(gibbs_direction(rep, bp.functional, 12),
                              copying_gibbs_direction(rep, bp.functional, 12))


def test_audit_matches_looped_audit(traced):
    # every pair is drawn on the arc, so all five of its values are finite
    _, body = traced
    for seed in range(6):
        report = concavity_audit(body, seed=seed)
        want = plain_concavity_audit(body, seed=seed)
        assert (report.pairs_tested, report.concave_pairs) == want, seed
        assert report.pairs_tested == 32, seed


@pytest.fixture(scope="module", params=[
    ("p3", 16), ("p3", 64), ("f3-0.03-7", 16), ("f3-0.03-7", 64),
], ids=lambda p: f"{p[0]}-res{p[1]}")
def tangent_rep(request, f3, p3):
    name, resolution = request.param
    return (p3 if name == "p3" else perturb(f3, 0.03, 7)), resolution


@pytest.fixture(scope="module")
def tangent(tangent_rep):
    return boundary_curve(*tangent_rep)


def test_each_functional_is_tangent_at_its_gibbs_direction(tangent):
    # phi_i touches psi at g_i, so the envelope there is the entropy, the
    # arc's two ends included (measured: within 3.4e-16); just past either
    # end it is minus infinity.  perturb(f3, 0.08, 3) is left out: near its
    # cone edge the level-n Gibbs vectors miss tangency by up to 4.6 percent
    for bp in tangent.boundary:
        assert psi_from_duality(tangent, bp.gibbs_vector) == pytest.approx(
            bp.entropy, rel=1e-12, abs=0)
    arc = [plain_angle(bp.gibbs_vector) for bp in tangent.boundary]
    for t in (min(arc) - 1e-9, max(arc) + 1e-9):
        assert psi_from_duality(tangent, np.cos(t) * _U1 + np.sin(t) * _U2) is NEG_INFINITY


@pytest.mark.parametrize("resolution", [16, 64])
def test_psi_is_the_entropy_at_every_gibbs_vector(f3, resolution):
    # an end Gibbs vector alone gets the angle it has inside the arc, so
    # psi there is the entropy, not minus infinity
    body = boundary_curve(perturb(f3, 0.03, 2), resolution)
    for bp in body.boundary:
        assert psi_from_duality(body, bp.gibbs_vector) == pytest.approx(
            bp.entropy, rel=1e-12, abs=0)


def test_entropy_is_phi_of_the_gibbs_direction(tangent_rep, tangent):
    # one entropy formula: a traced point (angle >= 0) carries bit for bit
    # what entropy_of_state returns for its functional, and a mirrored one
    # its partner's value (measured: within 2.5e-14)
    rep, _ = tangent_rep
    for bp in tangent.boundary:
        value = entropy_of_state(rep, bp.functional, 12)
        if plain_angle(bp.direction.coeffs) >= 0:
            assert value == bp.entropy
        else:
            assert value == pytest.approx(bp.entropy, rel=0, abs=1e-13)


def test_growth_rate_is_the_root_at_the_iota_fixed_direction(traced):
    # h = max psi = least norm on the dual body, attained at the
    # iota-fixed direction; traced norms and psi at it bound h from above
    rep, body = traced
    u = _U1 if rep.dim == 3 else np.array([1.0, -1.0]) / np.sqrt(2.0)
    h = growth_form(body).h
    assert h == pytest.approx(pressure_root(rep, Functional(u)), rel=1e-12, abs=0)
    assert np.linalg.norm(body.functionals(), axis=1).min() >= h * (1 - 1e-12)
    assert psi_from_duality(body, u) >= h * (1 - 1e-12)


def test_psi_at_the_iota_fixed_direction_approaches_h(p3, body):
    # measured: psi(U1) - h is 8.8e-6 at resolution 16 and 5.0e-7 at 64
    fine = boundary_curve(p3, 64)
    coarse_gap = psi_from_duality(body, _U1) - growth_form(body).h
    fine_gap = psi_from_duality(fine, _U1) - growth_form(fine).h
    assert 0 <= fine_gap < coarse_gap / 10


def test_body_carries_the_limit_cone(traced):
    # the traced window is the polar of limit_cone: the body holds that
    # very cone and every traced functional is positive on its extreme rays
    rep, body = traced
    cone = limit_cone(rep, 12)
    assert np.array_equal(body.cone.hull, cone.hull) and body.cone.interval == cone.interval
    assert (body.functionals() @ body.cone.hull.T).min() > 0.1


@pytest.mark.parametrize("resolution, roots", [(16, 9), (17, 10)])
def test_growth_rate_reads_the_traced_centre_at_odd_resolution(p3, monkeypatch, resolution, roots):
    # the root at U1 is found on its own at every resolution, so at odd
    # resolution, where the traced angle 0 is U1, it is found twice
    calls = []
    root = growth.pressure_root

    def counted(rep, phi, n_max):
        calls.append(phi)
        return root(rep, phi, n_max=n_max)

    monkeypatch.setattr(growth, "pressure_root", counted)
    body = boundary_curve(p3, resolution=resolution)
    assert len(calls) == roots
    assert body.growth_rate == pytest.approx(pressure_root(p3, Functional(_U1)), rel=1e-12, abs=0)


def test_failed_centre_finds_the_growth_rate_on_its_own(p3, monkeypatch):
    # the traced angle 0 fails, so the root at U1 is found on its own; when
    # every root fails, its error is raised, not a count of failed angles
    trace = growth.boundary_point

    def fail_centre(rep, u, n_max):
        if np.array_equal(u.coeffs, _U1):
            raise BracketFailureError("injected")
        return trace(rep, u, n_max=n_max)

    monkeypatch.setattr(growth, "boundary_point", fail_centre)
    body = boundary_curve(p3, resolution=17)
    assert len(body) == 16 and body.growth_rate == pressure_root(p3, Functional(_U1))

    def unbracketed(rep, phi, n_max):
        raise BracketFailureError("injected")

    monkeypatch.setattr(growth, "pressure_root", unbracketed)
    with pytest.raises(BracketFailureError):
        boundary_curve(p3, resolution=17)
