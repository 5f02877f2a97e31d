"""The same numbers from another basis.  Swapping or inverting
generators permutes the words and the classes of each length, so every
number agrees.  An inner automorphism or a conjugation in SL(d, R)
keeps each class and its Jordan projection, so the class-route numbers
agree; the element route is not gated under them, since they move word
lengths or Cartan projections (measured at N = 10 on s2 and p3: the
element exponent and direct psi move by 0.5 to 11 percent).  A Nielsen
move changes each truncation but not its limit, so the pressure roots
move by less at N = 12 than at N = 10, while the complete windows, the
values below both completeness caps, agree.  The dual representation
rho^-T maps lambda to iota lambda, so its roots at phi are rho's at
phi o iota and its cone is the iota-image of rho's."""

import numpy as np
import pytest

from limcone import (
    Functional,
    boundary_curve,
    critical_exponent_direct,
    growth_form,
    growth_indicator_direct,
    limit_cone,
    pressure_root,
    psi_from_duality,
)
from limcone import counting
from limcone.growth import _PLANE
from reference import dual_rep, rebase

N = 10                  # measured: swaps within 3.0e-15, the class route within 7.5e-15


def shear(d):
    """A fixed element of SL(d, R), neither diagonal nor triangular."""
    g = np.eye(d) + 0.3 * np.triu(np.ones((d, d)), 1)
    g[-1, 0] = 0.2
    return g / np.linalg.det(g) ** (1.0 / d)


def numbers(rep):
    """(class route, element route) at depth N: pressure roots at
    lambda_1 - lambda_2 (p3 also at U1 and (1, 0.3, -1.3)), the limit
    cone, the conjugacy exponent of lambda_1 - lambda_2, h and psi by
    duality at U1; then the element exponent and direct psi at U1."""
    gap = Functional(np.eye(rep.dim)[0] - np.eye(rep.dim)[1])
    u = _PLANE[rep.dim][0]
    phis = [gap] if rep.dim == 2 else [gap, Functional(u), Functional([1.0, 0.3, -1.3])]
    cone = limit_cone(rep, N)
    body = boundary_curve(rep, 16, N)
    cls = [pressure_root(rep, phi, N) for phi in phis] + [
        *cone.interval, *cone.hull.ravel(),
        critical_exponent_direct(rep, gap, N, "conjugacy").value,
        growth_form(body).h, psi_from_duality(body, u)]
    element = [critical_exponent_direct(rep, gap, N, "element").value,
               growth_indicator_direct(rep, u, 0.15, N).value]
    return np.array(cls), np.array(element, dtype=float)


@pytest.fixture(scope="module", params=["s2", "p3"])
def base(request):
    rep = request.getfixturevalue(request.param)
    return rep, numbers(rep)


@pytest.mark.parametrize("move", ["swap", "invert"])
def test_letter_moves_keep_every_number(base, move):
    rep, (cls, element) = base
    got_cls, got_element = numbers(rebase(rep, move))
    assert got_cls == pytest.approx(cls, rel=1e-12, abs=0)
    assert got_element == pytest.approx(element, rel=1e-12, abs=0)


@pytest.mark.parametrize("move", ["inner", "conjugation"])
def test_class_route_keeps_its_numbers(base, move):
    rep, (cls, _) = base
    got_cls, _ = numbers(rebase(rep, shear(rep.dim) if move == "conjugation" else move))
    assert got_cls == pytest.approx(cls, rel=1e-12, abs=0)


def functionals(rep):
    """lambda_1 - lambda_2, and for d = 3 also lambda_1 - lambda_3 and
    (1, 0.3, -1.3)."""
    if rep.dim == 2:
        return [Functional([1.0, -1.0])]
    return [Functional(c) for c in ([1.0, -1.0, 0.0], [1.0, 0.0, -1.0], [1.0, 0.3, -1.3])]


# measured: the root moves by at most 1.39e-4 at N = 10 and 1.05e-5 at N = 12
@pytest.mark.parametrize("move", ["a->ab", "a->ab^-1", "b->ba"])
@pytest.mark.parametrize("name", ["s2", "p3"])
def test_nielsen_moves_shrink_the_root_spread(request, name, move):
    rep = request.getfixturevalue(name)
    moved = rebase(rep, move)
    for phi in functionals(rep):
        d10, d12 = (abs(pressure_root(moved, phi, n) - pressure_root(rep, phi, n))
                    for n in (10, 12))
        assert d10 <= 2e-4 and d12 <= 2e-5 and d12 < d10, (phi.coeffs, d10, d12)


@pytest.mark.parametrize("name", ["s2", "p3"])
def test_dual_representation_is_the_iota_image(request, name):
    rep = request.getfixturevalue(name)
    dual = dual_rep(rep)
    for phi in functionals(rep):
        assert pressure_root(dual, phi, N) == pytest.approx(
            pressure_root(rep, Functional(-phi.coeffs[::-1]), N), rel=1e-12, abs=0)
    lo, hi = limit_cone(rep, N).interval
    assert limit_cone(dual, N).interval == pytest.approx((-hi, -lo), rel=1e-12, abs=0)


# measured: equal counts (83 to 1,016 values), values within 1.8e-13 * cap
@pytest.mark.parametrize("mode", ["conjugacy", "element"])
@pytest.mark.parametrize("move", ["a->ab", "a->ab^-1", "b->ba"])
@pytest.mark.parametrize("name", ["s2", "p3"])
def test_nielsen_moves_keep_the_complete_window(request, name, move, mode):
    # every gap lambda_i - lambda_j, i < j, counts the same classes or
    # elements below the smaller of the two caps in either free basis
    rep = request.getfixturevalue(name)
    gaps = [(i, j) for i in range(rep.dim) for j in range(i + 1, rep.dim)]
    windows = []
    for r in (rep, rebase(rep, move)):
        vectors, starts = counting._table(r, N, mode)
        values = [vectors[:, i] - vectors[:, j] for i, j in gaps]
        windows.append([(v, counting._completeness_cap(v, starts)) for v in values])
    for (i, j), (a, cap_a), (b, cap_b) in zip(gaps, *windows):
        cap = min(cap_a, cap_b)
        a, b = np.sort(a[a < cap]), np.sort(b[b < cap])
        assert len(a) == len(b), (i, j, len(a), len(b))
        assert np.abs(a - b).max() <= 1e-12 * cap, (i, j)
