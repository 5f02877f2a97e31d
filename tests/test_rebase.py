"""The same numbers from another basis.  Swapping or inverting
generators permutes the words and the classes of each length, so every
number agrees.  An inner automorphism or a conjugation in SL(d, R)
keeps each class and its Jordan projection, so the class-route numbers
agree; the element route is not gated under them, since they move word
lengths or Cartan projections (measured at N = 10 on s2 and p3: the
element exponent and direct psi move by 0.5 to 11 percent)."""

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
from limcone.growth import _PLANE
from reference import rebase

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
