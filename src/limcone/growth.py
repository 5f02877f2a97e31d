"""Convex duality layer: the boundary of the dual body, reconstruction
of the growth indicator, growth form, concavity audit, and deformation
scans.

The dual body D = {phi : phi >= psi} is cut out by the pressure
condition P(-phi . F) <= 0, and its boundary is the set of functionals
of unit critical exponent.  Tracing works by ray scaling: for a
direction u in the interior of the dual cone the pressure root s* of u
satisfies h_{s* u} = 1, so one root-find per direction lands exactly on
the boundary.  Each traced point carries its Gibbs direction (the
tangency direction of the boundary functional) and the entropy value
psi takes there.

Pressure, the limit cone and psi are invariant under the opposition
involution iota(v) = -(v_d, ..., v_1), since lambda(g^-1) = iota
lambda(g).  For d = 3 iota maps the tracing angle theta to -theta, so
the traced window is symmetric about 0: only its angles >= 0 are
root-found, and each point at -theta is the iota-image of its partner.

The growth rate for the Euclidean norm is h = max over unit v of psi(v),
which by duality is the least norm on D (Quint, Comment. Math. Helv. 77,
2002).  D and the norm are both convex and iota-invariant, so that least
norm is attained at the iota-fixed direction U1 = (1, 0, -1)/sqrt 2
(d = 2: U = (1, -1)/sqrt 2), and h is the pressure root of U1.

psi itself is the lower envelope min_phi phi(v) over the traced
boundary, evaluated at a whole stack of directions by one matrix
product; it is concave by construction and an overestimate at finite
resolution.  Each traced functional touches psi at its own Gibbs
direction, so the envelope is psi, up to resolution, exactly on the arc
those directions span in the sum-zero plane.  Off that arc it is only
an upper bound (and psi is minus infinity outside the limit cone), so
there the explicit minus-infinity marker is returned instead.
"""

from dataclasses import dataclass

import numpy as np

from .counting import NEG_INFINITY, ConeHull, gap_slice_coord, limit_cone
from .bulk import class_spectra  # unused here; perfbench/tracing.py patches it
from .errors import (
    DegenerateConeError,
    InsufficientDataError,
    InvalidParameterError,
    LimconeError,
)
from .pressure import DEFAULT_N_MAX, gibbs_direction, pressure_root
from .reps import perturb
from .spectra import Functional

__all__ = [
    "BoundaryPoint",
    "DualBody",
    "GrowthForm",
    "boundary_point",
    "boundary_curve",
    "psi_from_duality",
    "growth_form",
    "ConcavityReport",
    "concavity_audit",
    "ContinuityRow",
    "continuity_scan",
]

_EDGE_MARGIN = 0.05     # share of the angular window left untraced at each end; it narrows the arc
_MARGIN_TOL = 1e-6      # audit margins down to -_MARGIN_TOL are rounding, not violations
_DEGENERATE_WIDTH = 1e-9  # sampled cones narrower than this (gap coordinate) are one ray


@dataclass(frozen=True)
class BoundaryPoint:
    """A functional with unit critical exponent and its tangency data."""

    direction: Functional        # unit-norm input direction
    s_star: float                # scale putting the direction on the boundary
    functional: Functional       # s_star * direction
    gibbs_vector: np.ndarray     # raw Gibbs mean per unit time (tangency direction)
    entropy: float               # functional evaluated on the raw Gibbs mean


@dataclass(frozen=True)
class DualBody:
    """Ordered sample of the dual-body boundary (d = 3: by angle in the
    dual plane, inside the polar of `cone`; d = 2: a single point) and
    the growth rate, the pressure root at the iota-fixed direction."""

    boundary: tuple              # BoundaryPoints ordered by angle
    growth_rate: float           # least norm on the dual body
    cone: ConeHull               # sampled limit cone; the traced window is its polar

    def __len__(self):
        return len(self.boundary)

    def functionals(self) -> np.ndarray:
        return np.stack([bp.functional.coeffs for bp in self.boundary])


@dataclass(frozen=True)
class GrowthForm:
    h: float                     # exponential growth rate for the norm


# orthonormal basis of the sum-zero plane for d = 3; for d = 2 the plane
# is the line of U = (1, -1)/sqrt 2 and the second axis is zero
_U1 = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
_U2 = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
_PLANE = {2: (np.array([1.0, -1.0]) / np.sqrt(2.0), np.zeros(2)), 3: (_U1, _U2)}


def _angle(V) -> np.ndarray:
    """Angle in the sum-zero plane, from U1 towards U2, of every vector of
    the stack V (shape (..., d)); for d = 2 it is 0 along U and +-pi
    against it.  Each row is summed on its own, so a vector has the same
    angle alone and inside a stack (a BLAS matvec can round the two
    differently)."""
    u1, u2 = _PLANE[np.shape(V)[-1]]
    return np.arctan2((V * u2).sum(-1), (V * u1).sum(-1))


def boundary_point(rep, u, n_max: int = DEFAULT_N_MAX) -> BoundaryPoint:
    """Scale the direction u onto the boundary of the dual body.

    The returned functional is s* u with s* the pressure root of u, so
    its own root is 1 by homogeneity; input scale does not matter.
    """
    u = u if isinstance(u, Functional) else Functional(np.asarray(u, dtype=float))
    if not u.norm() > 0:
        raise InvalidParameterError("direction must be nonzero")
    un = Functional(u.coeffs / u.norm())
    s_star = pressure_root(rep, un, n_max=n_max)
    phi = s_star * un
    g = gibbs_direction(rep, phi, n_max)
    return BoundaryPoint(un, float(s_star), phi, g, float(phi.coeffs @ g))


def _opposition(c) -> np.ndarray:
    """The opposition involution iota(v) = -(v_d, ..., v_1) on coefficient
    vectors; it maps lambda(g) to lambda(g^-1)."""
    return -np.asarray(c)[::-1]


def _mirror(bp: BoundaryPoint) -> BoundaryPoint:
    """The boundary point traced at iota(bp.direction): pressure is
    iota-invariant, so s* and the entropy carry over and the Gibbs mean
    is the iota-image."""
    return BoundaryPoint(Functional(_opposition(bp.direction.coeffs)), bp.s_star,
                         Functional(_opposition(bp.functional.coeffs)),
                         _opposition(bp.gibbs_vector), bp.entropy)


def boundary_curve(rep, resolution: int = 16, n_max: int = DEFAULT_N_MAX,
                   allow_degenerate: bool = False, threads: int = 1) -> DualBody:
    """Trace the dual-body boundary at `resolution` directions, evenly
    spaced by angle over the polar of limit_cone(rep, n_max) but kept a
    fixed 5 percent of that window's width away from each end.  Each
    pressure root is found to within 1e-6.

    The window is symmetric about angle 0 by construction (its half-width
    is half the polar's): the ceil(resolution / 2) angles >= 0 are traced,
    and the points below 0 are their mirror images under iota, with the
    same s* and entropy.  The body also holds the growth rate, the
    pressure root at U1, found on its own (d = 2: the s* of the one
    traced point, which is U); an error there is raised.  Tracing runs
    on the calling thread: `threads` accepts only 1 and is kept for the
    callers in perfbench/.

    A failed direction is left out, a failed angle together with its
    mirror, so the body then holds fewer than `resolution` points; more
    than 20 percent failing aborts.  A representation whose sampled limit
    cone is a single ray has a dual body with flat boundary; that
    degenerate case errors out unless allow_degenerate is set
    (deformation scans set it to keep the unperturbed baseline usable).
    """
    if threads != 1:
        raise InvalidParameterError("boundary_curve traces on one thread: threads must be 1")
    if rep.dim == 2:
        bp = boundary_point(rep, Functional(np.array([1.0, -1.0])), n_max=n_max)
        return DualBody((bp,), bp.s_star, limit_cone(rep, n_max))
    if rep.dim != 3:
        raise InvalidParameterError("boundary_curve is implemented for d in {2, 3}")
    if resolution < 8:
        raise InvalidParameterError("need resolution >= 8")
    cone = limit_cone(rep, n_max)
    angles = _angle(cone.hull)
    lo, hi = angles.max() - np.pi / 2, angles.min() + np.pi / 2
    if cone.width < _DEGENERATE_WIDTH and not allow_degenerate:
        raise DegenerateConeError(
            "sampled limit cone is a single ray; dual body boundary is flat"
            " (pass allow_degenerate=True to trace it anyway)"
        )
    # the cone is iota-invariant, so its polar is symmetric about 0: the
    # window is [-a, a], and upper holds the angles >= 0 of resolution
    # evenly spaced ones across it
    a = (1.0 - 2.0 * _EDGE_MARGIN) * (hi - lo) / 2.0
    upper = a * np.arange(1 - resolution % 2, resolution, 2) / (resolution - 1)

    traced = []
    for theta in upper:
        u = Functional(np.cos(theta) * _U1 + np.sin(theta) * _U2)
        try:
            traced.append(boundary_point(rep, u, n_max=n_max))
        except LimconeError:
            traced.append(None)
    h = pressure_root(rep, Functional(_U1), n_max)
    lower = resolution // 2                       # theta = 0 is traced once
    results = [None if bp is None else _mirror(bp) for bp in traced[::-1][:lower]] + traced
    points = tuple(bp for bp in results if bp is not None)
    failed = resolution - len(points)
    if failed > 0.2 * resolution:
        raise InsufficientDataError(f"{failed} of {resolution} boundary directions failed")
    return DualBody(points, float(h), cone)


def _envelope(body: DualBody, V):
    """Lower envelope min_i F_i . v of the body's functional rows F at
    every direction v of the stack V (shape (..., d)), as one product.

    The result is NaN, standing for minus infinity, wherever the angle of
    v in the sum-zero plane lies outside the arc of the traced Gibbs
    directions: there the envelope only bounds psi from above.
    """
    V = np.asarray(V, dtype=float)
    psi = (body.functionals() @ V.reshape(-1, V.shape[-1]).T).min(axis=0)
    arc = _angle(np.stack([bp.gibbs_vector for bp in body.boundary]))
    theta = _angle(V).ravel()
    psi[(theta < arc.min()) | (theta > arc.max())] = np.nan
    return psi.reshape(V.shape[:-1])


def psi_from_duality(body: DualBody, v):
    """Growth indicator by duality: the lower envelope of the traced
    boundary functionals at v, one row of _envelope.  Exact up to curve
    resolution on the arc of the traced Gibbs directions, and equal to
    the entropy at each of them; off that arc the minus-infinity marker
    is returned rather than an upper bound.  v need not be a unit vector:
    psi is homogeneous."""
    v = np.asarray(v, dtype=float)
    if v.shape != body.boundary[0].functional.coeffs.shape or not np.isfinite(v).all():
        raise InvalidParameterError("v must be a finite vector of the body's dimension")
    val = float(_envelope(body, v))
    return NEG_INFINITY if np.isnan(val) else val


def growth_form(body: DualBody) -> GrowthForm:
    """The growth rate for the Euclidean norm, the least norm on the dual
    body, which boundary_curve found as one pressure root.  Every traced
    functional's norm is at least h.  The body argument is kept only for
    the callers in perfbench/."""
    return GrowthForm(body.growth_rate)


# ---------------------------------------------------------------------------
# concavity audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcavityReport:
    pairs_tested: int
    concave_pairs: int

    @property
    def concave_ok(self) -> bool:
        return self.concave_pairs == self.pairs_tested


def concavity_audit(body: DualBody, samples: int = 32, seed: int = 0) -> ConcavityReport:
    """Sample direction pairs on the arc of the traced Gibbs directions,
    both ends at angles drawn uniformly from it, and check midpoint
    concavity of the reconstructed indicator.  Every value is read off
    one envelope evaluation over the traced functionals; a pair counts
    only when its ends and its three midpoints are all finite.  A pair is
    concave when its worst margin is at least -_MARGIN_TOL, so
    rounding-level margins count as no violation."""
    if samples < 16:
        raise InvalidParameterError("need at least 16 sample pairs")
    u1, u2 = _PLANE[len(body.boundary[0].gibbs_vector)]
    arc = _angle(np.stack([bp.gibbs_vector for bp in body.boundary]))
    theta = np.random.default_rng(seed).uniform(arc.min(), arc.max(), (samples, 2))[..., None]
    ends = np.cos(theta) * u1 + np.sin(theta) * u2
    pa, pb = _envelope(body, ends).T
    w = np.array([[0.25], [0.5], [0.75]])
    pm = _envelope(body, w[..., None] * ends[:, 0] + (1 - w[..., None]) * ends[:, 1])
    worst = (pm - (w * pa + (1 - w) * pb)).min(axis=0)
    worst = worst[~np.isnan(worst)]                    # pairs with all five finite
    return ConcavityReport(len(worst), int((worst >= -_MARGIN_TOL).sum()))


# ---------------------------------------------------------------------------
# continuity under deformation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityRow:
    """One ladder step of continuity_scan.  dpsi_max is the largest
    |psi_eps - psi_0| over the probes where psi by duality is finite on
    both sides, and NaN when there is no such probe.  dh = |h_eps - h_0|
    is also the move of the growth form's tangent functional h U1."""

    epsilon: float
    hausdorff: float
    dpsi_max: float
    dh: float
    failed: bool


def _analysis(rep, n_max, resolution, probes):
    body = boundary_curve(rep, resolution=resolution, n_max=n_max, allow_degenerate=True)
    return body.cone, growth_form(body), _envelope(body, probes)


def continuity_scan(rep, epsilons, seed: int, probes, n_max: int = DEFAULT_N_MAX,
                    resolution: int = 16):
    """Rebuild cone, indicator and growth form on perturb(rep, eps, seed)
    for each eps and report deltas against the unperturbed baseline.

    Every eps must be finite and >= 0 and every probe inside the baseline
    limit cone, a tenth of its gap-coordinate width from either end (a
    degenerate baseline cone admits only its own ray), checked first.
    A failing ladder step is marked and the scan continues.
    """
    if not all(eps >= 0 and np.isfinite(2.0 * eps) for eps in epsilons):
        raise InvalidParameterError("epsilons must be finite and >= 0")
    probes = [np.asarray(p, dtype=float) for p in probes]
    base_cone = limit_cone(rep, n_max)
    lo, hi = base_cone.interval
    width = hi - lo
    for p in probes:
        tp = float(gap_slice_coord(p[None])[0])
        if width < _DEGENERATE_WIDTH:
            if abs(tp - 0.5 * (lo + hi)) > 1e-6:
                raise InvalidParameterError("probe outside the degenerate cone ray")
        elif not (lo + 0.1 * width <= tp <= hi - 0.1 * width):
            raise InvalidParameterError("probe outside the cone hull margin")
    _, base_form, base_psi = _analysis(rep, n_max, resolution, probes)
    rows = []
    for eps in epsilons:
        try:
            rep_eps = perturb(rep, eps, seed)
            cone, form, psi = _analysis(rep_eps, n_max, resolution, probes)
        except LimconeError:
            rows.append(ContinuityRow(float(eps), np.nan, np.nan, np.nan, True))
            continue
        dpsi = np.abs(psi - base_psi)
        dpsi = dpsi[np.isfinite(dpsi)]          # NaN psi stands for minus infinity
        rows.append(
            ContinuityRow(
                float(eps),
                base_cone.hausdorff(cone),
                float(dpsi.max()) if len(dpsi) else np.nan,
                abs(form.h - base_form.h),
                False,
            )
        )
    return rows
