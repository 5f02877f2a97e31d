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

psi itself is the lower envelope min_phi phi(v) over the traced
boundary, evaluated at a whole stack of directions by one matrix
product; it is concave by construction and an overestimate at finite
resolution.  Outside the traced angular window the envelope is
meaningless (the true function has vertical tangents at the cone
boundary), so evaluations whose minimum sits at a curve endpoint and is
still descending there return the explicit minus-infinity marker
instead of an extrapolation.
"""

from concurrent.futures import ThreadPoolExecutor
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

_ENDPOINT_SLOPE_FACTOR = 1.5
_EDGE_MARGIN = 0.05     # share of the traced window, and of the audited one, left out at each end
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
    dual plane, inside the polar of `cone`; d = 2: a single point)."""

    boundary: tuple              # BoundaryPoints ordered by angle
    thetas: tuple                # curve parameter per point (d = 3); antisymmetric, the
                                 # points below 0 are the iota-images of those above
    cone: ConeHull               # sampled limit cone; the traced window is its polar

    def __len__(self):
        return len(self.boundary)

    def functionals(self) -> np.ndarray:
        return np.stack([bp.functional.coeffs for bp in self.boundary])


@dataclass(frozen=True)
class GrowthForm:
    theta: Functional            # tangent functional at the growth direction
    h: float                     # exponential growth rate for the norm


def _chamber_direction(t) -> np.ndarray:
    """Unit chamber vectors with gap coordinates t (d = 3) on a new last axis."""
    t = np.asarray(t, dtype=float)
    v = np.stack([(1.0 - t) / 2.0, t, (-1.0 - t) / 2.0], axis=-1)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# orthonormal basis of the sum-zero plane for d = 3
_U1 = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
_U2 = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)


def boundary_point(rep, u, n_max: int = DEFAULT_N_MAX) -> BoundaryPoint:
    """Scale the direction u onto the boundary of the dual body.

    The returned functional is s* u with s* the pressure root of u, so
    its own root is 1 by homogeneity; input scale does not matter.
    """
    u = u if isinstance(u, Functional) else Functional(np.asarray(u, dtype=float))
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
    same s* and entropy.  `threads` workers share the traced half.

    A failed direction is left out, a failed angle together with its
    mirror, so the body then holds fewer than `resolution` points; more
    than 20 percent failing aborts.  A representation whose sampled limit
    cone is a single ray has a dual body with flat boundary; that
    degenerate case errors out unless allow_degenerate is set
    (deformation scans set it to keep the unperturbed baseline usable).
    """
    if rep.dim == 2:
        bp = boundary_point(rep, Functional(np.array([1.0, -1.0])), n_max=n_max)
        return DualBody((bp,), (0.0,), limit_cone(rep, n_max))
    if rep.dim != 3:
        raise InvalidParameterError("boundary_curve is implemented for d in {2, 3}")
    if resolution < 8:
        raise InvalidParameterError("need resolution >= 8")
    cone = limit_cone(rep, n_max)
    angles = np.arctan2(cone.hull @ _U2, cone.hull @ _U1)
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

    def trace(theta):
        u = Functional(np.cos(theta) * _U1 + np.sin(theta) * _U2)
        try:
            return boundary_point(rep, u, n_max=n_max)
        except LimconeError:
            return None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            traced = list(pool.map(trace, upper))
    else:
        traced = [trace(th) for th in upper]
    lower = resolution // 2                       # theta = 0 is traced once
    thetas = np.concatenate([-upper[::-1][:lower], upper])
    results = [None if bp is None else _mirror(bp) for bp in traced[::-1][:lower]] + traced
    points = tuple(bp for bp in results if bp is not None)
    failed = resolution - len(points)
    if failed > 0.2 * resolution:
        raise InsufficientDataError(f"{failed} of {resolution} boundary directions failed")
    kept = tuple(float(th) for th, bp in zip(thetas, results) if bp is not None)
    return DualBody(points, kept, cone)


def _envelope(F, V):
    """Lower envelope min_i F_i . v of the functional rows F at every
    direction v of the stack V (shape (..., d)), as one product.

    Where the minimum sits at a curve endpoint and the values still fall
    into it faster than _ENDPOINT_SLOPE_FACTOR times the median |second
    difference| along the curve, the true infimum lies beyond the traced
    window: the result there is NaN, standing for minus infinity.
    """
    V = np.asarray(V, dtype=float)
    vals = F @ V.reshape(-1, V.shape[-1]).T              # (m, q)
    m = len(vals)
    i, psi = np.argmin(vals, axis=0), np.min(vals, axis=0)
    if m > 2:
        slope_in = np.where(i == 0, vals[1] - vals[0], vals[-2] - vals[-1])
        # the median as np.median forms it, without its NaN check, which
        # imports numpy.ma (no NaN can arise from finite functionals)
        mid = [(m - 3) // 2, (m - 2) // 2]
        part = np.partition(np.abs(np.diff(vals, 2, axis=0)), mid, axis=0)
        curvature = (part[mid[0]] + part[mid[1]]) / 2
        falling = slope_in > _ENDPOINT_SLOPE_FACTOR * curvature + 1e-15
        psi[((i == 0) | (i == m - 1)) & falling] = np.nan
    return psi.reshape(V.shape[:-1])


def psi_from_duality(body: DualBody, v):
    """Growth indicator by duality: the lower envelope of the traced
    boundary functionals at v, one row of _envelope.  Exact up to curve
    resolution inside the traced window; beyond it the minus-infinity
    marker is returned rather than an extrapolated value."""
    val = float(_envelope(body.functionals(), v))
    return NEG_INFINITY if np.isnan(val) else val


def growth_form(body: DualBody) -> GrowthForm:
    """Minimal dual-norm boundary functional and its norm (the growth
    rate for the Euclidean norm).

    The minimum over the sampled curve is sharpened by a parabolic fit
    in the tracing angle through the three points around the argmin;
    theta is h times the unit direction traced at the fitted angle.
    """
    norms = np.array([bp.functional.norm() for bp in body.boundary])
    i = int(np.argmin(norms))
    interior = 0 < i < len(norms) - 1
    if interior:
        x = np.array(body.thetas[i - 1 : i + 2])
        coef = np.polyfit(x, norms[i - 1 : i + 2], 2)
    if not interior or coef[0] <= 0:
        return GrowthForm(body.boundary[i].functional, float(norms[i]))
    theta_star = float(np.clip(-coef[1] / (2 * coef[0]), x[0], x[-1]))
    h = float(np.polyval(coef, theta_star))
    return GrowthForm(Functional(h * (np.cos(theta_star) * _U1 + np.sin(theta_star) * _U2)), h)


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
    """Sample direction pairs inside the traced window and check
    midpoint concavity of the reconstructed indicator.  Every value is
    read off one envelope evaluation over the traced functionals; a pair
    counts only when its ends and its three midpoints are all finite.  A
    pair is concave when its worst margin is at least -_MARGIN_TOL, so
    rounding-level margins count as no violation."""
    if samples < 16:
        raise InvalidParameterError("need at least 16 sample pairs")
    if len(body.boundary) == 1:
        # single-point body: psi is linear, concavity holds with equality
        return ConcavityReport(samples, samples)
    F = body.functionals()
    tg = gap_slice_coord(np.stack([bp.gibbs_vector for bp in body.boundary]))
    lo, hi = tg.min(), tg.max()
    span = hi - lo
    lo_i, hi_i = lo + _EDGE_MARGIN * span, hi - _EDGE_MARGIN * span
    ends = _chamber_direction(np.random.default_rng(seed).uniform(lo_i, hi_i, (samples, 2)))
    pa, pb = _envelope(F, ends).T
    w = np.array([[0.25], [0.5], [0.75]])
    pm = _envelope(F, w[..., None] * ends[:, 0] + (1 - w[..., None]) * ends[:, 1])
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
    both sides, and NaN when there is no such probe."""

    epsilon: float
    hausdorff: float
    dpsi_max: float
    dh: float
    dtheta: float
    failed: bool


def _analysis(rep, n_max, resolution, probes):
    body = boundary_curve(rep, resolution=resolution, n_max=n_max, allow_degenerate=True)
    return body.cone, growth_form(body), _envelope(body.functionals(), probes)


def continuity_scan(rep, epsilons, seed: int, probes, n_max: int = DEFAULT_N_MAX,
                    resolution: int = 16):
    """Rebuild cone, indicator and growth form on perturb(rep, eps, seed)
    for each eps and report deltas against the unperturbed baseline.

    Every eps must be finite and >= 0 and every probe inside the baseline
    limit cone with a 10 percent angular margin (a degenerate baseline
    cone admits only its own ray), checked before anything is traced.
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
            rows.append(ContinuityRow(float(eps), np.nan, np.nan, np.nan, np.nan, True))
            continue
        dpsi = np.abs(psi - base_psi)
        dpsi = dpsi[np.isfinite(dpsi)]          # NaN psi stands for minus infinity
        rows.append(
            ContinuityRow(
                float(eps),
                base_cone.hausdorff(cone),
                float(dpsi.max()) if len(dpsi) else np.nan,
                abs(form.h - base_form.h),
                float(np.linalg.norm(form.theta.coeffs - base_form.theta.coeffs)),
                False,
            )
        )
    return rows
