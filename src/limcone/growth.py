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

psi itself is reconstructed as the lower envelope min_phi phi(v) over
the traced boundary, hence concave by construction and an overestimate
at finite resolution.  Outside the traced angular window the envelope
is meaningless (the true function has vertical tangents at the cone
boundary), so evaluations whose minimum sits at a curve endpoint and is
still descending there return the explicit minus-infinity marker
instead of an extrapolation.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .counting import NEG_INFINITY, gap_slice_coord, is_neg_infinity, limit_cone
from .bulk import class_spectra
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
_EDGE_MARGIN = 0.05     # fraction of the dual-cone window left untraced at each end


@dataclass(frozen=True)
class BoundaryPoint:
    """A functional with unit critical exponent and its tangency data."""

    direction: Functional        # unit-norm input direction
    s_star: float                # scale putting the direction on the boundary
    functional: Functional       # s_star * direction
    gibbs_dir: np.ndarray        # unit tangency direction
    gibbs_norm: float            # norm of the raw Gibbs mean per unit time
    entropy: float               # functional evaluated on the raw Gibbs mean

    @property
    def gibbs_vector(self) -> np.ndarray:
        return self.gibbs_dir * self.gibbs_norm


@dataclass(frozen=True)
class DualBody:
    """Ordered sample of the dual-body boundary (d = 3: by angle in the
    two-dimensional dual; d = 2: a single point)."""

    boundary: tuple              # BoundaryPoints ordered by angle
    thetas: tuple                # curve parameter per point (d = 3)
    dual_cone_rays: tuple        # Functionals spanning the dual cone estimate
    gaps: tuple                  # parameters of failed directions
    degenerate: bool             # sampled cone had (numerically) empty interior

    def __len__(self):
        return len(self.boundary)

    def functionals(self) -> np.ndarray:
        return np.stack([bp.functional.coeffs for bp in self.boundary])


@dataclass(frozen=True)
class GrowthForm:
    theta: Functional            # tangent functional at the growth direction
    h: float                     # exponential growth rate for the norm
    tau: np.ndarray              # unit growth direction


def _chamber_direction(t: float) -> np.ndarray:
    """Unit chamber vector with gap coordinate t (d = 3)."""
    v = np.array([(1.0 - t) / 2.0, t, (-1.0 - t) / 2.0])
    return v / np.linalg.norm(v)


# orthonormal basis of the sum-zero plane for d = 3
_U1 = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
_U2 = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)


def boundary_point(rep, u, tol: float = 1e-6, n_max: int = DEFAULT_N_MAX) -> BoundaryPoint:
    """Scale the direction u onto the boundary of the dual body.

    The returned functional is s* u with s* the pressure root of u, so
    its own root is 1 by homogeneity; input scale does not matter.
    """
    u = u if isinstance(u, Functional) else Functional(np.asarray(u, dtype=float))
    un = Functional(u.coeffs / u.norm())
    s_star = pressure_root(rep, un, tol=tol, n_max=n_max)
    phi = s_star * un
    g = gibbs_direction(rep, phi, n_max)
    gn = float(np.linalg.norm(g))
    return BoundaryPoint(un, float(s_star), phi, g / gn, gn, float(phi.coeffs @ g))


def _dual_window(rep, n_max):
    """Angular window of functional directions positive on the sampled
    cone, from the polar of its extreme directions."""
    lam = class_spectra(rep, n_max).all_jordan()
    t = gap_slice_coord(lam)
    i0, i1 = int(np.argmin(t)), int(np.argmax(t))
    degenerate = (t[i1] - t[i0]) < 1e-9
    angles = [float(np.arctan2(lam[i] @ _U2, lam[i] @ _U1)) for i in (i0, i1)]
    lo = max(a - np.pi / 2 for a in angles)
    hi = min(a + np.pi / 2 for a in angles)
    return lo, hi, degenerate


def boundary_curve(rep, resolution: int = 16, n_max: int = DEFAULT_N_MAX,
                   allow_degenerate: bool = False, threads: int = 1) -> DualBody:
    """Trace the dual-body boundary at `resolution` directions sampled
    uniformly by angle strictly inside the dual cone estimate, kept a
    fixed 5 percent of the window width away from each end.  Each
    pressure root is found to within 1e-6.

    Individual direction failures are recorded as gaps; more than 20
    percent failing aborts.  A representation whose sampled limit cone
    is a single ray has a dual body with flat boundary; that degenerate
    case errors out unless allow_degenerate is set (deformation scans
    set it to keep the unperturbed baseline usable).
    """
    if rep.dim == 2:
        bp = boundary_point(rep, Functional(np.array([1.0, -1.0])), n_max=n_max)
        rays = (Functional(np.array([1.0, -1.0])),)
        return DualBody((bp,), (0.0,), rays, (), False)
    if rep.dim != 3:
        raise InvalidParameterError("boundary_curve is implemented for d in {2, 3}")
    if resolution < 8:
        raise InvalidParameterError("need resolution >= 8")
    lo, hi, degenerate = _dual_window(rep, n_max)
    if degenerate and not allow_degenerate:
        raise DegenerateConeError(
            "sampled limit cone is a single ray; dual body boundary is flat"
            " (pass allow_degenerate=True to trace it anyway)"
        )
    width = hi - lo
    lo_i, hi_i = lo + _EDGE_MARGIN * width, hi - _EDGE_MARGIN * width
    thetas = np.linspace(lo_i, hi_i, resolution)

    def trace(theta):
        u = Functional(np.cos(theta) * _U1 + np.sin(theta) * _U2)
        try:
            return boundary_point(rep, u, n_max=n_max)
        except LimconeError:
            return None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(trace, thetas))
    else:
        results = [trace(th) for th in thetas]
    points = tuple(bp for bp in results if bp is not None)
    gaps = tuple(float(th) for th, bp in zip(thetas, results) if bp is None)
    if len(gaps) > 0.2 * resolution:
        raise InsufficientDataError(
            f"{len(gaps)} of {resolution} boundary directions failed"
        )
    kept = tuple(float(th) for th, bp in zip(thetas, results) if bp is not None)
    rays = (
        Functional(np.cos(lo) * _U1 + np.sin(lo) * _U2),
        Functional(np.cos(hi) * _U1 + np.sin(hi) * _U2),
    )
    return DualBody(points, kept, rays, gaps, degenerate)


def psi_from_duality(body: DualBody, v):
    """Growth indicator by duality: the minimum of the traced boundary
    functionals at v.

    Exact up to curve resolution inside the traced window.  When the
    minimum sits at a curve endpoint and the values are still falling
    into it faster than the curvature scale, the true infimum lies
    beyond the window and the minus-infinity marker is returned rather
    than an extrapolated value.
    """
    coords = np.asarray(getattr(v, "coords", v), dtype=float)
    vals = np.array([bp.functional(coords) for bp in body.boundary])
    m = len(vals)
    i = int(np.argmin(vals))
    if m <= 2 or 0 < i < m - 1:
        return float(vals[i])
    slope_in = vals[1] - vals[0] if i == 0 else vals[-2] - vals[-1]
    curvature = np.median(np.abs(np.diff(vals, 2))) if m >= 3 else 0.0
    if slope_in > _ENDPOINT_SLOPE_FACTOR * curvature + 1e-15:
        return NEG_INFINITY
    return float(vals[i])


def growth_form(body: DualBody) -> GrowthForm:
    """Minimal dual-norm boundary functional, its norm (the growth rate
    for the Euclidean norm) and the growth direction.

    The minimum over the sampled curve is sharpened by a parabolic fit
    through the three points around the argmin; the growth direction is
    the maximizing unit vector of the minimal functional, which matches
    the Gibbs direction of the argmin point.
    """
    norms = np.array([bp.functional.norm() for bp in body.boundary])
    i = int(np.argmin(norms))
    interior = 0 < i < len(norms) - 1
    if interior:
        x = np.array(body.thetas[i - 1 : i + 2])
        coef = np.polyfit(x, norms[i - 1 : i + 2], 2)
    if not interior or coef[0] <= 0:
        phi = body.boundary[i].functional
        h = float(norms[i])
        return GrowthForm(phi, h, phi.coeffs / h)
    theta_star = float(np.clip(-coef[1] / (2 * coef[0]), x[0], x[-1]))
    h = float(np.polyval(coef, theta_star))
    comps = np.stack([bp.functional.coeffs for bp in body.boundary[i - 1 : i + 2]])
    phi_star = np.array([np.polyval(np.polyfit(x, comps[:, j], 2), theta_star)
                         for j in range(comps.shape[1])])
    phi_star *= h / np.linalg.norm(phi_star)
    theta = Functional(phi_star)
    return GrowthForm(theta, h, theta.coeffs / h)


# ---------------------------------------------------------------------------
# concavity audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcavityReport:
    pairs_tested: int
    concave_pairs: int
    strict_pairs: int
    min_margin: float
    vertical_tangent_trend: bool
    edge_slopes: tuple

    @property
    def concave_ok(self) -> bool:
        return self.concave_pairs == self.pairs_tested


def concavity_audit(body: DualBody, samples: int = 32, seed: int = 0,
                    tol: float = 1e-6) -> ConcavityReport:
    """Sample direction pairs inside the traced window and check
    midpoint concavity of the reconstructed indicator, recording strict
    margins; probe the slope growth toward the window edges (the
    vertical-tangent trend).  A pair is concave when its worst margin is
    at least -tol and strict when it exceeds tol, so rounding-level
    margins count as neither violations nor strict ones."""
    if samples < 16:
        raise InvalidParameterError("need at least 16 sample pairs")
    if len(body.boundary) == 1:
        # single-point body: psi is linear, concavity holds with equality
        return ConcavityReport(samples, samples, 0, 0.0, True, ())
    tg = np.array([gap_slice_coord(bp.gibbs_vector[None])[0] for bp in body.boundary])
    lo, hi = tg.min(), tg.max()
    span = hi - lo
    lo_i, hi_i = lo + 0.05 * span, hi - 0.05 * span
    rng = np.random.default_rng(seed)
    tested = concave = strict = 0
    min_margin = np.inf
    for _ in range(samples):
        ta, tb = rng.uniform(lo_i, hi_i, 2)
        va, vb = _chamber_direction(ta), _chamber_direction(tb)
        pa, pb = psi_from_duality(body, va), psi_from_duality(body, vb)
        if is_neg_infinity(pa) or is_neg_infinity(pb):
            continue
        margins = []
        ok = True
        for t in (0.25, 0.5, 0.75):
            vm = t * va + (1 - t) * vb
            pm = psi_from_duality(body, vm)
            if is_neg_infinity(pm):
                ok = False
                break
            margins.append(pm - (t * pa + (1 - t) * pb))
        if not ok:
            continue
        tested += 1
        worst = min(margins)
        min_margin = min(min_margin, worst)
        if worst >= -tol:
            concave += 1
        if worst > tol:
            strict += 1
    # slope trend toward each window edge
    mid = 0.5 * (lo + hi)
    trends, slopes_record = [], []
    for edge in (lo_i, hi_i):
        ts = np.linspace(mid, edge, 7)
        vals = [psi_from_duality(body, _chamber_direction(t)) for t in ts]
        pairs = [
            abs((b - a) / (t1 - t0))
            for a, b, t0, t1 in zip(vals, vals[1:], ts, ts[1:])
            if not (is_neg_infinity(a) or is_neg_infinity(b)) and t1 != t0
        ]
        slopes_record.append(tuple(pairs))
        if len(pairs) >= 3:
            s = pairs[-3:]
            trends.append(s[0] <= s[1] + 1e-12 and s[1] <= s[2] + 1e-12)
    trend = bool(trends) and all(trends)
    return ConcavityReport(tested, concave, strict, float(min_margin), trend,
                           tuple(slopes_record))


# ---------------------------------------------------------------------------
# continuity under deformation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityRow:
    epsilon: float
    hausdorff: float
    dpsi: tuple
    dpsi_max: float
    dh: float
    dtheta: float
    failed: bool


def _analysis(rep, n_max, resolution, probes):
    cone = limit_cone(rep, n_max)
    body = boundary_curve(rep, resolution=resolution, n_max=n_max, allow_degenerate=True)
    form = growth_form(body)
    psis = []
    for p in probes:
        val = psi_from_duality(body, p)
        psis.append(np.nan if is_neg_infinity(val) else val)
    return cone, form, np.array(psis)


def continuity_scan(rep, epsilons, seed: int, probes, n_max: int = DEFAULT_N_MAX,
                    resolution: int = 16):
    """Rebuild cone, indicator and growth form on perturb(rep, eps, seed)
    for each eps and report deltas against the unperturbed baseline.

    Probes must lie inside the baseline limit cone with a 10 percent
    angular margin (a degenerate baseline cone admits only its own ray).
    A failing ladder step is marked and the scan continues.
    """
    probes = [np.asarray(getattr(p, "coords", p), dtype=float) for p in probes]
    base_cone = limit_cone(rep, n_max)
    lo, hi = base_cone.interval
    width = hi - lo
    for p in probes:
        tp = float(gap_slice_coord(p[None])[0])
        if width < 1e-9:
            if abs(tp - 0.5 * (lo + hi)) > 1e-6:
                raise InvalidParameterError("probe outside the degenerate cone ray")
        elif not (lo + 0.1 * width <= tp <= hi - 0.1 * width):
            raise InvalidParameterError("probe outside the cone hull margin")
    base_cone, base_form, base_psi = _analysis(rep, n_max, resolution, probes)
    rows = []
    for eps in epsilons:
        try:
            rep_eps = perturb(rep, eps, seed)
            cone, form, psi = _analysis(rep_eps, n_max, resolution, probes)
        except LimconeError:
            rows.append(ContinuityRow(float(eps), np.nan, (), np.nan, np.nan, np.nan, True))
            continue
        dpsi = np.abs(psi - base_psi)
        rows.append(
            ContinuityRow(
                float(eps),
                base_cone.hausdorff(cone),
                tuple(dpsi),
                float(np.nanmax(dpsi)),
                abs(form.h - base_form.h),
                float(np.linalg.norm(form.theta.coeffs - base_form.theta.coeffs)),
                False,
            )
        )
    return rows
