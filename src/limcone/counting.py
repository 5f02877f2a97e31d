"""Definition-level estimators: critical exponents by direct counting,
limit and asymptotic cones, the growth indicator by cone counts, and
the precise-counting ratio table.

Exponents are least-squares slopes of log N(s) against s on a uniform
threshold grid.  Only complete thresholds enter: every item of length
n contributes value at least n * r_min with r_min the smallest observed
value-per-letter rate, so thresholds up to (N + 1) * r_min cannot be
reached by anything longer than the enumeration cap.  Capping instead
at "max value minus one letter increment" leaves the top of the grid
badly undercounted and drags the slope down by over 10 percent at desk
scale.  The lowest fifth of the grid is dropped as transient.

Cone geometry lives on the projective slice of the Weyl chamber.  For
d = 3 the chamber directions form the segment v2 / (v1 - v3) in
[-1/3, 1/3] (walls at the endpoints), so hulls are intervals in that
gap coordinate; hull directions are L1-normalized.  Hausdorff
distances are Euclidean along the slice line, scaled by sqrt(3/2), the
speed of t -> ((1 - t)/2, t, (-1 - t)/2).
"""

from dataclasses import dataclass, field

import numpy as np

from .bulk import class_spectra, element_spectra
from .errors import (
    DegenerateConeError,
    InsufficientDataError,
    InvalidParameterError,
    NotInDualConeError,
)
from .spectra import Functional

__all__ = [
    "NEG_INFINITY",
    "is_neg_infinity",
    "ExponentEstimate",
    "critical_exponent_direct",
    "ConeHull",
    "limit_cone",
    "asymptotic_cone",
    "GrowthIndicatorSample",
    "growth_indicator_direct",
    "OrbitCountTable",
    "orbit_count_ratio",
    "wall_margins",
    "word_length_values",
]

_GRID_POINTS = 48
_DROP_FRACTION = 0.2
_SLICE_SPEED = np.sqrt(1.5)


class _NegInfinity:
    """Explicit minus-infinity marker (never a floating sentinel)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NEG_INFINITY"


NEG_INFINITY = _NegInfinity()


def is_neg_infinity(x) -> bool:
    return x is NEG_INFINITY


def word_length_values(lengths, spectra):
    """Counting-side test hook: value = word length."""
    return np.asarray(lengths, dtype=float)


# ---------------------------------------------------------------------------
# exponent regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentEstimate:
    """Slope of log N(s) over the complete-threshold window."""

    value: float
    std_error: float
    thresholds: np.ndarray
    counts: np.ndarray
    mode: str
    length_cap: int

    @property
    def log_counts(self):
        return np.log(self.counts)


def _slope_fit(values, lengths, N, completeness_values=None, completeness_lengths=None):
    """Least-squares slope of log #{value <= s} on the complete window.

    completeness_* default to the counted population; the cone counter
    passes the global norms so that thinning the population does not
    loosen the cap.
    """
    cv = values if completeness_values is None else completeness_values
    cl = lengths if completeness_lengths is None else completeness_lengths
    r_min = float((cv / cl).min())
    cap = (N + 1) * r_min
    lo = float(values.min())
    if cap <= lo:
        raise InsufficientDataError("no complete thresholds above the smallest value")
    grid = np.linspace(lo, cap, _GRID_POINTS)
    grid = grid[int(_DROP_FRACTION * _GRID_POINTS):]
    sorted_vals = np.sort(values)
    counts = np.searchsorted(sorted_vals, grid, side="right")
    ok = counts > 0
    grid, counts = grid[ok], counts[ok]
    if len(grid) < 8:
        raise InsufficientDataError(f"only {len(grid)} usable thresholds")
    x = grid - grid.mean()
    y = np.log(counts)
    sxx = float(x @ x)
    slope = float(x @ y) / sxx
    resid = y - y.mean() - slope * x
    dof = max(len(grid) - 2, 1)
    se = float(np.sqrt(resid @ resid / dof / sxx))
    return slope, se, grid, counts


def _class_values(rep, phi, N, weight_hook):
    cs = class_spectra(rep, N)
    lam = cs.all_jordan()
    lengths = cs.lengths().astype(float)
    if weight_hook is not None:
        values = np.asarray(weight_hook(lengths, lam), dtype=float)
    else:
        values = lam @ phi.coeffs
    return values, lengths


def _element_values(rep, phi, N, weight_hook):
    es = element_spectra(rep, N)
    lengths = es.lengths.astype(float)
    if weight_hook is not None:
        values = np.asarray(weight_hook(lengths, es.cartan), dtype=float)
    else:
        values = es.cartan @ phi.coeffs
    return values, lengths


def critical_exponent_direct(rep, phi, N, mode, weight_hook=None) -> ExponentEstimate:
    """Exponential growth rate of #{phi(lambda) <= s} over conjugacy
    classes, or #{phi(a) <= s} over group elements, by log-count
    regression.

    Conjugacy mode is noticeably truncation-biased at desk scale (class
    counts carry a log(s)/s correction); element mode is the sharper
    estimator and the two agree in the limit.
    """
    if N < 6:
        raise InvalidParameterError("need N >= 6")
    if mode == "conjugacy":
        values, lengths = _class_values(rep, phi, N, weight_hook)
        if values.min() <= 0:
            raise NotInDualConeError(
                "functional is non-positive on an enumerated class"
            )
    elif mode == "element":
        values, lengths = _element_values(rep, phi, N, weight_hook)
        if values[lengths == N].min() <= 0:
            raise NotInDualConeError(
                "functional is non-positive on a length-N Cartan projection"
            )
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    slope, se, grid, counts = _slope_fit(values, lengths, N)
    return ExponentEstimate(slope, se, grid, counts, mode, N)


# ---------------------------------------------------------------------------
# cone hulls
# ---------------------------------------------------------------------------

def gap_slice_coord(vectors) -> np.ndarray:
    """Projective coordinate on the chamber slice: v2 / (v1 - vd) for
    d = 3, identically 0 for d = 2."""
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    if V.shape[1] == 2:
        return np.zeros(len(V))
    return V[:, 1] / (V[:, 0] - V[:, -1])


@dataclass(frozen=True)
class ConeHull:
    """Convex hull of projectivized chamber directions.

    hull holds the extreme directions, L1-normalized (for d = 3 the two
    endpoints of the slice interval, for d = 2 the single direction).
    interval is the gap-coordinate range.
    """

    dim: int
    hull: np.ndarray
    max_norm_used: float
    interval: tuple

    @property
    def width(self) -> float:
        return self.interval[1] - self.interval[0]

    def cone_area(self) -> float:
        """Planar area of the cone spanned, truncated at the gap slice
        (d = 3); zero for a single direction."""
        if self.dim != 3:
            return 0.0
        return 0.5 * (3.0 / np.sqrt(12.0)) * self.width

    def hausdorff(self, other: "ConeHull") -> float:
        """Euclidean Hausdorff distance along the slice between the two
        direction hulls (intervals for d <= 3)."""
        a0, a1 = self.interval
        b0, b1 = other.interval
        return _SLICE_SPEED * max(abs(a0 - b0), abs(a1 - b1))

    def contains(self, other: "ConeHull", tol: float = 1e-9) -> bool:
        a0, a1 = self.interval
        b0, b1 = other.interval
        return a0 <= b0 + tol and b1 <= a1 + tol


def _hull_from_vectors(vectors, max_norm, dim):
    t = gap_slice_coord(vectors)
    i0, i1 = int(np.argmin(t)), int(np.argmax(t))
    lo, hi = float(t[i0]), float(t[i1])
    ends = vectors[[i0]] if hi - lo < 1e-14 else vectors[[i0, i1]]
    hull = ends / np.abs(ends).sum(axis=1, keepdims=True)
    return ConeHull(dim, hull, float(max_norm), (lo, hi))


def limit_cone(rep, N: int) -> ConeHull:
    """Hull of projectivized Jordan projections over classes of cyclic
    length up to N, excluding near-elliptic spectra."""
    if N < 4:
        raise InvalidParameterError("need N >= 4")
    if rep.dim > 3:
        raise InvalidParameterError("cone hulls implemented for d <= 3")
    lam = class_spectra(rep, N).all_jordan()
    norms = np.linalg.norm(lam, axis=1)
    keep = norms >= 1e-6
    if not keep.any():
        raise DegenerateConeError("all sampled spectra are elliptic")
    return _hull_from_vectors(lam[keep], norms.max(), rep.dim)


def asymptotic_cone(rep, N: int, norm_floor: float) -> ConeHull:
    """Hull of projectivized Cartan projections over reduced words up to
    length N with norm at least norm_floor."""
    if N < 4:
        raise InvalidParameterError("need N >= 4")
    if norm_floor <= 0:
        raise InvalidParameterError("norm_floor must be positive")
    if rep.dim > 3:
        raise InvalidParameterError("cone hulls implemented for d <= 3")
    es = element_spectra(rep, N)
    norms = np.linalg.norm(es.cartan, axis=1)
    keep = norms >= norm_floor
    if not keep.any():
        raise InsufficientDataError("norm floor excludes every Cartan projection")
    return _hull_from_vectors(es.cartan[keep], norms[keep].max(), rep.dim)


def wall_margins(rep, N: int) -> np.ndarray:
    """min over classes of (lambda_i - lambda_(i+1)) / |lambda| for each
    simple root i; positive stable values witness wall avoidance."""
    lam = class_spectra(rep, N).all_jordan()
    norms = np.linalg.norm(lam, axis=1)
    gaps = -np.diff(lam, axis=1)
    return (gaps / norms[:, None]).min(axis=0)


# ---------------------------------------------------------------------------
# growth indicator by direct counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthIndicatorSample:
    """One directional growth estimate: slope of log counts of Cartan
    projections inside the round cone around the direction."""

    direction: np.ndarray
    value: object               # float or NEG_INFINITY
    method: str
    params: dict
    std_error: float = float("nan")


def growth_indicator_direct(rep, v, half_angle: float, N: int) -> GrowthIndicatorSample:
    """Growth rate of #{w : a(rho w) in the cone of half_angle around v,
    |a(rho w)| <= s}; since |v| = 1 the slope is the indicator value."""
    coords = np.asarray(getattr(v, "coords", v), dtype=float)
    if abs(np.linalg.norm(coords) - 1.0) > 1e-9:
        raise InvalidParameterError("direction must be a unit vector")
    if abs(coords.sum()) > 1e-9 * len(coords):
        raise InvalidParameterError("direction must be sum-zero")
    if not 0 < half_angle <= np.pi / 4:
        raise InvalidParameterError("half_angle must lie in (0, pi/4]")
    es = element_spectra(rep, N)
    norms = np.linalg.norm(es.cartan, axis=1)
    lengths = es.lengths.astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = (es.cartan @ coords) / norms
    inside = cosang >= np.cos(half_angle)
    params = {"length_cap": N, "half_angle": half_angle}
    if not inside.any():
        return GrowthIndicatorSample(coords, NEG_INFINITY, "direct-count", params)
    try:
        slope, se, _, _ = _slope_fit(
            norms[inside], lengths[inside], N,
            completeness_values=norms, completeness_lengths=lengths,
        )
    except InsufficientDataError:
        return GrowthIndicatorSample(coords, NEG_INFINITY, "direct-count", params)
    return GrowthIndicatorSample(coords, slope, "direct-count", params, se)


# ---------------------------------------------------------------------------
# precise-counting trend
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitCountTable:
    """Ratios h t e^(-h t) N_i(t) on complete thresholds; the precise
    counting statement drives them to 1 as t grows."""

    thresholds: np.ndarray
    ratios: np.ndarray
    h: float
    h_std_error: float
    gap_index: int

    def trend_toward_one(self) -> bool:
        """Is the last third of the table closer to 1 than the first?"""
        m = len(self.ratios) // 3
        if m == 0:
            return False
        first = np.abs(self.ratios[:m] - 1.0).mean()
        last = np.abs(self.ratios[-m:] - 1.0).mean()
        return last < first


def orbit_count_ratio(rep, i: int, N: int, mode: str = "element",
                      grid_points: int = 24) -> OrbitCountTable:
    """Counting check for the eigenvalue-gap functional lambda_i -
    lambda_(i+1): estimate its exponent h, then tabulate
    h t e^(-h t) #{classes : gap <= t} over complete thresholds."""
    phi = Functional.gap(rep.dim, i)
    cs = class_spectra(rep, N)
    lam = cs.all_jordan()
    gaps = lam[:, i - 1] - lam[:, i]
    if gaps.min() <= 0:
        raise NotInDualConeError("gap functional vanishes on an enumerated class")
    est = critical_exponent_direct(rep, phi, N, mode)
    lengths = cs.lengths().astype(float)
    cap = (N + 1) * float((gaps / lengths).min())
    ts = np.linspace(float(gaps.min()), cap, grid_points)
    counts = np.searchsorted(np.sort(gaps), ts, side="right")
    ratios = est.value * ts * np.exp(-est.value * ts) * counts
    return OrbitCountTable(ts, ratios, est.value, est.std_error, i)
