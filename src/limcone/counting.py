"""Definition-level estimators: critical exponents by direct counting,
limit and asymptotic cones, the growth indicator by cone counts, and
the precise-counting ratio table.

Every estimator reads one spectral table (_table): class Jordan
projections for "conjugacy", word Cartan projections for "element",
level after level.

Exponents are least-squares slopes of log N(s) against s on a uniform
threshold grid.  Only complete thresholds enter.  Every item of length
n has value at least n * r_min, with r_min the smallest observed
value-per-letter rate, so no item longer than the enumeration cap N
has value below the completeness cap (N + 1) * r_min (_completeness_cap).
r_min is read level by level, as the smallest of min(level n) / n: a
correctly rounded division by a positive n is monotone, so this is
bitwise the smallest rate over the items.
The grid stops strictly below the cap: a word of length N + 1 can take
the cap itself, and a threshold there would miss it.  Capping instead
at "max value minus one letter increment" leaves the top of the grid
badly undercounted and drags the slope down by over 10 percent at desk
scale.  The lowest fifth of the grid is dropped as transient.  The cone
counter of the growth indicator takes the cap of all Cartan norms, not
of the cone's own, so thinning the population does not loosen it.

Counts therefore read only the complete window: no value at or above
the cap enters a count, since every threshold lies below it.
_counts_at sorts only the values up to the top threshold, and the
growth indicator reads _norm_window, the cap of the Cartan norms with
the rows below it (0.6 to 1.5 percent of the table at N = 12 on the
test fixtures), built once per element table.  The indicator's
grid starts at the least norm inside the cone; when that norm is not
below the cap, the window holds no row inside the cone, and the result
is NEG_INFINITY either way.

Cone geometry lives on the projective slice of the Weyl chamber.  For
d = 3 the chamber directions form the segment v2 / (v1 - v3) in
[-1/3, 1/3] (walls at the endpoints), so hulls are intervals in that
gap coordinate; hull directions are L1-normalized.  Hausdorff
distances are Euclidean along the slice line, scaled by sqrt(3/2), the
speed of t -> ((1 - t)/2, t, (-1 - t)/2).
"""

from dataclasses import dataclass
from functools import lru_cache

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
]

_GRID_POINTS = 48
_RATIO_POINTS = 24
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


def _table(rep, N, mode):
    """(vectors, starts) of the spectral table for mode: class Jordan
    projections for "conjugacy", word Cartan projections for "element";
    the items of length n are rows starts[n - 1]:starts[n]."""
    if mode == "conjugacy":
        cs = class_spectra(rep, N)
        levels = [cs.jordan[n] for n in range(1, N + 1)]
        return np.concatenate(levels), np.cumsum([0] + [len(lam) for lam in levels])
    if mode == "element":
        es = element_spectra(rep, N)
        return es.cartan, es.starts
    raise InvalidParameterError(f"unknown mode {mode!r}")


def _norms(vectors):
    return np.sqrt(np.einsum("ij,ij->i", vectors, vectors))


def _completeness_cap(values, starts):
    """(N + 1) * r_min over the N levels that starts delimits: no item
    longer than N has a value below it (see the module docstring)."""
    N = len(starts) - 1
    level_min = np.minimum.reduceat(values, starts[:-1])
    return (N + 1) * float((level_min / np.arange(1, N + 1)).min())


def _threshold_grid(lo, cap, points):
    """`points` uniform thresholds from lo up to, and strictly below, cap."""
    if cap <= lo:
        raise InsufficientDataError("no complete thresholds above the smallest value")
    return np.linspace(lo, cap, points, endpoint=False)


def _counts_at(values, grid):
    """#{value <= s} for each s of the ascending grid; only the values
    up to its top are sorted."""
    return np.searchsorted(np.sort(values[values <= grid[-1]]), grid, side="right")


def _slope_fit(values, cap):
    """Least-squares slope of log #{value <= s} on the complete window
    below cap."""
    grid = _threshold_grid(float(values.min()), cap, _GRID_POINTS)
    grid = grid[int(_DROP_FRACTION * _GRID_POINTS):]
    counts = _counts_at(values, grid)
    ok = counts > 0
    grid, counts = grid[ok], counts[ok]
    if len(grid) < 8:
        raise InsufficientDataError(f"only {len(grid)} usable thresholds")
    x = grid - grid.mean()
    y = np.log(counts)
    sxx = float(x @ x)
    if not sxx > 0:
        raise InsufficientDataError("the threshold grid collapses to one point")
    slope = float(x @ y) / sxx
    resid = y - y.mean() - slope * x
    dof = max(len(grid) - 2, 1)
    se = float(np.sqrt(resid @ resid / dof / sxx))
    return slope, se, grid, counts


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
    vectors, starts = _table(rep, N, mode)
    if weight_hook is not None:
        lengths = np.repeat(np.arange(1.0, N + 1), np.diff(starts))
        values = np.asarray(weight_hook(lengths, vectors), dtype=float)
    else:
        values = vectors @ phi.coeffs
    if mode == "conjugacy" and not values.min() > 0:
        raise NotInDualConeError("functional is non-positive on an enumerated class")
    if mode == "element" and not values[starts[-2]:].min() > 0:
        raise NotInDualConeError("functional is non-positive on a length-N Cartan projection")
    slope, se, grid, counts = _slope_fit(values, _completeness_cap(values, starts))
    return ExponentEstimate(slope, se, grid, counts)


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

    hull: np.ndarray
    interval: tuple

    @property
    def width(self) -> float:
        return self.interval[1] - self.interval[0]

    def cone_area(self) -> float:
        """Planar area of the cone spanned, truncated at the gap slice
        (d = 3); zero for a single direction, as every d = 2 cone is."""
        return 0.5 * (3.0 / np.sqrt(12.0)) * self.width

    def hausdorff(self, other: "ConeHull") -> float:
        """Euclidean Hausdorff distance along the slice between the two
        direction hulls (intervals for d <= 3)."""
        a0, a1 = self.interval
        b0, b1 = other.interval
        return _SLICE_SPEED * max(abs(a0 - b0), abs(a1 - b1))


def _cone_hull(rep, N, mode, floor, empty):
    """Hull of the rows of the mode table with norm at least floor;
    raises `empty` when no row has."""
    vectors, _ = _table(rep, N, mode)
    keep = _norms(vectors) >= floor
    if not keep.any():
        raise empty
    if not keep.all():          # copy the table only when rows drop out
        vectors = vectors.compress(keep, axis=0)
    t = gap_slice_coord(vectors)
    i0, i1 = int(np.argmin(t)), int(np.argmax(t))
    lo, hi = float(t[i0]), float(t[i1])
    ends = vectors[[i0]] if hi - lo < 1e-14 else vectors[[i0, i1]]
    hull = ends / np.abs(ends).sum(axis=1, keepdims=True)
    return ConeHull(hull, (lo, hi))


def limit_cone(rep, N: int) -> ConeHull:
    """Hull of projectivized Jordan projections over classes of cyclic
    length up to N, excluding near-elliptic spectra."""
    if N < 4:
        raise InvalidParameterError("need N >= 4")
    if rep.dim > 3:
        raise InvalidParameterError("cone hulls implemented for d <= 3")
    return _cone_hull(rep, N, "conjugacy", 1e-6,
                      DegenerateConeError("all sampled spectra are elliptic"))


def asymptotic_cone(rep, N: int, norm_floor: float) -> ConeHull:
    """Hull of projectivized Cartan projections over reduced words up to
    length N with norm at least norm_floor."""
    if N < 4:
        raise InvalidParameterError("need N >= 4")
    if not norm_floor > 0:
        raise InvalidParameterError("norm_floor must be positive")
    if rep.dim > 3:
        raise InvalidParameterError("cone hulls implemented for d <= 3")
    return _cone_hull(rep, N, "element", norm_floor,
                      InsufficientDataError("norm floor excludes every Cartan projection"))


# ---------------------------------------------------------------------------
# growth indicator by direct counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthIndicatorSample:
    """One directional growth estimate: slope of log counts of Cartan
    projections inside the round cone around the direction."""

    value: object               # float or NEG_INFINITY


@lru_cache(maxsize=2)          # as element_spectra: one window per cached table
def _norm_window(rep, N):
    """(cap, rows, norms): the completeness cap of the Cartan norms of
    element_spectra(rep, N), and the rows with norm below it with their
    norms, in table order.  No row at or above the cap enters a count."""
    es = element_spectra(rep, N)
    norms = _norms(es.cartan)
    cap = _completeness_cap(norms, es.starts)
    below = norms < cap
    return cap, es.cartan.compress(below, axis=0), norms.compress(below)


def growth_indicator_direct(rep, v, half_angle: float, N: int) -> GrowthIndicatorSample:
    """Growth rate of #{w : a(rho w) in the cone of half_angle around v,
    |a(rho w)| <= s}; since |v| = 1 the slope is the indicator value.
    NEG_INFINITY when the cone holds too little to count, or a count that
    stays flat over the complete window, whose zero slope is no growth."""
    if N < 6:
        raise InvalidParameterError("need N >= 6")
    coords = np.asarray(v, dtype=float)
    if not abs(np.linalg.norm(coords) - 1.0) <= 1e-9:
        raise InvalidParameterError("direction must be a unit vector")
    if not abs(coords.sum()) <= 1e-9 * len(coords):
        raise InvalidParameterError("direction must be sum-zero")
    if not 0 < half_angle <= np.pi / 4:
        raise InvalidParameterError("half_angle must lie in (0, pi/4]")
    cap, rows, norms = _norm_window(rep, N)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = (rows @ coords) / norms
    inside = cosang >= np.cos(half_angle)
    if not inside.any():
        return GrowthIndicatorSample(NEG_INFINITY)
    try:
        slope, _, _, counts = _slope_fit(norms[inside], cap)
    except InsufficientDataError:
        return GrowthIndicatorSample(NEG_INFINITY)
    return GrowthIndicatorSample(NEG_INFINITY if counts[0] == counts[-1] else slope)


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

    def trend_toward_one(self) -> bool:
        """Is the last third of the table closer to 1 than the first?"""
        m = len(self.ratios) // 3
        if m == 0:
            return False
        first = np.abs(self.ratios[:m] - 1.0).mean()
        last = np.abs(self.ratios[-m:] - 1.0).mean()
        return last < first


def orbit_count_ratio(rep, i: int, N: int) -> OrbitCountTable:
    """Counting check for the eigenvalue-gap functional lambda_i -
    lambda_(i+1): estimate its exponent h in element mode, then tabulate
    h t e^(-h t) #{classes : gap <= t} over complete thresholds."""
    phi = Functional.gap(rep.dim, i)
    lam, starts = _table(rep, N, "conjugacy")
    gaps = lam[:, i - 1] - lam[:, i]
    if gaps.min() <= 0:
        raise NotInDualConeError("gap functional vanishes on an enumerated class")
    est = critical_exponent_direct(rep, phi, N, "element")
    ts = _threshold_grid(float(gaps.min()), _completeness_cap(gaps, starts), _RATIO_POINTS)
    counts = _counts_at(gaps, ts)
    ratios = est.value * ts * np.exp(-est.value * ts) * counts
    return OrbitCountTable(ts, ratios, est.value)
