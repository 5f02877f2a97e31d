"""Periodic-orbit pressure, critical exponents as pressure roots, and
Gibbs statistics.

The level-n pressure of a weight r over conjugacy classes is

    P_n(t) = (1/n) log Z_n(t),    Z_n(t) = sum_[w] mult(w) exp(-t r(w)),

the sum running over canonical classes of cyclic length exactly n with
mult(w) the primitive period.  Weighted that way Z_n sums over the
n-periodic sequences of the shift, so Z_n(t) = exp(n P(t)) (1 + O(theta^n))
(Parry & Pollicott, Asterisque 187-188, 1990); dropping the
multiplicities would shift each level by (log n)/n.  The level
pressures carry no O(1/n) term, only the O(theta^n) one, and theta can
be close to 1: for the F_2 word-length weight Z_n = 3^n + 2 + (-1)^n.

The limit pressure is estimated by the cycle expansion (Artuso, Aurell
& Cvitanovic, Nonlinearity 3, 1990).  The truncated dynamical zeta
function

    1/zeta_N(z, t) = exp(-sum_(n <= N) z^n Z_n(t) / n),

expanded as a polynomial of degree N in z, has its smallest positive
real zero near exp(-P(t)), and the truncated pressure is minus the log
of that zero.  For the word-length weight 1/zeta = det(I - zA) with A
the non-backtracking matrix, so the expansion is exact from N = 2k.
One evaluation sums every level at t with numpy in one call, then runs
the expansion on the N level sums as Python floats: Newton's identities
for the coefficients, the eigenvalues of the companion matrix for the
zero, and Horner steps for its polish and the slope.  A level keeps its
weights as offsets u >= 0 from its least value m_n, so log Z_n(t) =
-t m_n + log S_n with S_n = sum mult exp(-t u) in [1, n B_n] at t >= 0:
five passes (two for the exponents, exp, the sum, the dot with u) and no
max to take.  Only pressure_table takes t < 0, read from -phi at -t.  The
levels of under 2,048 rows together (1-8 at k = 2) are summed as one
segment, as on arrays that short a numpy call costs more than its
arithmetic.  Near a level root t m_n cancels log S_n, so it carries its
rounding error (Dekker's product): a level root then comes out to the
same bits from any start.

The critical exponent of a positive weight is the root of t -> P(-t r).
The level pressures and the truncated pressure decrease in t with slope
minus the Gibbs mean of the weight, so each root is found by Newton
steps kept inside the bracket found so far.  The root of the truncated
pressure starts from the level root r_(N-3), itself found from t = 0;
when that iteration fails the level root r_N, started from r_(N-3)
too, is the fallback.

Weights are r(w) = phi(lambda(rho w)).  Only the benchmark's word-length
gate passes a weight hook, and only to the roots (exactly log(2k - 1)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .bulk import class_spectra
from .errors import (
    BracketFailureError,
    InvalidParameterError,
    NotInDualConeError,
    NotOnBoundaryError,
)

__all__ = [
    "PressureTable",
    "RootResult",
    "word_length_weight",
    "pressure_table",
    "pressure_root",
    "pressure_root_detail",
    "gibbs_direction",
    "entropy_of_state",
]

DEFAULT_N_MAX = 12
_T_MAX = 1e3
_MAX_STEPS = 50
_ROOT_TOL = 1e-6         # Newton steps stop once they move t by less
_BOUNDARY_TOL = 1e-3     # |root - 1| allowed for a functional called on the boundary
_SEGMENT_ROWS = 1 << 11  # levels this short together are summed as one segment


def word_length_weight(n, lam):
    """Word-length weight hook: weight n for every class of cyclic length n."""
    return np.full(len(lam), float(n))


def _halves(x):
    """x = hi + lo, each of at most 26 significant bits (Veltkamp's split
    by 2^27 + 1), so that products of halves are exact; (x, 0) past 1e300."""
    c = 134217729.0 * x
    hi = c - (c - x) if abs(x) < 1e300 else x
    return hi, x - hi


class _Weights:
    """Weight values of the classes of length 1..n_max, read off the
    cached class table of depth n_max by one matvec, as offsets from the
    least value of their level; what the pressures sum over."""

    def __init__(self, rep, phi, n_max, weight_hook=None):
        cs = class_spectra(rep, n_max)
        if weight_hook is None:
            u = cs.jordan_rows @ phi.coeffs
        else:
            u = np.concatenate([weight_hook(n, lam) for n, lam in cs.jordan.items()], dtype=float)
        self.starts, self.log_mult = cs.starts.tolist(), cs.log_mult_rows
        self.least = np.minimum.reduceat(u, self.starts[:-1]).tolist()
        for lo, hi, m in zip(self.starts, self.starts[1:], self.least):
            u[lo:hi] -= m
        self.offsets, self._halves = u, [_halves(m) for m in self.least]
        # levels 1..head, together under _SEGMENT_ROWS rows, are summed as one segment
        self._head = sum(hi <= _SEGMENT_ROWS for hi in self.starts[1:])
        # every sum writes its exponents here (the top level is the longest)
        self._scratch = np.empty(max(self.starts[self._head], self.starts[-1] - self.starts[-2]))

    def sums(self, t):
        """(log Z_n(t), Gibbs mean of the weight) for n = 1..n_max at t >= 0."""
        sums = self._sums(0, self._head, t)
        for n in range(self._head + 1, len(self.starts)):
            sums += self._sums(n - 1, n, t)
        return sums

    def _sums(self, a, b, t):
        """sums of levels a + 1..b in one pass over their rows: one level
        by sum and dot, or levels 1..b (a = 0) as one segment."""
        lo, hi = self.starts[a], self.starts[b]
        u, x = self.offsets[lo:hi], self._scratch[:hi - lo]
        np.multiply(u, -t, out=x)
        x += self.log_mult[lo:hi]
        g = np.exp(x, out=x)
        if b - a == 1:
            s, gu = [float(g.sum())], [float(g @ u)]
        else:
            s, gu = (np.add.reduceat(y, self.starts[:b]).tolist() for y in (g, g * u))
        th, tl = _halves(t)
        sums = []
        for m, (mh, ml), sn, gun in zip(self.least[a:b], self._halves[a:b], s, gu):
            p = t * m       # log S - p cancels near a level root: carry the error of p
            e = ((th * mh - p) + th * ml + tl * mh) + tl * ml
            sums.append(((math.log(sn) - p) - e, m + gun / sn))
        return sums

    def level_root(self, n, start=0.0):
        def f(t):
            log_z, mean = self._sums(n - 1, n, t)[0]
            return log_z / n, -mean / n

        root = _decreasing_root(f, start)
        if root is None:
            raise BracketFailureError(f"level-{n} pressure root not found below t = {_T_MAX:g}")
        return root


def _cycle_pressure(sums):
    """Truncated cycle-expansion pressure at N = len(sums) and its slope
    in t, from the level sums (log Z_n(t), Gibbs mean) for n = 1..N, or
    None when 1/zeta_N(z, t) has no usable positive real zero.

    Z_n is scaled by exp(-n s) with s = P_N(t), so the zero sought lies
    near z = 1; P = s - log z* for the scaled z*.  At |t| near the top
    of the float range the scaled Z_n or dZ_n can still overflow, and
    there is then no usable zero either.
    """
    N = len(sums)
    s = sums[-1][0] / N
    try:
        Z = [math.exp(log_z - n * s) for n, (log_z, _) in enumerate(sums, 1)]
    except OverflowError:
        return None
    dZ = [-z * mean for z, (_, mean) in zip(Z, sums)]
    if not all(map(math.isfinite, Z + dZ)):
        return None
    # 1/zeta = sum c_k z^k with k c_k = -sum_(j <= k) Z_j c_(k-j) (Newton's identities)
    c, dc = [1.0], [0.0]
    for k in range(1, N + 1):
        zc = dzc = zdc = 0.0
        for z, dz, cj, dcj in zip(Z, dZ, reversed(c), reversed(dc)):
            zc += z * cj
            dzc += dz * cj
            zdc += z * dcj
        c.append(-zc / k)
        dc.append(-(dzc + zdc) / k)
    # the zeros are the eigenvalues of the companion matrix of the
    # polynomial with its zero top coefficients dropped, as in np.roots
    m = N
    while c[m] == 0.0:      # c_0 = 1 ends the loop
        m -= 1
    if m == 0:
        return None
    companion = np.eye(m, k=-1)
    companion[0] = [-ck / c[m] for ck in reversed(c[:m])]
    x = min((z.real for z in np.linalg.eigvals(companion).tolist()
             if abs(z.imag) <= 1e-9 * abs(z) and z.real > 0), default=None)
    if x is None:
        return None
    for _ in range(3):  # Newton polish: a tiny leading c_N spoils the companion zero
        f, f_z = _horner(c, x)
        if not f_z < 0:
            return None
        x -= f / f_z
    if not x > 0:
        return None
    slope = _horner(dc, x)[0] / (f_z * x)
    return s - math.log(x), slope


def _horner(c, x):
    """The polynomial sum c_k x^k and its derivative at x."""
    f, f_z = 0.0, 0.0
    for ck in reversed(c):
        f_z = f_z * x + f
        f = f * x + ck
    return f, f_z


def _decreasing_root(f, t):
    """Root of a decreasing f(t) -> (value, slope) for t > 0, by Newton
    steps from t kept inside the bracket found so far (bisecting when a
    step leaves it).  The root is the last iterate, never evaluated: after
    a Newton step its error is of the order of that step squared.  None
    when f fails, the root lies beyond _T_MAX or the steps do not settle
    to within _ROOT_TOL."""
    lo, hi = 0.0, np.inf
    for _ in range(_MAX_STEPS):
        fs = f(t)
        if fs is None:
            return None
        val, slope = fs
        if val > 0:
            lo = t
        else:
            hi = t
        nxt = t - val / slope if slope < 0 else np.nan
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi) if hi < np.inf else 2.0 * t + 1.0
        if abs(nxt - t) < _ROOT_TOL:
            return nxt
        if nxt > _T_MAX:
            return None
        t = nxt
    return None


@dataclass(frozen=True)
class PressureTable:
    """Level pressures P_n(t) for 2 <= n <= n_max and the limit estimate.

    extrapolated is the truncated cycle-expansion pressure at N = n_max;
    well above the root it loses digits to cancellation (on p3 at U1,
    5.4e-14 relative at t = 3 and 1.9e-10 at t = 5).  oscillating is
    True when that expansion has no usable positive real zero in z (see
    _cycle_pressure); extrapolated is then the level pressure
    P_(n_max)(t).  A t at which a level pressure overflows is refused.
    """

    levels: dict
    extrapolated: float
    oscillating: bool


@dataclass(frozen=True)
class RootResult:
    """Pressure root with its diagnostics.

    value is the root of the truncated cycle-expansion pressure at
    N = n_max, found by Newton steps from the level root r_(N-3).
    fallback is True when the expansion has no positive real zero along
    the Newton iteration or the iteration does not converge; value is
    then the root r_(n_max) of the level pressure P_(n_max), started
    from r_(N-3) as well.
    """

    value: float
    fallback: bool


def _require_levels(n, lo):
    if n < lo:
        raise InvalidParameterError(f"need level n >= {lo}")


def pressure_table(rep, phi, t, n_max=DEFAULT_N_MAX) -> PressureTable:
    _require_levels(n_max, lo=3)
    if not np.isfinite(t):
        raise InvalidParameterError("t must be finite")
    flip = t < 0        # P_n(t) of phi is P_n(-t) of -phi, whose means are negated
    w = _Weights(rep, -1.0 * phi if flip else phi, n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [(log_z, -mean if flip else mean) for log_z, mean in w.sums(abs(t))]
    levels = {n: sums[n - 1][0] / n for n in range(2, n_max + 1)}
    if not np.isfinite(list(levels.values())).all():
        raise InvalidParameterError(f"t = {t:g} overflows the level pressures")
    cycle = _cycle_pressure(sums)
    osc = cycle is None
    extrap = levels[n_max] if osc else cycle[0]
    return PressureTable(levels, float(extrap), osc)


def pressure_root_detail(rep, phi, n_max=DEFAULT_N_MAX, weight_hook=None) -> RootResult:
    """Root of the truncated cycle-expansion pressure at N = n_max, started
    from the level root r_(N-3), with r_N as the fallback (see RootResult).

    BracketFailureError is raised when r_(N-3), or r_N on the fallback
    path, lies beyond _T_MAX.
    """
    _require_levels(n_max, lo=4)
    w = _Weights(rep, phi, n_max, weight_hook)
    worst = np.min(w.least)     # a NaN value stays NaN
    if not worst > 0:
        raise NotInDualConeError(
            f"weight takes non-positive value {worst:.3e} on an enumerated class;"
            " functional is not in the interior of the dual cone"
        )
    start = w.level_root(n_max - 3)
    value = _decreasing_root(lambda t: _cycle_pressure(w.sums(t)), start)
    if value is not None:
        return RootResult(float(value), False)
    return RootResult(w.level_root(n_max, start), True)


def pressure_root(rep, phi, n_max=DEFAULT_N_MAX, weight_hook=None) -> float:
    """Critical exponent of the weight: root of t -> P(-t r), with P the
    truncated cycle-expansion pressure at N = n_max."""
    return pressure_root_detail(rep, phi, n_max, weight_hook).value


def gibbs_direction(rep, phi0, n) -> np.ndarray:
    """Gibbs-weighted mean of the Jordan projection per unit symbolic
    time at level n, the Gibbs weights exp(log mult - phi0(lambda)) read
    off level n of the class table alone.  Sum-zero; not re-sorted into
    the chamber (it already is whenever every class is)."""
    _require_levels(n, lo=4)
    cs = class_spectra(rep, n)
    jordan = cs.jordan[n]
    x = np.matmul(jordan, phi0.coeffs)      # the one level-n array: the rest is in place
    np.subtract(cs.log_mult[n], x, out=x)
    x -= x.max()
    g = np.exp(x, out=x)
    return (g @ jordan) / (n * g.sum())


def entropy_of_state(rep, phi0, n=DEFAULT_N_MAX) -> float:
    """Metric-entropy value attached to a boundary functional: phi0 of its
    Gibbs direction, where phi0 touches psi (Quint's duality).

    Requires phi0 certified on the unit-exponent boundary: the pressure
    root along its ray must equal 1 within _BOUNDARY_TOL.
    """
    return _root_and_entropy(rep, phi0, n)[1]


def _root_and_entropy(rep, phi0, n):
    """The pressure root along the ray of phi0 and entropy_of_state, from
    one root."""
    root = pressure_root(rep, phi0, n_max=n)
    if abs(root - 1.0) > _BOUNDARY_TOL:
        raise NotOnBoundaryError(
            f"pressure root along the ray is {root:.6f}, not 1: functional not on the boundary"
        )
    return root, float(phi0.coeffs @ gibbs_direction(rep, phi0, n))
