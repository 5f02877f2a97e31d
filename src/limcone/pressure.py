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

The critical exponent of a positive weight is the root of t -> P(-t r).
The level pressures and the truncated pressure decrease in t with slope
minus the Gibbs mean of the weight, so each root is found by Newton
steps kept inside the bracket found so far.

Weights come either from a representation and a functional, r(w) =
phi(lambda(rho w)), or from an injected weight hook (an exact test
seam, e.g. the word-length weight whose root is log(2k - 1)).
"""

from dataclasses import dataclass

import numpy as np

from .bulk import class_spectra
from .errors import (
    BracketFailureError,
    InvalidParameterError,
    NotInDualConeError,
    NotOnBoundaryError,
)
from .spectra import Functional

__all__ = [
    "PressureTable",
    "RootResult",
    "word_length_weight",
    "level_pressure",
    "pressure_table",
    "extrapolated_pressure",
    "pressure_root",
    "pressure_root_detail",
    "gibbs_direction",
    "pressure_derivative_check",
    "entropy_of_state",
]

DEFAULT_N_MAX = 12
_T_MAX = 1e3
_MAX_STEPS = 50


def word_length_weight(n, lam):
    """Test hook: weight n for every class of cyclic length n."""
    return np.full(len(lam), float(n))


class _Weights:
    """Per-level weight values with log multiplicities."""

    def __init__(self, rep, phi, n_max, weight_hook=None):
        self.n_max = n_max
        cs = class_spectra(rep, n_max)
        self.values = {}
        self.log_mult = cs.log_mult
        self.jordan = cs.jordan
        for n in range(1, n_max + 1):
            if weight_hook is not None:
                self.values[n] = np.asarray(weight_hook(n, cs.jordan[n]), dtype=float)
            else:
                self.values[n] = cs.jordan[n] @ phi.coeffs

    def check_positive(self):
        worst = min(self.values[n].min() for n in range(1, self.n_max + 1))
        if worst <= 0:
            raise NotInDualConeError(
                f"weight takes non-positive value {worst:.3e} on an enumerated class;"
                " functional is not in the interior of the dual cone"
            )

    def level_sum(self, n, t):
        """log Z_n(t) and the Gibbs mean of the weight at level n."""
        x = self.log_mult[n] - t * self.values[n]
        m = x.max()
        g = np.exp(x - m)
        s = g.sum()
        return float(m + np.log(s)), float(g @ self.values[n] / s)

    def level(self, n, t):
        return self.level_sum(n, t)[0] / n

    def level_root(self, n, tol, start=0.0):
        def f(t):
            log_z, mean = self.level_sum(n, t)
            return log_z / n, -mean / n

        root = _decreasing_root(f, start, tol)
        if root is None:
            raise BracketFailureError(f"level-{n} pressure root not found below t = {_T_MAX:g}")
        return root


def _cycle_pressure(w: _Weights, t):
    """Truncated cycle-expansion pressure at t and its slope in t, or
    None when 1/zeta_N(z, t) has no positive real zero.

    Z_n is scaled by exp(-n s) with s = P_N(t), so the zero sought lies
    near z = 1 and nothing overflows; P = s - log z* for the scaled z*.
    """
    N = w.n_max
    sums = [w.level_sum(n, t) for n in range(1, N + 1)]
    s = sums[-1][0] / N
    Z = np.array([0.0] + [np.exp(log_z - n * s) for n, (log_z, _) in enumerate(sums, 1)])
    dZ = np.array([0.0] + [-Z[n] * mean for n, (_, mean) in enumerate(sums, 1)])
    # 1/zeta = sum c_k z^k with k c_k = -sum_(j <= k) Z_j c_(k-j) (Newton's identities)
    c, dc = np.zeros(N + 1), np.zeros(N + 1)
    c[0] = 1.0
    for k in range(1, N + 1):
        c[k] = -(Z[1:k + 1] @ c[k - 1::-1]) / k
        dc[k] = -(dZ[1:k + 1] @ c[k - 1::-1] + Z[1:k + 1] @ dc[k - 1::-1]) / k
    zeros = np.roots(c[::-1])
    real = zeros.real[(np.abs(zeros.imag) <= 1e-9 * np.abs(zeros)) & (zeros.real > 0)]
    if real.size == 0:
        return None
    x = real.min()
    k = np.arange(N + 1)
    for _ in range(3):  # Newton polish: a tiny leading c_N spoils the companion zero
        xk = x ** k
        f_z = (k[1:] * c[1:]) @ xk[:-1]
        if not f_z < 0:
            return None
        x -= (c @ xk) / f_z
    if not x > 0:
        return None
    slope = (dc @ x ** k) / (f_z * x)
    return s - float(np.log(x)), float(slope)


def _decreasing_root(f, t, tol):
    """Root of a decreasing f(t) -> (value, slope) for t > 0, by Newton
    steps from t kept inside the bracket found so far (bisecting when a
    step leaves it).  None when f fails, the root lies beyond _T_MAX or
    the steps do not settle to within tol."""
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
        if abs(nxt - t) < tol:
            return nxt
        if nxt > _T_MAX:
            return None
        t = nxt
    return None


@dataclass(frozen=True)
class PressureTable:
    """Level pressures P_n(t) for 2 <= n <= n_max and the limit estimate.

    extrapolated is the truncated cycle-expansion pressure at N = n_max.
    oscillating is True when that expansion has no positive real zero in
    z; extrapolated is then the level pressure P_(n_max)(t).
    """

    weight_id: str
    t: float
    levels: dict
    extrapolated: float
    n_max: int
    oscillating: bool


@dataclass(frozen=True)
class RootResult:
    """Pressure root with its diagnostics.

    value is the root of the truncated cycle-expansion pressure at
    N = n_max; level_roots maps n to the root r_n of the level pressure
    P_n for n_max - 3 <= n <= n_max.  fallback is True when the expansion
    has no positive real zero along the Newton iteration or the
    iteration does not converge; value is then r_(n_max).
    """

    value: float
    level_roots: dict
    fallback: bool


def _require_levels(n, lo=2):
    if n < lo:
        raise InvalidParameterError(f"need level n >= {lo}")


def level_pressure(rep, phi, t, n, weight_hook=None) -> float:
    """P_n(t) via a max-shifted log-sum-exp over level-n classes."""
    _require_levels(n)
    w = _Weights(rep, phi, n, weight_hook)
    return w.level(n, t)


def pressure_table(rep, phi, t, n_max=DEFAULT_N_MAX, weight_hook=None) -> PressureTable:
    _require_levels(n_max, lo=3)
    w = _Weights(rep, phi, n_max, weight_hook)
    levels = {n: w.level(n, t) for n in range(2, n_max + 1)}
    cycle = _cycle_pressure(w, t)
    osc = cycle is None
    extrap = levels[n_max] if osc else cycle[0]
    weight_id = "hook" if weight_hook is not None else f"phi{tuple(np.round(phi.coeffs, 12))}"
    return PressureTable(weight_id, float(t), levels, float(extrap), n_max, osc)


def extrapolated_pressure(rep, phi, t=1.0, n_max=DEFAULT_N_MAX, weight_hook=None) -> float:
    """Limit pressure estimate at t: the truncated cycle-expansion
    pressure at N = n_max (see PressureTable)."""
    return pressure_table(rep, phi, t, n_max, weight_hook).extrapolated


def pressure_root_detail(rep, phi, tol=1e-6, n_max=DEFAULT_N_MAX, weight_hook=None) -> RootResult:
    _require_levels(n_max, lo=4)
    w = _Weights(rep, phi, n_max, weight_hook)
    w.check_positive()
    roots, start = {}, 0.0
    for n in range(n_max - 3, n_max + 1):  # each level starts from the root below it
        roots[n] = start = w.level_root(n, tol, start)
    value = _decreasing_root(lambda t: _cycle_pressure(w, t), roots[n_max], tol)
    if value is None:
        return RootResult(roots[n_max], roots, True)
    return RootResult(float(value), roots, False)


def pressure_root(rep, phi, tol=1e-6, n_max=DEFAULT_N_MAX, weight_hook=None) -> float:
    """Critical exponent of the weight: root of t -> P(-t r), with P the
    truncated cycle-expansion pressure at N = n_max."""
    return pressure_root_detail(rep, phi, tol, n_max, weight_hook).value


def gibbs_direction(rep, phi0, n, weight_hook=None) -> np.ndarray:
    """Gibbs-weighted mean of the Jordan projection per unit symbolic
    time at level n.  Sum-zero; not re-sorted into the chamber (it
    already is whenever every class is)."""
    _require_levels(n, lo=4)
    w = _Weights(rep, phi0, n, weight_hook)
    lam = w.jordan[n]
    x = w.log_mult[n] - w.values[n]
    x = x - x.max()
    g = np.exp(x)
    return (g @ lam) / (n * g.sum())


def pressure_derivative_check(rep, phi0, phi1, n, h_step=1e-3):
    """Analytic versus central-difference derivative of the pressure in
    the direction phi1 at phi0.

    analytic = -phi1(gibbs_direction); numeric = central difference of
    s -> P_n(phi0 + s phi1) at s = 0.  The two agree to O(h_step^2).
    """
    _require_levels(n, lo=4)
    if not 1e-6 <= h_step <= 1e-2:
        raise InvalidParameterError("h_step must lie in [1e-6, 1e-2]")
    analytic = -float(phi1(gibbs_direction(rep, phi0, n)))
    p_plus = level_pressure(rep, phi0 + h_step * phi1, 1.0, n)
    p_minus = level_pressure(rep, phi0 - h_step * phi1, 1.0, n)
    numeric = (p_plus - p_minus) / (2 * h_step)
    return analytic, numeric


def entropy_of_state(rep, phi0, n=DEFAULT_N_MAX, weight_hook=None, boundary_tol=1e-3) -> float:
    """Metric-entropy value attached to a boundary functional: the Gibbs
    mean of the weight per unit symbolic time, which for a matrix weight
    equals phi0(gibbs_direction).

    Requires phi0 certified on the unit-exponent boundary: the pressure
    root along its ray must equal 1 within boundary_tol.
    """
    _require_levels(n, lo=4)
    root = pressure_root(rep, phi0, n_max=n, weight_hook=weight_hook)
    if abs(root - 1.0) > boundary_tol:
        raise NotOnBoundaryError(
            f"pressure root along the ray is {root:.6f}, not 1: functional not on the boundary"
        )
    w = _Weights(rep, phi0, n, weight_hook)
    return w.level_sum(n, 1.0)[1] / n
