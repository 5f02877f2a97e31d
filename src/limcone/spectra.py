"""Cartan and Jordan projections of stacks of word products.

For g in GL(d, R) the Cartan projection a(g) is the sorted vector of
logarithmic singular values and the Jordan projection lambda(g) the
sorted vector of logarithmic eigenvalue moduli, both shifted to sum
zero, which realises the PGL normalization (the Cartan subspace is the
traceless diagonals).

Word products are violently graded: at word length 12 the condition
number sits around e^40, where one-sided solvers lose every coordinate
below the midpoint.  Both projections are therefore computed from two
passes, m and m^{-1}: the top half of the spectrum from m, the bottom
half from the inverse, and for odd d the middle coordinate from the
zero-sum constraint.  Every product comes with its exact inverse,
multiplied from the generator inverses (limcone.bulk), so no inverse is
ever computed here.  That keeps every coordinate near machine accuracy
regardless of conditioning (validated against a 60-digit reference in
the test suite).

For d <= 3 the kernels need only the top value of m and of m^{-1}, and
take it in closed form from polynomials whose coefficients come from
both products at once:

* Jordan, d = 3: the characteristic polynomial of a det = 1 matrix is
  x^3 - tr(m) x^2 + tr(m^{-1}) x - 1, because c2 = det(m) tr(m^{-1}); the
  one of m^{-1} is its reversal.  The top modulus is the largest real
  root, or |r|^(-1/2) for a complex pair over a single real root r.
* Jordan, d = 2: x^2 - tr(m) x + 1.
* Cartan, d = 3: sigma_i^2 are the roots of the Gram polynomial
  x^3 - |m|_F^2 x^2 + |m^{-1}|_F^2 x - 1, whose coefficients are sums of
  squares and cannot cancel.
* Cartan, d = 2: sigma_1 = (hypot(a + d, c - b) + hypot(a - d, c + b)) / 2.

Each cubic is scaled by its leading coefficient, started from the
trigonometric or Cardano root and polished by Newton steps.  A row keeps
its closed-form value only when a first-order certificate holds: the
residual plus the rounding of each coefficient times |x|^i, over |f'(x)|,
bounds the relative root error by _CERT_TOL, and the top modulus clears
the others by _TOP_GAP (or, for a complex pair, the pair is clearly off
the real axis).  Modulus ties, parabolic and near-elliptic rows, rows near
the real/complex switch and rows that are not finite go to the full
LAPACK solve instead, which also serves d >= 4.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "Functional",
]


@dataclass(frozen=True)
class Functional:
    """Linear form on sum-zero vectors, stored as its canonical sum-zero
    coefficient vector; evaluation is the dot product."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        c = c - c.mean()                      # canonical representative
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def gap(cls, d: int, i: int) -> "Functional":
        """The simple-root functional v_i - v_(i+1) (1-based i)."""
        if not 1 <= i <= d - 1:
            raise InvalidParameterError(f"gap index {i} out of range for d={d}")
        c = np.zeros(d)
        c[i - 1], c[i] = 1.0, -1.0
        return cls(c)

    def __call__(self, v) -> float:
        return float(self.coeffs @ np.asarray(v, dtype=float))

    def __mul__(self, scalar):
        return Functional(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __add__(self, other):
        return Functional(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return Functional(self.coeffs - other.coeffs)

    def norm(self) -> float:
        """Dual Euclidean norm = sup over unit sum-zero v of phi(v)."""
        return float(np.linalg.norm(self.coeffs))


# ---------------------------------------------------------------------------
# batched split-spectrum cores (shared with limcone.bulk)
# ---------------------------------------------------------------------------

def _top_log_svals(batch, count):
    """Leading `count` log singular values of each matrix in the batch."""
    sv = np.linalg.svd(batch, compute_uv=False)
    return np.log(sv[..., :count])


def _top_log_eigmods(batch, count):
    """Leading `count` sorted log eigenvalue moduli of each matrix."""
    ev = np.linalg.eigvals(batch)
    mods = np.sort(np.log(np.abs(ev)), axis=-1)[..., ::-1]
    return mods[..., :count]


def _split_spectrum(fwd, bwd, tops):
    """Assemble a full sorted log spectrum from forward and inverse data.

    fwd : (..., h) leading values of the matrix,
    bwd : (..., h) leading values of its inverse,
    whose negations reversed give the trailing values.  For odd d the
    middle coordinate comes from the zero-sum constraint (valid because
    inputs are normalised to |det| = 1); the result is re-centred to
    absorb the residual drift either way.
    """
    d = tops
    h = fwd.shape[-1]
    tail = -bwd[..., ::-1]
    if 2 * h == d:
        out = np.concatenate([fwd, tail], axis=-1)
    else:
        mid = -(fwd.sum(axis=-1) + tail.sum(axis=-1))
        out = np.concatenate([fwd, mid[..., None], tail], axis=-1)
    return out - out.mean(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# closed-form top values for d <= 3
# ---------------------------------------------------------------------------

_ROUND = 8 * np.finfo(float).eps    # rounding allowance per coefficient and per evaluation
_CERT_TOL = 1e-13                   # largest accepted bound on a top log value
_TOP_GAP = 1e-6                     # relative modulus margin of a certified top real root
_SWITCH_MARGIN = 1e-10              # relative discriminant margin of a certified complex pair
_CHUNK_ROWS = 4096                  # rows per closed-form pass


def _cubic(y, A, B, C):
    """Value and derivative of y^3 + A y^2 + B y + C."""
    return ((y + A) * y + B) * y + C, (3 * y + 2 * A) * y + B


def _polish(y, A, B, C):
    """Two Newton steps from a start good to about half the digits."""
    for _ in range(2):
        f, df = _cubic(y, A, B, C)
        y = y - f / df
    return y


def _certified(y, A, B, C, TA, TB, TC):
    """Whether the first-order bound on the relative error of the simple
    root y of y^3 + A y^2 + B y + C, whose coefficients carry absolute
    rounding up to _ROUND * (TA, TB, TC), is within _CERT_TOL: residual
    plus coefficient perturbation times |y|^i, over |f'(y)|."""
    ay = np.abs(y)
    f, df = _cubic(y, A, B, C)
    slack = np.abs(f) + _ROUND * (((ay + TA) * ay + TB) * ay + TC)
    return slack <= _CERT_TOL * np.abs(df) * ay


def _trig_roots(A, B, C, ks=(0, 1, 2)):
    """Real roots k of y^3 + A y^2 + B y + C by the trigonometric formula,
    k = 0 the largest and k = 2 the smallest, with the depressed
    coefficients P, Q.  A start for polishing: rows without three real
    roots get the clipped double-root configuration."""
    a3 = A / 3
    P = B - A * a3
    Q = C + a3 * (2 * a3 * a3 - B)
    m = 2 * np.sqrt(np.maximum(-P / 3, 0.0))
    c3 = np.clip(np.where(m > 0, -4 * Q / m**3, 1.0), -1.0, 1.0)
    th = np.arccos(c3) / 3
    return [m * np.cos(th - k * (2 * np.pi / 3)) - a3 for k in ks], P, Q


def _cubic_top_modulus(a, b, Ta, Tb):
    """log of the top eigenvalue modulus of a det = 1 matrix with
    characteristic polynomial x^3 - a x^2 + b x - 1, and whether it is
    certified; _ROUND * Ta and _ROUND * Tb bound the rounding of a and b.

    The top is either an isolated real root, whose modulus clears every
    other one by _TOP_GAP, or a complex pair of modulus |r|^(-1/2), r the
    single real root, which needs the pair clearly off the real axis.
    """
    s = np.maximum(np.maximum(np.abs(a), np.sqrt(np.abs(b))), 1.0)
    s2 = s * s
    A, B, C = -a / s, b / s2, -1 / s2 / s
    (y0, y1, y2), P, Q = _trig_roots(A, B, C)
    D = (Q / 2) ** 2 + (P / 3) ** 3
    one = D >= 0
    # Cardano for the single real root, added without cancellation
    u = np.cbrt(-Q / 2 - np.copysign(np.sqrt(np.maximum(D, 0.0)), Q))
    y_one = np.where(u != 0, u - P / (3 * u), 0.0) - A / 3
    y_three = np.where(np.abs(y0) >= np.abs(y2), y0, y2)
    y = _polish(np.where(one, y_one, y_three), A, B, C)
    ok = _certified(y, A, B, C, Ta / s, Tb / s2, 1 / s2 / s)
    logr = np.log(np.abs(y)) + np.log(s)
    rest = np.maximum(np.abs(y1), np.minimum(np.abs(y0), np.abs(y2)))
    isolated3 = ~one & (np.abs(y_three) - rest > _TOP_GAP * np.abs(y_three))
    isolated1 = one & (logr > _TOP_GAP)
    switch = _SWITCH_MARGIN * ((Q / 2) ** 2 + np.abs(P / 3) ** 3)
    pair = one & (logr < -_TOP_GAP) & (D > switch)
    return np.where(pair, -0.5 * logr, logr), ok & (isolated3 | isolated1 | pair)


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def _abs_trace(m):
    return np.abs(np.diagonal(m, axis1=-2, axis2=-1)).sum(axis=-1)


def _jordan2_tops(m, minv):
    def top(t, T):
        at = np.abs(t)
        margin = at - 2.0
        err = _ROUND * (T + 1.0)
        hyper = err / np.sqrt(margin * (at + 2.0)) <= _CERT_TOL
        val = np.where(margin > 0, np.arccosh(np.maximum(at, 2.0) / 2), 0.0)
        return val, np.where(margin > 0, hyper, -margin > err)

    fwd, okf = top(_trace(m), _abs_trace(m))
    bwd, okb = top(_trace(minv), _abs_trace(minv))
    return fwd, bwd, okf & okb


def _jordan3_tops(m, minv):
    # c2 = det(M) tr(M^-1), so the polynomial of M^-1 is the reversed one
    t, ti = _trace(m), _trace(minv)
    Tt, Tti = _abs_trace(m), _abs_trace(minv)
    fwd, okf = _cubic_top_modulus(t, ti, Tt, Tti)
    bwd, okb = _cubic_top_modulus(ti, t, Tti, Tt)
    return fwd, bwd, okf & okb


def _cartan2_tops(m, minv):
    def top(a):
        p, q, r, s = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
        return np.log(0.5 * (np.hypot(p + s, r - q) + np.hypot(p - s, r + q)))

    fwd, bwd = top(m), top(minv)
    return fwd, bwd, np.isfinite(fwd) & np.isfinite(bwd)


def _gram_top(F, G):
    """log of the top root of the Gram polynomial x^3 - F x^2 + G x - 1,
    F = |M|_F^2 and G = |M^-1|_F^2.  Scaled by F, its roots are positive
    and sum to one; rows whose F or G overflows are left uncertified."""
    B = G / F / F
    C = -1 / F / F / F
    (y,), _, _ = _trig_roots(-1.0, B, C, ks=(0,))
    y = _polish(y, -1.0, B, C)
    ok = _certified(y, -1.0, B, C, 1.0, B, -C) & np.isfinite(F) & np.isfinite(G)
    return np.log(y) + np.log(F), ok


def _cartan3_tops(m, minv):
    # sigma_i^2 are the roots of the Gram polynomial of M: c1 = |M|_F^2,
    # c2 = det(M)^2 |M^-1|_F^2, c3 = det(M)^2 = 1; sums of squares only
    F = np.einsum("nij,nij->n", m, m)
    G = np.einsum("nij,nij->n", minv, minv)
    lf, okf = _gram_top(F, G)
    lb, okb = _gram_top(G, F)
    return 0.5 * lf, 0.5 * lb, okf & okb


_CLOSED_FORM = {
    "cartan": {2: _cartan2_tops, 3: _cartan3_tops},
    "jordan": {2: _jordan2_tops, 3: _jordan3_tops},
}


def _batched(kind, lapack_top, prods, inv_prods):
    prods = np.asarray(prods, dtype=float)
    inv_prods = np.asarray(inv_prods, dtype=float)
    d = prods.shape[-1]
    h = d // 2
    closed = _CLOSED_FORM[kind].get(d)
    if closed is None:
        return _split_spectrum(lapack_top(prods, h), lapack_top(inv_prods, h), d)
    m = prods.reshape(-1, d, d)
    minv = inv_prods.reshape(-1, d, d)
    tops = np.empty((len(m), 2))
    bad = np.empty(len(m), dtype=bool)
    # cache-sized row chunks keep the many per-row temporaries small
    with np.errstate(all="ignore"):
        for lo in range(0, len(m), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            tops[rows, 0], tops[rows, 1], ok = closed(m[rows], minv[rows])
            bad[rows] = ~ok
    if bad.any():
        tops[bad, 0] = lapack_top(m[bad], 1)[:, 0]
        tops[bad, 1] = lapack_top(minv[bad], 1)[:, 0]
    return _split_spectrum(tops[:, :1], tops[:, 1:], d).reshape(prods.shape[:-2] + (d,))


def batched_cartan(prods, inv_prods):
    """Cartan projections of a stack of |det| = 1 matrices, given the
    stack and its inverses: Gram-polynomial closed form for d <= 3 with
    LAPACK `svd` on the rows the certificate rejects, LAPACK for d >= 4."""
    return _batched("cartan", _top_log_svals, prods, inv_prods)


def batched_jordan(prods, inv_prods):
    """Jordan projections of a stack of det = 1 matrices (SL(d, R) word
    products), given the stack and its inverses: characteristic-polynomial
    closed form for d <= 3 with LAPACK `eigvals` on the rows the
    certificate rejects, LAPACK for d >= 4."""
    return _batched("jordan", _top_log_eigmods, prods, inv_prods)
