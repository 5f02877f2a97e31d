"""Cartan and Jordan projections of stacks of word products.

For g in GL(d, R) the Cartan projection a(g) is the sorted vector of
logarithmic singular values and the Jordan projection lambda(g) the
sorted vector of logarithmic eigenvalue moduli, both shifted to sum
zero, which realises the PGL normalization (the Cartan subspace is the
traceless diagonals).

Word products are violently graded: at word length 12 the condition
number sits around e^40, where one-sided solvers lose every coordinate
below the midpoint.  For d >= 3 every product therefore comes with its
exact inverse, multiplied from the generator inverses (limcone.bulk), so
no inverse is ever computed here.  At d = 2, det = 1 makes the top value
of m^{-1} equal that of m, so the inverse is optional: the closed forms
read m alone, and a row they do not certify takes m^{-1}'s top value
from LAPACK when the inverse is given (the CLI `spectra` dump) and m's
own when it is not (the element and class tables).  The inverse's own
value is the more accurate one on such ill-conditioned rows, so a dump
keeps it.  Every row takes one path: for d <= 3 a
closed form (below) gives the top value of m and of m^{-1}; LAPACK gives
the top d // 2 values of both on every row the closed form does not
certify, so on every row for d >= 4; one assembly takes the top half
from m, the middle coordinate of odd d from the zero-sum constraint and
the bottom half from m^{-1}.  That keeps every coordinate near machine
accuracy regardless of conditioning (validated against a 60-digit
reference in the test suite).

For d <= 3 only the top and bottom values are needed, and each row
solves one polynomial whose coefficients come from both products:

* Jordan, d = 3: the characteristic polynomial of a det = 1 matrix is
  x^3 - a x^2 + b x - 1 with a = tr(m) and b = tr(m^{-1}), because
  c2 = det(m) tr(m^{-1}).  Its top-modulus root is either a real x or a
  complex pair of modulus |r|^(-1/2) over the single real root r, which
  is then the bottom.  A real top x leaves the other two roots as those
  of z^2 - S z + 1/x with S = (b - 1/x)/x, which needs no difference of
  large roots; the larger z is taken without cancellation, the bottom is
  w = 1/(x z), and a complex bottom pair has modulus exactly x^(-1/2).
* Jordan, d = 2: det = 1 makes the spectrum (l, -l), with l read from
  tr(m) alone, m^{-1} unread.
* Cartan, d = 3: sigma_i^2 are the roots of the Gram polynomial
  x^3 - |m|_F^2 x^2 + |m^{-1}|_F^2 x - 1, whose coefficients are sums of
  squares and cannot cancel; sigma_1^2 is solved and sigma_3^2 deflated
  as above, and every root is positive.
* Cartan, d = 2: sigma_1 = (hypot(a + d, c - b) + hypot(a - d, c + b)) / 2
  and sigma_2 = 1 / sigma_1, from m alone.

Each cubic is scaled by its leading coefficient, its top root started
from the trigonometric or Cardano formula and polished by Newton steps.
A row keeps its closed-form values only when a first-order certificate
holds for both ends.  For a root y, the residual plus the rounding of
each coefficient times |y|^i, over |f'(y)|, bounds the relative error by
_CERT_TOL.  The deflated bottom w uses the rounding terms alone, with
f'(w) = (w - x)(w - z): that is w's first-order dependence on a and b,
and x's own error reaches w only damped by |w - 1/x^2| / |w - z|.  A
Jordan row also needs both ends to clear their neighbours' moduli by
_TOP_GAP, and a complex pair needs its discriminant clearly negative:
the cubic's by _SWITCH_MARGIN, the deflated one by its own rounding
bound.  Modulus ties, near double roots, parabolic and near-elliptic
rows, rows near the real/complex switch and rows that are not finite go
to the full LAPACK solve.  On words not cyclically reduced, such as
a^n b a^-n, that solve errs by up to 1e-10; the CLI prints 17 digits.
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
        if not np.isfinite(c).all():
            raise InvalidParameterError("functional coefficients must be finite")
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


def _split_spectrum(fwd, bwd, d):
    """Assemble full sorted log spectra from forward and inverse data.

    fwd : (M, h) leading values of each matrix,
    bwd : (M, h) leading values of its inverse,
    whose negations reversed give the trailing values.  For odd d the
    middle coordinate comes from the zero-sum constraint (valid because
    inputs are normalised to |det| = 1); the result is re-centred to
    absorb the residual drift either way.  The sums run in index order,
    numpy's own order below 8 terms: for d <= 7 this is bit for bit the
    concatenated columns minus their np.mean, and for d >= 8, where numpy
    unrolls its sum, the two may differ in the last bit.
    """
    h = fwd.shape[1]
    cols = [fwd[:, i] for i in range(h)]
    tail = [-bwd[:, i] for i in range(h - 1, -1, -1)]
    if d % 2:
        cols.append(-(sum(cols[1:], cols[0]) + sum(tail[1:], tail[0])))
    cols += tail
    mean = sum(cols[1:], cols[0]) / d
    out = np.empty((len(fwd), d))
    for j, col in enumerate(cols):
        np.subtract(col, mean, out=out[:, j])
    return out


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


def _certified(y, f, df, TA, TB, TC):
    """Whether the first-order bound on the relative error of the simple
    root y of a cubic y^3 + A y^2 + B y + C, with residual f and
    derivative df at y and coefficients that carry absolute rounding up to
    _ROUND * (TA, TB, TC), is within _CERT_TOL: residual plus coefficient
    perturbation times |y|^i, over |f'(y)|."""
    ay = np.abs(y)
    slack = np.abs(f) + _ROUND * (((ay + TA) * ay + TB) * ay + TC)
    return slack <= _CERT_TOL * np.abs(df) * ay


def _trig_roots(A, B, C, ks):
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


def _deflate(x, a, b, Ta, Tb):
    """The other two roots of x^3 - a x^2 + b x - 1 given its root x; they
    solve z^2 - S z + 1/x with S = (b - 1/x)/x.  Returns S, the
    discriminant S^2 - 4/x, the larger root z, taken without cancellation,
    and the bottom w = 1/(x z) with whether it is certified.  _ROUND * Ta
    and _ROUND * Tb bound the rounding of a and b; w's bound is its
    first-order dependence on them, with no residual term, because the
    relative error of the polished x reaches w only times
    |w - 1/x^2| / |w - z|, which the _ROUND allowance covers."""
    S = (b - 1 / x) / x
    disc = S * S - 4 / x
    z = 0.5 * (S + np.copysign(np.sqrt(np.maximum(disc, 0.0)), S))
    w = 1 / (x * z)
    okw = _certified(w, 0.0, (w - x) * (w - z), Ta, Tb, 1.0)
    return S, disc, z, w, okw


def _diagonal_sums(m):
    """tr(m) and the sum of |m_ii|, summed in index order as np.trace does."""
    t, T = m[:, 0, 0], np.abs(m[:, 0, 0])
    for i in range(1, m.shape[-1]):
        t, T = t + m[:, i, i], T + np.abs(m[:, i, i])
    return t, T


def _jordan2_tops(m, minv):
    # det = 1, so the spectrum is (l, -l) with l = arccosh(|tr m| / 2)
    t, T = _diagonal_sums(m)
    at = np.abs(t)
    margin = at - 2.0
    err = _ROUND * (T + 1.0)
    hyper = err / np.sqrt(margin * (at + 2.0)) <= _CERT_TOL
    top = np.where(margin > 0, np.arccosh(np.maximum(at, 2.0) / 2), 0.0)
    return top, top, np.where(margin > 0, hyper, -margin > err)


def _jordan3_tops(m, minv):
    # c2 = det(M) tr(M^-1): M's characteristic polynomial is x^3 - a x^2 + b x - 1
    (a, Ta), (b, Tb) = _diagonal_sums(m), _diagonal_sums(minv)
    s = np.maximum(np.maximum(np.abs(a), np.sqrt(np.abs(b))), 1.0)
    s2 = s * s
    A, B, C = -a / s, b / s2, -1 / s2 / s
    (y0, y2), P, Q = _trig_roots(A, B, C, ks=(0, 2))
    D = (Q / 2) ** 2 + (P / 3) ** 3
    one = D >= 0
    # Cardano for the single real root, added without cancellation
    u = np.cbrt(-Q / 2 - np.copysign(np.sqrt(np.maximum(D, 0.0)), Q))
    y_one = np.where(u != 0, u - P / (3 * u), 0.0) - A / 3
    y = _polish(np.where(one, y_one, np.where(np.abs(y0) >= np.abs(y2), y0, y2)), A, B, C)
    okx = _certified(y, *_cubic(y, A, B, C), Ta / s, Tb / s2, -C)
    x = y * s
    S, disc, z, w, okw = _deflate(x, a, b, Ta, Tb)
    ax, az = np.abs(x), np.abs(z)
    logx = np.log(ax)
    # a complex pair on top, of modulus |x|^(-1/2) over the single real root x
    switch = _SWITCH_MARGIN * ((Q / 2) ** 2 + np.abs(P / 3) ** 3)
    pair = one & (logx < -_TOP_GAP) & (D > switch)
    # a real top x: the discriminant's rounding, with x's error at most _CERT_TOL,
    # decides between a complex bottom pair of modulus x^(-1/2) and a real bottom w
    dS = _ROUND * (Tb + 1 / ax) / ax + _CERT_TOL * (np.abs(S) + 1 / (ax * ax))
    derr = 2 * np.abs(S) * dS + _ROUND * S * S + 4 * (_CERT_TOL + _ROUND) / ax
    low_pair = (disc < -derr) & (logx > _TOP_GAP)
    low_real = ((disc > derr) & (az < (1 - _TOP_GAP) * ax) & (np.abs(w) < (1 - _TOP_GAP) * az)
            & okw)
    bwd = np.where(low_pair, 0.5 * logx, np.log(np.abs(x * z)))
    return (np.where(pair, -0.5 * logx, logx), np.where(pair, -logx, bwd),
            okx & (pair | low_pair | low_real))


def _cartan2_tops(m, minv):
    p, q, r, s = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    top = np.log(0.5 * (np.hypot(p + s, r - q) + np.hypot(p - s, r + q)))
    return top, top, np.isfinite(top)


def _cartan3_tops(m, minv):
    # sigma_i^2 are the roots of the Gram polynomial of M: c1 = |M|_F^2,
    # c2 = det(M)^2 |M^-1|_F^2, c3 = det(M)^2 = 1; sums of squares only, so
    # every root is positive and the coefficients carry their own rounding.
    # An infinite F or G makes x or w NaN, which fails the certificate.
    F = np.einsum("nij,nij->n", m, m)
    G = np.einsum("nij,nij->n", minv, minv)
    B, C = G / F / F, -1 / F / F / F
    (y,), _, _ = _trig_roots(-1.0, B, C, ks=(0,))
    y = _polish(y, -1.0, B, C)
    okx = _certified(y, *_cubic(y, -1.0, B, C), 1.0, B, -C)
    x = y * F
    _, _, z, _, okw = _deflate(x, F, G, F, G)
    return 0.5 * np.log(x), 0.5 * np.log(x * z), okx & okw


def _batched(closed, lapack_top, prods, inv_prods):
    """Log spectra of a stack of |det| = 1 matrices and its inverses: the
    closed form closed[d], if d is a key, then LAPACK's top d // 2 values
    of both products on every row it does not certify, then one assembly.
    At d = 2 inv_prods may be None: the fallback then takes m's top value
    for both ends."""
    prods = np.asarray(prods, dtype=float)
    d = prods.shape[-1]
    if inv_prods is None and d > 2:
        raise InvalidParameterError(f"d = {d} needs the inverse products")
    m = prods.reshape(-1, d, d)
    minv = None if inv_prods is None else np.asarray(inv_prods, dtype=float).reshape(-1, d, d)
    fwd = np.empty((len(m), d // 2))
    bwd = np.empty_like(fwd)
    bad = np.ones(len(m), dtype=bool)
    if d in closed:
        # cache-sized row chunks keep the many per-row temporaries small
        with np.errstate(all="ignore"):
            for lo in range(0, len(m), _CHUNK_ROWS):
                rows = slice(lo, lo + _CHUNK_ROWS)
                inv = None if minv is None else minv[rows]
                fwd[rows, 0], bwd[rows, 0], ok = closed[d](m[rows], inv)
                bad[rows] = ~ok
    if bad.any():
        fwd[bad] = lapack_top(m[bad], d // 2)
        bwd[bad] = fwd[bad] if minv is None else lapack_top(minv[bad], d // 2)
    return _split_spectrum(fwd, bwd, d).reshape(prods.shape[:-2] + (d,))


def batched_cartan(prods, inv_prods):
    """Cartan projections of a stack of |det| = 1 matrices, given the
    stack and its inverses (None allowed at d = 2 only): for d <= 3 one
    closed-form solve of the Gram polynomial per row, the bottom by
    deflation; LAPACK `svd` on the rows the certificate rejects and on
    every row for d >= 4; one assembly."""
    return _batched({2: _cartan2_tops, 3: _cartan3_tops}, _top_log_svals, prods, inv_prods)


def batched_jordan(prods, inv_prods):
    """Jordan projections of a stack of det = 1 matrices (SL(d, R) word
    products), given the stack and its inverses (None allowed at d = 2
    only): for d <= 3 one closed-form solve of the characteristic
    polynomial per row, the bottom by deflation; LAPACK `eigvals` on the
    rows the certificate rejects and on every row for d >= 4; one
    assembly."""
    return _batched({2: _jordan2_tops, 3: _jordan3_tops}, _top_log_eigmods, prods, inv_prods)
