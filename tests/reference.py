"""Reference code for the tests, one word or one matrix at a time: the
object-word API (reduction, inversion, rotations, canonical classes,
evaluation, parse_word as the inverse of format_word), prefix-tree
products with one multiply per child, the split-spectrum assembly by
concatenation and np.mean, the Cartan and Jordan projections of a
single matrix from LAPACK on it and on its LU inverse, the two
errors only these raise, dual_rep, the counting estimators that sort
every value and read the whole element table, the pressure root
started from the chained level roots r_(N-3) -> r_N, rebase, the
representation in another free basis or another basis of R^d, the
cycle-expansion pressure on numpy arrays and the Gibbs direction with a
new array per step.  The library itself works on whole levels and
stacks, counts only below the completeness cap, builds r_(N-2), ..., r_N
only for the fallback, runs the cycle expansion on Python floats and
takes the Gibbs direction in place."""

from dataclasses import dataclass

import numpy as np

from limcone import (
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
    LimconeError,
    PreconditionError,
    Representation,
    Word,
)
from limcone.bulk import class_spectra, element_spectra
from limcone.counting import (
    _DROP_FRACTION,
    _GRID_POINTS,
    NEG_INFINITY,
    _completeness_cap,
    _threshold_grid,
)
from limcone.errors import NotInDualConeError
from limcone.pressure import (
    DEFAULT_N_MAX,
    RootResult,
    _cycle_pressure,
    _decreasing_root,
    _Weights,
)
from limcone.spectra import _top_log_eigmods, _top_log_svals


class SpectralFailureError(LimconeError):
    """Singular value or eigenvalue computation cannot proceed."""


class UndefinedGapError(PreconditionError):
    """Gap ratio requested for a matrix with vanishing top exponent."""


def _validate_letters(letters, k=None):
    for l in letters:
        if not isinstance(l, (int, np.integer)) or l < 0 or (k is not None and l >= 2 * k):
            raise InvalidInputError(f"unknown letter {l!r}")


@dataclass(frozen=True)
class ConjugacyClass:
    """Canonical form of a conjugacy class: least rotation of a
    cyclically reduced word."""

    word: Word

    @property
    def letters(self):
        return self.word.letters

    def multiplicity(self) -> int:
        """Number of distinct rotations, i.e. the primitive period."""
        ls, n = self.letters, len(self.letters)
        return next(p for p in range(1, n + 1) if n % p == 0 and ls == ls[p:] + ls[:p])


def reduce(letters, k=None) -> Word:
    """Freely reduce a raw letter sequence with a stack: push letters,
    cancel whenever the incoming letter inverts the top."""
    _validate_letters(letters, k)
    stack = []
    for l in letters:
        if stack and stack[-1] == (l ^ 1):
            stack.pop()
        else:
            stack.append(int(l))
    return Word(tuple(stack))


def inverse(w: Word) -> Word:
    return Word(tuple(l ^ 1 for l in reversed(w.letters)))


def rotate(w: Word, j: int) -> Word:
    ls = w.letters
    if not ls:
        return w
    j %= len(ls)
    return Word(ls[j:] + ls[:j])


def canonical_conj(w: Word) -> ConjugacyClass:
    """Cyclically reduce, then pick the least rotation."""
    ls = list(w.letters)
    if not ls:
        raise InvalidInputError("empty word")
    while len(ls) > 1 and ls[-1] == (ls[0] ^ 1):
        ls = ls[1:-1]
    if not ls:
        raise InvalidInputError("word is conjugate to the identity")
    ls = tuple(ls)
    return ConjugacyClass(Word(min(ls[j:] + ls[:j] for j in range(len(ls)))))


def evaluate(rep, w) -> np.ndarray:
    """Product of generator matrices along a word or letter sequence."""
    letters = tuple(w)
    _validate_letters(letters, rep.num_generators)
    stack = rep.letter_matrices()
    out = np.eye(rep.dim)
    for l in letters:
        out = out @ stack[l]
    return out


def tree_products(rep, edges):
    """Forward and inverse products of every node of a prefix tree, one
    product per child and a whole depth at a time: fwd[parent] @ letter
    and letter^-1 @ bwd[parent], each a full-depth gather.  edges are
    (parents, last) per depth, as bulk._tree_products takes them; yields
    (fwd, bwd) for depth 1, 2, ..."""
    k = rep.num_generators
    stack = rep.letter_matrices()
    inv_stack = np.ascontiguousarray(stack[np.arange(2 * k) ^ 1])
    fwd = bwd = np.eye(rep.dim)[None]
    for parents, last in edges:
        fwd, bwd = fwd[parents] @ stack[last], inv_stack[last] @ bwd[parents]
        yield fwd, bwd


def split_spectrum(fwd, bwd, d):
    """Full sorted log spectra from the (M, h) leading values of each
    matrix (fwd) and of its inverse (bwd), by concatenation and np.mean:
    the negated bwd reversed is the bottom, the middle coordinate of odd
    d comes from the zero-sum constraint, and the whole is re-centred."""
    tail = -bwd[..., ::-1]
    if 2 * fwd.shape[-1] == d:
        out = np.concatenate([fwd, tail], axis=-1)
    else:
        mid = -(fwd.sum(axis=-1) + tail.sum(axis=-1))
        out = np.concatenate([fwd, mid[..., None], tail], axis=-1)
    return out - out.mean(axis=-1, keepdims=True)


def parse_word(text: str, labels) -> Word:
    """Inverse of format_word; accepts space separated tokens too."""
    by_label = {}
    for i, lab in enumerate(labels):
        by_label[lab] = 2 * i
        if len(lab) == 1 and lab.islower():
            by_label[lab.upper()] = 2 * i + 1
        by_label[lab + "'"] = 2 * i + 1
    tokens = text.split() if " " in text.strip() else list(text.strip())
    for t in tokens:
        if t not in by_label:
            raise InvalidInputError(f"unknown letter {t!r}")
    return reduce([by_label[t] for t in tokens], len(labels))


@dataclass(frozen=True)
class CartanVector:
    """Element of the closed Weyl chamber: non-increasing, sum zero."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if len(c) < 2:
            raise InvalidParameterError("need at least two coordinates")
        if np.any(np.diff(c) > 1e-12):
            raise InvalidParameterError("coordinates must be non-increasing")
        if abs(c.sum()) >= 1e-9 * len(c):
            raise InvalidParameterError("coordinates must sum to zero")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]


def _checked(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError("expected a square matrix")
    if not np.isfinite(m).all():
        raise SpectralFailureError("matrix has non-finite entries")
    return m


def _spectrum(m, top_fn) -> np.ndarray:
    """Full log spectrum of one matrix, sum-normalised to zero: the top
    ceil(d/2) values from the one-sided solver, the bottom floor(d/2)
    from the LU inverse (good to about eps * cond), no determinant
    assumed; the mean subtraction absorbs any overall scale."""
    d = m.shape[0]
    try:
        minv = np.linalg.inv(m)
        lead = top_fn(m[None], d - d // 2)[0]
        bottom = -top_fn(minv[None], d // 2)[0][::-1]
    except np.linalg.LinAlgError as exc:
        raise SpectralFailureError("matrix is numerically singular") from exc
    out = np.concatenate([lead, bottom])
    if not np.isfinite(out).all():
        raise SpectralFailureError("spectrum overflow or singular input")
    out = np.minimum.accumulate(out)      # exact ties at working precision
    return out - out.mean()


def cartan(m) -> CartanVector:
    """Sorted log singular values, mean-subtracted."""
    return CartanVector(_spectrum(_checked(m), _top_log_svals))


def jordan(m) -> CartanVector:
    """Sorted log eigenvalue moduli, mean-subtracted; a complex pair
    contributes two equal coordinates."""
    return CartanVector(_spectrum(_checked(m), _top_log_eigmods))


def gap_ratio(m, i: int, tol: float = 1e-9) -> float:
    """(lambda_i - lambda_(i+1)) / lambda_1, with 1-based index i."""
    lam = jordan(m).coords
    if not 1 <= i <= len(lam) - 1:
        raise InvalidParameterError(f"gap index {i} out of range for d={len(lam)}")
    if lam[0] <= tol:
        raise UndefinedGapError("top exponent vanishes; gap ratio undefined")
    return float((lam[i - 1] - lam[i]) / lam[0])


def is_proximal(m, tol: float = 1e-6) -> bool:
    """True when the top eigenvalue modulus is simple with relative
    margin tol and the top eigenvalue is real."""
    ev = np.linalg.eigvals(_checked(m))
    top, second = ev[np.argsort(-np.abs(ev))[:2]]
    if abs(top) == 0 or (abs(top) - abs(second)) / abs(top) <= tol:
        return False
    return abs(top.imag) <= tol * abs(top)


def power_consistency(m, n: int) -> float:
    """sup-norm distance between cartan(m^n)/n and jordan(m), which
    tends to 0 for proximal m.  Past the overflow horizon of m^n the
    Cartan projection comes from a QR accumulation in log scale."""
    if n < 1:
        raise InvalidParameterError("power must be >= 1")
    m = _checked(m)
    det = np.linalg.det(m)
    if not np.isfinite(det) or abs(det) < 1e-300:
        raise SpectralFailureError("matrix is numerically singular")
    m = m / abs(det) ** (1.0 / m.shape[0])
    lam = jordan(m).coords
    if n * max(float(_top_log_svals(m[None], 1)[0, 0]), 1.0) < 280.0:
        # m^n has unit determinant, so its bottom value is minus the sum of the others
        lead = _top_log_svals(np.linalg.matrix_power(m, n)[None], m.shape[0] - 1)[0]
        a_n = np.minimum.accumulate(np.concatenate([lead, [-lead.sum()]]))
        a_n = a_n - a_n.mean()
    else:
        a_n = _qr_log_power(m, n)
    return float(np.max(np.abs(a_n / n - lam)))


def _qr_log_power(m, n):
    """Log singular value estimates of m^n by sequential QR with
    renormalization; exact only asymptotically."""
    q, logs = np.eye(m.shape[0]), np.zeros(m.shape[0])
    for _ in range(n):
        q, r = np.linalg.qr(m @ q)
        diag = np.diag(r)
        if np.any(diag == 0) or not np.all(np.isfinite(diag)):
            raise SpectralFailureError("QR renormalization broke down")
        logs += np.log(np.abs(diag))
        q = q * np.sign(diag)
    out = np.sort(logs)[::-1]
    return out - out.mean()


def dual_rep(rep: Representation) -> Representation:
    """Contragredient representation: each generator replaced by its
    inverse transpose.  An involution."""
    return Representation(rep.dim, np.swapaxes(np.linalg.inv(rep.generators), 1, 2), rep.labels)


def rebase(rep: Representation, move) -> Representation:
    """rep in another free basis or another basis of R^d.  "swap"
    exchanges the first two generators and "invert" replaces the first
    by its inverse: both permute the words and the classes of each
    length.  "inner" conjugates every other generator by the first
    (b -> a b a^-1), and a matrix g of SL(d, R) conjugates every
    generator (rho -> g rho g^-1): both keep each class and its Jordan
    projection but move word lengths or Cartan projections.  The Nielsen
    moves "a->ab", "a->ab^-1" and "b->ba" keep the group but not the
    word lengths, so they change each truncation but not its limit."""
    gens = np.array(rep.generators)
    if isinstance(move, str):
        if move == "swap":
            gens[[0, 1]] = gens[[1, 0]]
        elif move == "invert":
            gens[0] = np.linalg.inv(gens[0])
        elif move == "inner":
            gens[1:] = gens[0] @ gens[1:] @ np.linalg.inv(gens[0])
        elif move == "a->ab":
            gens[0] = gens[0] @ gens[1]
        elif move == "a->ab^-1":
            gens[0] = gens[0] @ np.linalg.inv(gens[1])
        elif move == "b->ba":
            gens[1] = gens[1] @ gens[0]
        else:
            raise InvalidParameterError(f"unknown move {move!r}")
    else:
        g = np.asarray(move, dtype=float)
        gens = g @ gens @ np.linalg.inv(g)
    return Representation(rep.dim, gens, rep.labels)


def slope_fit(values, cap):
    """Least-squares slope of log #{value <= s} below cap, counted by a
    sort of every value: (slope, std_error, thresholds, counts)."""
    grid = _threshold_grid(float(values.min()), cap, _GRID_POINTS)
    grid = grid[int(_DROP_FRACTION * _GRID_POINTS):]
    counts = np.searchsorted(np.sort(values), grid, side="right")
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


def growth_indicator(rep, v, half_angle, N):
    """Slope of log counts of Cartan norms in the round cone of
    half_angle around v, over every row of the element table."""
    es = element_spectra(rep, N)
    norms = np.sqrt(np.einsum("ij,ij->i", es.cartan, es.cartan))
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = (es.cartan @ v) / norms
    inside = cosang >= np.cos(half_angle)
    if not inside.any():
        return NEG_INFINITY
    try:
        slope, _, _, counts = slope_fit(norms[inside], _completeness_cap(norms, es.starts))
    except InsufficientDataError:
        return NEG_INFINITY
    return NEG_INFINITY if counts[0] == counts[-1] else slope


def chained_root_detail(rep, phi, n_max=DEFAULT_N_MAX, weight_hook=None) -> RootResult:
    """pressure_root_detail with every level root built: r_(N-3) from
    t = 0, each r_n from r_(n-1) up to r_N, then the cycle-expansion
    Newton from r_N, falling back to r_N."""
    w = _Weights(rep, phi, n_max, weight_hook)
    worst = min(v.min() for v in w.values.values())
    if worst <= 0:
        raise NotInDualConeError(f"weight takes non-positive value {worst:.3e}")
    top = 0.0
    for n in range(n_max - 3, n_max + 1):
        top = w.level_root(n, top)
    value = _decreasing_root(
        lambda t: _cycle_pressure([w.level_sum(n, t) for n in range(1, n_max + 1)]), top)
    if value is None:
        return RootResult(top, True)
    return RootResult(float(value), False)


def array_cycle_pressure(sums):
    """_cycle_pressure on numpy arrays: Newton's identities as one dot
    per coefficient, the zero from np.roots, the polish and the slope
    as dots with the powers of the zero."""
    N = len(sums)
    s = sums[-1][0] / N
    with np.errstate(over="ignore", invalid="ignore"):
        Z = np.array([0.0] + [np.exp(log_z - n * s) for n, (log_z, _) in enumerate(sums, 1)])
        dZ = np.array([0.0] + [-Z[n] * mean for n, (_, mean) in enumerate(sums, 1)])
    if not (np.isfinite(Z).all() and np.isfinite(dZ).all()):
        return None
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
    for _ in range(3):
        xk = x ** k
        f_z = (k[1:] * c[1:]) @ xk[:-1]
        if not f_z < 0:
            return None
        x -= (c @ xk) / f_z
    if not x > 0:
        return None
    slope = (dc @ x ** k) / (f_z * x)
    return s - float(np.log(x)), float(slope)


def copying_gibbs_direction(rep, phi0, n):
    """gibbs_direction with a new level-n array for every step."""
    cs = class_spectra(rep, n)
    jordan = cs.jordan[n]
    x = cs.log_mult[n] - jordan @ phi0.coeffs
    g = np.exp(x - x.max())
    return (g @ jordan) / (n * g.sum())
