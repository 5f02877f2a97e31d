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
cycle-expansion pressure on numpy arrays, the level sum as a plain
log-sum-exp over one level, the Gibbs direction with a new array per
step, and exact tables whose rows are given per class or
word (tables_of_rows): those of a d = 2 weight (weight_tables) and
those of a d = 3 letter-pair cocycle, with its transfer matrix, roots
and equilibrium means (PairCocycle).  The library itself works on whole
levels and stacks, counts only below the completeness cap, builds
r_(N-2), ..., r_N only for the fallback, runs the cycle expansion on
Python floats, sums levels from their least weight and takes the Gibbs
direction in place."""

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
from limcone import words
from limcone.bulk import ClassSpectra, ElementSpectra, class_spectra, element_spectra
from limcone.counting import (
    _DROP_FRACTION,
    _GRID_POINTS,
    NEG_INFINITY,
    _completeness_cap,
    _threshold_grid,
)
from limcone.errors import NotInDualConeError
from limcone.growth import _opposition
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
    (parents, last) per depth, as bulk.tree_products takes them; yields
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


def chained_root_detail(rep, phi, n_max=DEFAULT_N_MAX) -> RootResult:
    """pressure_root_detail with every level root built: r_(N-3) from
    t = 0, each r_n from r_(n-1) up to r_N, then the cycle-expansion
    Newton from r_N, falling back to r_N."""
    w = _Weights(rep, phi, n_max)
    worst = min(w.least)
    if worst <= 0:
        raise NotInDualConeError(f"weight takes non-positive value {worst:.3e}")
    top = 0.0
    for n in range(n_max - 3, n_max + 1):
        top = w.level_root(n, top)
    value = _decreasing_root(lambda t: _cycle_pressure(w.sums(t)), top)
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


def plain_level_sum(cs, phi, n, t):
    """log Z_n(t) and the Gibbs mean of phi at level n of the class table
    cs, by a plain log-sum-exp over the level's own weights: the
    exponents, their greatest value subtracted, exp, the sum and the dot,
    seven passes."""
    v = cs.jordan[n] @ phi.coeffs
    x = cs.log_mult[n] - t * v
    top = x.max()
    g = np.exp(x - top)
    s = g.sum()
    return float(top + np.log(s)), float(g @ v / s)


def copying_gibbs_direction(rep, phi0, n):
    """gibbs_direction with a new level-n array for every step."""
    cs = class_spectra(rep, n)
    jordan = cs.jordan[n]
    x = cs.log_mult[n] - jordan @ phi0.coeffs
    g = np.exp(x - x.max())
    return (g @ jordan) / (n * g.sum())


def tables_of_rows(k, n_max, rows):
    """(ClassSpectra, ElementSpectra) of depth n_max whose length-n rows
    are rows(n, W, cyclic): W that level's class words, cyclic true
    (words.class_level_arrays, which also give the log multiplicities),
    or its reduced words, cyclic false."""
    classes = [words.class_level_arrays(k, n) for n in range(1, n_max + 1)]
    jordan = np.concatenate([rows(n, W, True) for n, (W, _) in enumerate(classes, 1)])
    log_mult = np.log(np.concatenate([mult for _, mult in classes]).astype(float))
    class_starts = np.cumsum([0] + [len(mult) for _, mult in classes])
    cartan = np.concatenate([rows(n, words.word_level_array(k, n), False)
                             for n in range(1, n_max + 1)])
    starts = np.cumsum([0] + [words.count_words(k, n) for n in range(1, n_max + 1)])
    return ClassSpectra(jordan, log_mult, class_starts), ElementSpectra(cartan, starts)


def weight_tables(k, n_max, weight):
    """The d = 2 tables_of_rows for a given weight: each length-n row is
    weight(n, W) * (1/2, -1/2).  Under phi = (1, -1) every row's value
    is exactly its weight, since halving is exact."""
    half = np.array([0.5, -0.5])
    return tables_of_rows(
        k, n_max, lambda n, W, cyclic: np.asarray(weight(n, W), dtype=float)[:, None] * half)


class PairCocycle:
    """The letter-pair cocycle F(w) = sum_i x_(w_i) + sum_i y_(w_i w_(i+1))
    on F_2 with values in the open Weyl chamber of R^3, and its exact
    pressure, roots and equilibrium means.  The pair sum is cyclic over
    class words and not over reduced words.

    x and y are drawn from the seed as chamber vectors whose two gaps lie
    in [0.5, 2] (x) and [0.1, 0.5] (y); an inverse letter and a reversed
    inverse pair take the opposition image, x_(a^-1) = iota x_a and
    y_(b^-1 a^-1) = iota y_(ab), so that F(w^-1) = iota F(w), as for a
    Jordan projection.  The sum of p e^(-phi(F)) over the classes of
    length n is tr A^n, with A the non-backtracking letter graph whose
    edge a -> b weighs exp(-phi(x_b + y_ab)).  So P(-phi) = log rho(A),
    1/zeta is det(I - z A), a polynomial of degree 4, and the
    equilibrium mean of F per letter, -grad P, comes from A's Perron
    eigenvector pair (Parry & Pollicott, Asterisque 187-188, 1990)."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        k = 2

        def chamber(lo, hi):
            g1, g2 = rng.uniform(lo, hi, 2)
            return np.array([2 * g1 + g2, g2 - g1, -g1 - 2 * g2]) / 3

        self.x = np.empty((2 * k, 3))
        for a in range(0, 2 * k, 2):
            self.x[a] = chamber(0.5, 2.0)
            self.x[a + 1] = _opposition(self.x[a])
        self.backtrack = np.arange(2 * k)[:, None] == (np.arange(2 * k) ^ 1)[None, :]
        self.y = np.zeros((2 * k, 2 * k, 3))
        drawn = self.backtrack.copy()
        for a, b in np.argwhere(~self.backtrack):
            if not drawn[a, b]:
                self.y[a, b] = chamber(0.1, 0.5)
                self.y[b ^ 1, a ^ 1] = _opposition(self.y[a, b])
                drawn[a, b] = drawn[b ^ 1, a ^ 1] = True
        self.edge_values = self.x[None, :, :] + self.y      # edge a -> b carries x_b + y_ab

    def values(self, W, cyclic):
        """F of every row of the letter array W."""
        n = W.shape[1]
        F = np.zeros((len(W), 3))
        for i in range(n):
            F += self.x[W[:, i]]
        for i in range(n if cyclic else n - 1):
            F += self.y[W[:, i], W[:, (i + 1) % n]]
        return F

    def tables(self, k, n_max):
        """The tables_of_rows of depth n_max whose rows are F."""
        return tables_of_rows(k, n_max, lambda n, W, cyclic: self.values(W, cyclic))

    def transfer(self, phi):
        """A for the functional with coefficient vector phi."""
        return np.where(self.backtrack, 0.0, np.exp(-(self.edge_values @ phi)))

    def pressure(self, phi):
        """P(-phi) = log rho(A)."""
        return float(np.log(np.abs(np.linalg.eigvals(self.transfer(phi))).max()))

    def root(self, u):
        """The s with P(-s u) = 0, by bisection to the last bit; u must be
        positive on every edge."""
        lo, hi = 0.0, 1.0
        while self.pressure(hi * np.asarray(u)) > 0:
            lo, hi = hi, 2 * hi
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return mid
            lo, hi = (mid, hi) if self.pressure(mid * np.asarray(u)) > 0 else (lo, mid)

    def gibbs(self, phi):
        """The equilibrium mean of F per letter for -phi: l (A o V) r over
        rho l.r, with l and r the Perron vectors of A and V the edge values."""
        A = self.transfer(phi)
        vals, right = np.linalg.eig(A)
        top = np.argmax(vals.real)
        r = np.abs(right[:, top].real)
        vals_t, left = np.linalg.eig(A.T)
        l = np.abs(left[:, np.argmax(vals_t.real)].real)
        return np.einsum("a,ab,abk,b->k", l, A, self.edge_values, r) / (vals[top].real * (l @ r))
