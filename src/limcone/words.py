"""Reduced words and conjugacy classes of the free group F_k.

Letters are small integers: generator ``i`` is ``2*i`` and its inverse is
``2*i + 1``, so ``letter ^ 1`` inverts a letter and the natural integer
order realises the fixed letter order g1 < g1^-1 < g2 < g2^-1 < ...

Conjugacy classes are represented by cyclically reduced words in
canonical form (lexicographically least rotation).  They index the
periodic orbits of the shift on reduced bi-infinite words, which is the
symbolic stand-in for the geodesic flow; a class whose cyclic word has
primitive period p accounts for p distinct periodic sequences of its
length, and that multiplicity is carried alongside the canonical word.

The module keeps three process-wide caches of pure combinatorics, all
independent of any representation: the tree of reduced words organised
by level, the canonical class words with their multiplicities, and the
prefix tree of those class words (`class_tree`), along which
limcone.bulk builds one product per distinct prefix.  Both class caches
compare words as base-2k integer codes, first letter most significant,
so code order is lexicographic word order and a rotation is two integer
operations.  The codes fit int64 while (2k)^n < 2^63; longer class
levels raise InvalidParameterError, and so does any word level of more
than 2^24 words, which would not fit in memory.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

__all__ = [
    "Word",
    "ConjugacyClass",
    "reduce",
    "rotate",
    "canonical_conj",
    "enumerate_words",
    "enumerate_conj_classes",
    "count_words",
    "evaluate",
    "parse_word",
    "format_word",
]


def _validate_letters(letters, k=None):
    lim = 2 * k if k is not None else None
    for l in letters:
        if not isinstance(l, (int, np.integer)) or l < 0 or (lim is not None and l >= lim):
            raise InvalidInputError(f"unknown letter {l!r}")


@dataclass(frozen=True)
class Word:
    """A freely reduced word, stored as a tuple of integer letters."""

    letters: tuple

    def __post_init__(self):
        _validate_letters(self.letters)
        for a, b in zip(self.letters, self.letters[1:]):
            if b == (a ^ 1):
                raise InvalidInputError("word is not freely reduced")
        object.__setattr__(self, "letters", tuple(int(l) for l in self.letters))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(l ^ 1 for l in reversed(self.letters)))


@dataclass(frozen=True)
class ConjugacyClass:
    """Canonical form of a conjugacy class: least rotation of a
    cyclically reduced word."""

    word: Word

    def __post_init__(self):
        ls = self.word.letters
        if not ls:
            raise InvalidInputError("empty word has no conjugacy class here")
        if len(ls) > 1 and ls[-1] == (ls[0] ^ 1):
            raise InvalidInputError("word is not cyclically reduced")
        if ls != _least_rotation(ls):
            raise InvalidInputError("cyclic word is not in canonical form")

    def __len__(self):
        return len(self.word)

    @property
    def letters(self):
        return self.word.letters

    def multiplicity(self) -> int:
        """Number of distinct rotations, i.e. the primitive period."""
        ls = self.letters
        n = len(ls)
        for p in range(1, n + 1):
            if n % p == 0 and ls == ls[p:] + ls[:p]:
                return p
        return n


def reduce(letters, k=None) -> Word:
    """Freely reduce a raw letter sequence.

    Stack based: push letters, cancel whenever the incoming letter is
    the inverse of the top.  Idempotent on already reduced input.
    """
    _validate_letters(letters, k)
    stack = []
    for l in letters:
        if stack and stack[-1] == (l ^ 1):
            stack.pop()
        else:
            stack.append(int(l))
    return Word(tuple(stack))


def rotate(w: Word, j: int) -> Word:
    ls = w.letters
    if not ls:
        return w
    j %= len(ls)
    return Word(ls[j:] + ls[:j])


def _least_rotation(ls):
    n = len(ls)
    best = ls
    for j in range(1, n):
        cand = ls[j:] + ls[:j]
        if cand < best:
            best = cand
    return best


def canonical_conj(w: Word) -> ConjugacyClass:
    """Cyclically reduce, then pick the least rotation."""
    ls = list(w.letters)
    if not ls:
        raise InvalidInputError("empty word")
    while len(ls) > 1 and ls[-1] == (ls[0] ^ 1):
        ls = ls[1:-1]
    if not ls:
        raise InvalidInputError("word is conjugate to the identity")
    return ConjugacyClass(Word(_least_rotation(tuple(ls))))


def count_words(k: int, n: int) -> int:
    """Number of reduced words of length exactly n: 2k (2k-1)^(n-1)."""
    if n == 0:
        return 1
    return 2 * k * (2 * k - 1) ** (n - 1)


# ---------------------------------------------------------------------------
# vectorized enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _extension_table(k: int):
    # row  = last letter, entries = allowed next letters in increasing order
    return np.array(
        [[l for l in range(2 * k) if l != (last ^ 1)] for last in range(2 * k)],
        dtype=np.int8,
    )


# largest word level built (k = 3, n = 10 has 11.7M rows); k = 2 stops at n = 14
_LEVEL_ROWS = 1 << 24


def _check_level_rows(k, n):
    if count_words(k, n) > _LEVEL_ROWS:
        raise InvalidParameterError(
            f"{count_words(k, n)} reduced words of length {n} exceed the {_LEVEL_ROWS}-row budget"
        )


@lru_cache(maxsize=64)
def _word_level(k: int, n: int):
    """All reduced words of length n as an int8 array, in lexicographic
    order.  Level n is built by extending level n-1, so rows stay sorted.
    A level of more than _LEVEL_ROWS words is refused before any is built."""
    if k < 2:
        raise InvalidParameterError("need k >= 2 generators")
    if n < 0:
        raise InvalidParameterError("negative word length")
    _check_level_rows(k, n)
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    if n == 1:
        return np.arange(2 * k, dtype=np.int8).reshape(-1, 1)
    prev = _word_level(k, n - 1)
    ext = _extension_table(k)[prev[:, -1]]            # (M, 2k-1)
    parents = np.repeat(np.arange(len(prev)), 2 * k - 1)
    return np.concatenate([prev[parents], ext.reshape(-1, 1)], axis=1)


_SCAN_ROWS = 1 << 15


def _codes(W, base):
    """Base-`base` integer codes of the rows of W, first letter most
    significant, so code order is lexicographic word order."""
    codes = np.zeros(len(W), dtype=np.int64)
    for col in W.T:
        codes *= base
        codes += col
    return codes


def _check_codes_fit(k, n):
    if n < 1 or (2 * k) ** n >= 2 ** 63:
        raise InvalidParameterError("need 1 <= n with (2k)^n < 2^63")


@lru_cache(maxsize=64)
def _class_level(k: int, n: int):
    """Canonical cyclically reduced words of length n and their
    multiplicities (number of distinct rotations).

    Filters the reduced-word level: keep words that are cyclically
    reduced and minimal among all their rotations.  Each word is compared
    as its base-2k code c (see _codes): rotation r, which moves the first
    r letters to the end, has code (c % B^(n-r)) B^r + c // B^(n-r) with
    B = 2k.  A word is canonical iff no rotation has a smaller code, and
    its multiplicity is n over the number of rotations with an equal one.
    After each r only the words not yet beaten are kept, so later
    rotations touch the survivors alone.  The codes fit int64 while
    (2k)^n < 2^63, which bounds n (a level that long could not be
    enumerated anyway).  The scan runs over blocks of _SCAN_ROWS rows
    (rows are independent), so its temporaries stay near a megabyte; at
    n = 12 whole-level temporaries grew the heap by about 30 MB that the
    allocator then kept.
    """
    _check_codes_fit(k, n)
    base = 2 * k
    W = _word_level(k, n)
    rows, mults = [], []
    for lo in range(0, len(W), _SCAN_ROWS):
        B = W[lo:lo + _SCAN_ROWS]
        alive = np.flatnonzero(B[:, -1] != (B[:, 0] ^ 1))    # cyclically reduced
        code = _codes(B[alive], base)
        n_fixed = np.ones(len(alive), dtype=np.int64)         # rotations equal to w
        for r in range(1, n):
            head = base ** (n - r)
            rot = (code % head) * base ** r + code // head
            n_fixed += rot == code
            unbeaten = rot >= code
            alive, code, n_fixed = alive[unbeaten], code[unbeaten], n_fixed[unbeaten]
        rows.append(lo + alive)
        mults.append(n // n_fixed)                           # primitive period
    return W[np.concatenate(rows)], np.concatenate(mults)


@lru_cache(maxsize=64)
def class_tree(k: int, n_max: int):
    """Prefix tree of the canonical class words of length 1..n_max.

    Returns (edges, index).  edges[j - 1] = (parents, last) for depth j:
    the sorted distinct j-prefixes of the class words, each given by the
    row of its (j-1)-prefix one depth up (the root, for j = 1) and its last
    letter.  index[n - 1] holds the rows of the level-n class words, in
    class_level_arrays order, among the depth-n prefixes.  Prefixes are
    sorted as base-2k integer codes (see _codes), which is the
    lexicographic order of the words; the codes fit int64 while
    (2k)^n_max < 2^63.  Built bottom-up: the depth-j prefixes are the
    level-j class words together with the parents of depth j + 1.
    """
    _check_codes_fit(k, n_max)
    base = 2 * k
    parents, last, index = [None] * n_max, [None] * n_max, [None] * n_max
    below = np.zeros(0, dtype=np.int64)                # depth j + 1 prefix codes
    for j in range(n_max, 0, -1):
        # the public reader, so a traced run books this as enumeration
        codes = _codes(class_level_arrays(k, j)[0], base)
        nodes = np.unique(np.concatenate([codes, below // base]))
        index[j - 1] = np.searchsorted(nodes, codes).astype(np.int32)
        last[j - 1] = (nodes % base).astype(np.int8)
        if j < n_max:
            parents[j] = np.searchsorted(nodes, below // base).astype(np.int32)
        below = nodes
    parents[0] = np.zeros(len(below), dtype=np.int32)
    return tuple(zip(parents, last)), tuple(index)


def enumerate_words(k: int, n: int):
    """Yield every reduced word of length exactly n once, lexicographically."""
    for row in _word_level(k, n):
        yield Word(tuple(int(x) for x in row))


def enumerate_conj_classes(k: int, n: int):
    """Yield every conjugacy class of cyclic length exactly n once."""
    W, _ = _class_level(k, n)
    for row in W:
        yield ConjugacyClass(Word(tuple(int(x) for x in row)))


def class_level_arrays(k: int, n: int):
    """Canonical class words and multiplicities as arrays (shared cache)."""
    return _class_level(k, n)


def word_level_array(k: int, n: int):
    return _word_level(k, n)


# ---------------------------------------------------------------------------
# evaluation and text form
# ---------------------------------------------------------------------------

def evaluate(rep, w) -> np.ndarray:
    """Product of generator matrices along the word.

    Bulk paths (everything of length <= n at once) share prefixes level
    by level instead; see limcone.bulk.
    """
    letters = w.letters if isinstance(w, (Word, ConjugacyClass)) else tuple(w)
    stack = rep.letter_matrices()
    _validate_letters(letters, rep.num_generators)
    out = np.eye(rep.dim)
    for l in letters:
        out = out @ stack[l]
    return out


def format_word(w, labels) -> str:
    """Compact text form: label for a generator, uppercased label for its
    inverse when the label is a single lowercase letter, else label'."""
    letters = w.letters if isinstance(w, Word) else w.word.letters
    parts = []
    for l in letters:
        lab = labels[l >> 1]
        if l & 1:
            parts.append(lab.upper() if len(lab) == 1 and lab.islower() else lab + "'")
        else:
            parts.append(lab)
    if all(len(lab) == 1 for lab in labels):
        return "".join(parts)
    return " ".join(parts)


def parse_word(text: str, labels) -> Word:
    """Inverse of format_word; accepts space separated tokens too."""
    by_label = {}
    for i, lab in enumerate(labels):
        by_label[lab] = 2 * i
        if len(lab) == 1 and lab.islower():
            by_label[lab.upper()] = 2 * i + 1
        by_label[lab + "'"] = 2 * i + 1
    tokens = text.split() if " " in text.strip() else list(text.strip())
    letters = []
    for t in tokens:
        if t not in by_label:
            raise InvalidInputError(f"unknown letter {t!r}")
        letters.append(by_label[t])
    return reduce(letters, len(labels))
