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

The module caches pure combinatorics, independent of any
representation: reduced words by level, reduced pre-necklaces by length
and the canonical class words with their multiplicities.  It also owns
the layout of both prefix trees, the reduced words (`word_tree`) and
the class words (`class_tree`), handed to limcone.bulk as per-depth
edges along which it builds one product per node.  The canonical words
are the cyclically reduced necklaces, so class words and their prefixes
are generated by the pre-necklace extension rule (see _pre_necklaces),
in lexicographic order, with no rotation ever compared.  A level of more
than 2^24 reduced words is refused before any of it is built.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

__all__ = [
    "Word",
    "count_words",
    "format_word",
]


def _validate_letters(letters):
    for l in letters:
        if not isinstance(l, (int, np.integer)) or l < 0:
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


# largest level built (k = 3, n = 10 has 11.7M words); k = 2 stops at n = 14
_LEVEL_ROWS = 1 << 24


def _check_level(k, n, n_min=0):
    """Refuse a word or class level before any of it is built: k < 2,
    n < n_min, or more than _LEVEL_ROWS reduced words of length n."""
    if k < 2:
        raise InvalidParameterError("need k >= 2 generators")
    if n < n_min:
        raise InvalidParameterError(f"need word length n >= {n_min}")
    if count_words(k, n) > _LEVEL_ROWS:
        raise InvalidParameterError(
            f"{count_words(k, n)} reduced words of length {n} exceed the {_LEVEL_ROWS}-row budget"
        )


@lru_cache(maxsize=64)
def word_level_array(k: int, n: int):
    """All reduced words of length n as an int8 array, in lexicographic
    order: each row of level n-1 repeated once per allowed next letter."""
    _check_level(k, n)
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    if n == 1:
        return np.arange(2 * k, dtype=np.int8).reshape(-1, 1)
    prev = word_level_array(k, n - 1)
    ext = _extension_table(k)[prev[:, -1]]            # (M, 2k-1)
    return np.concatenate([np.repeat(prev, 2 * k - 1, axis=0), ext.reshape(-1, 1)], axis=1)


def word_tree(k: int, n_max: int):
    """Prefix tree of the reduced words of length 1..n_max, as class_tree's
    edges: (parents, last) for depth n = 1, 2, ..., where row i of
    word_level_array(k, n) extends row i // (2k - 1) one level up (the
    root, for n = 1) by its last letter.  Refused at call time as level
    n_max is, before any level is built; the depths come one at a time,
    so no parent array outlives its depth.  The parents are divided in
    place: an out-of-place // took five times as long at n = 12."""
    _check_level(k, n_max, 1)

    def edges():
        for n in range(1, n_max + 1):
            parents = np.arange(count_words(k, n), dtype=np.int32)
            parents //= 2 * k - 1 if n > 1 else 2 * k     # all 0 at n = 1
            yield parents, word_level_array(k, n)[:, -1]

    return edges()


@lru_cache(maxsize=64)
def _pre_necklaces(k: int, n: int):
    """Reduced pre-necklaces of length n (prefixes of least rotations)
    as (words, period, parent): int8 words in lexicographic order, the
    length p of each one's longest Lyndon prefix, and the row of its
    (n-1)-prefix.  The extension rule of Fredricksen, Kessler & Maiorana
    (Ruskey, Savage & Wang, J. Algorithms 13, 1992): a_1..a_(n-1) b is a
    pre-necklace iff b >= a_(n-p); p stays when b = a_(n-p) and becomes
    n otherwise.  Reduced words also need b != a_(n-1)^-1.  Parents in
    order and letters ascending keep each length sorted.
    """
    if n == 1:
        return (np.arange(2 * k, dtype=np.int8).reshape(-1, 1),
                np.ones(2 * k, dtype=np.int64), np.zeros(2 * k, dtype=np.int32))
    prev, period, _ = _pre_necklaces(k, n - 1)
    ref = prev[np.arange(len(prev)), n - 1 - period]    # a_(n-p)
    letters = np.arange(2 * k, dtype=np.int8)
    ok = (letters >= ref[:, None]) & (letters != (prev[:, -1:] ^ 1))
    parent, b = np.divmod(np.flatnonzero(ok), 2 * k)
    out = np.empty((len(parent), n), dtype=np.int8)
    out[:, :-1] = prev[parent]
    out[:, -1] = b
    return out, np.where(b == ref[parent], period[parent], n), parent.astype(np.int32)


def _is_class(W, period, n):
    """Pre-necklaces that are class words: necklaces (p divides n) that
    are cyclically reduced."""
    return (n % period == 0) & (W[:, -1] != (W[:, 0] ^ 1))


@lru_cache(maxsize=64)
def class_level_arrays(k: int, n: int):
    """Canonical cyclically reduced words of length n, in lexicographic
    order, and their multiplicities (numbers of distinct rotations).  A
    necklace is a power of its longest Lyndon prefix, so its multiplicity
    is p.  A level of n < 1 or of over _LEVEL_ROWS reduced words is
    refused before any pre-necklace is generated."""
    _check_level(k, n, 1)
    W, period, _ = _pre_necklaces(k, n)
    cls = _is_class(W, period, n)
    return W[cls], period[cls]


@lru_cache(maxsize=64)
def class_tree(k: int, n_max: int):
    """Prefix tree of the canonical class words of length 1..n_max.

    Returns (edges, index).  edges[j - 1] = (parents, last) for depth j:
    the nodes in lexicographic order, each given by the row of its
    (j-1)-prefix one depth up (the root, for j = 1) and its last letter.
    index[n - 1] holds the rows of the level-n class words, in
    class_level_arrays order, among the depth-n nodes.  Every prefix of a
    class word is a reduced pre-necklace, so below n_max the nodes are
    all reduced pre-necklaces of length j, parents as _pre_necklaces
    gives them; depth n_max keeps only the class words.  At k = 2,
    N = 12 that is 98,002 nodes, 2.3 % more than the distinct class-word
    prefixes, bought back by needing no pruning pass.  Refused as
    class_level_arrays is.
    """
    _check_level(k, n_max, 1)
    edges, index = [], []
    for j in range(1, n_max + 1):
        class_level_arrays(k, j)    # the public reader: a traced run books generation there
        W, period, parent = _pre_necklaces(k, j)
        cls = _is_class(W, period, j)
        if j < n_max:
            edges.append((parent, W[:, -1]))
            index.append(np.flatnonzero(cls).astype(np.int32))
        else:
            edges.append((parent[cls], W[cls, -1]))
            index.append(np.arange(np.count_nonzero(cls), dtype=np.int32))
    return tuple(edges), tuple(index)


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def format_word(w, labels) -> str:
    """Compact text form of a Word or of any letter sequence, such as a
    row of a word or class level: label for a generator, uppercased label
    for its inverse when the label is a single lowercase letter, else
    label'."""
    parts = []
    for l in w:
        lab = labels[l >> 1]
        if l & 1:
            parts.append(lab.upper() if len(lab) == 1 and lab.islower() else lab + "'")
        else:
            parts.append(lab)
    if all(len(lab) == 1 for lab in labels):
        return "".join(parts)
    return " ".join(parts)


def format_levels(k: int, n_max: int, labels):
    """format_word of every reduced word of length 1..n_max, one list per
    level in word_level_array order: each word's text is its parent's one
    level up followed by the separator and its last letter's text."""
    letters = [format_word([l], labels) for l in range(2 * k)]
    sep = "" if all(len(lab) == 1 for lab in labels) else " "
    texts = letters
    yield texts
    for n in range(2, n_max + 1):
        last = word_level_array(k, n)[:, -1].tolist()
        texts = [texts[i // (2 * k - 1)] + sep + letters[l] for i, l in enumerate(last)]
        yield texts
