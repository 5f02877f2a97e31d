"""Bulk spectral data for a representation.

Two tables feed everything downstream.  Each is cached whole per
(rep, n_max), four class tables and two element tables, so a scan over
fresh representations keeps at most that many alive; an element table
at n_max = 12 takes 25 MB at d = 3.  Every caller reads
the table at the depth it asks for; levels 1..m of a deeper class table
are bitwise those of a table built to m, because each class product
follows the same prefix path and the kernels act row by row:

* class spectra: for each cyclic length n, the Jordan projections of
  the canonical conjugacy-class words together with their periodic-point
  multiplicities (primitive periods).  Conjugacy classes index periodic
  orbits of the symbolic flow, and a class of primitive period p covers
  p periodic sequences, so partition sums weight each class by p.

* element spectra: Cartan projections of every reduced word up to a cap,
  level after level, with the row offset of each level, for the
  definition-level counting estimators; what they derive from it, such
  as the complete window of a norm count, they build in counting.

For d >= 3 every product comes with the reversed inverse product that
the split-spectrum rule needs.  Inverse products exist only there: at
d = 2, det = 1 makes the top value of m^-1 that of m, so the kernels need
m alone (limcone.spectra) and both tables build no inverse chain.  All
products come from one engine, `tree_products`, which walks the prefix
tree that words hands it depth by depth, knowing no layout of its own,
and extends each block of parents by every letter at once, one product
per block and direction: the forward products extend their parents' on
the right, the inverse products on the left, and each child picks its
letter's rows.  Element products walk the tree of reduced words
(words.word_tree, which the CLI `spectra` dump walks too, with the
inverse at every d); class products walk the tree of reduced
pre-necklaces, cut to the class words at the top depth
(words.class_tree), whose 98,002 nodes at k = 2, N = 12 replace the
728,868 letter products of multiplying each of the 69,996 class words
from scratch.  The engine streams the top depth through the kernel in
row blocks, so at N = 12 the 708,588 top-level element products are
never held at once, and it lets go of each depth's parents before the
caller reads the depth; both tables are written into arrays allocated up
front.  Everything is deterministic: fixed enumeration order, fixed
association order, and the kernels act row by row, so blocking does not
change a single bit.  BLAS may split the forward GEMM across threads,
but each entry stays one d-term sum; the CLI files are byte-identical
with BLAS on one thread or many (tests/test_cli.py).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import words
from .errors import InvalidParameterError
from .spectra import batched_cartan, batched_jordan

__all__ = [
    "ClassSpectra",
    "ElementSpectra",
    "class_spectra",
    "element_spectra",
    "tree_products",
]


@dataclass(frozen=True)
class ClassSpectra:
    """Per-level Jordan data over canonical conjugacy classes, levels 1..n_max."""

    jordan: dict        # n -> (B_n, d) float array
    log_mult: dict      # n -> (B_n,) float array


@dataclass(frozen=True)
class ElementSpectra:
    """Cartan data over all reduced words of length 1..n_max, level by
    level: the words of length n are rows starts[n - 1]:starts[n]."""

    cartan: np.ndarray   # (M, d)
    starts: np.ndarray   # (n_max + 1,), starts[0] = 0 and starts[-1] = M


# the engine extends _BLOCK_PARENTS parents at a time by all 2k letters:
# each direction's block product is 2^12 * 2k * d^2 doubles, 1.2 MB at
# k = 2, d = 3, against 51 MB for the whole of element level 12; the top
# depth is yielded one parent block at a time
_BLOCK_PARENTS = 1 << 12


def tree_products(rep, edges, n_max: int, inverse: bool = True):
    """Forward and inverse products of the nodes of a prefix tree.

    edges yields, for depth 1..n_max in turn, (parents, last) as
    words.word_tree and words.class_tree give them: the row of each
    node's parent one depth up (0, the identity root, at depth 1) and the
    node's last letter, parents in non-decreasing order.  Yields
    (n, lo, fwd, bwd): the products of rows lo, lo + 1, ... of depth n as
    (rows, d, d) stacks, fwd = fwd[parent] @ letter and bwd = letter^-1 @
    bwd[parent]; with inverse false no inverse product is built and bwd is
    None.  Every depth below n_max comes whole, because it holds the
    parents of the next; depth n_max comes in row blocks, so its full
    stacks are never held.

    Each block of parents is extended by every letter at once: the forward
    products are one GEMM of the block's stacked rows against the letters
    side by side, F = fwd_block.reshape(-1, d) @ [L_0 | ... | L_2k-1],
    whose row ((p - p0) d + r) 2k + a, read d wide, is row r of
    fwd[p] @ L_a; the inverse products are [L_0^-1; ...; L_2k-1^-1] @
    bwd_block, whose (p - p0) 2k + a-th d x d block is L_a^-1 @ bwd[p].
    Each child takes its letter's rows, bit for bit the product of its
    parent and letter alone (tests/test_bulk.py holds it to that).  The d
    forward row indices of the children are stacked column by column:
    numpy's broadcast over an inner axis of length d took longer than the
    GEMM.
    """
    k, d = rep.num_generators, rep.dim
    stack = rep.letter_matrices()
    right = np.ascontiguousarray(stack.transpose(1, 0, 2).reshape(d, 2 * k * d))
    left = stack[np.arange(2 * k) ^ 1].reshape(2 * k * d, d)
    fwd = np.eye(d)[None]
    bwd = fwd if inverse else None
    for n, (parents, last) in enumerate(edges, 1):
        top = n == n_max
        if not top:
            child_fwd = np.empty((len(last), d, d))
            child_bwd = np.empty_like(child_fwd) if inverse else None
        # block bounds in the parents' dtype, so searchsorted copies no parents
        p0s = list(range(0, len(fwd), _BLOCK_PARENTS))
        cuts = np.searchsorted(parents, np.array(p0s + [len(fwd)], dtype=parents.dtype)).tolist()
        for p0, lo, hi in zip(p0s, cuts[:-1], cuts[1:]):
            if lo == hi:            # a class-tree parent block without children
                continue
            up, a = parents[lo:hi] - p0, last[lo:hi]
            first = up * (2 * k * d) + a
            fwd_rows = np.stack([first + r * 2 * k for r in range(d)], axis=1)
            ext_fwd = (fwd[p0:p0 + _BLOCK_PARENTS].reshape(-1, d) @ right).reshape(-1, d)
            if inverse:
                ext_bwd = (left @ bwd[p0:p0 + _BLOCK_PARENTS]).reshape(-1, d, d)
                bwd_rows = up * (2 * k) + a
            if top:
                yield (n, lo, np.take(ext_fwd, fwd_rows, axis=0),
                       np.take(ext_bwd, bwd_rows, axis=0) if inverse else None)
            else:                   # rows are in range; "clip" writes to out unbuffered
                np.take(ext_fwd, fwd_rows, axis=0, out=child_fwd[lo:hi], mode="clip")
                if inverse:
                    np.take(ext_bwd, bwd_rows, axis=0, out=child_bwd[lo:hi], mode="clip")
        if not top:                 # the parents' stacks go before the caller reads the depth
            fwd, bwd = child_fwd, child_bwd
            yield n, 0, fwd, bwd


@lru_cache(maxsize=4)
def class_spectra(rep, n_max: int) -> ClassSpectra:
    """Jordan projections and log multiplicities for all classes of
    cyclic length 1..n_max."""
    if n_max < 2:
        raise InvalidParameterError("need n_max >= 2")
    k = rep.num_generators
    edges, index = words.class_tree(k, n_max)
    jor = {n: np.empty((len(index[n - 1]), rep.dim)) for n in range(1, n_max + 1)}
    for n, lo, fwd, bwd in tree_products(rep, edges, n_max, inverse=rep.dim > 2):
        if n < n_max:               # a whole depth; the top depth holds only class words
            fwd, bwd = fwd[index[n - 1]], bwd if bwd is None else bwd[index[n - 1]]
        jor[n][lo:lo + len(fwd)] = batched_jordan(fwd, bwd)
    logm = {n: np.log(words.class_level_arrays(k, n)[1].astype(float)) for n in jor}
    return ClassSpectra(jor, logm)


@lru_cache(maxsize=2)
def element_spectra(rep, n_max: int) -> ElementSpectra:
    """Cartan projections of every reduced word of length 1..n_max."""
    k = rep.num_generators
    products = tree_products(rep, words.word_tree(k, n_max), n_max, inverse=rep.dim > 2)
    sizes = [words.count_words(k, n) for n in range(1, n_max + 1)]
    starts = np.cumsum([0] + sizes)
    cartan = np.empty((starts[-1], rep.dim))
    for n, lo, fwd, bwd in products:
        row = starts[n - 1] + lo
        cartan[row:row + len(fwd)] = batched_cartan(fwd, bwd)
    return ElementSpectra(cartan, starts)
