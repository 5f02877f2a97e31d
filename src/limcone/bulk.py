"""Bulk spectral data for a representation, cached per (rep, depth).

Two tables feed everything downstream:

* class spectra: for each cyclic length n, the Jordan projections of
  the canonical conjugacy-class words together with their periodic-point
  multiplicities (primitive periods).  Conjugacy classes index periodic
  orbits of the symbolic flow, and a class of primitive period p covers
  p periodic sequences, so partition sums weight each class by p.

* element spectra: Cartan projections and lengths of every reduced word
  up to a cap, for the definition-level counting estimators.

Products are evaluated level by level with one batched matrix multiply
per letter (one multiplication per enumerated word in total), along
with the reversed inverse products needed by the split-spectrum rule.
Element products come from one prefix-tree iterator, `word_products`,
which element_spectra and the CLI `spectra` dump share.  It streams the
top level through the kernel in blocks of _BLOCK_PARENTS parents, so at
N = 12 the 708,588 top-level products are never held at once and the
Cartan table is written into arrays allocated up front.  Everything is
deterministic: fixed enumeration order, fixed reduction order, no
threading, and the kernels act row by row, so blocking does not change
a single bit.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import words
from .errors import InvalidParameterError
from .spectra import batched_cartan, batched_jordan

__all__ = ["ClassSpectra", "ElementSpectra", "class_spectra", "element_spectra", "word_products"]


@dataclass(frozen=True)
class ClassSpectra:
    """Per-level Jordan data over canonical conjugacy classes."""

    n_max: int
    jordan: dict        # n -> (B_n, d) float array
    mult: dict          # n -> (B_n,) int array
    log_mult: dict      # n -> (B_n,) float array

    def all_jordan(self, n_min: int = 1) -> np.ndarray:
        return np.concatenate([self.jordan[n] for n in range(n_min, self.n_max + 1)])

    def lengths(self, n_min: int = 1) -> np.ndarray:
        return np.concatenate(
            [np.full(len(self.jordan[n]), n) for n in range(n_min, self.n_max + 1)]
        )


@dataclass(frozen=True)
class ElementSpectra:
    """Cartan data over all reduced words of length 1..n_max."""

    n_max: int
    cartan: np.ndarray   # (M, d)
    lengths: np.ndarray  # (M,)


@lru_cache(maxsize=512)
def _class_level_spectra(rep, n: int):
    W, mult = words.class_level_arrays(rep.num_generators, n)
    stack = rep.letter_matrices()
    inv_stack = np.ascontiguousarray(stack[_swap_index(rep.num_generators)])
    fwd = stack[W[:, 0]]
    bwd = inv_stack[W[:, -1]]
    for j in range(1, n):
        fwd = fwd @ stack[W[:, j]]
        bwd = bwd @ inv_stack[W[:, -1 - j]]
    lam = batched_jordan(fwd, bwd)
    return lam, mult


def _swap_index(k):
    # letter l -> inverse letter, as an index permutation
    idx = np.arange(2 * k)
    return idx ^ 1


def class_spectra(rep, n_max: int) -> ClassSpectra:
    """Jordan projections and multiplicities for all classes of cyclic
    length 1..n_max."""
    if n_max < 2:
        raise InvalidParameterError("need n_max >= 2")
    jor, mult, logm = {}, {}, {}
    for n in range(1, n_max + 1):
        lam, m = _class_level_spectra(rep, n)
        jor[n], mult[n] = lam, m
        logm[n] = np.log(m.astype(float))
    return ClassSpectra(n_max, jor, mult, logm)


# parents per block of the streamed top level: 3 * 2^14 d = 3 products are
# 3.5 MB per stack, against 51 MB for the whole of level 12
_BLOCK_PARENTS = 1 << 14


def word_products(rep, n_max: int):
    """Forward and inverse products of every reduced word of length
    1..n_max, in enumeration order.

    Yields (n, lo, fwd, bwd): the products of rows lo, lo + 1, ... of
    words.word_level_array(k, n), as (rows, d, d) stacks.  Every level
    below n_max comes whole, because it holds the parents of the next; the
    top level comes in blocks of _BLOCK_PARENTS parents, so its full stacks
    are never held.  One batched multiply per word and direction.
    """
    k = rep.num_generators
    stack = rep.letter_matrices()
    inv_stack = np.ascontiguousarray(stack[_swap_index(k)])
    fwd = bwd = None
    for n in range(1, n_max + 1):
        last = words.word_level_array(k, n)[:, -1]
        if n == 1:
            fwd, bwd = stack[last], inv_stack[last]
            yield 1, 0, fwd, bwd
            continue
        block = _BLOCK_PARENTS if n == n_max else len(fwd)
        for p0 in range(0, len(fwd), block):
            parents = np.arange(p0, min(p0 + block, len(fwd))).repeat(2 * k - 1)
            lo = p0 * (2 * k - 1)
            tail = last[lo:lo + len(parents)]
            child_fwd = fwd[parents] @ stack[tail]
            child_bwd = inv_stack[tail] @ bwd[parents]
            yield n, lo, child_fwd, child_bwd
        fwd, bwd = child_fwd, child_bwd


@lru_cache(maxsize=4)
def element_spectra(rep, n_max: int) -> ElementSpectra:
    """Cartan projections of every reduced word of length 1..n_max."""
    if n_max < 1:
        raise InvalidParameterError("need n_max >= 1")
    sizes = [words.count_words(rep.num_generators, n) for n in range(1, n_max + 1)]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    cartan = np.empty((starts[-1], rep.dim))
    for n, lo, fwd, bwd in word_products(rep, n_max):
        row = starts[n - 1] + lo
        cartan[row:row + len(fwd)] = batched_cartan(fwd, bwd)
    lengths = np.repeat(np.arange(1, n_max + 1, dtype=np.int64), sizes)
    return ElementSpectra(n_max, cartan, lengths)
