"""Free-group combinatorics: reduction, enumeration, canonical classes.

Letters: generator i is 2i, its inverse 2i+1 ("a"=0, "A"=1, "b"=2, ...).
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from limcone import (
    InvalidInputError,
    InvalidParameterError,
    Word,
    count_words,
    format_word,
)
from limcone.words import (
    class_level_arrays,
    class_tree,
    format_levels,
    word_level_array,
    word_tree,
    _pre_necklaces,
)
from reference import canonical_conj, evaluate, inverse, jordan, parse_word, reduce, rotate


def rescan_reduce(letters):
    """Independent oracle: repeatedly delete one adjacent inverse pair
    until no pair is left (full rescan each round)."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i + 1] == letters[i] ^ 1:
                del letters[i : i + 2]
                changed = True
                break
    return tuple(letters)


def brute_reduced_words(k, n):
    """All reduced words of length n by filtering the full product set."""
    out = []
    for cand in itertools.product(range(2 * k), repeat=n):
        if all(b != a ^ 1 for a, b in zip(cand, cand[1:])):
            out.append(cand)
    return out


def brute_classes(k, n):
    """Canonical cyclically reduced words by brute canonicalization."""
    canon = set()
    for w in brute_reduced_words(k, n):
        if n > 1 and w[-1] == w[0] ^ 1:
            continue
        canon.add(min(w[j:] + w[:j] for j in range(n)))
    return canon


def plain_class_level(k, n):
    """Reference rotation scan: compare each cyclically reduced word with
    every rotation letter by letter, at the first differing position."""
    W = word_level_array(k, n)
    W = W[W[:, -1] != (W[:, 0] ^ 1)] if n > 1 else W
    rows = np.arange(len(W))
    keep = np.ones(len(W), dtype=bool)
    n_fixed = np.ones(len(W), dtype=np.int64)
    for r in range(1, n):
        R = np.concatenate([W[:, r:], W[:, :r]], axis=1)
        neq = R != W
        any_neq = neq.any(axis=1)
        first = np.argmax(neq, axis=1)
        keep &= ~(any_neq & (R[rows, first] < W[rows, first]))
        n_fixed += ~any_neq
    mult = n // n_fixed
    return W[keep], mult[keep]


def plain_class_tree(k, n_max):
    """Reference prefix tree from the words alone: depth j < n_max holds
    the reduced pre-necklaces of length j, depth n_max the class words;
    parents and class rows are found by searching base-2k codes (first
    letter most significant, so code order is word order)."""
    base = 2 * k

    def codes(W):
        return W.astype(np.int64) @ base ** np.arange(W.shape[1] - 1, -1, -1, dtype=np.int64)

    parents, last, index = [], [], []
    above = np.zeros(1, dtype=np.int64)         # the root
    for j in range(1, n_max + 1):
        nodes = codes(_pre_necklaces(k, j)[0] if j < n_max else class_level_arrays(k, j)[0])
        parents.append(np.searchsorted(above, nodes // base))
        last.append(nodes % base)
        index.append(np.searchsorted(nodes, codes(class_level_arrays(k, j)[0])))
        above = nodes
    return parents, last, index


def spell(edges, j):
    """The words of the depth-j nodes, read off the parent walk."""
    rows, letters = np.arange(len(edges[j - 1][1])), []
    for parents, last in edges[j - 1::-1]:
        letters.append(last[rows])
        rows = parents[rows]
    return np.stack(letters[::-1], axis=1)


def is_pre_necklace(w):
    """Each suffix is no less than the prefix of its length."""
    return all(w[i:] >= w[:len(w) - i] for i in range(1, len(w)))


def trace_power(k, n):
    """tr A^n for the 2k x 2k non-backtracking matrix A: the number of
    cyclically reduced words of length n."""
    return (2 * k - 1) ** n + k + (k - 1) * (-1) ** n


def euler_phi(m):
    return sum(math.gcd(m, j) == 1 for j in range(1, m + 1))


class TestReduce:
    def test_cancels_adjacent_inverse(self):
        assert reduce([0, 1]).letters == ()

    def test_inner_cancellation(self):
        # a b b^-1 a -> a a
        assert reduce([0, 2, 3, 0]).letters == (0, 0)

    def test_idempotent(self):
        w = reduce([0, 2, 3, 0])
        assert reduce(w.letters).letters == w.letters

    def test_unknown_letter(self):
        with pytest.raises(InvalidInputError):
            reduce([0, 7], k=2)
        with pytest.raises(InvalidInputError):
            reduce([-1])

    def test_against_rescan_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            raw = rng.integers(0, 4, size=20).tolist()
            assert reduce(raw).letters == rescan_reduce(raw)


class TestWordType:
    def test_rejects_unreduced(self):
        with pytest.raises(InvalidInputError):
            Word((0, 1))

    def test_rejects_unknown_letter(self):
        with pytest.raises(InvalidInputError):
            Word((0, -1))

    def test_inverse(self):
        assert inverse(Word((0, 2))).letters == (3, 1)


class TestEnumeration:
    def test_counts_small(self):
        assert len(word_level_array(2, 1)) == 4
        assert len(word_level_array(2, 3)) == 36

    def test_length_five_no_duplicates(self):
        ws = [tuple(w) for w in word_level_array(2, 5).tolist()]
        assert len(ws) == 324
        assert len(set(ws)) == 324
        assert set(ws) == set(brute_reduced_words(2, 5))

    def test_lexicographic_order(self):
        ws = [tuple(w) for w in word_level_array(2, 4).tolist()]
        assert ws == sorted(ws)

    @pytest.mark.parametrize("k,n_top", [(2, 10), (3, 10)])
    def test_closed_formula(self, k, n_top):
        for n in range(n_top + 1):
            assert len(word_level_array(k, n)) == count_words(k, n)
        if k == 3:
            word_level_array.cache_clear()
            class_level_arrays.cache_clear()

    def test_levels_over_row_budget_refused(self, monkeypatch):
        # checked before recursing: k = 2, n = 16 would take over 2 GB
        def refuse(k, n):
            pytest.fail(f"enumerated words of length {n}")

        monkeypatch.setattr("limcone.words.word_level_array", refuse)
        for k, n in [(2, 15), (2, 16), (3, 11)]:
            with pytest.raises(InvalidParameterError):
                word_level_array.__wrapped__(k, n)


class TestConjClasses:
    def test_counts(self):
        assert len(class_level_arrays(2, 1)[0]) == 4
        # brute force: 12 cyclically reduced 2-letter words, 4 fixed by
        # rotation and 4 swapped pairs -> 8 classes
        brute = brute_classes(2, 2)
        assert len(brute) == 8
        assert len(class_level_arrays(2, 2)[0]) == 8

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_against_brute_canonicalization(self, n):
        got = {tuple(w) for w in class_level_arrays(2, n)[0].tolist()}
        assert got == brute_classes(2, n)

    def test_multiplicities_sum_to_point_count(self):
        # sum of primitive periods = number of cyclically reduced words
        for n in range(2, 8):
            _, mult = class_level_arrays(2, n)
            brute = sum(
                1
                for w in brute_reduced_words(2, n)
                if w[-1] != w[0] ^ 1
            )
            assert int(mult.sum()) == brute

    @pytest.mark.parametrize("k,n_top", [(2, 12), (3, 7)])
    def test_exact_counts(self, k, n_top):
        # multiplicities count periodic points, classes count necklaces
        # (Burnside over the cyclic group of rotations)
        for n in range(1, n_top + 1):
            W, mult = class_level_arrays(k, n)
            assert int(mult.sum()) == trace_power(k, n)
            fixed = sum(euler_phi(n // d) * trace_power(k, d) for d in range(1, n + 1) if n % d == 0)
            assert fixed % n == 0 and len(W) == fixed // n

    @pytest.mark.parametrize("k,n_top", [(2, 12), (3, 7), (4, 5)])
    def test_matches_plain_rotation_scan(self, k, n_top):
        for n in range(1, n_top + 1):
            W, mult = class_level_arrays(k, n)
            W0, mult0 = plain_class_level(k, n)
            assert W.dtype == W0.dtype and mult.dtype == mult0.dtype
            assert np.array_equal(W, W0) and np.array_equal(mult, mult0), n

    def test_pre_necklace_memory_stays_small(self):
        # generating the pre-necklaces up to length 12 holds about 3 MB;
        # a scan of the 708,588 reduced words of length 12 peaked at 30-60 MB
        _pre_necklaces.cache_clear()
        tracemalloc.start()
        try:
            class_level_arrays.__wrapped__(2, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_multiplicity_of_power(self):
        # (ab)^3 has primitive period 2
        c = canonical_conj(Word((0, 2, 0, 2, 0, 2)))
        assert c.multiplicity() == 2


class TestCanonicalConj:
    def test_conjugation_collapses(self):
        # b a b^-1 ~ a
        assert canonical_conj(Word((2, 0, 3))).letters == (0,)

    def test_rotation_same_class(self):
        assert canonical_conj(Word((0, 2))) == canonical_conj(Word((2, 0)))

    def test_empty_word_rejected(self):
        with pytest.raises(InvalidInputError):
            canonical_conj(Word(()))

    def test_rotation_invariance_all_shifts(self):
        w = Word((0, 2, 0, 3, 0))
        target = canonical_conj(w)
        for j in range(len(w)):
            assert canonical_conj(rotate(w, j)) == target

    def test_random_conjugate_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            w = reduce(rng.integers(0, 4, size=8).tolist())
            u = reduce(rng.integers(0, 4, size=5).tolist())
            if not w.letters:
                continue
            conj = reduce(u.letters + w.letters + inverse(u).letters)
            if not conj.letters:
                continue
            assert canonical_conj(w) == canonical_conj(conj)


class TestEvaluate:
    def test_empty_word_is_identity(self, s2):
        assert np.allclose(evaluate(s2, Word(())), np.eye(2))

    def test_unreduced_sequence_matches_reduction(self, s2):
        # a a^-1 a evaluates to the first generator
        assert np.allclose(evaluate(s2, [0, 1, 0]), s2.generators[0])

    def test_against_naive_product(self, s2):
        rng = np.random.default_rng(11)
        mats = s2.letter_matrices()
        for _ in range(20):
            w = reduce(rng.integers(0, 4, size=10).tolist())
            naive = np.eye(2)
            for l in w.letters:
                naive = naive @ mats[l]
            assert np.abs(evaluate(s2, w) - naive).max() < 1e-12

    @pytest.mark.parametrize("which,letters", [
        ("s2", (0, 2, 0, 0, 3, 0, 2, 2)),   # length 8, d = 2
        ("p3", (0, 2, 0, 3, 0, 2)),          # length 6, d = 3
    ])
    def test_jordan_constant_on_rotations(self, which, letters, s2, p3):
        # tolerance is conditioning-limited: eigenvalues of the rotated
        # floating products differ by O(eps * e^lambda_1) intrinsically
        rep = {"s2": s2, "p3": p3}[which]
        w = Word(letters)
        base = jordan(evaluate(rep, w)).coords
        for j in range(1, len(w)):
            rot = jordan(evaluate(rep, rotate(w, j))).coords
            assert np.abs(rot - base).max() < 1e-8


class TestTextForms:
    def test_format_parse_roundtrip(self, s2):
        w = Word((0, 3, 0, 2, 1))
        text = format_word(w, s2.labels)
        assert text == "aBabA"
        assert parse_word(text, s2.labels) == w

    def test_multi_character_labels(self):
        # a label of more than one letter marks its inverse with a prime and spaces the word
        assert format_word((0, 1, 2, 3), ("ab", "c")) == "ab ab' c C"

    @pytest.mark.parametrize("k,labels", [(2, ("a", "b")), (3, ("ab", "c", "X"))])
    def test_level_texts_equal_format_word(self, k, labels):
        # each level's texts come from the parent level's, not from format_word
        levels = list(format_levels(k, 5, labels))
        assert len(levels) == 5
        for n, texts in enumerate(levels, 1):
            assert texts == [format_word(row, labels) for row in word_level_array(k, n).tolist()]

    def test_parse_unknown(self, s2):
        with pytest.raises(InvalidInputError):
            parse_word("axb", s2.labels)


class TestClassTree:
    @pytest.mark.parametrize("k,n_max", [(2, 10), (3, 6)])
    def test_parent_walk_spells_the_class_words(self, k, n_max):
        edges, index = class_tree(k, n_max)
        assert not edges[0][0].any()              # depth 1 hangs from the root
        for n in range(1, n_max + 1):
            rows, letters = index[n - 1], []
            for parents, last in edges[n - 1::-1]:
                letters.append(last[rows])
                rows = parents[rows]
            assert np.array_equal(np.stack(letters[::-1], axis=1), class_level_arrays(k, n)[0])

    def test_nodes_are_the_distinct_prefixes(self):
        # below the top every reduced pre-necklace, the top only the class words
        edges, _ = class_tree(2, 7)
        classes = [w for n in range(1, 8) for w in class_level_arrays(2, n)[0].tolist()]
        for j in range(1, 8):
            nodes = spell(edges, j).tolist()
            assert nodes == sorted(nodes) and len({tuple(w) for w in nodes}) == len(nodes)
            if j < 7:
                assert nodes == [w for w in word_level_array(2, j).tolist() if is_pre_necklace(w)]
                assert {tuple(w[:j]) for w in classes if len(w) >= j} <= {tuple(w) for w in nodes}
            else:
                assert nodes == class_level_arrays(2, 7)[0].tolist()

    def test_node_counts_at_twelve(self):
        edges, index = class_tree(2, 12)
        assert [len(last) for _, last in edges] == [
            4, 8, 18, 40, 101, 249, 654, 1711, 4594, 12388, 33865, 44370]
        assert sum(len(rows) for rows in index) == 69996
        size = sum(p.nbytes + l.nbytes for p, l in edges) + sum(i.nbytes for i in index)
        assert size < 1 << 20

    @pytest.mark.parametrize("k,n_max", [(2, 12), (3, 7), (4, 5)])
    def test_matches_bottom_up_prefix_tree(self, k, n_max):
        edges, index = class_tree(k, n_max)
        parents0, last0, index0 = plain_class_tree(k, n_max)
        for (parents, last), p0, l0 in zip(edges, parents0, last0, strict=True):
            assert parents.dtype == np.int32 and last.dtype == np.int8
            assert np.array_equal(parents, p0) and np.array_equal(last, l0)
        for rows, rows0 in zip(index, index0, strict=True):
            assert rows.dtype == np.int32 and np.array_equal(rows, rows0)


class TestRefusal:
    # over 2^24 reduced words of length n, n < 1 or k < 2: refused before
    # a single pre-necklace or word level is built
    @pytest.mark.parametrize("k,n", [(2, 15), (3, 11), (2, 32), (3, 25), (4, 21), (2, 0), (2, -1),
                                     (1, 4)])
    def test_before_any_pre_necklace(self, monkeypatch, k, n):
        def refuse(k, n):
            pytest.fail(f"built a level of length {n}")

        monkeypatch.setattr("limcone.words._pre_necklaces", refuse)
        monkeypatch.setattr("limcone.words.word_level_array", refuse)
        with pytest.raises(InvalidParameterError):
            class_tree(k, n)
        with pytest.raises(InvalidParameterError):
            class_level_arrays(k, n)
        with pytest.raises(InvalidParameterError):
            word_tree(k, n)             # at call time, not when first iterated
