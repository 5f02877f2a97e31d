"""Bulk products and the closed-form spectral kernels.

The closed forms (d <= 3) are checked against the LAPACK kernel they
replace on the fixture word and class levels, and against a high-precision
mpmath eigen/singular value solve on matrices chosen to sit on the edges
of the certificate: modulus ties, a dominant complex pair, a negative top
eigenvalue, elliptic and parabolic d = 2 elements and entries near 1e150.
"""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from limcone import (
    InvalidParameterError,
    bulk,
    cli,
    make_schottky,
    perturb,
    sym_power_embed,
    words,
)
from limcone.spectra import (
    _cartan2_tops,
    _cartan3_tops,
    _diagonal_sums,
    _jordan2_tops,
    _jordan3_tops,
    _split_spectrum,
    _top_log_eigmods,
    _top_log_svals,
    batched_cartan,
    batched_jordan,
)
from reference import evaluate, split_spectrum, tree_products

LAPACK_TOL = 1e-12
ORACLE_TOL = 1e-9
LEVEL_SAMPLE = 5000         # rows per level compared against LAPACK

KERNELS = {"cartan": (batched_cartan, _top_log_svals),
           "jordan": (batched_jordan, _top_log_eigmods)}
CLOSED_FORMS = {"cartan": {2: _cartan2_tops, 3: _cartan3_tops},
                "jordan": {2: _jordan2_tops, 3: _jordan3_tops}}


def lapack(kind, fwd, bwd):
    """The split-spectrum rule on full LAPACK spectra, assembled by the
    reference (the kernel before the closed forms, and what every d >= 4
    row still gets)."""
    top = KERNELS[kind][1]
    h = fwd.shape[-1] // 2
    return split_spectrum(top(fwd, h), top(bwd, h), fwd.shape[-1])


def certified(kind, fwd, bwd):
    with np.errstate(all="ignore"):
        return CLOSED_FORMS[kind][fwd.shape[-1]](fwd, bwd)[2]


def class_products(rep, n):
    W, _ = words.class_level_arrays(rep.num_generators, n)
    mats = rep.letter_matrices()
    fwd = np.eye(rep.dim)[None].repeat(len(W), axis=0)
    bwd = fwd.copy()
    for j in range(n):
        fwd = fwd @ mats[W[:, j]]
        bwd = bwd @ mats[W[:, n - 1 - j] ^ 1]
    return fwd, bwd


def plain_element_spectra(rep, n_max):
    """Unblocked level loop: whole levels, one kernel call per level."""
    k = rep.num_generators
    mats = rep.letter_matrices()
    inv = mats[np.arange(2 * k) ^ 1]
    carts, fwd, bwd = [], None, None
    for n in range(1, n_max + 1):
        W = words.word_level_array(k, n)
        if n == 1:
            fwd, bwd = mats[W[:, 0]], inv[W[:, 0]]
        else:
            parents = np.repeat(np.arange(len(fwd)), 2 * k - 1)
            fwd = fwd[parents] @ mats[W[:, -1]]
            bwd = inv[W[:, -1]] @ bwd[parents]
        carts.append(batched_cartan(fwd, bwd))
    return np.concatenate(carts)


def plain_class_spectra(rep, n_max):
    """Per-class letter loop: every class word multiplied from scratch."""
    return {n: batched_jordan(*class_products(rep, n)) for n in range(1, n_max + 1)}


@pytest.fixture(scope="module", params=["s2", "f3", "p3"])
def rep(request):
    return request.getfixturevalue(request.param)


class TestAgainstLapack:
    def test_cartan_on_word_levels(self, rep):
        for n, lo, fwd, bwd in bulk.tree_products(rep, words.word_tree(2, 12), 12):
            step = max(1, len(fwd) // LEVEL_SAMPLE)
            f, b = fwd[::step], bwd[::step]
            diff = np.abs(batched_cartan(f, b) - lapack("cartan", f, b)).max()
            assert diff < LAPACK_TOL, (n, lo, diff)

    def test_jordan_on_class_levels(self, rep):
        for n in range(1, 13):
            fwd, bwd = class_products(rep, n)
            diff = np.abs(batched_jordan(fwd, bwd) - lapack("jordan", fwd, bwd)).max()
            assert diff < LAPACK_TOL, (n, diff)

    def test_top_class_level_is_closed_form(self, rep):
        # the fixtures are loxodromic with simple spectra: no row of the
        # top level should need LAPACK
        fwd, bwd = class_products(rep, 12)
        assert certified("jordan", fwd, bwd).all()
        assert certified("cartan", fwd, bwd).all()

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_d4_bitwise_unchanged(self, d):
        # odd d also exercises the zero-sum middle coordinate
        rng = np.random.default_rng(3)
        m = rng.normal(size=(64, d, d))
        det = np.linalg.det(m)
        m = m / (np.sign(det) * np.abs(det) ** (1 / d))[:, None, None]
        minv = np.linalg.inv(m)
        for kind, (kernel, _) in KERNELS.items():
            assert np.array_equal(kernel(m, minv), lapack(kind, m, minv))


# ---------------------------------------------------------------------------
# edge cases against a high-precision oracle
# ---------------------------------------------------------------------------

U3 = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
U3_INV = np.array([[1.0, -1.0, 1.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
BIG = 2.0 ** 500             # about 3.3e150


def conj(d, d_inv):
    """U d U^-1 and its inverse; every entry stays exact in binary."""
    return U3 @ d @ U3_INV, U3 @ d_inv @ U3_INV


def block(b, b_inv, s):
    m, mi = np.zeros((3, 3)), np.zeros((3, 3))
    m[:2, :2], m[2, 2] = b, s
    mi[:2, :2], mi[2, 2] = b_inv, 1 / s
    return conj(m, mi)


EDGE_CASES = {
    "tie 2, 2, 1/4": conj(np.diag([2.0, 2.0, 0.25]), np.diag([0.5, 0.5, 4.0])),
    "tie 4, 1/2, 1/2": conj(np.diag([4.0, 0.5, 0.5]), np.diag([0.25, 2.0, 2.0])),
    "near tie 2 + 2e-8, 2": conj(np.diag([2 + 2e-8, 2.0, 1 / (4 + 4e-8)]),
                                 np.diag([1 / (2 + 2e-8), 0.5, 4 + 4e-8])),
    "dominant complex pair": block(np.array([[1.0, -3.0], [1.0, 1.0]]),
                                   np.array([[1.0, 3.0], [-1.0, 1.0]]) / 4, 0.25),
    "subdominant complex pair": block(np.array([[0.0, -0.25], [1.0, 0.0]]),
                                      np.array([[0.0, 1.0], [-4.0, 0.0]]), 4.0),
    "negative top eigenvalue": conj(np.diag([-4.0, -1.0, 0.25]), np.diag([-0.25, -1.0, 4.0])),
    "entries near 1e150, d = 3": (
        np.array([[BIG, BIG, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1 / BIG]]),
        np.array([[1 / BIG, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, BIG]])),
    "elliptic, |tr| < 2": (np.array([[0.0, -1.0], [1.0, 1.0]]),
                           np.array([[1.0, 1.0], [-1.0, 0.0]])),
    "parabolic, tr = 2": (np.array([[1.0, 1.0], [0.0, 1.0]]),
                          np.array([[1.0, -1.0], [0.0, 1.0]])),
    "parabolic, tr = -2": (np.array([[-1.0, 1.0], [0.0, -1.0]]),
                           np.array([[-1.0, -1.0], [0.0, -1.0]])),
    "entries near 1e150, d = 2": (np.array([[BIG, 1.0], [0.0, 1 / BIG]]),
                                  np.array([[1 / BIG, -1.0], [0.0, BIG]])),
}


def oracle(m, kind):
    """Sorted, centred log spectrum of the binary matrix m at 400 digits,
    enough for the 1e300 spread of the graded cases."""
    with mp.workdps(400):
        a = mp.matrix(m.tolist())
        if kind == "jordan":
            vals = [abs(e) for e in mp.eig(a, left=False, right=False)]
        else:
            vals = list(mp.svd_r(a, compute_uv=False))
        logs = np.sort([float(mp.log(v)) for v in vals])[::-1]
    return logs - logs.mean()


class TestEdgeCases:
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_against_oracle(self, case, kind):
        m, minv = EDGE_CASES[case]
        assert np.abs(m @ minv - np.eye(len(m))).max() < 1e-15
        got = KERNELS[kind][0](m[None], minv[None])[0]
        assert np.abs(got - oracle(m, kind)).max() < ORACLE_TOL

    def test_certificate_routes(self):
        # ties, near ties and parabolic rows go to LAPACK; the complex pairs, the
        # negative top and the graded rows stay in closed form
        lapack_rows = {"tie 2, 2, 1/4", "tie 4, 1/2, 1/2", "near tie 2 + 2e-8, 2",
                       "parabolic, tr = 2", "parabolic, tr = -2"}
        for case, (m, minv) in EDGE_CASES.items():
            assert certified("jordan", m[None], minv[None])[0] == (case not in lapack_rows), case

    def test_nonfinite_rows_fall_back(self):
        m = np.full((1, 3, 3), 1e200)
        with np.errstate(all="ignore"):
            assert not certified("cartan", m, m)[0]


T300 = 2.0 ** 433            # about e^300
NEAR = 0.5 + 1e-8
NEAR5 = 0.5 + 5e-9
GAP4 = 0.5 + 5e-5

DEFLATION_CASES = {
    # name: (m, m^-1, {kind: whether the closed form keeps the row})
    "bottom near tie 4, 1/2 + 1e-8": (
        *conj(np.diag([4.0, NEAR, 1 / (4 * NEAR)]), np.diag([0.25, 1 / NEAR, 4 * NEAR])),
        {"jordan": False}),
    # here the computed discriminant of the bottom pair reads below zero,
    # inside its rounding bound: only that bound keeps it from passing as
    # a complex pair of modulus 1/2
    "bottom near tie 4, 1/2 + 5e-9": (
        *conj(np.diag([4.0, NEAR5, 1 / (4 * NEAR5)]), np.diag([0.25, 1 / NEAR5, 4 * NEAR5])),
        {"jordan": False}),
    "real top over a complex bottom pair": (
        *block(np.array([[0.5, -0.5], [0.5, 0.0]]), np.array([[0.0, 2.0], [-2.0, 2.0]]), 4.0),
        {"jordan": True}),
    "negative middle root": (
        *conj(np.diag([4.0, -2.0, -0.125]), np.diag([0.25, -0.5, -8.0])), {"jordan": True}),
    "graded to e^(+-300)": (
        np.array([[T300, 1.0, 1.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1 / T300]]),
        np.array([[1 / T300, 1 / T300, 2.0], [0.0, -1.0, -T300], [0.0, 0.0, -T300]]),
        {"jordan": True, "cartan": True}),
    "bottom gap 1e-4, beyond w's bound": (
        *conj(np.diag([4.0, GAP4, 1 / (4 * GAP4)]), np.diag([0.25, 1 / GAP4, 4 * GAP4])),
        {"jordan": False}),
    "bottom modulus tie -4, 1/2, -1/2": (
        *conj(np.diag([-4.0, 0.5, -0.5]), np.diag([-0.25, 2.0, -2.0])), {"jordan": False}),
    "Cartan near tie sigma_2 ~ sigma_3": (
        np.array([[0.0, 4.0, 0.0], [0.0, 0.0, NEAR], [1 / (4 * NEAR), 0.0, 0.0]]),
        np.array([[0.0, 0.0, 1 / (1 / (4 * NEAR))], [0.25, 0.0, 0.0], [0.0, 1 / NEAR, 0.0]]),
        {"cartan": False}),
}

# element rows of levels 1..10 (118,096 per fixture) that the closed forms
# sent to LAPACK when each row solved two polynomials: 1.68 % on s2,
# 8.31 % on f3 and 8.16 % on p3 for Jordan, none for Cartan
LAPACK_ROW_CAPS = {"jordan": {"s2": 1984, "f3": 9816, "p3": 9642},
                    "cartan": {"s2": 0, "f3": 0, "p3": 0}}


class TestDeflation:
    """One solve per row: the top root certified, the bottom deflated."""

    @pytest.mark.parametrize("case", sorted(DEFLATION_CASES))
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_against_oracle(self, case, kind):
        m, minv, routes = DEFLATION_CASES[case]
        assert np.abs(m @ minv - np.eye(3)).max() < 1e-15
        got = KERNELS[kind][0](m[None], minv[None])[0]
        assert np.abs(got - oracle(m, kind)).max() < ORACLE_TOL
        if kind in routes:
            assert certified(kind, m[None], minv[None])[0] == routes[kind]

    def test_overflowing_frobenius_norm_falls_back(self):
        # |m|_F^2 overflows while |m^-1|_F^2 stays finite
        m = np.diag([2.0 ** 600, 2.0 ** -300, 2.0 ** -300])
        minv = np.diag([2.0 ** -600, 2.0 ** 300, 2.0 ** 300])
        assert not certified("cartan", m[None], minv[None])[0]

    @pytest.mark.parametrize("name", ["s2", "f3", "p3"])
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_no_more_lapack_rows_than_two_solves(self, request, name, kind):
        bad = 0
        rep = request.getfixturevalue(name)
        for n, lo, fwd, bwd in bulk.tree_products(rep, words.word_tree(2, 10), 10):
            bad += int((~certified(kind, fwd, bwd)).sum())
        assert bad <= LAPACK_ROW_CAPS[kind][name]

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_d2_rows_are_exactly_opposite(self, s2, kind):
        fwd, bwd = next((f, b) for n, lo, f, b in bulk.tree_products(s2, words.word_tree(2, 8), 8)
                        if n == 8)
        keep = certified(kind, fwd, bwd)
        assert keep.mean() > 0.9
        out = KERNELS[kind][0](fwd, bwd)[keep]
        assert np.array_equal(out[:, 1], -out[:, 0])


class TestBitwisePieces:
    @pytest.mark.parametrize("d", [2, 3])
    def test_diagonal_sums_equal_numpy(self, d):
        m = np.random.default_rng(d).normal(size=(1000, d, d))
        t, T = _diagonal_sums(m)
        assert t.tobytes() == np.trace(m, axis1=-2, axis2=-1).tobytes()
        assert T.tobytes() == np.abs(np.diagonal(m, axis1=-2, axis2=-1)).sum(-1).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_closed_spectrum_equals_split_spectrum(self, d):
        rng = np.random.default_rng(d)
        fwd = rng.normal(size=(1000, d // 2)) * 30.0
        bwd = rng.normal(size=(1000, d // 2)) * 20.0
        bwd[:10] = fwd[:10]               # equal ends, the d = 2 closed-form case
        want = split_spectrum(fwd, bwd, d)
        assert _split_spectrum(fwd, bwd, d).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# streamed products
# ---------------------------------------------------------------------------

def tree_rep(k, d):
    s = make_schottky([2.0 + 0.25 * i for i in range(k)], np.linspace(0, np.pi, k, endpoint=False))
    return s if d == 2 else perturb(sym_power_embed(s, d), 0.05, 1)


class TestTreeProducts:
    @pytest.mark.parametrize("block", [1, 7, bulk._BLOCK_PARENTS])
    @pytest.mark.parametrize("tree", ["words", "classes"])
    @pytest.mark.parametrize("k,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_bitwise_equal_to_one_product_per_child(self, k, d, tree, block, monkeypatch):
        n_max = 8 if k == 2 else 6
        rep = tree_rep(k, d)
        if tree == "words":
            edges = list(words.word_tree(k, n_max))
        else:
            edges = words.class_tree(k, n_max)[0]
            # some top-depth parents have no class-word child
            assert len(np.unique(edges[-1][0])) < len(edges[-2][0])
        monkeypatch.setattr(bulk, "_BLOCK_PARENTS", block)
        got = {}
        for n, lo, fwd, bwd in bulk.tree_products(rep, edges, n_max):
            assert lo == sum(len(f) for f, _ in got.get(n, []))
            got.setdefault(n, []).append((fwd, bwd))
        assert sorted(got) == list(range(1, n_max + 1))
        for n, (fwd, bwd) in enumerate(tree_products(rep, edges), 1):
            assert np.concatenate([f for f, _ in got[n]]).tobytes() == fwd.tobytes(), n
            assert np.concatenate([b for _, b in got[n]]).tobytes() == bwd.tobytes(), n

    def test_element_spectra_peak_memory(self, p3):
        # tracemalloc peak of element_spectra(p3, 12) with its word levels
        # cached: 105.8 MB when each child was multiplied alone from full-depth
        # gathers, 91.6 MB with each parent block extended by every letter
        for n in range(1, 13):
            words.word_level_array(2, n)
        bulk.element_spectra.cache_clear()
        tracemalloc.start()
        try:
            bulk.element_spectra(p3, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 99e6, peak / 1e6


class TestWordProducts:
    def test_products_match_evaluate(self, p3):
        for n, lo, fwd, bwd in bulk.tree_products(p3, words.word_tree(2, 5), 5):
            W = words.word_level_array(2, n)[lo:lo + len(fwd)]
            for j in (0, len(W) // 2, len(W) - 1):
                w = [int(x) for x in W[j]]
                assert np.allclose(fwd[j], evaluate(p3, w), rtol=1e-12, atol=1e-12)
                inv = evaluate(p3, [l ^ 1 for l in reversed(w)])
                assert np.allclose(bwd[j], inv, rtol=1e-12, atol=1e-12)

    def test_top_level_blocks_cover_the_level(self, s2, monkeypatch):
        monkeypatch.setattr(bulk, "_BLOCK_PARENTS", 7)
        seen = {}
        for n, lo, fwd, bwd in bulk.tree_products(s2, words.word_tree(2, 6), 6):
            seen.setdefault(n, []).append((lo, len(fwd)))
        assert all(len(v) == 1 for n, v in seen.items() if n < 6)
        top = seen[6]
        assert len(top) > 1 and all(rows <= 7 * 3 for _, rows in top)
        assert [lo for lo, _ in top] == list(np.cumsum([0] + [r for _, r in top[:-1]]))
        assert sum(r for _, r in top) == words.count_words(2, 6)

    @pytest.mark.parametrize("name", ["s2", "p3"])
    def test_streamed_equals_plain_loop(self, name, request, monkeypatch):
        rep = request.getfixturevalue(name)
        monkeypatch.setattr(bulk, "_BLOCK_PARENTS", 50)
        bulk.element_spectra.cache_clear()
        try:
            es = bulk.element_spectra(rep, 8)
        finally:
            bulk.element_spectra.cache_clear()
        assert np.array_equal(es.cartan, plain_element_spectra(rep, 8))
        expect = np.cumsum([0] + [words.count_words(2, n) for n in range(1, 9)])
        assert np.array_equal(es.starts, expect)

    def test_cli_spectra_equals_library(self, p3, tmp_path):
        from limcone import save_rep

        save_rep(p3, tmp_path / "rep.txt")
        out = tmp_path / "spectra.csv"
        assert cli.main(["spectra", "--rep", str(tmp_path / "rep.txt"), "--out", str(out),
                         "--max-len", "5"]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        got = np.array([[float(x) for x in r[2:]] for r in rows])
        cart = bulk.element_spectra(p3, 5).cartan
        jor = np.concatenate([batched_jordan(f, b)
                              for _, _, f, b in bulk.tree_products(p3, words.word_tree(2, 5), 5)])
        assert np.array_equal(got, np.hstack([cart, jor]))

    def test_s2_dump_fallback_rows_against_60_digits(self, s2):
        # The spectra dump's d = 2 Jordan rows that the closed form does not
        # certify (28, 108, 440 and 1,408 at levels 7-10, all conjugates) take
        # LAPACK's top value of m and of its inverse product.  Against a
        # 60-digit product of the stored letters their l1 is off by at most
        # 1.16e-10 (mean 2.5e-12); with m's value for both ends, as the d = 2
        # tables take it, two level-10 rows reach 2.26e-10.
        mats = [mp.matrix(m.tolist()) for m in s2.letter_matrices()]
        sent = 0
        for n, lo, fwd, bwd in bulk.tree_products(s2, words.word_tree(2, 10), 10):
            rows = np.flatnonzero(~certified("jordan", fwd, bwd))
            l1 = batched_jordan(fwd, bwd)[rows, 0]
            with mp.workdps(60):
                for w, got in zip(words.word_level_array(2, n)[lo + rows].tolist(), l1):
                    acc = mp.eye(2)
                    for l in w:
                        acc = acc * mats[l]
                    lo_mod, hi_mod = sorted(abs(e) for e in mp.eig(acc, left=False, right=False))
                    want = float((mp.log(hi_mod) - mp.log(lo_mod)) / 2)
                    assert abs(got - want) <= 1.5e-10, (n, w)
            sent += len(rows)
        assert sent > 0


class TestClassSpectra:
    def test_needs_two_levels(self, s2):
        with pytest.raises(InvalidParameterError):
            bulk.class_spectra(s2, 1)

    def test_tree_equals_per_class_loop(self, rep):
        cs = bulk.class_spectra(rep, 12)
        for n, expect in plain_class_spectra(rep, 12).items():
            assert np.abs(cs.jordan[n] - expect).max() < 1e-13, n
            mult = words.class_level_arrays(rep.num_generators, n)[1]
            assert np.array_equal(cs.log_mult[n], np.log(mult.astype(float)))

    @pytest.mark.parametrize("name, n_max", [("s2", 12), ("p3", 10)])
    def test_level_views_of_one_table(self, request, name, n_max):
        # each level is a view of the table's rows, bitwise a per-level build
        rep = request.getfixturevalue(name)
        cs = bulk.class_spectra(rep, n_max)
        _, want = two_direction_tables(rep, n_max)
        assert cs.starts[0] == 0 and cs.starts[-1] == len(cs.jordan_rows) == len(cs.log_mult_rows)
        for n in range(1, n_max + 1):
            lo, hi = cs.starts[n - 1], cs.starts[n]
            assert np.shares_memory(cs.jordan[n], cs.jordan_rows), n
            assert np.shares_memory(cs.log_mult[n], cs.log_mult_rows), n
            assert cs.jordan[n].tobytes() == cs.jordan_rows[lo:hi].tobytes() == want[n].tobytes()
            mult = words.class_level_arrays(rep.num_generators, n)[1]
            assert cs.log_mult[n].tobytes() == np.log(mult.astype(float)).tobytes(), n

    def test_top_depth_blocks(self, p3, monkeypatch):
        # forced small blocks stream the top depth in many pieces
        monkeypatch.setattr(bulk, "_BLOCK_PARENTS", 7)
        bulk.class_spectra.cache_clear()
        try:
            cs = bulk.class_spectra(p3, 8)
        finally:
            bulk.class_spectra.cache_clear()
        for n, expect in plain_class_spectra(p3, 8).items():
            assert np.abs(cs.jordan[n] - expect).max() < 1e-13, n


# ---------------------------------------------------------------------------
# tables build only what their kernels read
# ---------------------------------------------------------------------------

def count_style_pairs(count):
    """Seeded d = 2 pairs drawn as the count benchmark draws them."""
    rng = np.random.default_rng(5)
    return [make_schottky(rng.uniform(1.5, 2.5, 2),
                          [0.0, float(rng.uniform(np.pi / 3, 2 * np.pi / 3))])
            for _ in range(count)]


def two_direction_tables(rep, n_max):
    """Element Cartan and class Jordan tables from the reference products,
    which carry the inverse chain at every d and equal the engine's
    products bit for bit (TestTreeProducts)."""
    k = rep.num_generators
    cart = np.concatenate([batched_cartan(f, b)
                           for f, b in tree_products(rep, words.word_tree(k, n_max))])
    edges, index = words.class_tree(k, n_max)
    jor = {n: batched_jordan(f[index[n - 1]], b[index[n - 1]])
           for n, (f, b) in enumerate(tree_products(rep, edges), 1)}
    return cart, jor


def one_direction_tables(rep, n_max):
    bulk.element_spectra.cache_clear()
    bulk.class_spectra.cache_clear()
    try:
        return bulk.element_spectra(rep, n_max).cartan, bulk.class_spectra(rep, n_max).jordan
    finally:
        bulk.element_spectra.cache_clear()
        bulk.class_spectra.cache_clear()


class TestOneDirectionTables:
    @pytest.mark.parametrize("which,n_max", [("s2", 12), (0, 12), (1, 12), (2, 12),
                                             ("f3", 10), ("p3", 10)])
    def test_tables_equal_the_two_direction_build(self, request, which, n_max):
        # d = 2 builds no inverse chain; d = 3 keeps it, with new row indices
        if isinstance(which, str):
            rep = request.getfixturevalue(which)
        else:
            rep = count_style_pairs(3)[which]
        cart, jor = one_direction_tables(rep, n_max)
        want_cart, want_jor = two_direction_tables(rep, n_max)
        assert cart.tobytes() == want_cart.tobytes()
        for n in range(1, n_max + 1):
            assert jor[n].tobytes() == want_jor[n].tobytes(), n

    def test_elliptic_pair_fallback_rows(self):
        # Without the inverse a fallback row takes m's LAPACK top value for
        # both ends, so every row is exactly (l, -l).  Against the two-direction
        # build only fallback rows move: by at most 2.85e-15 at N = 12 (3.3e-16
        # up to N = 9, as the move grows with the entries of near-parabolic
        # words), and each stays within 3.7e-15 of a 60-digit value (2.5e-15
        # with the inverse's top value).
        # short translation lengths: a non-discrete pair with elliptic and
        # near-parabolic words, whose Jordan rows the closed form sends to LAPACK
        rep = make_schottky([0.3, 0.3], [0.0, np.pi / 2])
        cart, jor = one_direction_tables(rep, 12)
        want_cart, want_jor = two_direction_tables(rep, 12)
        assert np.array_equal(cart[:, 1], -cart[:, 0])
        assert cart.tobytes() == want_cart.tobytes()
        mats = [mp.matrix(m.tolist()) for m in rep.letter_matrices()]
        edges, index = words.class_tree(2, 12)
        moved = 0
        for n, (fwd, bwd) in enumerate(tree_products(rep, edges), 1):
            assert np.array_equal(jor[n][:, 1], -jor[n][:, 0]), n
            rows = np.flatnonzero((jor[n] != want_jor[n]).any(axis=1))
            assert not certified("jordan", fwd[index[n - 1][rows]], bwd[index[n - 1][rows]]).any()
            assert np.abs(jor[n][rows] - want_jor[n][rows]).max(initial=0.0) <= 4e-15, n
            W = words.class_level_arrays(2, n)[0]
            with mp.workdps(60):
                for i in rows:
                    acc = mp.eye(2)
                    for l in W[i]:
                        acc = acc * mats[l]
                    top = max(float(mp.log(abs(e))) for e in mp.eig(acc, left=False, right=False))
                    assert abs(jor[n][i, 0] - top) <= 5e-15, (n, i)
            moved += len(rows)
        assert moved > 0

    def test_d2_routes_build_no_inverse(self, monkeypatch):
        engine, seen = bulk.tree_products, []

        def spy(*args, **kwargs):
            for n, lo, fwd, bwd in engine(*args, **kwargs):
                seen.append(bwd is None)
                yield n, lo, fwd, bwd

        monkeypatch.setattr(bulk, "tree_products", spy)
        for d in (2, 3):
            seen.clear()
            one_direction_tables(tree_rep(2, d), 6)
            assert seen and all(s == (d == 2) for s in seen), d

    def test_element_spectra_s2_peak_memory(self, s2):
        # tracemalloc peak of element_spectra(s2, 12) with its word levels
        # cached: 50.0 MB with the inverse chain, 37.3 MB without it and with
        # each depth's parents released before the kernel reads the depth
        # (p3: 87.8 MB before, 76.4 MB after, on the same box)
        for n in range(1, 13):
            words.word_level_array(2, n)
        bulk.element_spectra.cache_clear()
        tracemalloc.start()
        try:
            bulk.element_spectra(s2, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            bulk.element_spectra.cache_clear()
        assert peak < 41e6, peak / 1e6


class TestKernelInverseArgument:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_inverse_needed_above_d2(self, kind, d):
        with pytest.raises(InvalidParameterError):
            KERNELS[kind][0](np.eye(d)[None], None)

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_d2_without_inverse_reads_m_alone(self, kind):
        # certified rows are bitwise those of a call with the inverse; a
        # fallback row (the parabolic cases) takes m's top value for both ends
        cases = [EDGE_CASES[c] for c in sorted(EDGE_CASES) if len(EDGE_CASES[c][0]) == 2]
        m = np.stack([c[0] for c in cases])
        minv = np.stack([c[1] for c in cases])
        kernel, top = KERNELS[kind]
        got = kernel(m, None)
        keep = certified(kind, m, minv)
        assert got[keep].tobytes() == kernel(m, minv)[keep].tobytes()
        assert np.array_equal(got[~keep], split_spectrum(top(m[~keep], 1), top(m[~keep], 1), 2))
