"""Bulk products and the closed-form spectral kernels.

The closed forms (d <= 3) are checked against the LAPACK kernel they
replace on the fixture word and class levels, and against a high-precision
mpmath eigen/singular value solve on matrices chosen to sit on the edges
of the certificate: modulus ties, a dominant complex pair, a negative top
eigenvalue, elliptic and parabolic d = 2 elements and entries near 1e150.
"""

import mpmath as mp
import numpy as np
import pytest

from limcone import bulk, cli, words
from limcone.spectra import (
    _CLOSED_FORM,
    _split_spectrum,
    _top_log_eigmods,
    _top_log_svals,
    batched_cartan,
    batched_jordan,
)

LAPACK_TOL = 1e-12
ORACLE_TOL = 1e-9
LEVEL_SAMPLE = 5000         # rows per level compared against LAPACK

KERNELS = {"cartan": (batched_cartan, _top_log_svals),
           "jordan": (batched_jordan, _top_log_eigmods)}


def lapack(kind, fwd, bwd):
    """The split-spectrum rule on full LAPACK spectra (the kernel before
    the closed forms, and still the kernel for d >= 4)."""
    top = KERNELS[kind][1]
    h = fwd.shape[-1] // 2
    return _split_spectrum(top(fwd, h), top(bwd, h), fwd.shape[-1])


def certified(kind, fwd, bwd):
    with np.errstate(all="ignore"):
        return _CLOSED_FORM[kind][fwd.shape[-1]](fwd, bwd)[2]


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


@pytest.fixture(scope="module", params=["s2", "f3", "p3"])
def rep(request):
    return request.getfixturevalue(request.param)


class TestAgainstLapack:
    def test_cartan_on_word_levels(self, rep):
        for n, lo, fwd, bwd in bulk.word_products(rep, 12):
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

    def test_d4_bitwise_unchanged(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(64, 4, 4))
        det = np.linalg.det(m)
        m = m / (np.sign(det) * np.abs(det) ** 0.25)[:, None, None]
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


# ---------------------------------------------------------------------------
# streamed products
# ---------------------------------------------------------------------------

class TestWordProducts:
    def test_products_match_evaluate(self, p3):
        for n, lo, fwd, bwd in bulk.word_products(p3, 5):
            W = words.word_level_array(2, n)[lo:lo + len(fwd)]
            for j in (0, len(W) // 2, len(W) - 1):
                w = [int(x) for x in W[j]]
                assert np.allclose(fwd[j], words.evaluate(p3, w), rtol=1e-12, atol=1e-12)
                inv = words.evaluate(p3, [l ^ 1 for l in reversed(w)])
                assert np.allclose(bwd[j], inv, rtol=1e-12, atol=1e-12)

    def test_top_level_blocks_cover_the_level(self, s2, monkeypatch):
        monkeypatch.setattr(bulk, "_BLOCK_PARENTS", 7)
        seen = {}
        for n, lo, fwd, bwd in bulk.word_products(s2, 6):
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
        expect = np.concatenate([np.full(words.count_words(2, n), n) for n in range(1, 9)])
        assert np.array_equal(es.lengths, expect)

    def test_cli_spectra_equals_library(self, p3, tmp_path):
        from limcone import save_rep

        save_rep(p3, tmp_path / "rep.txt")
        out = tmp_path / "spectra.csv"
        assert cli.main(["spectra", "--rep", str(tmp_path / "rep.txt"), "--out", str(out),
                         "--max-len", "5"]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        got = np.array([[float(x) for x in r[2:]] for r in rows])
        cart = bulk.element_spectra(p3, 5).cartan
        jor = np.concatenate([batched_jordan(f, b) for _, _, f, b in bulk.word_products(p3, 5)])
        assert np.array_equal(got, np.hstack([cart, jor]))


def test_class_scan_blocks_match_whole_level(monkeypatch):
    # the rotation scan of words._class_level runs in row blocks; any
    # block size gives the whole-level result
    whole = {n: words._class_level.__wrapped__(2, n) for n in (5, 6, 7)}
    monkeypatch.setattr(words, "_SCAN_ROWS", 7)
    for n, (W, mult) in whole.items():
        Wb, mb = words._class_level.__wrapped__(2, n)
        assert np.array_equal(W, Wb) and np.array_equal(mult, mb)
