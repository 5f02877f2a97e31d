"""Cartan/Jordan projections against independent oracles: the
single-matrix reference path of tests/reference.py and, for word
products, the batched kernels.

The Cartan oracle diagonalizes m^T m with hand-rolled Jacobi rotations;
the extreme-conditioning reference is a 60-digit mpmath eigensolve.
"""

import warnings

import mpmath as mp
import numpy as np
import pytest

from limcone import (
    Functional,
    InvalidParameterError,
    Word,
)
from limcone.words import word_level_array
from reference import (
    CartanVector,
    SpectralFailureError,
    UndefinedGapError,
    cartan,
    evaluate,
    gap_ratio,
    is_proximal,
    jordan,
    power_consistency,
    reduce,
)


def jacobi_eigenvalues(S, sweeps=60):
    """Eigenvalues of a symmetric matrix by classical Jacobi rotations."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
        if off < 1e-14 * max(1.0, abs(A).max()):
            break
    return np.sort(np.diag(A))[::-1]


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestTypes:
    def test_cartan_vector_validation(self):
        CartanVector(np.array([1.0, 0.0, -1.0]))
        with pytest.raises(InvalidParameterError):
            CartanVector(np.array([0.0, 1.0, -1.0]))     # increasing
        with pytest.raises(InvalidParameterError):
            CartanVector(np.array([1.0, 0.0, -0.5]))     # sum not zero

    def test_functional_canonical_representative(self):
        phi = Functional([1.0, 0.0, 0.0])
        assert abs(phi.coeffs.sum()) < 1e-15
        v = CartanVector(np.array([2.0, -0.5, -1.5]))
        # evaluation agrees with the raw first-coordinate form on sum-zero v
        assert abs(phi(v) - 2.0) < 1e-12

    def test_functional_centring_is_the_mean_form_bitwise(self):
        # c - c.sum() / len(c) is the add.reduce and true division of c.mean()
        rng = np.random.default_rng(7)
        for _ in range(20000):
            c = rng.normal(size=int(rng.integers(2, 5))) * 10.0 ** rng.uniform(-5, 4)
            assert Functional(c).coeffs.tobytes() == (c - c.mean()).tobytes(), c
        for c in ([1, 0, 0], [3, -1], [0.1, 0.2, 0.3, 0.4]):
            assert Functional(c).coeffs.tobytes() == (np.array(c, float) - np.mean(c)).tobytes()

    def test_functional_algebra(self):
        a, b = Functional([1, -1]), Functional([3, -3])
        assert abs((2 * a + b)([1, -1]) - 10.0) < 1e-12
        assert abs(Functional.gap(3, 1)([4.0, 1.0, -5.0]) - 3.0) < 1e-12
        with pytest.raises(InvalidParameterError):
            Functional.gap(3, 3)

    @pytest.mark.parametrize("coeffs", [[np.nan, 0.0, 0.0], [np.inf, 0.0, -1.0]])
    def test_functional_refuses_non_finite_coefficients(self, coeffs):
        # refused before centring, which would warn on inf - inf first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError):
                Functional(coeffs)

    def test_evaluation_no_hidden_sorting(self):
        phi = Functional([1.0, -1.0, 0.0])
        assert abs(phi(np.array([0.0, 1.0, -1.0])) - (-1.0)) < 1e-15


class TestCartan:
    def test_identity(self):
        assert np.abs(cartan(np.eye(4)).coords).max() < 1e-12

    def test_diagonal(self):
        a = cartan(np.diag([4.0, 1.0, 0.25]))
        assert np.allclose(a.coords, [np.log(4), 0.0, -np.log(4)], atol=1e-12)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 3))
        assert np.allclose(cartan(m).coords, cartan(7.3 * m).coords, atol=1e-10)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = rng.normal(size=(3, 3))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            eig = jacobi_eigenvalues(m.T @ m)
            expect = 0.5 * np.log(eig)
            expect -= expect.mean()
            assert np.abs(cartan(m).coords - expect).max() < 1e-9

    def test_singular_rejected(self):
        with pytest.raises(SpectralFailureError):
            cartan(np.zeros((3, 3)))
        with pytest.raises(SpectralFailureError):
            cartan(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestJordan:
    def test_rotation_is_elliptic(self):
        lam = jordan(rotation(0.7))
        assert np.abs(lam.coords).max() < 1e-12

    def test_hand_quadratic(self):
        # char poly x^2 - 3x + 1: top root (3 + sqrt 5)/2
        lam = jordan(np.array([[2.0, 1.0], [1.0, 1.0]]))
        expect = np.log((3 + np.sqrt(5)) / 2)
        assert abs(lam.coords[0] - expect) < 1e-12
        assert abs(expect - 0.9624236501192069) < 1e-15

    def test_diagonal(self):
        lam = jordan(np.diag([4.0, 1.0, 0.25]))
        assert np.allclose(lam.coords, [np.log(4), 0.0, -np.log(4)], atol=1e-12)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(6)
        m = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.3], [0.0, 0.2, 0.6]])
        base = jordan(m).coords
        for _ in range(20):
            p = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            if abs(np.linalg.det(p)) < 0.5:
                continue
            conj = p @ m @ np.linalg.inv(p)
            assert np.abs(jordan(conj).coords - base).max() < 1e-7

    def test_moderate_conditioning_vs_mpmath(self, p3):
        w = word_level_array(2, 6)[123]
        m = evaluate(p3, [int(x) for x in w])
        mp.mp.dps = 60
        ref_eig = mp.eig(mp.matrix(m.tolist()), left=False, right=False)
        ref = np.sort([float(mp.log(abs(e))) for e in ref_eig])[::-1]
        ref -= ref.mean()
        assert np.abs(jordan(m).coords - ref).max() < 1e-9

    def test_bulk_split_extreme_conditioning_vs_mpmath(self, p3):
        # the two-sided split with exact generator-inverse products keeps
        # every coordinate accurate at word length 12, where one-sided
        # solvers lose the bottom coordinate entirely; the oracle is the
        # 60-digit product of the same generator entries
        from limcone.spectra import batched_jordan

        w = [int(x) for x in word_level_array(2, 12)[12345]]
        mats = p3.letter_matrices()
        fwd = np.eye(3)
        bwd = np.eye(3)
        for l in w:
            fwd = fwd @ mats[l]
            bwd = mats[l ^ 1] @ bwd
        got = batched_jordan(fwd[None], bwd[None])[0]
        mp.mp.dps = 60
        acc = mp.eye(3)
        for l in w:
            acc = acc * mp.matrix(mats[l].tolist())
        ref_eig = mp.eig(acc, left=False, right=False)
        ref = np.sort([float(mp.log(abs(e))) for e in ref_eig])[::-1]
        ref -= ref.mean()
        assert np.abs(got - ref).max() < 1e-9

    def test_subadditivity_dominance(self):
        # top partial sums of cartan(mn) below those of cartan(m)+cartan(n)
        rng = np.random.default_rng(8)
        for _ in range(20):
            m, n = rng.normal(size=(2, 3, 3))
            if min(abs(np.linalg.det(m)), abs(np.linalg.det(n))) < 1e-3:
                continue
            left = np.cumsum(cartan(m @ n).coords)
            right = np.cumsum(cartan(m).coords + cartan(n).coords)
            assert np.all(left <= right + 1e-8)

    def test_duality_reverse_negate(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            lam = jordan(m).coords
            lam_dual = jordan(np.linalg.inv(m).T).coords
            assert np.abs(lam_dual - (-lam[::-1])).max() < 1e-8


class TestGapRatio:
    def test_full_gap(self):
        assert abs(gap_ratio(np.diag([4.0, 1.0, 0.25]), 1) - 1.0) < 1e-12

    def test_tie_is_zero(self):
        assert abs(gap_ratio(np.diag([2.0, 2.0, 0.25]), 1)) < 1e-9

    def test_matches_jordan_recomputation(self, s2):
        w = reduce([0, 2, 0, 0, 2])
        m = evaluate(s2, w)
        lam = jordan(m).coords
        assert abs(gap_ratio(m, 1) - (lam[0] - lam[1]) / lam[0]) < 1e-12

    def test_undefined_for_elliptic(self):
        with pytest.raises(UndefinedGapError):
            gap_ratio(rotation(0.3), 1)

    def test_index_range(self):
        with pytest.raises(InvalidParameterError):
            gap_ratio(np.diag([4.0, 1.0, 0.25]), 3)


class TestProximal:
    def test_diagonal_proximal(self):
        assert is_proximal(np.diag([4.0, 1.0, 0.25]), 1e-6)

    def test_rotation_not_proximal(self):
        assert not is_proximal(rotation(0.5), 1e-6)

    def test_modulus_tie_not_proximal(self):
        assert not is_proximal(np.diag([2.0, 2.0, 0.25]), 1e-6)

    def test_strictly_convex_example_exhaustive(self, p3):
        # every nontrivial image up to length 8 is proximal
        for n in range(1, 9):
            for row in word_level_array(2, n):
                m = evaluate(p3, [int(x) for x in row])
                assert is_proximal(m, 1e-6)


class TestPowerConsistency:
    def test_diagonal_exact(self):
        for n in (1, 5, 17):
            assert power_consistency(np.diag([4.0, 1.0, 0.25]), n) < 1e-10

    def test_hand_matrix_converges(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        v20 = power_consistency(m, 20)
        v40 = power_consistency(m, 40)
        assert v20 < 0.05
        assert v40 <= v20

    def test_qr_accumulation_converges(self):
        # the QR route is only asymptotically exact; its error decays in n
        m = np.array([[2.0, 1.0], [1.0, 1.0]])   # det 1 already
        from reference import _qr_log_power

        lam = jordan(m).coords
        errs = [np.abs(_qr_log_power(m, n) / n - lam).max() for n in (60, 600)]
        assert errs[0] < 0.01
        assert errs[1] < 0.2 * errs[0]

    def test_no_overflow_at_large_power(self, s2):
        m = evaluate(s2, reduce([0, 2]))
        val = power_consistency(m, 400)
        assert np.isfinite(val)
        assert val < 0.05

    def test_power_precondition(self):
        with pytest.raises(InvalidParameterError):
            power_consistency(np.eye(2), 0)


@pytest.mark.parametrize("fn", [cartan, jordan])
def test_d5_scalar_rescaling(fn):
    # the middle value of odd d once came from a zero sum that assumes |det| = 1
    e = np.exp([2.0, 1.0, 0.0, -1.0, -2.0])
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(5, 5)))
    for m in (np.diag(e), q @ np.diag(e) @ q.T):
        for scale in (1.0, 3.0, 0.2):
            assert np.abs(fn(scale * m).coords - [2, 1, 0, -1, -2]).max() < 1e-12
