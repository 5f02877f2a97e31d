"""Example builders, deformation, duality and the file format."""

import json

import numpy as np
import pytest

from limcone import (
    InvalidInputError,
    InvalidParameterError,
    PerturbationFailedError,
    Representation,
    Word,
    load_rep,
    make_schottky,
    perturb,
    save_rep,
    sym_power_embed,
)
from limcone.reps import dumps_rep, loads_rep
from reference import dual_rep, evaluate, jordan, reduce


def random_words(rng, count, length):
    out = []
    while len(out) < count:
        w = reduce(rng.integers(0, 4, size=length).tolist())
        if len(w) > 0:
            out.append(w)
    return out


class TestRepresentation:
    def test_invariants_enforced(self):
        bad = np.stack([2 * np.eye(2), np.eye(2)])
        with pytest.raises(InvalidParameterError):
            Representation(2, bad, ("a", "b"))
        with pytest.raises(InvalidParameterError):
            Representation(2, np.stack([np.eye(2)]), ("a",))
        with pytest.raises(InvalidParameterError):
            Representation(2, np.stack([np.eye(2), np.eye(2)]), ("a", "a"))

    def test_dimension_and_finite_entries_enforced(self, s2):
        with pytest.raises(InvalidParameterError, match="dimension"):
            Representation(1, np.ones((2, 1, 1)), ("a", "b"))
        gens = s2.generators.copy()
        gens[0, 0, 0] = np.inf
        with pytest.raises(InvalidParameterError, match="finite"):
            Representation(2, gens, s2.labels)

    def test_hashable_and_immutable(self, s2):
        assert hash(s2) == hash(Representation(2, s2.generators, s2.labels))
        with pytest.raises(ValueError):
            s2.generators[0, 0, 0] = 5.0

    def test_letter_matrices_layout(self, s2):
        mats = s2.letter_matrices()
        assert np.allclose(mats[0] @ mats[1], np.eye(2), atol=1e-12)
        assert np.allclose(mats[2] @ mats[3], np.eye(2), atol=1e-12)


class TestSchottky:
    def test_traces(self, s2):
        # conjugates of diag(e, 1/e): trace 2 cosh(1)
        expected = 2 * np.cosh(1.0)
        for g in s2.generators:
            assert abs(np.trace(g) - expected) < 1e-12

    def test_needs_two_generators(self):
        with pytest.raises(InvalidParameterError):
            make_schottky([2.0], [0.0])

    def test_coincident_axes_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_schottky([2.0, 2.0], [0.0, 0.0])
        with pytest.raises(InvalidParameterError):
            make_schottky([2.0, 2.0], [0.3, 0.3 + np.pi])

    def test_nonpositive_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_schottky([2.0, -1.0], [0.0, np.pi / 2])

    def test_translation_length(self, s2):
        for g in s2.generators:
            assert abs(jordan(g).coords[0] - 1.0) < 1e-12


class TestSymPower:
    def test_diagonal(self):
        rep = Representation(2, np.stack([np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3])]), ("a", "b"))
        out = sym_power_embed(rep, 3)
        assert np.allclose(out.generators[0], np.diag([4.0, 1.0, 0.25]), atol=1e-12)

    def test_identity(self):
        rep = Representation(2, np.stack([np.eye(2), np.eye(2)]), ("a", "b"))
        for d in (2, 3, 4, 5):
            out = sym_power_embed(rep, d)
            assert np.allclose(out.generators[0], np.eye(d), atol=1e-12)

    def test_unipotent_by_hand(self):
        # x^2 -> (x+y)^2 = x^2 + 2xy + y^2, xy -> (x+y)y, y^2 -> y^2
        g = np.array([[1.0, 1.0], [0.0, 1.0]])
        rep = Representation(2, np.stack([g, np.diag([2.0, 0.5])]), ("a", "b"))
        out = sym_power_embed(rep, 3)
        assert np.allclose(out.generators[0], [[1, 2, 1], [0, 1, 1], [0, 0, 1]], atol=1e-12)

    def test_dim_guard(self, f3):
        with pytest.raises(InvalidParameterError):
            sym_power_embed(f3, 4)

    def test_target_dimension_guard(self, s2):
        with pytest.raises(InvalidParameterError):
            sym_power_embed(s2, 1)

    @pytest.mark.parametrize("d", [3, 4])
    def test_multiplicative_on_random_words(self, s2, d):
        rep_d = sym_power_embed(s2, d)
        rng = np.random.default_rng(5)
        pairs = zip(random_words(rng, 100, 5), random_words(rng, 100, 5))
        for w1, w2 in pairs:
            prod = reduce(w1.letters + w2.letters)
            lhs = evaluate(rep_d, w1) @ evaluate(rep_d, w2)
            rhs = evaluate(rep_d, prod)
            assert np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()) < 1e-9


class TestPerturb:
    def test_zero_epsilon_identical(self, f3):
        assert perturb(f3, 0.0, 7) is f3

    def test_deterministic_in_seed(self, f3):
        a = perturb(f3, 1e-3, 1)
        b = perturb(f3, 1e-3, 1)
        assert a.generators.tobytes() == b.generators.tobytes()

    def test_seeds_differ(self, f3):
        a = perturb(f3, 1e-3, 1)
        b = perturb(f3, 1e-3, 2)
        assert a.generators.tobytes() != b.generators.tobytes()

    def test_determinants_restored(self, f3):
        out = perturb(f3, 0.05, 3)
        assert np.abs(np.linalg.det(out.generators) - 1).max() < 1e-12

    def test_negative_epsilon_rejected(self, f3):
        with pytest.raises(InvalidParameterError):
            perturb(f3, -1e-3, 1)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, 1e308])
    def test_unbounded_epsilon_rejected(self, f3, epsilon):
        # 1e308 is finite but its noise range 2 eps is not
        with pytest.raises(InvalidParameterError):
            perturb(f3, epsilon, 1)

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    @pytest.mark.parametrize("seed", [-1, 1.5, None, "1"])
    def test_bad_seed_rejected(self, s2, seed, epsilon):
        # refused before the eps = 0 return, never numpy's ValueError or TypeError
        with pytest.raises(InvalidParameterError):
            perturb(s2, epsilon, seed)

    def test_numpy_integer_seed(self, f3):
        assert np.array_equal(perturb(f3, 1e-3, np.int64(4)).generators,
                              perturb(f3, 1e-3, 4).generators)

    def test_sign_flip_fails_for_even_dim(self, s2):
        # huge noise flips the determinant sign for some seed; even d
        # has no real rescaling then
        raised = False
        for seed in range(30):
            try:
                perturb(s2, 50.0, seed)
            except PerturbationFailedError:
                raised = True
                break
        assert raised

    def test_odd_dim_survives_sign_flip(self, f3):
        # odd d always rescales; determinants land back at +1
        out = perturb(f3, 50.0, 0)
        assert np.abs(np.linalg.det(out.generators) - 1).max() < 1e-9


class TestDual:
    def test_diagonal(self):
        rep = Representation(
            3, np.stack([np.diag([4.0, 1.0, 0.25]), np.diag([2.0, 1.0, 0.5])]), ("a", "b")
        )
        out = dual_rep(rep)
        assert np.allclose(out.generators[0], np.diag([0.25, 1.0, 4.0]), atol=1e-12)

    def test_hand_example(self):
        g = np.array([[2.0, 1.0], [1.0, 1.0]])
        rep = Representation(2, np.stack([g, np.diag([2.0, 0.5])]), ("a", "b"))
        out = dual_rep(rep)
        assert np.allclose(out.generators[0], [[1.0, -1.0], [-1.0, 2.0]], atol=1e-12)

    def test_involution(self, p3):
        back = dual_rep(dual_rep(p3))
        assert np.abs(back.generators - p3.generators).max() < 1e-9

    def test_word_evaluation_duality(self, p3):
        # relative comparison: the inverse-of-product oracle is itself
        # conditioning-limited, so scales are kept moderate
        dual = dual_rep(p3)
        rng = np.random.default_rng(9)
        for w in random_words(rng, 50, 4):
            lhs = evaluate(dual, w)
            rhs = np.linalg.inv(evaluate(p3, w)).T
            assert np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()) < 1e-9
        for w in random_words(rng, 20, 6):
            lhs = evaluate(dual, w)
            rhs = np.linalg.inv(evaluate(p3, w)).T
            assert np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()) < 1e-6

    def test_jordan_opposition_involution(self, p3):
        # lambda(dual) is the reversed negation of lambda
        dual = dual_rep(p3)
        rng = np.random.default_rng(13)
        for w in random_words(rng, 30, 6):
            lam = jordan(evaluate(p3, w)).coords
            lam_dual = jordan(evaluate(dual, w)).coords
            assert np.abs(lam_dual - (-lam[::-1])).max() < 1e-6


class TestFileFormat:
    def test_text_roundtrip_exact(self, p3, tmp_path):
        path = tmp_path / "p3.rep"
        save_rep(p3, path)
        back = load_rep(path)
        assert back == p3

    def test_header(self, p3, tmp_path):
        path = tmp_path / "p3.rep"
        save_rep(p3, path)
        assert path.read_text().splitlines()[0] == "dim=3 gens=2"

    def test_json_interchangeable(self, p3, tmp_path):
        obj = {
            "dim": p3.dim,
            "labels": list(p3.labels),
            "generators": [g.ravel().tolist() for g in p3.generators],
        }
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(obj))
        back = load_rep(path)
        assert np.abs(back.generators - p3.generators).max() == 0.0

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInputError):
            loads_rep("")
        with pytest.raises(InvalidInputError):
            loads_rep("dim=2\n")
        with pytest.raises(InvalidInputError):
            loads_rep("dim=2 gens=2\na 1 0 0 1\n")
        with pytest.raises(InvalidInputError):
            loads_rep("dim=2 gens=1\na 1 0 0\n")
        with pytest.raises(InvalidInputError):
            loads_rep('{"dim": 2,')
        with pytest.raises(InvalidInputError):
            loads_rep("dim=2 gens=2\na 1 0 0 x\nb 1 0 0 1\n")

    def test_seventeen_digits(self, p3):
        text = dumps_rep(p3)
        val = text.splitlines()[1].split()[1]
        assert float(val) == p3.generators[0, 0, 0]
