"""Periodic-orbit pressure, roots, Gibbs statistics.

The word-length weight is the exact seam: with it the level pressure is
(1/n) log c(n) - t, where c(n) counts cyclically reduced words (each
class weighted by its primitive period), and the root extrapolation
lands on log 3 for k = 2 to a few parts in 1e-8.
"""

import itertools
import warnings

import numpy as np
import pytest

from limcone import (
    BracketFailureError,
    Functional,
    InvalidParameterError,
    LimconeError,
    NotInDualConeError,
    NotOnBoundaryError,
    entropy_of_state,
    gibbs_direction,
    make_schottky,
    perturb,
    pressure_root,
    pressure_table,
    word_length_weight,
)
from limcone import pressure, words
from limcone.bulk import class_spectra
from limcone.growth import _U1, _U2
from limcone.pressure import _cycle_pressure, pressure_root_detail
from reference import array_cycle_pressure, chained_root_detail, evaluate

LOG3 = np.log(3.0)


def pressure_derivative_check(rep, phi0, phi1, n, h_step=1e-3):
    """(-phi1(gibbs_direction), central difference of s -> P_n(phi0 + s phi1)
    at s = 0): the derivative of the level pressure in the direction phi1,
    analytic and numeric, which agree to O(h_step^2)."""
    if not 1e-6 <= h_step <= 1e-2:
        raise InvalidParameterError("h_step must lie in [1e-6, 1e-2]")
    p = [pressure_table(rep, phi0 + s * phi1, 1.0, n).levels[n] for s in (h_step, -h_step)]
    return -float(phi1(gibbs_direction(rep, phi0, n))), (p[0] - p[1]) / (2 * h_step)


def brute_cyc_reduced_count(k, n):
    total = 0
    for w in itertools.product(range(2 * k), repeat=n):
        if any(b == a ^ 1 for a, b in zip(w, w[1:])):
            continue
        if n > 1 and w[-1] == w[0] ^ 1:
            continue
        total += 1
    return total


def brute_class_jordan(rep, n):
    """Independent small-n oracle: canonical classes by brute force,
    Jordan data per class from plain dense eigensolves."""
    out = {}
    for w in itertools.product(range(4), repeat=n):
        if any(b == a ^ 1 for a, b in zip(w, w[1:])):
            continue
        if n > 1 and w[-1] == w[0] ^ 1:
            continue
        canon = min(w[j:] + w[:j] for j in range(n))
        if canon in out:
            continue
        period = next(p for p in range(1, n + 1) if n % p == 0 and canon == canon[p:] + canon[:p])
        m = evaluate(rep, list(canon))
        lam = np.sort(np.log(np.abs(np.linalg.eigvals(m))))[::-1]
        lam -= lam.mean()
        out[canon] = (lam, period)
    return out


class TestLevelPressure:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_word_length_weight_exact(self, s2, n):
        # (1/n) log c(n) - t, c(n) counted by brute force
        c_n = brute_cyc_reduced_count(2, n)
        for t in (0.0, 0.7, 2.0):
            got = pressure_table(s2, None, t, 7, weight_hook=word_length_weight).levels[n]
            assert abs(got - (np.log(c_n) / n - t)) < 1e-12

    def test_zero_weight_approaches_log3(self, s2):
        p12 = pressure_table(s2, None, 0.0, 12, weight_hook=word_length_weight).levels[12]
        assert abs(p12 - LOG3) < 1e-4

    def test_strictly_decreasing_in_t(self, s2):
        phi = Functional([1.0, -1.0])
        vals = [pressure_table(s2, phi, t, 8).levels[8] for t in np.linspace(0, 3, 7)]
        assert np.all(np.diff(vals) < 0)

    def test_level_precondition(self, s2):
        with pytest.raises(InvalidParameterError):
            pressure_table(s2, Functional([1.0, -1.0]), 0.0, 1)

    @pytest.mark.parametrize("t", [1e308, np.inf, np.nan])
    def test_overflowing_or_infinite_t_rejected(self, s2, t):
        # refused, never a nan with warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError):
                pressure_table(s2, Functional([1.0, -1.0]), t, 6)


class TestPressureRoot:
    def test_word_length_hook_is_log3(self, s2):
        root = pressure_root(s2, None, weight_hook=word_length_weight)
        assert abs(root - LOG3) < 1e-5

    def test_homogeneity(self, s2):
        phi = Functional([1.0, -1.0])
        r1 = pressure_root(s2, phi)
        r3 = pressure_root(s2, 3.0 * phi)
        assert abs(r3 - r1 / 3.0) < 1e-5

    def test_not_in_dual_cone(self, s2):
        with pytest.raises(NotInDualConeError):
            pressure_root(s2, Functional([-1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, 0.0])
    def test_nan_or_zero_hook_weight_not_in_dual_cone(self, s2, bad):
        hook = lambda n, lam: np.where(np.arange(len(lam)) == 1, bad, float(n))
        with pytest.raises(NotInDualConeError):
            pressure_root(s2, None, n_max=8, weight_hook=hook)

    def test_agrees_with_direct_count(self, s2, p3):
        # element mode at N = 12, measured: s2 +1.82 %; p3 +2.66 %, +1.73 %, +1.74 %
        from limcone import critical_exponent_direct

        for rep, coeffs in ((s2, [1.0, -1.0]), (p3, [1.0, -1.0, 0.0]), (p3, [1.0, 0.0, -1.0]),
                            (p3, [1.0, 0.3, -1.3])):
            phi = Functional(coeffs)
            root = pressure_root(rep, phi)
            est = critical_exponent_direct(rep, phi, 12, "element")
            assert abs(root - est.value) / root < 0.03, (coeffs, root, est.value)

    def test_level_root_beyond_t_max(self, s2):
        # a weight of 1e-6 per letter puts every level root at log 3 / 1e-6 > _T_MAX
        with pytest.raises(BracketFailureError):
            pressure_root(s2, None, weight_hook=lambda n, lam: np.full(len(lam), 1e-6 * n))


class TestPressureTable:
    def test_each_level_summed_once(self, s2, monkeypatch):
        # the levels and the cycle expansion read one list of level sums
        summed = []
        level_sum = pressure._Weights.level_sum
        monkeypatch.setattr(pressure._Weights, "level_sum",
                            lambda w, n, t: summed.append(n) or level_sum(w, n, t))
        pressure_table(s2, Functional([1, -1]), 0.7, 12)
        assert sorted(summed) == list(range(1, 13))

    def test_extrapolated_within_last_predictions(self, s2):
        phi = Functional([1.0, -1.0])
        table = pressure_table(s2, phi, 0.5, 10)
        preds = [
            n * table.levels[n] - (n - 1) * table.levels[n - 1]
            for n in (8, 9, 10)
        ]
        assert min(preds) - 1e-12 <= table.extrapolated <= max(preds) + 1e-12
        assert not table.oscillating

    def test_level_stability(self, s2):
        # |n P_n - (n-1) P_(n-1) - extrapolated| shrinks over the last levels
        phi = Functional([1.0, -1.0])
        table = pressure_table(s2, phi, 0.5, 12)
        devs = [
            abs(n * table.levels[n] - (n - 1) * table.levels[n - 1] - table.extrapolated)
            for n in (10, 11, 12)
        ]
        assert devs[2] <= devs[1] <= devs[0]

    @pytest.mark.parametrize("t", [1e305, -1e300])
    def test_huge_t_falls_back_to_top_level(self, p3, t):
        # the scaled Z_n overflow, so the cycle expansion has no usable zero
        phi = Functional([1.0, 0.0, -1.0])
        table = pressure_table(p3, phi, t)
        assert table.oscillating
        assert np.isfinite(table.extrapolated) and table.extrapolated == table.levels[12]

    def test_overflowing_t_rejected(self, p3):
        phi = Functional([1.0, 0.0, -1.0])
        with pytest.raises(InvalidParameterError):
            pressure_table(p3, phi, 1e308)

    def test_membership_signs_around_boundary(self, s2):
        # P < 0 just outside the boundary functional, > 0 just inside
        phi = Functional([1.0, -1.0])
        h = pressure_root(s2, phi)
        boundary = h * phi
        assert pressure_table(s2, 1.05 * boundary, 1.0).extrapolated < 0
        assert pressure_table(s2, 0.95 * boundary, 1.0).extrapolated > 0


class TestGibbs:
    def test_uniform_weights_against_brute_oracle(self, s2):
        # phi = 0: period-weighted plain mean of lambda / n
        n = 5
        oracle = brute_class_jordan(s2, n)
        lam = np.array([v[0] for v in oracle.values()])
        mult = np.array([v[1] for v in oracle.values()], dtype=float)
        expect = (lam * mult[:, None]).sum(axis=0) / (n * mult.sum())
        got = gibbs_direction(s2, Functional([0.0, 0.0]), n)
        assert np.abs(got - expect).max() < 1e-10

    def test_weighted_against_brute_oracle(self, s2):
        n = 5
        phi = Functional([0.8, -0.8])
        oracle = brute_class_jordan(s2, n)
        lam = np.array([v[0] for v in oracle.values()])
        mult = np.array([v[1] for v in oracle.values()], dtype=float)
        w = mult * np.exp(-(lam @ phi.coeffs))
        expect = (lam * w[:, None]).sum(axis=0) / (n * w.sum())
        got = gibbs_direction(s2, phi, n)
        assert np.abs(got - expect).max() < 1e-10

    def test_fuchsian_direction_on_ray(self, f3):
        g = gibbs_direction(f3, Functional([0.5, 0.0, -0.5]), 10)
        unit = g / np.linalg.norm(g)
        ray = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        assert np.arccos(np.clip(unit @ ray, -1, 1)) < 1e-3

    def test_sum_zero(self, p3):
        g = gibbs_direction(p3, Functional([1.0, 0.0, -1.0]), 8)
        assert abs(g.sum()) < 1e-12


class TestDerivative:
    def test_zero_direction(self, s2):
        a, n = pressure_derivative_check(s2, Functional([1.0, -1.0]), Functional([0.0, 0.0]), 8)
        assert a == 0.0
        assert abs(n) < 1e-12

    def test_constant_weight_slope_is_minus_one(self, s2):
        # scaling the word-length weight: P((1+t) r) has slope -1 in t,
        # matching minus the Gibbs mean of the weight per unit time
        h = 1e-4
        up = pressure_table(s2, None, 1.0 + h, 8, weight_hook=word_length_weight).levels[8]
        dn = pressure_table(s2, None, 1.0 - h, 8, weight_hook=word_length_weight).levels[8]
        assert abs((up - dn) / (2 * h) + 1.0) < 1e-12

    def test_matches_finite_difference(self, s2):
        rng = np.random.default_rng(17)
        phi0 = Functional([1.0, -1.0])
        for _ in range(5):
            phi1 = Functional(rng.normal(size=2))
            a, n = pressure_derivative_check(s2, phi0, phi1, 10)
            assert abs(a - n) < 1e-4 * (1 + abs(a))

    def test_step_range_enforced(self, s2):
        with pytest.raises(InvalidParameterError):
            pressure_derivative_check(s2, Functional([1, -1]), Functional([1, -1]), 8, h_step=1.0)

    def test_strict_convexity_along_centered_direction(self, p3):
        # second difference of the pressure along a Gibbs-centered
        # direction is positive
        phi0 = Functional([1.0, 0.0, -1.0])
        g = gibbs_direction(p3, phi0, 10)
        phi1 = Functional([1.0, -1.0, 0.0])
        phi1 = phi1 - (phi1(g) / phi0(g)) * phi0     # zero Gibbs mean
        ts = np.linspace(-0.2, 0.2, 5)
        vals = [pressure_table(p3, phi0 + t * phi1, 1.0, 10).extrapolated for t in ts]
        second = np.diff(vals, 2)
        assert np.all(second > 0)


class TestEntropy:
    def test_off_boundary_rejected(self, s2):
        # half the boundary functional has pressure root 2
        phi = Functional([1.0, -1.0])
        with pytest.raises(NotOnBoundaryError):
            entropy_of_state(s2, 0.5 * pressure_root(s2, phi) * phi, 12)

    def test_schottky_boundary_entropy_bounded(self, s2):
        phi = Functional([1.0, -1.0])
        h = pressure_root(s2, phi)
        val = entropy_of_state(s2, h * phi, 12)
        h_top = pressure_table(s2, Functional([0.0, 0.0]), 0.0).extrapolated
        assert 0 < val <= h_top + 0.05

    def test_equals_phi_of_gibbs_direction(self, s2):
        phi = Functional([1.0, -1.0])
        bdry = pressure_root(s2, phi) * phi
        val = entropy_of_state(s2, bdry, 12)
        assert abs(val - bdry(gibbs_direction(s2, bdry, 12))) < 1e-12


class TestCycleExpansion:
    # the pressure estimate is the truncated cycle expansion of 1/zeta

    @pytest.mark.parametrize("n_max", range(4, 13))
    def test_word_length_root_exact(self, s2, n_max):
        # 1/zeta = det(I - zA) = (1 - 3z)(1 - z)^2(1 + z) from degree 4 on
        detail = pressure_root_detail(s2, None, n_max=n_max, weight_hook=word_length_weight)
        assert abs(detail.value - LOG3) < 1e-12
        assert not detail.fallback

    @pytest.mark.parametrize(
        "rep_name, coeffs, expect",
        [("s2", [1.0, -1.0], 0.7502638), ("p3", [1.0, 0.0, -1.0], 0.3897961)],
    )
    def test_matrix_weight_roots(self, request, rep_name, coeffs, expect):
        # N = 14 moves the s2 value by 7e-7 only; the level roots spread 8e-4
        rep = request.getfixturevalue(rep_name)
        detail = pressure_root_detail(rep, Functional(coeffs), n_max=12)
        assert abs(detail.value - expect) < 1e-6
        assert not detail.fallback

    @pytest.mark.parametrize("rep_name, coeffs", [("s2", [1.0, -1.0]), ("p3", [1.0, 0.0, -1.0])])
    def test_root_zeroes_extrapolated_pressure(self, request, rep_name, coeffs):
        # one expansion routine serves the root and the table
        rep = request.getfixturevalue(rep_name)
        phi = Functional(coeffs)
        root = pressure_root(rep, phi)
        assert abs(pressure_table(rep, root * phi, 1.0).extrapolated) < 1e-8

    def test_level_pressures_share_one_class_table(self, s2):
        # a root, a table, a Gibbs direction and an entropy at one depth
        # read one class table
        rep = perturb(s2, 0.02, 9)                # fresh: no cached table yet
        phi = Functional([1.0, -1.0])
        before = class_spectra.cache_info().misses
        root = pressure_root_detail(rep, phi).value
        pressure_table(rep, phi, root, 12)
        gibbs_direction(rep, phi, 12)
        entropy_of_state(rep, root * phi, 12)
        assert class_spectra.cache_info().misses - before == 1

    def test_shared_levels_equal_own_tables(self, s2):
        # levels 1..m of a deeper class table are those of a table built to m
        rep = perturb(s2, 0.02, 10)
        phi = Functional([1.0, -1.0])
        shared = [pressure_table(rep, phi, 0.7, 10).levels[n] for n in (10, 8, 6)]
        own = [pressure_table(rep, phi, 0.7, n).levels[n] for n in (10, 8, 6)]
        assert shared == own

    def test_never_builds_deeper_than_asked(self, monkeypatch):
        # k = 3: a table to N = 12 would generate class words of length 12
        rep = make_schottky([2.0, 2.5, 3.0], [0.0, np.pi / 3, 2 * np.pi / 3])
        phi = Functional([1.0, -1.0])
        plain, lengths = words._pre_necklaces, []

        def capped(k, n):
            assert n <= 5, f"generated pre-necklaces of length {n}"
            lengths.append(n)
            return plain(k, n)

        for cached in (plain, words._class_level, words.class_tree, class_spectra):
            cached.cache_clear()
        monkeypatch.setattr(words, "_pre_necklaces", capped)
        table = pressure_table(rep, phi, 1.0, n_max=5)
        assert max(lengths) == 5
        assert pressure_table(rep, phi, 1.0, n_max=4).levels[4] == table.levels[4]
        assert np.isfinite(gibbs_direction(rep, phi, 5)).all()

    def test_no_positive_zero_falls_back_to_top_level(self, s2):
        # Z_n is negligible for n >= 2, so 1/zeta_4 is close to the degree-4
        # Taylor polynomial of exp(-Z_1 z), which has no real zero
        hook = lambda n, lam: np.full(len(lam), 1.0 if n == 1 else 50.0 * n)
        table = pressure_table(s2, None, 0.5, 4, weight_hook=hook)
        assert table.oscillating
        assert table.extrapolated == table.levels[4]
        detail = pressure_root_detail(s2, None, n_max=4, weight_hook=hook)
        assert detail.fallback
        assert abs(pressure_table(s2, None, detail.value, 4, weight_hook=hook).levels[4]) < 1e-9


# ---------------------------------------------------------------------------
# the root started from one level root against the chained level roots
# ---------------------------------------------------------------------------

_PERTURBED = [(0.08, 3), (0.2, 11)] + [
    (round(float(eps), 4), 200 + i) for i, eps in enumerate(np.linspace(0.02, 0.2, 20))]


def _outcome(root_detail, rep, phi):
    """(error type, value, fallback) of one root, the error None on success."""
    try:
        detail = root_detail(rep, phi)
    except LimconeError as exc:
        return type(exc), None, None
    return None, detail.value, detail.fallback


def _functionals(d):
    """gap_1, gap_2, U1 and five chamber directions (d = 3); for d = 2 the
    one gap, a multiple of it and its negative (not in the dual cone)."""
    if d == 2:
        gap = Functional.gap(2, 1)
        return [gap, 2.5 * gap, -1.0 * gap]
    chamber = [Functional(np.cos(th) * _U1 + np.sin(th) * _U2)
               for th in np.deg2rad([-50.0, -30.0, -10.0, 20.0, 45.0])]
    return [Functional.gap(3, 1), Functional.gap(3, 2), Functional(_U1)] + chamber


def _no_positive_zero(n, lam):
    """The hook of test_no_positive_zero_falls_back_to_top_level: at
    n_max = 4 the cycle expansion has no real zero, so the root falls back."""
    return np.full(len(lam), 1.0 if n == 1 else 50.0 * n)


@pytest.mark.parametrize("spec", ["s2", "f3", "p3"] + _PERTURBED,
                         ids=lambda s: s if isinstance(s, str) else f"f3-{s[0]:g}-{s[1]}")
def test_agrees_with_chained_level_roots(request, f3, spec):
    # the cycle Newton from r_(N-3) lands where it lands from r_N
    # (measured: within 8.8e-13 relative); fallbacks and errors are the same
    rep = request.getfixturevalue(spec) if isinstance(spec, str) else perturb(f3, *spec)
    found = 0
    for phi in _functionals(rep.dim):
        err, value, fallback = _outcome(pressure_root_detail, rep, phi)
        want_err, want, want_fallback = _outcome(chained_root_detail, rep, phi)
        assert (err, fallback) == (want_err, want_fallback), phi.coeffs
        if err is None:
            assert value == pytest.approx(want, rel=1e-10, abs=0), phi.coeffs
            found += 1
    assert found >= 1


def test_fallback_is_the_chained_top_level_root(s2):
    # the fallback is r_N of the same chain, to the bit
    detail = pressure_root_detail(s2, None, n_max=4, weight_hook=_no_positive_zero)
    want = chained_root_detail(s2, None, n_max=4, weight_hook=_no_positive_zero)
    assert detail.fallback and want.fallback
    assert detail.value == want.value


@pytest.mark.parametrize("rep_name, coeffs", [("s2", [1.0, -1.0]), ("p3", [1.0, 0.0, -1.0])])
def test_top_level_summed_at_most_three_times(request, monkeypatch, rep_name, coeffs):
    # a root that does not fall back reads level N only in the cycle
    # Newton (measured: twice); building r_N as its start took 4
    rep = request.getfixturevalue(rep_name)
    summed = []
    level_sum = pressure._Weights.level_sum
    monkeypatch.setattr(pressure._Weights, "level_sum",
                        lambda w, n, t: summed.append(n) or level_sum(w, n, t))
    detail = pressure_root_detail(rep, Functional(coeffs), n_max=12)
    assert not detail.fallback
    assert 1 <= summed.count(12) <= 3


def test_higher_level_roots_built_only_for_the_fallback(s2, monkeypatch):
    solved = []
    level_root = pressure._Weights.level_root

    def recorded(w, n, start=0.0):
        solved.append(n)
        return level_root(w, n, start)

    monkeypatch.setattr(pressure._Weights, "level_root", recorded)
    assert not pressure_root_detail(s2, Functional([1.0, -1.0]), n_max=12).fallback
    assert solved == [9]
    solved.clear()
    assert pressure_root_detail(s2, None, n_max=4, weight_hook=_no_positive_zero).fallback
    assert solved == [1, 4]


def test_unbracketed_higher_level_root_does_not_stop_a_cycle_root(s2, monkeypatch):
    # r_(N-2), ..., r_N are not needed when the cycle Newton converges, so
    # their failing no longer raises; the chained roots did raise
    level_root = pressure._Weights.level_root

    def unbracketed_above(w, n, start=0.0):
        if n > 9:
            raise BracketFailureError(f"level-{n} injected")
        return level_root(w, n, start)

    phi = Functional([1.0, -1.0])
    want = pressure_root_detail(s2, phi)
    monkeypatch.setattr(pressure._Weights, "level_root", unbracketed_above)
    assert pressure_root_detail(s2, phi) == want
    with pytest.raises(BracketFailureError):
        chained_root_detail(s2, phi)


# ---------------------------------------------------------------------------
# the cycle expansion on floats against the array form it replaced
# ---------------------------------------------------------------------------

def _level_sums(rep, phi, t, n_max=12, weight_hook=None):
    w = pressure._Weights(rep, phi, n_max, weight_hook)
    return [w.level_sum(n, t) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("rep_name, coeffs", [
    ("s2", [1.0, -1.0]), ("p3", [1.0, -1.0, 0.0]), ("p3", [0.0, 1.0, -1.0]), ("p3", list(_U1)),
], ids=["s2-gap", "p3-gap1", "p3-gap2", "p3-U1"])
def test_cycle_pressure_matches_array_form(request, rep_name, coeffs):
    # value and slope (measured: within 9.7e-16) on t <= 1, where the roots
    # of these functionals lie; both forms agree with a 50-digit evaluation
    # there, and from t = 2 both lose up to 1e-12 of the slope to it
    rep = request.getfixturevalue(rep_name)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        sums = _level_sums(rep, Functional(coeffs), t)
        assert _cycle_pressure(sums) == pytest.approx(array_cycle_pressure(sums), rel=1e-14, abs=0), t


@pytest.mark.parametrize("n_max", [5, 8, 12])
def test_cycle_pressure_with_zero_top_coefficient(s2, n_max):
    # 1/zeta has degree 4, so c_N = 0 and the companion drops it
    for t in (0.0, 0.7, 2.0):
        sums = _level_sums(s2, None, t, n_max, word_length_weight)
        got = _cycle_pressure(sums)
        assert got == pytest.approx(array_cycle_pressure(sums), rel=1e-14, abs=0), t
        assert abs(got[0] - (LOG3 - t)) < 1e-12 and got[1] == pytest.approx(-1.0, rel=1e-12)


def test_cycle_pressure_without_positive_zero_is_none(s2):
    for t in (0.25, 0.5, 1.0):
        sums = _level_sums(s2, None, t, 4, _no_positive_zero)
        assert _cycle_pressure(sums) is None and array_cycle_pressure(sums) is None, t


@pytest.mark.parametrize("first", [(800.0, 1.0), (700.0, 1e10)], ids=["Z", "dZ"])
def test_cycle_pressure_overflow_is_none(first):
    # scaled Z_1 = exp(800) overflows; exp(700) does not, but its dZ_1 does
    sums = [first] + [(0.0, 1.0)] * 11
    assert _cycle_pressure(sums) is None and array_cycle_pressure(sums) is None
