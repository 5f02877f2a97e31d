"""Definition-level counting: the complete-threshold window, cone hulls,
the direct growth indicator and the precise-counting ratio table.

The estimators count only below the completeness cap; the oracles in
reference.py sort every value and read the whole element table, and the
two must agree bit for bit.

The word-length weight is the exact case, served as exact tables
(reference.weight_tables): on F_2 there are 2 * 3^m - 2 reduced words
of length 1..m, so the element count at threshold s is
2 * 3^floor(s) - 2 at every threshold the window admits, and the slope
tends to log 3.
"""

import tracemalloc

import numpy as np
import pytest

from limcone import (
    Functional,
    InsufficientDataError,
    InvalidParameterError,
    NotInDualConeError,
    OrbitCountTable,
    asymptotic_cone,
    critical_exponent_direct,
    growth_indicator_direct,
    limit_cone,
    orbit_count_ratio,
    perturb,
    sym_power_embed,
    word_length_weight,
    words,
)
from limcone import counting
from limcone.bulk import class_spectra, element_spectra
from reference import PairCocycle, growth_indicator, slope_fit

LOG3 = np.log(3.0)


@pytest.fixture
def element_estimate(s2, serve_weight):
    return critical_exponent_direct(s2, serve_weight(word_length_weight), 12, "element")


class TestCompleteWindow:
    def test_word_length_counts_exact(self, element_estimate):
        # the top threshold stays below (N + 1) * r_min = 13, where words
        # of length 13 (not enumerated) would start to count
        s = element_estimate.thresholds
        assert s.max() < 13
        assert np.array_equal(element_estimate.counts, 2 * 3 ** np.floor(s).astype(np.int64) - 2)

    def test_word_length_slope(self, s2, element_estimate):
        assert abs(element_estimate.value - LOG3) < 0.005
        conj = critical_exponent_direct(s2, Functional([1.0, -1.0]), 12, "conjugacy")
        assert conj.value < LOG3

    def test_unknown_mode_refused(self, s2):
        with pytest.raises(InvalidParameterError):
            critical_exponent_direct(s2, Functional.gap(2, 1), 8, "bogus")

    @pytest.mark.parametrize("mode", ["conjugacy", "element"])
    def test_functional_outside_dual_cone_refused(self, p3, mode):
        with pytest.raises(NotInDualConeError):
            critical_exponent_direct(p3, Functional([-1, 0, 1]), 8, mode)

    @pytest.mark.parametrize("mode", ["conjugacy", "element"])
    def test_nan_hook_weight_refused(self, s2, mode, serve_weight):
        def weight(n, W):           # NaN on the last item of the depth-8 table
            values = np.full(len(W), float(n))
            values[-1] = np.nan if n == 8 else n
            return values
        phi = serve_weight(weight)
        with pytest.raises(NotInDualConeError):
            critical_exponent_direct(s2, phi, 8, mode)

    @pytest.mark.parametrize("mode", ["conjugacy", "element"])
    def test_collapsed_grid_refused(self, p3, mode):
        # subnormal values put every threshold on one float: no slope to fit
        with pytest.raises(InsufficientDataError):
            critical_exponent_direct(p3, Functional([1e-320, 0.0, -1e-320]), 8, mode)

    @pytest.mark.parametrize("mode", ["conjugacy", "element"])
    def test_flat_count_has_zero_slope(self, p3, mode, serve_weight):
        # one value for every item: the grid spreads up to the cap, the count stays flat
        phi = serve_weight(lambda n, W: np.ones(len(W)))
        est = critical_exponent_direct(p3, phi, 8, mode)
        assert np.ptp(est.thresholds) > 0 and np.ptp(est.counts) == 0
        assert abs(est.value) < 1e-9


def per_row_cap(values, lengths):
    """The completeness cap from a length per row: (N + 1) * min(values / lengths)."""
    return (lengths.max() + 1) * float((values / lengths).min())


class TestCompletenessCap:
    @pytest.mark.parametrize("name", ["s2", "p3"])
    @pytest.mark.parametrize("mode", ["conjugacy", "element"])
    def test_level_cap_equals_per_row_cap(self, name, mode, request):
        rep = request.getfixturevalue(name)
        vectors, starts = counting._table(rep, 8, mode)
        if mode == "conjugacy":
            sizes = [len(class_spectra(rep, 8).jordan[n]) for n in range(1, 9)]
        else:
            sizes = [words.count_words(2, n) for n in range(1, 9)]
        lengths = np.repeat(np.arange(1.0, 9), sizes)
        for values in (vectors[:, 0] - vectors[:, 1], np.linalg.norm(vectors, axis=1)):
            assert counting._completeness_cap(values, starts) == per_row_cap(values, lengths)

    @pytest.mark.parametrize("name", ["s2", "p3"])
    def test_class_table_read_in_place(self, name, request):
        # the conjugacy table is the class table's own rows, not a concatenation
        rep = request.getfixturevalue(name)
        vectors, starts = counting._table(rep, 8, "conjugacy")
        cs = class_spectra(rep, 8)
        assert np.shares_memory(vectors, cs.jordan_rows) and vectors.shape == cs.jordan_rows.shape
        assert np.array_equal(starts, cs.starts)

    @pytest.mark.parametrize("N", [8, 10])
    @pytest.mark.parametrize("name, phi", [
        ("s2", [1.0, -1.0]), ("p3", [1.0, -1.0, 0.0]), ("p3", [0.0, 1.0, -1.0]),
        ("p3", [1.0, 0.0, -1.0]),
    ], ids=["s2-gap", "p3-gap1", "p3-gap2", "p3-l1-l3"])
    def test_class_cap_holds_one_level_deeper(self, name, phi, N, request):
        # the class cap is empirical, not proven: no class of length N + 1
        # lies below the cap of levels 1..N (measured at N = 8, 10 and 12)
        vectors, starts = counting._table(request.getfixturevalue(name), N + 1, "conjugacy")
        values = vectors @ np.array(phi)
        cap = counting._completeness_cap(values[:starts[N]], starts[:N + 1])
        assert values[starts[N]:].min() >= cap

    def test_uneven_levels(self):
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 300, 11)
        values = rng.uniform(0.1, 1.0, sizes.sum()) * np.repeat(np.arange(1.0, 12), sizes)
        lengths = np.repeat(np.arange(1.0, 12), sizes)
        starts = np.cumsum(np.concatenate([[0], sizes]))
        assert counting._completeness_cap(values, starts) == per_row_cap(values, lengths)


class TestCones:
    def test_symmetric_square_cone_is_a_ray(self, f3):
        cone = limit_cone(f3, 12)
        assert len(cone.hull) == 1
        assert cone.width < 1e-12

    def test_perturbed_cone_has_width(self, p3):
        cone = limit_cone(p3, 12)
        assert len(cone.hull) == 2
        assert cone.width > 0.01

    @pytest.mark.parametrize("floor, dropped", [(5.0, 12), (10.0, 184), (15.0, 2818)])
    def test_floor_drops_rows_from_the_hull(self, p3, floor, dropped):
        # the hull of the rows at or above the floor, read off the table
        # by a plain mask; the short rows it drops hold the outer ends
        lam = element_spectra(p3, 8).cartan
        kept = lam[np.sqrt((lam ** 2).sum(axis=1)) >= floor]
        t = counting.gap_slice_coord(kept)
        ends = kept[[np.argmin(t), np.argmax(t)]]
        cone = asymptotic_cone(p3, 8, floor)
        assert len(lam) - len(kept) == dropped
        assert cone.interval == (t.min(), t.max())
        assert np.array_equal(cone.hull, ends / np.abs(ends).sum(axis=1, keepdims=True))
        whole = asymptotic_cone(p3, 8, 1.0).interval
        assert whole[0] < cone.interval[0] and cone.interval[1] < whole[1]

    def test_floor_above_every_norm(self, p3):
        with pytest.raises(InsufficientDataError):
            asymptotic_cone(p3, 6, 1e6)

    @pytest.mark.parametrize("cone, rep_name, args", [
        (limit_cone, "p3", (3,)), (limit_cone, "d4", (6,)), (asymptotic_cone, "p3", (3, 1.0)),
        (asymptotic_cone, "p3", (8, 0.0)), (asymptotic_cone, "d4", (6, 1.0)),
        (asymptotic_cone, "p3", (8, np.nan)),
    ])
    def test_preconditions(self, s2, p3, cone, rep_name, args):
        rep = p3 if rep_name == "p3" else sym_power_embed(s2, 4)
        with pytest.raises(InvalidParameterError):
            cone(rep, *args)

    def test_d2_cone_has_zero_area(self, s2):
        # every d = 2 direction has gap coordinate 0: the interval is (0, 0)
        cone = limit_cone(s2, 8)
        assert cone.interval == (0.0, 0.0) and cone.cone_area() == 0.0


def simple_cycles(cocycle):
    """(F, lengths) of the simple cycles of the 4-state non-backtracking
    letter graph, one row per rotation: the 20 cyclically reduced words
    of length 1..4 whose letters are distinct (10 cycles).  A closed walk
    splits into simple cycles, so every class's F is a positive sum of
    their F values."""
    F, lengths = [], []
    for n in range(1, 5):
        W = words.word_level_array(2, n)
        keep = (W[:, -1] != (W[:, 0] ^ 1)) & np.array([len(set(w)) == n for w in W.tolist()])
        F.append(cocycle.values(W[keep], cyclic=True))
        lengths += [n] * int(keep.sum())
    return np.concatenate(F), np.array(lengths, dtype=float)


class TestPairCocycleExtremes:
    # PairCocycle(seed) served to p3.  Its gap coordinate and its mean per
    # letter along a class are weighted means of the simple cycles' (the
    # chamber keeps v1 - v3 and phi(F) positive), so the cone's ends and
    # the least class mean are simple-cycle values, all of length <= N.
    # Every extreme of seed 3 is a one-letter cycle, every one of seed 6
    # a two-letter cycle.
    @pytest.mark.parametrize("seed", [3, 6])
    @pytest.mark.parametrize("N", [6, 8, 10, 12])
    def test_limit_cone_is_the_simple_cycle_range(self, p3, serve_tables, N, seed):
        # measured: within 4.2e-17 (seed 3) and 0 (seed 6)
        cocycle = PairCocycle(seed)
        serve_tables(cocycle.tables)
        F, _ = simple_cycles(cocycle)
        assert len(F) == 20
        t = counting.gap_slice_coord(F)
        err = np.subtract(limit_cone(p3, N).interval, (t.min(), t.max()))
        assert np.abs(err).max() <= 1e-15, err

    @pytest.mark.parametrize("N", [8, 10])
    @pytest.mark.parametrize("phi", [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0],
                                     list(np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0))],
                             ids=["gap1", "gap2", "U1"])
    @pytest.mark.parametrize("seed", [3, 6])
    def test_class_cap_is_the_least_cycle_mean(self, p3, serve_tables, N, phi, seed):
        # measured: the cap within 2.4e-16 relative (seed 3) and 0 (seed 6)
        cocycle = PairCocycle(seed)
        serve_tables(cocycle.tables)
        F, lengths = simple_cycles(cocycle)
        want = (N + 1) * float((F @ phi / lengths).min())
        vectors, starts = counting._table(p3, N + 1, "conjugacy")
        values = vectors @ np.array(phi)
        cap = counting._completeness_cap(values[:starts[N]], starts[:N + 1])
        assert abs(cap - want) <= 1e-14 * want, (cap - want) / want
        # no class of length N + 1 lies below it
        assert values[starts[N]:].min() >= want * (1 - 1e-14)


class TestDirectIndicator:
    @pytest.mark.parametrize("v", [[2.0, 0.0, -2.0], [1.0, 0.0, 0.0], [np.nan] * 3,
                                   [np.nan, 1.0, 0.0]])
    def test_rejects_bad_direction(self, p3, v):
        with pytest.raises(InvalidParameterError):
            growth_indicator_direct(p3, np.array(v), 0.1, 8)

    @pytest.mark.parametrize("half_angle", [0.0, -0.1, np.pi / 4 + 1e-3])
    def test_rejects_bad_half_angle(self, p3, half_angle):
        v = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        with pytest.raises(InvalidParameterError):
            growth_indicator_direct(p3, v, half_angle, 8)

    @pytest.mark.parametrize("N", [1, 5])
    def test_rejects_short_length(self, p3, N):
        v = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        with pytest.raises(InvalidParameterError):
            growth_indicator_direct(p3, v, 0.15, N)

    def test_flat_count_is_neg_infinity(self, p3):
        # 48 projections lie in this thin cone, but the count is 2 at every
        # complete threshold: a zero slope there is no growth rate
        v = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert growth_indicator_direct(p3, v, 1e-4, 8).value is counting.NEG_INFINITY

    def test_growing_count_keeps_its_slope(self, p3):
        v = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert growth_indicator_direct(p3, v, 0.15, 8).value == pytest.approx(
            0.560564081659187, rel=1e-12)



class TestOrbitCountRatio:
    @pytest.fixture(scope="class")
    def table(self, s2):
        return orbit_count_ratio(s2, 1, 8)

    def test_h_is_the_element_exponent(self, s2, table):
        assert table.h == critical_exponent_direct(s2, Functional.gap(2, 1), 8, "element").value

    def test_thresholds_below_class_gap_cap(self, s2, table):
        cs = class_spectra(s2, 8)
        lam = np.concatenate([cs.jordan[n] for n in range(1, 9)])
        lengths = np.concatenate([np.full(len(cs.jordan[n]), n) for n in range(1, 9)])
        cap = 9 * ((lam[:, 0] - lam[:, 1]) / lengths).min()
        assert len(table.thresholds) > 0 and (table.thresholds < cap).all()

    def test_ratios_finite_positive(self, table):
        assert np.isfinite(table.ratios).all() and (table.ratios > 0).all()

    def test_short_table_has_no_trend(self):
        assert OrbitCountTable(np.arange(2.0), np.ones(2), 1.0).trend_toward_one() is False


U1 = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
U2 = np.array([-1.0, 2.0, -1.0]) / np.sqrt(6.0)


def plane_direction(theta):
    return np.cos(theta) * U1 + np.sin(theta) * U2


@pytest.fixture(scope="module", params=[(name, N) for name in ("s2", "p3", "f3_0.03_7", "f3_0.08_3")
                                        for N in (8, 12)], ids=lambda p: f"{p[0]}-N{p[1]}")
def window_case(request):
    """(rep, N); f3_eps_seed stands for perturb(f3, eps, seed)."""
    name, N = request.param
    if name.startswith("f3_"):
        _, eps, seed = name.split("_")
        rep = perturb(request.getfixturevalue("f3"), float(eps), int(seed))
    else:
        rep = request.getfixturevalue(name)
    return rep, N


def lonely_cone(es):
    """(v, half_angle): a cone around a row at or above the cap that holds
    no row below it, so every row it holds is past the complete window."""
    norms = np.sqrt(np.einsum("ij,ij->i", es.cartan, es.cartan))
    cap = counting._completeness_cap(norms, es.starts)
    angle = np.arctan2(es.cartan @ U2, es.cartan @ U1)
    window = np.sort(angle[norms < cap])
    above = np.flatnonzero(norms >= cap)
    i = np.searchsorted(window, angle[above]).clip(1, len(window) - 1)
    gap = np.minimum(np.abs(window[i] - angle[above]), np.abs(window[i - 1] - angle[above]))
    j = int(np.argmax(gap))
    return plane_direction(angle[above[j]]), gap[j] / 4


class TestWindowMatchesFullTable:
    @pytest.mark.parametrize("mode", ["conjugacy", "element"])
    def test_exponent(self, window_case, mode):
        rep, N = window_case
        # lambda_1 - lambda_d: the middle gaps vanish on a class of (0.08, 3)
        phi = Functional(np.eye(rep.dim)[0] - np.eye(rep.dim)[-1])
        est = critical_exponent_direct(rep, phi, N, mode)
        vectors, starts = counting._table(rep, N, mode)
        values = vectors @ phi.coeffs
        value, std_error, thresholds, counts = slope_fit(
            values, counting._completeness_cap(values, starts))
        assert est.value == value and est.std_error == std_error
        assert np.array_equal(est.thresholds, thresholds) and np.array_equal(est.counts, counts)

    def test_indicator(self, window_case):
        rep, N = window_case
        if rep.dim == 2:
            u = np.array([1.0, -1.0]) / np.sqrt(2.0)
            counted, empty = [(u, 0.15), (u, 1e-4)], [(-u, 0.15)]
        else:
            counted = [(plane_direction(t), a) for t in (0.0, -0.05, 0.05) for a in (0.15, 0.05, 1e-4)]
            empty = [(-U1, 0.15), lonely_cone(element_spectra(rep, N))]
        cones = counted + empty
        got = [growth_indicator_direct(rep, v, a, N).value for v, a in cones]
        assert got == [growth_indicator(rep, v, a, N) for v, a in cones]
        assert isinstance(got[0], float)
        # no row below the cap lies in these cones: nothing to count
        assert all(g is counting.NEG_INFINITY for g in got[len(counted):])
        if rep.dim == 3:        # the lonely cone holds rows, all at or above the cap
            v, a = empty[-1]
            cartan = element_spectra(rep, N).cartan
            assert (cartan @ v >= np.cos(a) * np.linalg.norm(cartan, axis=1)).any()

    def test_orbit_count_ratio(self, window_case):
        rep, N = window_case
        lam, starts = counting._table(rep, N, "conjugacy")
        gaps = lam[:, 0] - lam[:, 1]
        if gaps.min() <= 0:
            with pytest.raises(NotInDualConeError):
                orbit_count_ratio(rep, 1, N)
            return
        table = orbit_count_ratio(rep, 1, N)
        ts = counting._threshold_grid(float(gaps.min()), counting._completeness_cap(gaps, starts),
                                      counting._RATIO_POINTS)
        counts = np.searchsorted(np.sort(gaps), ts, side="right")
        assert np.array_equal(table.thresholds, ts)
        assert np.array_equal(table.ratios, table.h * ts * np.exp(-table.h * ts) * counts)

    def test_norm_window(self, window_case):
        rep, N = window_case
        es = element_spectra(rep, N)
        cap, rows, norms = counting._norm_window(rep, N)
        full = np.sqrt(np.einsum("ij,ij->i", es.cartan, es.cartan))
        below = full < counting._completeness_cap(full, es.starts)
        assert cap == counting._completeness_cap(full, es.starts)
        assert np.array_equal(rows, es.cartan[below]) and np.array_equal(norms, full[below])
        assert 0 < len(rows) < len(es.cartan)
        assert counting._norm_window(rep, N) is counting._norm_window(rep, N)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWindowMemory:
    def test_warm_indicator(self, p3):
        # tracemalloc peak of a second indicator call at N = 12: 35.1 MB
        # over the whole table, 0.29 MB on the window (17.0 MB for the
        # first call, which builds the window)
        growth_indicator_direct(p3, U1, 0.15, 12)
        peak = traced_peak(lambda: growth_indicator_direct(p3, U1, 0.15, 12))
        assert peak < 2e6, peak / 1e6

    def test_element_exponent(self, p3):
        # 17.0 MB sorting every value, 9.6 MB sorting those up to the top threshold
        element_spectra(p3, 12)
        peak = traced_peak(lambda: critical_exponent_direct(p3, Functional.gap(3, 1), 12, "element"))
        assert peak < 12e6, peak / 1e6
