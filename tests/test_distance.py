import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaknn import (DistanceSpec, ModelSpec, cross_matrix, dissimilarity, distance, neighbors,
                     pairwise_matrix)
from metaknn.distance import (CAMBERRA, CHEBYSHEV, MINKOWSKI, _folded_scale, _scaled_term,
                              accumulate, column_terms, distance_sums, feature_terms, multipliers,
                              pair_sum, sum_into, term_key, term_scale)

from conftest import ALL_KINDS, make_dataset, random_dataset


def scale_of(spec, *rows):
    return term_scale(term_key(spec.kind, spec.alpha), np.vstack(rows))


def at_scale(spec, x, y, scale):
    """dissimilarity(spec, x, y) with its terms stored at the scale of a set
    of reference rows, as pairwise_matrix and cross_matrix store them."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    factors, _, unit = multipliers(spec.resolved_weights(len(x)))
    key = term_key(spec.kind, spec.alpha)
    # by the scale, then by the unit, as the library divides: scale * unit can overflow
    return pair_sum(spec.kind, key, x.tolist(), y.tolist(), scale, factors.tolist()) / scale / unit


def naive(spec, x, y, scale):
    """Independent scalar oracle: textbook terms rounded to the scale, and
    decimal weights, combined as exact rationals and rounded once."""
    w = spec.weights if spec.weights is not None else np.ones(len(x))
    terms = []
    for j in range(len(x)):
        d = abs(x[j] - y[j])
        if spec.kind == MINKOWSKI and spec.alpha == 2:
            d = d * d
        elif spec.kind == CAMBERRA:
            denom = abs(x[j]) + abs(y[j])
            d = d / denom if denom != 0 else 0.0
        terms.append(Fraction(w[j]).limit_denominator(1000) * int(np.rint(d * scale)))
    total = max([Fraction(0)] + terms) if spec.kind == CHEBYSHEV else sum(terms)
    return float(total / Fraction(scale))


class TestDissimilarity:
    def test_euclidean_squared_example(self):
        assert dissimilarity(DistanceSpec(MINKOWSKI, 2), [0, 0], [3, 4]) == 25.0

    def test_identity_all_kinds(self):
        x = np.array([1.5, -2.0, 0.0])
        for kind, alpha in ALL_KINDS:
            assert dissimilarity(DistanceSpec(kind, alpha), x, x) == 0.0

    def test_camberra_example(self):
        assert dissimilarity(DistanceSpec(CAMBERRA), [1.0], [3.0]) == 0.5

    def test_weighted_manhattan_example(self):
        spec = DistanceSpec(MINKOWSKI, 1, weights=[0.5, 0.0])
        assert dissimilarity(spec, [2, 7], [0, 1]) == 1.0

    def test_chebyshev(self):
        assert dissimilarity(DistanceSpec(CHEBYSHEV), [0, 0], [3, -4]) == 4.0

    def test_camberra_zero_over_zero(self):
        assert dissimilarity(DistanceSpec(CAMBERRA), [0.0, 1.0], [0.0, 3.0]) == 0.5

    def test_minkowski_no_root(self):
        # values stay in the power domain for alpha=2
        assert dissimilarity(DistanceSpec(MINKOWSKI, 2), [0.0], [3.0]) == 9.0

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            DistanceSpec(MINKOWSKI, 3)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DistanceSpec(MINKOWSKI, 2, weights=[-1.0])

    def test_tiny_weights_keep_their_distance(self):
        # scale * unit overflows here (the unit is 1e300): divide by each in turn
        spec = DistanceSpec(weights=np.array([1e-300, 1e-300]))
        expected = pytest.approx(2e-300, rel=1e-12, abs=0)
        assert dissimilarity(spec, [0.0, 0.0], [1.0, 1.0]) == expected
        ds = make_dataset([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        assert pairwise_matrix(spec, ds)[0, 1] == expected
        assert neighbors(ModelSpec(distance=spec), ds, [0.0, 0.0], exclude=0) == [(1, expected)]
        x, y = [0.0, 0.0], [1.0, 1.0]
        assert at_scale(spec, x, y, scale_of(spec, x, y)) == dissimilarity(spec, x, y) == expected

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dissimilarity(DistanceSpec(MINKOWSKI, 2, weights=[1.0]), [1, 2], [3, 4])


class TestPairwiseMatrix:
    def test_single_row(self):
        ds = make_dataset([[1.0, 2.0]], [0], n_classes=2)
        assert np.array_equal(pairwise_matrix(DistanceSpec(), ds), [[0.0]])

    def test_two_row_manhattan(self):
        ds = make_dataset([[0.0], [2.0]], [0, 1])
        got = pairwise_matrix(DistanceSpec(MINKOWSKI, 1), ds)
        assert np.array_equal(got, [[0, 2], [2, 0]])

    def test_matches_naive_double_loop_exactly(self, monks1):
        rng = np.random.default_rng(7)
        data = monks1.train
        rows = rng.choice(data.n, size=12, replace=False)
        sub = make_dataset(data.vectors[rows], data.labels[rows])
        for kind, alpha in ALL_KINDS:
            w = np.round(rng.random(6), 1)
            spec = DistanceSpec(kind, alpha, weights=w)
            got = pairwise_matrix(spec, sub)
            scale = scale_of(spec, sub.vectors)
            for p in range(sub.n):
                for q in range(sub.n):
                    x, y = sub.vectors[p], sub.vectors[q]
                    assert got[p, q] == at_scale(spec, x, y, scale)
                    assert got[p, q] == naive(spec, x, y, scale)

    def test_cross_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        a = random_dataset(rng, max_n=8)
        b = make_dataset(rng.normal(size=(5, a.n_features)), [0, 1, 0, 1, 0])
        for kind, alpha in ALL_KINDS:
            spec = DistanceSpec(kind, alpha)
            got = cross_matrix(spec, a, b)
            scale = scale_of(spec, b.vectors)  # the scale of the reference rows
            for p in range(a.n):
                for q in range(b.n):
                    assert got[p, q] == at_scale(spec, a.vectors[p], b.vectors[q], scale)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng)
        for kind, alpha in ALL_KINDS:
            m = pairwise_matrix(DistanceSpec(kind, alpha), ds)
            assert np.array_equal(m, m.T)
            assert np.all(np.diag(m) == 0.0)
            assert np.all(m >= 0.0)


# the largest magnitude whose terms stay finite, to a power of two: a span
# of 2**1023 (2 * |x| for Camberra), or a span of 2**511 squared to 2**1022
TERM_LIMITS = {"abs": 2.0 ** 1022, "sq": 2.0 ** 510, "cam": 2.0 ** 1022}


@st.composite
def term_operands(draw, limit):
    """Two vectors of values up to limit, with zeros of both signs, subnormals,
    the limit itself and entries of the first vector in the second."""
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, limit, -limit])
    values = st.one_of(special, st.floats(-limit, limit), st.floats(-10, 10))
    a = draw(st.lists(values, min_size=1, max_size=6))
    b = draw(st.lists(st.one_of(values, st.sampled_from(a)), min_size=1, max_size=6))
    return np.array(a), np.array(b)


# the row blocks of an 800-wide matrix, of a 200-row Ionosphere one, and of
# Monk's 432 test rows against 124 training rows
BLOCK_SHAPES = [(81, 800), (200, 200), (432, 124)]


@st.composite
def block_operands(draw, m: int, n: int, limit: float):
    """Two random vectors of m and n values up to limit, some shared, with the
    special values of term_operands spliced in.  A large offset over a small
    spread makes a column of large magnitude, which the folded power of two
    could overflow; a large spread, or the limit spliced in, a scale below 1;
    a tiny spread, a square scale above 2**1020."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.sampled_from([2.0 ** -530, 2.0 ** -512, 1e-3, 3.0, 1e3, limit / 4]))
    offset = draw(st.sampled_from([0.0, 1.0, limit / 2, -limit / 2]))
    a, b = (np.clip(offset + spread * np.round(rng.normal(size=size), 3), -limit, limit)
            for size in (m, n))
    shared = rng.integers(0, m, n // 4)
    b[rng.integers(0, n, len(shared))] = a[shared]  # zero differences
    special = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022] + draw(
        st.sampled_from([[], [limit, -limit]]))
    special = st.sampled_from(special)
    for vector, size in ((a, m), (b, n)):
        for i, value in draw(st.lists(st.tuples(st.integers(0, size - 1), special),
                                      max_size=6)):
            vector[i] = value
    return a, b


def subtracted_terms(a, b, key: str, scale: float) -> np.ndarray:
    """Scaled terms by the formula feature_terms used before its rank-2
    products: each row filled with a's entry, b subtracted, the square or abs,
    Camberra's division, the scale, then rint."""
    t = np.empty((len(a), len(b)))
    t[...] = a[:, None]
    t -= b
    if key == "sq":
        np.multiply(t, t, out=t)
    else:
        np.abs(t, out=t)
    if key == "cam":
        s = np.empty_like(t)
        s[...] = np.abs(a)[:, None]
        s += np.abs(b)
        t /= np.maximum(s, math.ulp(0.0), out=s)
    t *= scale
    return np.rint(t, out=t)


class TestFeatureTerms:
    @pytest.mark.parametrize("key", list(TERM_LIMITS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_entry_is_the_scalar_term(self, key, data):
        a, b = data.draw(term_operands(TERM_LIMITS[key]))
        scale = term_scale(key, np.concatenate([a, b])[:, None])
        want = b"".join(np.float64(_scaled_term(x, y, key, scale)).tobytes()
                        for x in a.tolist() for y in b.tolist())
        assert feature_terms(a, b, key, scale).tobytes() == want
        out = np.full((len(a), len(b)), np.nan)
        for _ in range(2):  # into a NaN-filled buffer, then into the same buffer again
            assert feature_terms(a, b, key, scale, out) is out
            assert out.tobytes() == want

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    @pytest.mark.parametrize("key", list(TERM_LIMITS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_block_shapes_match_the_subtracting_formula(self, shape, key, data):
        # BLAS picks other kernels at block shapes than at the oracle's few
        # entries: every entry must still be the fill-subtract-scale formula's
        a, b = data.draw(block_operands(*shape, TERM_LIMITS[key]))
        scale = term_scale(key, np.concatenate([a, b])[:, None])
        want = subtracted_terms(a, b, key, scale).tobytes()
        assert feature_terms(a, b, key, scale).tobytes() == want
        out = np.full(shape, np.nan)
        denominators = np.full(out.size, np.nan)
        assert feature_terms(a, b, key, scale, out, denominators).tobytes() == want

    def test_the_folded_power_of_two(self):
        # p is the scale, or the square root of its even part for squares, unless
        # p * x could overflow, the scale is below 1 or above 2**1020, or it is
        # no power of two; p = 1 is the subtracting formula itself
        ones = np.ones(3)
        assert _folded_scale("abs", 2.0 ** 30, ones, ones) == 2.0 ** 30
        assert _folded_scale("cam", 2.0 ** 30, ones, ones) == 2.0 ** 30
        assert _folded_scale("sq", 2.0 ** 30, ones, ones) == 2.0 ** 15
        assert _folded_scale("sq", 2.0 ** 31, ones, ones) == 2.0 ** 15
        assert _folded_scale("sq", 2.0 ** -3, ones, ones) == 1.0
        assert _folded_scale("sq", 2.0 ** 1021, ones, ones) == 1.0
        assert _folded_scale("abs", 2.0 ** -1, ones, ones) == 1.0
        assert _folded_scale("abs", 3.0, ones, ones) == 1.0
        big = np.full(3, 2.0 ** 1000)  # a constant column: its span sets no bound
        assert _folded_scale("abs", 2.0 ** 30, ones, big) == 1.0
        assert _folded_scale("cam", 2.0 ** 30, -big, ones) == 1.0
        assert _folded_scale("abs", 2.0 ** 22, ones, big) == 2.0 ** 22
        assert _folded_scale("abs", 2.0 ** 23, ones, big) == 1.0  # 2 * p * 2**1000 overflows

    def test_a_subnormal_square_is_rounded_as_the_scalar_loop_rounds_it(self):
        # d * d is subnormal here and loses its last bit, which the scale 2**1023
        # makes worth 1: a folded p = 2**511 would square p * d without that loss
        a, b = np.array([float.fromhex("0x1.bb67ae8584caap-512"), 0.0]), np.zeros(1)
        scale = term_scale("sq", np.concatenate([a, b])[:, None])
        assert scale == 2.0 ** 1023
        want = [_scaled_term(x, 0.0, "sq", scale) for x in a.tolist()]
        assert want == [2.0, 0.0]
        assert feature_terms(a, b, "sq", scale).ravel().tolist() == want

    def test_a_whole_column_is_never_one_tall_product(self, monkeypatch):
        # a 600-row column is built by one feature_terms call, in products of
        # at most one row block each: one tall product would be threaded by BLAS
        rng = np.random.default_rng(14)
        x = np.round(rng.normal(size=600) * 3, 3)
        rows = distance.block_rows(600)
        assert rows < 600
        products, builds = [], []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda left, right, out: (
            products.append(left.shape[0]) or matmul(left, right, out=out)))
        monkeypatch.setattr(distance, "feature_terms", lambda *args: (
            builds.append(args) or feature_terms(*args)))
        for key in TERM_LIMITS:
            products.clear()
            builds.clear()
            scale = term_scale(key, x[:, None])
            got = column_terms(x[:, None], x[:, None], 0, key, scale, {})
            assert len(builds) == 1
            assert max(products) == rows
            assert sum(products) == 600 * (1 + (key == "cam"))  # and the denominators
            assert got.tobytes() == subtracted_terms(x, x, key, scale).tobytes()


DRAWS = [False, True, "unit"]  # random_factors' draws; a draw's index seeds its tests


def random_factors(rng, width: int, exact):
    """Random active columns of a width and their multipliers: on the tenths
    grid (exact True), off-grid (False) or all 1 ("unit")."""
    mask = rng.random(width) < 0.7
    mask[rng.choice(width, 2, replace=False)] = True  # two off-grid weights stay off-grid
    columns = np.flatnonzero(mask)
    if exact == "unit":
        w = np.ones(len(columns))
    else:
        w = rng.integers(0, 11, len(columns)) / 10 if exact else rng.random(len(columns))
    factors, den, _ = multipliers(w)
    assert (den is not None) == bool(exact)
    return columns, factors


class TestDistanceSums:
    """The row-blocked kernel, with blocks of a few rows: ragged and many."""

    @pytest.mark.parametrize("kind, factors", [(MINKOWSKI, [1, -1, 3, 1]), (CHEBYSHEV, [1, 2])])
    def test_sum_into_multiplies_only_other_factors(self, kind, factors):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(6, len(factors)))
        scale = term_scale("abs", a)
        terms = [feature_terms(a[:, j], a[:, j], "abs", scale) for j in range(len(factors))]
        start = rng.integers(0, 2 ** 20, (6, 6)).astype(float)  # as a delta's last matrix
        ref = start
        for f, t in zip(factors, terms):
            ref = np.maximum(ref, f * t) if kind == CHEBYSHEV else ref + f * t
        # a factor of 1 or -1 combines the term matrix itself: a NaN product never shows
        product = np.full((6, 6), np.nan)
        assert sum_into(start.copy(), product, kind, terms, factors).tobytes() == ref.tobytes()
        assert sum_into(start.copy(), None, kind, terms, factors).tobytes() == ref.tobytes()
        product = np.full((6, 6), np.nan)
        unit = [i for i, f in enumerate(factors) if abs(f) == 1]
        sum_into(start.copy(), product, kind, [terms[i] for i in unit], [factors[i] for i in unit])
        assert np.isnan(product).all()

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("exact", DRAWS)
    @pytest.mark.parametrize("kind, alpha", ALL_KINDS)
    def test_blocks_match_one_accumulate(self, monkeypatch, rows, exact, kind, alpha):
        rng = np.random.default_rng([rows, DRAWS.index(exact), ALL_KINDS.index((kind, alpha))])
        key = term_key(kind, alpha)
        for _ in range(5):
            width = int(rng.integers(2, 9))
            a = np.round(rng.normal(size=(int(rng.integers(2 * rows + 1, 31)), width)) * 3, 3)
            b = np.round(rng.normal(size=(int(rng.integers(2, 20)), width)) * 3, 3)
            scale = term_scale(key, b, queries=a)
            columns, factors = random_factors(rng, width, exact)
            whole = [feature_terms(a[:, j], b[:, j], key, scale) for j in columns]
            one = accumulate(kind, whole, factors, (len(a), len(b)))
            # some columns come from the cache, the rest are built whole into it;
            # without a cache, every column is built per block
            cache = {j: t for j, t in zip(columns, whole) if rng.random() < 0.5}
            monkeypatch.setattr(distance, "BLOCK_BYTES", 8 * len(b) * rows)
            for given in (None, cache):
                got = distance_sums(kind, key, scale, a, b, columns, factors, given)
                assert got.tobytes() == one.tobytes()
            assert sorted(cache) == list(columns)
            assert all(cache[j].tobytes() == t.tobytes() for j, t in zip(columns, whole))
            for p, q in zip(rng.integers(0, len(a), 10), rng.integers(0, len(b), 10)):
                assert got[p, q] == pair_sum(kind, key, a[p, columns].tolist(),
                                             b[q, columns].tolist(), scale, factors.tolist())

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("exact", DRAWS)
    @pytest.mark.parametrize("kind, alpha", ALL_KINDS)
    def test_rows_against_themselves_build_one_triangle(self, monkeypatch, rows, exact, kind,
                                                        alpha):
        rng = np.random.default_rng([rows, DRAWS.index(exact), ALL_KINDS.index((kind, alpha)), 1])
        key = term_key(kind, alpha)
        for _ in range(5):
            width = int(rng.integers(2, 9))
            a = np.round(rng.normal(size=(int(rng.integers(2 * rows + 1, 31)), width)) * 3, 3)
            n = len(a)
            scale = term_scale(key, a)
            columns, factors = random_factors(rng, width, exact)
            whole = [feature_terms(a[:, j], a[:, j], key, scale) for j in columns]
            one = accumulate(kind, whole, factors, (n, n)).tobytes()
            cache = {j: t for j, t in zip(columns, whole) if rng.random() < 0.5}
            monkeypatch.setattr(distance, "BLOCK_BYTES", 8 * n * rows)
            built = []
            monkeypatch.setattr(distance, "feature_terms",
                                lambda *args: built.append(args[0].size * args[1].size)
                                or feature_terms(*args))
            # b is a: each block builds and sums its rows against columns r: only
            assert distance_sums(kind, key, scale, a, a, columns, factors).tobytes() == one
            trapezoid = sum(min(rows, n - r) * (n - r) for r in range(0, n, rows))
            assert sum(built) == len(columns) * trapezoid
            assert distance_sums(kind, key, scale, a, a, columns, factors, cache).tobytes() == one
            assert sorted(cache) == list(columns)
            # b a copy of a: the general path, every block against every row
            assert distance_sums(kind, key, scale, a, a.copy(), columns, factors).tobytes() == one

    @pytest.mark.parametrize("rows", [3, 12])  # several blocks, and one
    def test_a_cache_is_read_and_filled(self, monkeypatch, rows):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(12, 4))
        scale = term_scale("abs", a)
        whole = {j: feature_terms(a[:, j], a[:, j], "abs", scale) for j in (1, 3)}
        monkeypatch.setattr(distance, "BLOCK_BYTES", 8 * 12 * rows)
        calls = []
        monkeypatch.setattr(distance, "feature_terms",
                            lambda *args: calls.append(args[2:]) or feature_terms(*args))
        cache = {1: whole[1]}
        got = distance_sums(MINKOWSKI, "abs", scale, a, a, [1, 3], np.ones(2), cache)
        assert calls == [("abs", scale)] and sorted(cache) == [1, 3]  # column 3, built once
        assert cache[3].tobytes() == whole[3].tobytes()
        assert got.tobytes() == accumulate(MINKOWSKI, (whole[1], whole[3]), np.ones(2),
                                           (12, 12)).tobytes()

    @pytest.mark.parametrize("weights", ["unit", "tenths"])
    @pytest.mark.parametrize("kind, alpha", ALL_KINDS)
    def test_one_block_streams_through_one_buffer(self, monks1, monkeypatch, kind, alpha,
                                                  weights):
        # a matrix of one block is the loop's single block: without a cache,
        # every column is built into one buffer of the matrix's shape, which
        # is also the product, so a factor other than 1 multiplies it in place
        b, a = monks1.train.vectors, monks1.test.vectors
        assert distance.block_rows(len(b)) >= len(a)
        key = term_key(kind, alpha)
        scale = term_scale(key, b, queries=a)
        columns = range(b.shape[1])
        w = np.ones(len(columns)) if weights == "unit" else np.array([0.1, 0.3, 1, 0.7, 0.5, 0.9])
        factors, den, _ = multipliers(w)
        assert den == {"unit": 1, "tenths": 10}[weights]
        one = accumulate(kind, (feature_terms(a[:, j], b[:, j], key, scale) for j in columns),
                         factors, (len(a), len(b))).tobytes()
        outs, products, denominators = [], [], []

        def spy_terms(x, y, key, scale, out=None, spare=None):
            outs.append(out)
            denominators.append(spare)
            return feature_terms(x, y, key, scale, out, spare)

        def spy_sum(out, product, *args):
            products.append(product)
            return sum_into(out, product, *args)

        monkeypatch.setattr(distance, "feature_terms", spy_terms)
        monkeypatch.setattr(distance, "sum_into", spy_sum)
        tracemalloc.start()
        try:
            got = distance_sums(kind, key, scale, a, b, columns, factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == one
        assert len(outs) == len(columns) and len(products) == 1
        assert products[0].shape == (len(a), len(b))
        assert all(out is products[0] for out in outs)
        # Camberra's denominators go to one second buffer, reused by every column
        assert all(d is denominators[0] for d in denominators)
        assert (denominators[0] is not None) == (key == "cam")
        # the sum and the term buffer, and Camberra's denominator: no product buffer
        assert peak < (2.5 + (key == "cam")) * got.nbytes
        outs.clear()  # a cache takes each column whole, built with no buffer
        products.clear()
        cache = {}
        got = distance_sums(kind, key, scale, a, b, columns, factors, cache)
        assert got.tobytes() == one
        assert outs == [None] * len(columns)
        # and its terms are multiplied into a buffer of their own, never into the cache
        assert not any(np.shares_memory(products[0], t) for t in cache.values())

    @pytest.mark.parametrize("kind, alpha", ALL_KINDS)
    def test_blocked_cross_matrix_matches_scalar(self, monkeypatch, kind, alpha):
        rng = np.random.default_rng([9, ALL_KINDS.index((kind, alpha))])
        a = random_dataset(rng, max_n=25)
        b = make_dataset(rng.normal(size=(9, a.n_features)), [0, 1, 0, 1, 0, 1, 0, 1, 0])
        spec = DistanceSpec(kind, alpha, rng.integers(1, 11, a.n_features) / 10)
        monkeypatch.setattr(distance, "BLOCK_BYTES", 8 * b.n * 2)
        got = cross_matrix(spec, a, b)
        scale = scale_of(spec, b.vectors)
        for p in range(a.n):
            for q in range(b.n):
                assert got[p, q] == at_scale(spec, a.vectors[p], b.vectors[q], scale)


finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)


class TestMetricProperties:
    @given(vec3, vec3)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_nonnegativity(self, x, y):
        for kind, alpha in ALL_KINDS:
            spec = DistanceSpec(kind, alpha)
            d = dissimilarity(spec, x, y)
            assert d >= 0.0
            assert d == dissimilarity(spec, y, x)

    @given(vec3, vec3, vec3)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        # holds for the true metrics; squared Euclidean is excluded by design.
        # At one scale, rounding each term to the scale can break it by at
        # most one unit of the scale per feature.
        for kind, alpha in ((MINKOWSKI, 1), (CHEBYSHEV, None), (CAMBERRA, None)):
            spec = DistanceSpec(kind, alpha)
            scale = scale_of(spec, x, y, z)
            dxz = at_scale(spec, x, z, scale)
            dxy = at_scale(spec, x, y, scale)
            dyz = at_scale(spec, y, z, scale)
            assert dxz <= dxy + dyz + len(x) / scale + 1e-9

    @given(vec3, vec3, st.sampled_from([0.01, 3.0, 1000.0]))
    @example(x=np.array([0.0, 0.0, 0.0]), y=np.array([0.0, 0.0, 9.3e-149]), c=0.01)
    @settings(max_examples=100, deadline=None)
    def test_weight_scaling_scales_distance(self, x, y, c):
        base = np.array([1.0, 0.5, 2.0])
        for kind, alpha in ALL_KINDS:
            d1 = dissimilarity(DistanceSpec(kind, alpha, weights=base), x, y)
            d2 = dissimilarity(DistanceSpec(kind, alpha, weights=c * base), x, y)
            assert d2 == pytest.approx(c * d1, rel=1e-12, abs=1e-300)

    @given(vec3, vec3)
    @settings(max_examples=100, deadline=None)
    def test_zero_weight_equals_feature_deletion(self, x, y):
        w = np.array([1.0, 0.0, 0.7])
        keep = [0, 2]
        for kind, alpha in ALL_KINDS:
            spec = DistanceSpec(kind, alpha, weights=w)
            scale = scale_of(spec, x, y)  # both at the scale of the full rows
            full = at_scale(spec, x, y, scale)
            cut = at_scale(DistanceSpec(kind, alpha, weights=w[keep]), x[keep], y[keep], scale)
            assert full == cut


class TestMultipliers:
    def test_nonzero_weight_is_never_a_zero_factor(self):
        # a weight within the grid tolerance of 0 once matched 0/1, which
        # dropped its column; whether it did depended on the other weights
        for w in ([1.0, 1e-10], [1e-10, 1.0], [1e-10, 1e-10], [1e-10, 1 / 3], [0.0, 1e-10]):
            factors, _, _ = multipliers(np.array(w))
            assert np.array_equal(factors > 0, np.array(w) > 0)

    @pytest.mark.parametrize("c", [1e-10, 3e-7, 1 / 3, 12345.678, 1e300])
    def test_rescaled_grid_weights_keep_proportional_integers(self, c):
        w = np.array([0.0, 0.3, 0.6, 1.0, 0.25])
        f1, d1, _ = multipliers(w)
        f2, d2, u2 = multipliers(w * c)
        assert d1 is not None and d2 is not None
        assert np.array_equal(f1 * f2.max(), f2 * f1.max())
        assert np.allclose(f2 / u2, w * c, rtol=1e-9, atol=0)

    def test_negative_zero_weight_is_a_zero_factor(self):
        # the memo is keyed on the bytes of the weights, which tell -0.0 from 0.0
        plus, minus = multipliers(np.array([0.0, 1.0])), multipliers(np.array([-0.0, 1.0]))
        assert plus[0].tobytes() == minus[0].tobytes()
        assert plus[1:] == minus[1:]

    def test_callers_leave_the_memoised_factors_alone(self):
        # each call derives its factors afresh, and nothing a call leaves
        # behind changes the next: repeated calls give the same outputs
        ds = random_dataset(np.random.default_rng(21))
        w = np.linspace(0.1, 1.0, ds.n_features)
        model = ModelSpec(k=2, distance=DistanceSpec(MINKOWSKI, 1, w))
        outputs = []
        for _ in range(3):
            outputs.append((dissimilarity(model.distance, ds.vectors[0], ds.vectors[1]),
                            cross_matrix(model.distance, ds, ds).tobytes(),
                            neighbors(model, ds, ds.vectors[2], exclude=2)))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_off_grid_factors_are_at_most_one(self):
        # a power of two keeps huge weights' products with scaled terms finite
        w = np.array([1e300, 1e300, 0.2])
        factors, den, unit = multipliers(w)
        assert den is None and factors.max() <= 1
        assert np.array_equal(factors / unit, w)
