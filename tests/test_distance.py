from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaknn import DistanceSpec, cross_matrix, dissimilarity, pairwise_matrix
from metaknn.distance import (CAMBERRA, CHEBYSHEV, MINKOWSKI, multipliers, pair_sum, term_key,
                              term_scale)

from conftest import ALL_KINDS, make_dataset, random_dataset


def scale_of(spec, *rows):
    return term_scale(term_key(spec.kind, spec.alpha), np.vstack(rows))[0]


def at_scale(spec, x, y, scale):
    """dissimilarity(spec, x, y) with its terms stored at the scale of a set
    of reference rows, as pairwise_matrix and cross_matrix store them."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    factors, _, unit = multipliers(spec.resolved_weights(len(x)))
    key = term_key(spec.kind, spec.alpha)
    return pair_sum(spec.kind, key, x.tolist(), y.tolist(), scale, factors.tolist()) / (
        scale * unit)


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

    def test_off_grid_factors_are_at_most_one(self):
        # a power of two keeps huge weights' products with scaled terms finite
        w = np.array([1e300, 1e300, 0.2])
        factors, den, unit = multipliers(w)
        assert den is None and factors.max() <= 1
        assert np.array_equal(factors / unit, w)
