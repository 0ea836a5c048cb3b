import itertools

import numpy as np
import pytest

from metaknn import (DistanceSpec, EvalContext, ModelSpec, optimize_distance,
                     optimize_k, select_features, weight_search_quantized,
                     weight_search_simplex)
from metaknn.distance import CAMBERRA, MINKOWSKI, multipliers
from metaknn.optimize import DISTANCE_CANDIDATES, _grid, check_step

from conftest import make_dataset, random_dataset, random_model


def loo_count(ds, model):
    return EvalContext(ds).loo_count(model)


def separable(rng, n=24):
    """Feature 0 decides the class cleanly; the rest is noise."""
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    informative = labels * 4.0 + rng.normal(scale=0.3, size=n)
    noise = rng.normal(scale=5.0, size=n)
    return make_dataset(np.column_stack([informative, noise]), labels)


class TestOptimizeK:
    def test_bruteforce_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            ds = random_dataset(rng, max_n=25)
            hi = min(6, ds.n - 1)
            res = optimize_k(EvalContext(ds), ModelSpec(), k_range=(1, hi))
            sweep = {k: loo_count(ds, ModelSpec(k=k)) for k in range(1, hi + 1)}
            best = max(sweep.values())
            assert res.correct_count == best
            assert res.model.k == min(k for k, c in sweep.items() if c == best)

    def test_perfect_k1_keeps_k1(self):
        ds = make_dataset([[0.0], [0.1], [5.0], [5.1]], [0, 0, 1, 1])
        res = optimize_k(EvalContext(ds), ModelSpec(), k_range=(1, 3))
        assert res.model.k == 1
        assert res.correct_count == ds.n

    def test_monk1_matches_exhaustive(self, monks1):
        res = optimize_k(EvalContext(monks1.train), ModelSpec(), k_range=(1, 10))
        sweep = {k: loo_count(monks1.train, ModelSpec(k=k)) for k in range(1, 11)}
        assert res.correct_count == max(sweep.values())
        assert res.model.k == 3 and res.correct_count == 102

    def test_never_below_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            ds = random_dataset(rng, max_n=20)
            ref = random_model(rng, ds.n_features)
            res = optimize_k(EvalContext(ds), ref, k_range=(1, min(4, ds.n - 1)))
            assert res.correct_count >= loo_count(ds, ref)

    def test_counts_evaluations(self, monks1):
        res = optimize_k(EvalContext(monks1.train), ModelSpec(), k_range=(1, 10))
        assert res.evaluations == 10


class TestOptimizeDistance:
    def test_monk1_picks_camberra(self, monks1):
        res = optimize_distance(EvalContext(monks1.train), ModelSpec())
        assert res.model.distance.kind == CAMBERRA
        assert res.correct_count == 99

    def test_exhaustive_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            ds = random_dataset(rng, max_n=20)
            ref = ModelSpec()
            res = optimize_distance(EvalContext(ds), ref)
            scores = {pair: loo_count(ds, ModelSpec(distance=DistanceSpec(*pair)))
                      for pair in DISTANCE_CANDIDATES}
            assert res.correct_count == max(scores.values())

    def test_tie_keeps_reference(self):
        # one redundant duplicated feature: every kind ranks neighbors the
        # same, so no candidate strictly improves and the reference stays
        ds = make_dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
                          [0, 0, 1, 1])
        ref = ModelSpec()
        res = optimize_distance(EvalContext(ds), ref)
        assert res.model is ref
        assert res.model.distance.kind == MINKOWSKI
        assert res.model.distance.alpha == 2


class TestSelectFeatures:
    def test_monk1_mask(self, monks1):
        res = select_features(EvalContext(monks1.train), ModelSpec())
        assert np.array_equal(np.flatnonzero(res.model.feature_mask), [0, 1, 4])
        assert res.correct_count == 120

    def test_exhaustive_oracle_on_noise_features(self):
        rng = np.random.default_rng(21)
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        x0 = labels * 3.0 + rng.normal(scale=0.2, size=30)
        x1 = (1 - labels) * 3.0 + rng.normal(scale=0.2, size=30)
        noise = rng.normal(scale=8.0, size=(30, 2))
        ds = make_dataset(np.column_stack([x0, x1, noise]), labels)
        res = select_features(EvalContext(ds), ModelSpec())
        best_count, best_masks = -1, []
        for bits in itertools.product([False, True], repeat=4):
            if not any(bits):
                continue
            mask = np.array(bits)
            count = loo_count(ds, ModelSpec(feature_mask=mask))
            if count > best_count:
                best_count, best_masks = count, [mask]
            elif count == best_count:
                best_masks.append(mask)
        assert res.correct_count == best_count
        assert any(np.array_equal(res.model.mask_for(4), m) for m in best_masks)

    def test_identical_copies_reduce_to_one(self):
        # dropping a duplicated feature never changes any distance ranking,
        # so the march keeps the score and prefers the smaller subset
        ds = make_dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
                          [0, 0, 1, 1])
        ref_count = loo_count(ds, ModelSpec())
        res = select_features(EvalContext(ds), ModelSpec())
        assert res.correct_count == ref_count
        assert int(res.model.mask_for(2).sum()) == 1

    def test_never_below_reference(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            ds = random_dataset(rng, max_n=20, max_features=5)
            ref = ModelSpec(k=1)
            res = select_features(EvalContext(ds), ref)
            assert res.correct_count >= loo_count(ds, ref)


class TestQuantizedWeights:
    def test_single_feature_unchanged(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
        res = weight_search_quantized(EvalContext(ds), ModelSpec())
        assert np.array_equal(res.model.active_weights(1), [1.0])

    def test_matches_full_grid_on_two_features(self):
        rng = np.random.default_rng(29)
        grid = np.round(np.arange(11) * 0.1, 10)
        for _ in range(6):
            ds = separable(rng)
            res = weight_search_quantized(EvalContext(ds), ModelSpec())
            best = max(loo_count(ds, ModelSpec(distance=DistanceSpec(MINKOWSKI, 2, [a, b])))
                       for a in grid for b in grid)
            assert res.correct_count == best

    def test_weights_stay_on_grid(self, monks1):
        res = weight_search_quantized(EvalContext(monks1.train), ModelSpec())
        grid = set(np.round(np.arange(11) * 0.1, 10))
        assert all(w in grid for w in res.model.active_weights(6))

    def test_monk1_reaches_123(self, monks1):
        res = weight_search_quantized(EvalContext(monks1.train), ModelSpec())
        assert res.correct_count >= 123

    def test_step_validation(self, monks1):
        with pytest.raises(ValueError, match="step"):
            weight_search_quantized(EvalContext(monks1.train), ModelSpec(), step=0.3)

    @pytest.mark.parametrize("step", [0.0, -0.5, float("nan"), float("inf")])
    def test_step_not_positive_and_finite(self, monks1, step):
        with pytest.raises(ValueError, match="must divide 1 evenly"):
            weight_search_quantized(EvalContext(monks1.train), ModelSpec(), step=step)

    @pytest.mark.parametrize("step", [0.001, 0.1, 0.25, 1.0])
    def test_steps_up_to_1000_intervals_pass(self, step):
        check_step(step)

    @pytest.mark.parametrize("step", [0.001, 0.1, 0.25, 1 / 3, 1.0])
    def test_grid_weights_are_exact_multipliers(self, step):
        # any vector of grid weights is scored with integer numerators over one denominator
        grid = _grid(step)
        factors, den, unit = multipliers(grid)
        assert den is not None and den <= 1000 and unit == den
        assert np.array_equal(factors, np.rint(factors))
        assert np.allclose(factors / den, grid, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("step", [0.0005, 1e-6, 1e-300])
    def test_grid_capped_at_1000_intervals(self, step):
        with pytest.raises(ValueError, match="more than 1000 grid intervals"):
            check_step(step)

    def test_never_below_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            ds = random_dataset(rng, max_n=18, max_features=4)
            ref = random_model(rng, ds.n_features)
            res = weight_search_quantized(EvalContext(ds), ref)
            assert res.correct_count >= loo_count(ds, ref)


class TestSimplexWeights:
    def test_budget_initial_simplex_only(self):
        rng = np.random.default_rng(47)
        ds = separable(rng)
        res = weight_search_simplex(EvalContext(ds), ModelSpec(), budget=3)
        assert res.budget_exhausted
        assert res.evaluations == 3
        # best initial vertex: the reference itself or one +0.5 bump
        starts = [np.array([1.0, 1.0]), np.array([1.5, 1.0]), np.array([1.0, 1.5])]
        assert any(np.array_equal(res.model.active_weights(2), s) for s in starts)

    def test_plateau_stops_by_diameter(self):
        # all weightings classify this set identically, so the simplex
        # shrinks to the diameter criterion long before the budget
        ds = make_dataset([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0], [11.0, 11.0]],
                          [0, 0, 1, 1])
        res = weight_search_simplex(EvalContext(ds), ModelSpec(), budget=5000)
        assert not res.budget_exhausted
        assert res.evaluations < 5000

    def test_reaches_grid_optimum_on_separable_set(self):
        rng = np.random.default_rng(53)
        grid = np.round(np.arange(11) * 0.1, 10)
        ds = separable(rng)
        res = weight_search_simplex(EvalContext(ds), ModelSpec(), budget=2000)
        grid_best = max(loo_count(ds, ModelSpec(distance=DistanceSpec(MINKOWSKI, 2, [a, b])))
                        for a in grid for b in grid)
        assert res.correct_count >= grid_best

    def test_weights_stay_nonnegative(self):
        rng = np.random.default_rng(59)
        ds = random_dataset(rng, max_n=15, max_features=3)
        res = weight_search_simplex(EvalContext(ds), ModelSpec(), budget=200)
        assert np.all(res.model.active_weights(ds.n_features) >= 0.0)

    def test_never_below_reference(self):
        rng = np.random.default_rng(61)
        ds = random_dataset(rng, max_n=15, max_features=3)
        ref = ModelSpec(k=2)
        res = weight_search_simplex(EvalContext(ds), ref, budget=100)
        assert res.correct_count >= loo_count(ds, ref)
