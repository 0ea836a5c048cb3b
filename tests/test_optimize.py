import itertools

import numpy as np
import pytest

from metaknn import (DistanceSpec, EvalContext, ModelSpec, optimize_distance,
                     optimize_k, select_features, weight_search_quantized,
                     weight_search_simplex)
from metaknn.distance import CAMBERRA, MINKOWSKI, multipliers
from metaknn.optimize import DISTANCE_CANDIDATES, _cd_pass, check_step

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
        ctx = EvalContext(monks1.train)
        optimize_k(ctx, ModelSpec(), k_range=(1, 10))
        assert ctx.requested == 10


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
        grid = check_step(step)
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

@pytest.mark.parametrize("masked", [True, False], ids=["masked", "all-features"])
@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unit-weights"])
@pytest.mark.parametrize("channel", [optimize_k, optimize_distance, select_features,
                                     weight_search_quantized, weight_search_simplex])
def test_passes_leave_the_reference_weights_alone(channel, weighted, masked):
    # a channel sets its candidates on a private copy, never on the reference
    rng = np.random.default_rng(43)
    for _ in range(5):
        ds = random_dataset(rng, max_n=18, max_features=4)
        mask = rng.random(ds.n_features) < 0.7
        mask[int(rng.integers(ds.n_features))] = True
        mask = mask if masked else None
        n_active = ds.n_features if mask is None else int(mask.sum())
        weights = np.round(rng.integers(0, 11, n_active) / 10, 10) if weighted else None
        ref = ModelSpec(k=int(rng.integers(1, 3)), feature_mask=mask,
                        distance=DistanceSpec(MINKOWSKI, 1, weights))
        before = EvalContext(ds).model_key(ref)
        res = channel(EvalContext(ds), ref)
        assert EvalContext(ds).model_key(ref) == before
        assert (ref.feature_mask is None, ref.distance.weights is None) == (not masked,
                                                                            not weighted)
        theirs = [a for a in (ref.feature_mask, ref.distance.weights) if a is not None]
        for a in (res.model.feature_mask, res.model.distance.weights):
            assert res.model is ref or a is None or not any(np.shares_memory(a, b)
                                                            for b in theirs)
        assert res.correct_count == loo_count(ds, res.model)


class TestRequestOrder:
    """Each round of one-parameter candidates is requested in a fixed order,
    one loo_count per candidate: a feature drop is a mask change, a weight
    step a change of that weight alone, a k candidate a change of k alone."""

    @staticmethod
    def requests(monkeypatch) -> list:
        """The (model_key, count) of every loo_count request, in order."""
        seen, loo_count = [], EvalContext.loo_count

        def spy(ctx, model):
            key = ctx.model_key(model)
            seen.append((key, loo_count(ctx, model)))
            return seen[-1][1]

        monkeypatch.setattr(EvalContext, "loo_count", spy)
        return seen

    @pytest.mark.parametrize("suite, ref", [
        ("monks2", ModelSpec()),
        ("monks2", ModelSpec(feature_mask=[1, 1, 0, 1, 1, 1], distance=DistanceSpec(
            MINKOWSKI, 1, [0.5, 1.0, 0.2, 0.0, 0.7]))),
        ("ionosphere", ModelSpec(distance=DistanceSpec(MINKOWSKI, 1)))],
        ids=["monks2", "monks2-masked-weighted", "ionosphere"])
    def test_feature_rounds_drop_each_active_column_in_order(self, request, monkeypatch,
                                                              suite, ref):
        train = request.getfixturevalue(suite).train
        seen = self.requests(monkeypatch)
        select_features(EvalContext(train), ref)
        (k, kind, alpha, mask, weights), _ = seen[0]
        assert seen[0][0] == EvalContext(train).model_key(ref)
        mask, weights, at = np.frombuffer(mask, dtype=bool), np.frombuffer(weights), 1
        while mask.sum() > 1:  # each round: current with each active column dropped
            drops = [(np.where(np.arange(len(mask)) == j, False, mask), np.delete(weights, pos))
                     for pos, j in enumerate(np.flatnonzero(mask))]
            keys, counts = zip(*seen[at:at + len(drops)])
            assert list(keys) == [(k, kind, alpha, m.tobytes(), w.tobytes()) for m, w in drops]
            mask, weights = drops[max(range(len(drops)), key=lambda i: (counts[i], i))]
            at += len(drops)
        assert at == len(seen)

    @pytest.mark.parametrize("tie", ["near", "low"])
    @pytest.mark.parametrize("suite, step", [("monks2", 0.1), ("ionosphere", 0.5)])
    def test_weight_rounds_step_each_coordinate_through_the_grid(self, request, monkeypatch,
                                                                 suite, step, tie):
        train, grid = request.getfixturevalue(suite).train, check_step(step)
        seen = self.requests(monkeypatch)
        model, _ = _cd_pass(EvalContext(train), ModelSpec(), grid, tie)
        keys = [key for key, _ in seen]
        assert all(key[:4] == keys[0][:4] for key in keys)
        weights = [np.frombuffer(key[4]) for key in keys] + [model.distance.weights]
        w, block = weights[0], len(grid) - 1
        assert np.array_equal(w, np.ones(train.n_features))
        assert (len(keys) - 1) % (len(w) * block) == 0  # whole sweeps
        for b, at in enumerate(range(1, len(keys), block)):
            pos = b % len(w)  # every other grid value of this weight, in grid order
            steps = [np.where(np.arange(len(w)) == pos, g, w) for g in grid if g != w[pos]]
            assert [v.tobytes() for v in weights[at:at + block]] == [v.tobytes() for v in steps]
            # where the weight settled: the next request holds it, or the result
            w = np.where(np.arange(len(w)) == pos, weights[at + block][pos], w)

    @pytest.mark.parametrize("ref_k", [1, 3, 6, 8])
    def test_k_rounds_scan_the_range_in_order(self, monks2, monkeypatch, ref_k):
        # k = lo..hi, one request each, then the reference's own k when the range misses it
        ref = ModelSpec(ref_k, DistanceSpec(MINKOWSKI, 1, [0.5, 1.0, 0.2, 0.0, 0.7]),
                        [1, 1, 0, 1, 1, 1])
        seen = self.requests(monkeypatch)
        optimize_k(EvalContext(monks2.train), ref, k_range=(2, 6))
        _, *rest = EvalContext(monks2.train).model_key(ref)
        ks = [*range(2, 7)] + ([] if 2 <= ref_k <= 6 else [ref_k])
        assert [key for key, _ in seen] == [(k, *rest) for k in ks]

    @pytest.mark.parametrize("ref", [
        ModelSpec(),
        ModelSpec(feature_mask=[1, 1, 0, 1, 1, 1], distance=DistanceSpec(
            MINKOWSKI, 1, [0.5, 1.0, 0.2, 0.0, 0.7]))], ids=["plain", "masked-weighted"])
    def test_simplex_starts_at_the_reference_then_each_bump(self, monks2, monkeypatch, ref):
        # the start vertex, then each weight raised by 0.5 in turn; every vertex
        # after them changes the weights alone
        seen = self.requests(monkeypatch)
        weight_search_simplex(EvalContext(monks2.train), ref, budget=20)
        key = EvalContext(monks2.train).model_key(ref)
        start = np.frombuffer(key[4])
        bumps = [start + 0.5 * np.eye(len(start))[i] for i in range(len(start))]
        keys = [key for key, _ in seen]
        assert keys[:len(start) + 1] == [key] + [(*key[:4], b.tobytes()) for b in bumps]
        assert len(keys) == 20 and all(k[:4] == key[:4] for k in keys)


class TestSimplexWeights:
    def test_budget_initial_simplex_only(self):
        rng = np.random.default_rng(47)
        ds = separable(rng)
        ctx = EvalContext(ds)
        res = weight_search_simplex(ctx, ModelSpec(), budget=3)
        assert res.budget_exhausted
        assert ctx.requested == 3
        # best initial vertex: the reference itself or one +0.5 bump
        starts = [np.array([1.0, 1.0]), np.array([1.5, 1.0]), np.array([1.0, 1.5])]
        assert any(np.array_equal(res.model.active_weights(2), s) for s in starts)

    @pytest.mark.parametrize("budget", [3, 12])
    def test_budget_counts_from_the_search_start(self, budget):
        # the context has already served 5 requests; the search still spends its whole budget
        ctx = EvalContext(separable(np.random.default_rng(47)))
        for k in range(1, 6):
            ctx.loo_count(ModelSpec(k=k))
        res = weight_search_simplex(ctx, ModelSpec(), budget=budget)
        assert ctx.requested == 5 + budget and res.budget_exhausted

    def test_plateau_stops_by_diameter(self):
        # all weightings classify this set identically, so the simplex
        # shrinks to the diameter criterion long before the budget
        ds = make_dataset([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0], [11.0, 11.0]],
                          [0, 0, 1, 1])
        ctx = EvalContext(ds)
        res = weight_search_simplex(ctx, ModelSpec(), budget=5000)
        assert not res.budget_exhausted
        assert ctx.requested < 5000

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
