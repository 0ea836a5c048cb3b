import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaknn import (Dataset, DistanceSpec, EvalContext, ModelSpec, classify,
                     confusion_of, evaluate, evaluation, leave_one_out, meta_search,
                     select_features)
from metaknn.distance import (CAMBERRA, CHEBYSHEV, MINKOWSKI, feature_terms,
                              term_scale)

from conftest import ALL_KINDS, make_dataset, random_dataset, random_model


class TestLeaveOneOut:
    def test_monk1_k1_euclidean(self, monks1):
        report = leave_one_out(ModelSpec(), monks1.train)
        assert report.correct_count == 95 and report.total == 124
        assert report.accuracy == 95 / 124  # 76.6%

    def test_monk1_k3_euclidean(self, monks1):
        report = leave_one_out(ModelSpec(k=3), monks1.train)
        assert report.correct_count == 102  # 82.3%

    def test_two_opposite_vectors(self):
        ds = make_dataset([[0.0], [1.0]], [0, 1])
        report = leave_one_out(ModelSpec(), ds)
        assert report.accuracy == 0.0
        assert np.array_equal(report.confusion, [[0, 1], [1, 0]])

    def test_accuracy_recomputes_from_predictions(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng)
        report = leave_one_out(ModelSpec(k=2), ds)
        recount = sum(int(w) == int(t) for w, t in zip(report.winners, report.truths))
        assert recount == report.correct_count
        assert report.accuracy == report.correct_count / report.total
        assert report.confusion.sum() == report.total
        assert np.trace(report.confusion) == report.correct_count


class TestEvaluate:
    def test_monk1_k1_test_set(self, monks1):
        report = evaluate(ModelSpec(), monks1.train, monks1.test)
        assert report.correct_count == 371 and report.total == 432  # 85.9%

    def test_monk1_published_weights_perfect(self, monks1):
        model = ModelSpec(distance=DistanceSpec(MINKOWSKI, 2, [1, 1, 0.1, 0, 0.9, 0.0]))
        report = evaluate(model, monks1.train, monks1.test)
        assert report.accuracy == 1.0

    def test_training_vector_as_test_row(self):
        ds = make_dataset([[0.0], [1.0], [5.0]], [0, 1, 1])
        test = make_dataset([[1.0]], [1], n_classes=2)
        report = evaluate(ModelSpec(), ds, test)
        assert report.accuracy == 1.0

    def test_test_equals_train_is_perfect_with_distinct_rows(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng)
        report = evaluate(ModelSpec(), ds, ds)
        assert report.accuracy == 1.0  # every vector is its own nearest neighbor

    def test_width_mismatch(self, monks1, ionosphere):
        with pytest.raises(ValueError):
            evaluate(ModelSpec(), monks1.train, ionosphere.test)


class TestConfusion:
    def test_perfect_binary(self):
        ds = make_dataset([[i] for i in range(10)], [0] * 6 + [1] * 4)
        report = evaluate(ModelSpec(), ds, ds)
        assert np.array_equal(report.confusion, [[6, 0], [0, 4]])

    def test_all_wrong_binary(self):
        ds = make_dataset([[0.0], [1.0]] * 5, [0, 1] * 5)
        # swap the labels on an identical test set: every prediction lands
        # in the off-diagonal
        test = make_dataset([[0.0], [1.0]] * 5, [1, 0] * 5)
        report = evaluate(ModelSpec(), ds, test)
        assert np.array_equal(report.confusion, [[0, 5], [5, 0]])

    def test_three_class_hand_count(self):
        truths = np.array([0, 0, 1, 1, 2, 2, 2])
        predicted = np.array([0, 1, 1, 1, 0, 2, 2])
        got = confusion_of(truths, predicted, 3)
        assert np.array_equal(got, [[1, 1, 0], [0, 2, 0], [1, 0, 2]])


class TestCachedOracle:
    def test_loo_matches_per_row_classification(self):
        # the cached evaluation path must agree with classifying each vector
        # independently, prediction for prediction
        rng = np.random.default_rng(42)
        for _ in range(20):
            ds = random_dataset(rng, max_n=20)
            model = random_model(rng, ds.n_features)
            if model.k >= ds.n:
                continue
            cached = EvalContext(ds).loo_report(model)
            for p in range(ds.n):
                direct = classify(model, ds, ds.vectors[p], exclude=p)
                assert cached.winners[p] == direct.winner
                assert np.array_equal(cached.class_probs[p], direct.class_probs)

    def test_test_report_matches_per_row_classification(self):
        rng = np.random.default_rng(43)
        ds = random_dataset(rng, max_n=15)
        test = make_dataset(rng.normal(size=(6, ds.n_features)),
                            rng.integers(0, ds.n_classes, size=6),
                            n_classes=ds.n_classes)
        model = ModelSpec(k=2)
        report = EvalContext(ds, test).test_report(model)
        for p in range(test.n):
            direct = classify(model, ds, test.vectors[p])
            assert report.winners[p] == direct.winner
            assert np.array_equal(report.class_probs[p], direct.class_probs)

    def test_context_counts_evaluations(self, monks1):
        ctx = EvalContext(monks1.train)
        assert ctx.evaluations == 0
        ctx.loo_count(ModelSpec())
        ctx.loo_count(ModelSpec(k=2))
        assert ctx.evaluations == 2

    def test_report_serializes_to_json(self, monks1):
        report = leave_one_out(ModelSpec(), monks1.train)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["correct"] == 95 and back["total"] == 124


class TestTrainingTerms:
    def test_built_per_column_on_first_use(self, monks1, monkeypatch):
        calls = []
        original = evaluation.feature_terms
        monkeypatch.setattr(evaluation, "feature_terms",
                            lambda *args: calls.append(args) or original(*args))
        ctx = EvalContext(monks1.train)
        mask = [False, True, False, False, True, False]
        ctx.loo_count(ModelSpec(feature_mask=mask))
        assert len(calls) == 2
        ctx.loo_count(ModelSpec(k=3, distance=DistanceSpec(MINKOWSKI, 2, [0.5, 1.0]),
                                feature_mask=mask))
        assert len(calls) == 2
        ctx.loo_count(ModelSpec(feature_mask=[True, True, False, False, True, False]))
        assert len(calls) == 3

    def test_column_order_keeps_counts(self, monks1):
        # filling columns out of order must not change any entry
        model = ModelSpec(k=3)
        warm = EvalContext(monks1.train)
        warm.loo_count(ModelSpec(feature_mask=[False, False, False, True, True, True]))
        assert (warm.loo_report(model).to_dict()
                == EvalContext(monks1.train).loo_report(model).to_dict())


class TestWidthCheck:
    TRAIN = make_dataset([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]], [0, 1, 1])

    @pytest.mark.parametrize("width", [2, 4])
    def test_context_rejects_other_width(self, width):
        test = make_dataset(np.ones((2, width)), [0, 1])
        with pytest.raises(ValueError, match="widths differ"):
            EvalContext(self.TRAIN, test)

    @pytest.mark.parametrize("width", [2, 4])
    def test_meta_search_rejects_other_width(self, width):
        test = make_dataset(np.ones((2, width)), [0, 1])
        with pytest.raises(ValueError, match="widths differ"):
            meta_search(self.TRAIN, test)


class TestCountMemo:
    def test_default_and_explicit_spellings_share_one_scoring(self, monks1):
        ctx = EvalContext(monks1.train)
        explicit = ModelSpec(distance=DistanceSpec(MINKOWSKI, 2, np.ones(6)),
                             feature_mask=np.ones(6, dtype=bool))
        assert ctx.loo_count(ModelSpec()) == ctx.loo_count(explicit) == 95
        assert ctx.evaluations == 1

    def test_weights_alone_are_rescored(self, monks1):
        ctx = EvalContext(monks1.train)
        ctx.loo_count(ModelSpec())
        weighted = ModelSpec(distance=DistanceSpec(MINKOWSKI, 2, [1, 1, 1, 1, 0.5, 1]))
        assert ctx.loo_count(weighted) == EvalContext(monks1.train).loo_count(weighted)
        assert ctx.evaluations == 2

    def test_evaluations_count_computed_scorings(self, monks1):
        ctx = EvalContext(monks1.train, monks1.test)
        model = ModelSpec(k=3)
        for _ in range(3):
            ctx.loo_count(model)
            ctx.test_count(model)
        assert ctx.evaluations == 1
        ctx.loo_report(model)  # reports are always computed
        assert ctx.evaluations == 2

    def test_counts_match_reports(self, monks1):
        ctx = EvalContext(monks1.train, monks1.test)
        rng = np.random.default_rng(44)
        models = [random_model(rng, 6) for _ in range(8)]
        for model in models + models:
            assert ctx.loo_count(model) == ctx.loo_report(model).correct_count
            assert ctx.test_count(model) == ctx.test_report(model).correct_count


KINDS_BY_NAME = {"euclidean": (MINKOWSKI, 2), "camberra": (CAMBERRA, None),
                 "chebyshev": (CHEBYSHEV, None)}


class TestExactDistances:
    @pytest.mark.parametrize("kind", KINDS_BY_NAME)
    @pytest.mark.parametrize("monk", ["monks1", "monks2", "monks3"])
    def test_rescaled_grid_weights_score_alike(self, request, monk, kind):
        # Monk's symbolic codes put many rows at equal distances, so a sum
        # that depends on the weights' spelling splits or merges real ties
        train = request.getfixturevalue(monk).train
        rng = np.random.default_rng([int(monk[-1]), list(KINDS_BY_NAME).index(kind)])
        kind, alpha = KINDS_BY_NAME[kind]
        ctx = EvalContext(train)
        for _ in range(100):
            w = rng.integers(0, 11, train.n_features)
            w[int(rng.integers(train.n_features))] = int(rng.integers(1, 11))
            k = int(rng.integers(1, 8))
            tenths = ModelSpec(k, DistanceSpec(kind, alpha, w / 10))
            whole = ModelSpec(k, DistanceSpec(kind, alpha, w.astype(float)))
            assert ctx.loo_count(tenths) == ctx.loo_count(whole)
            assert np.array_equal(ctx.loo_report(tenths).winners, ctx.loo_report(whole).winners)

    @pytest.mark.parametrize("c", [1e-10, 3e-7, 12345.678, 1e300])
    @pytest.mark.parametrize("kind", KINDS_BY_NAME)
    def test_any_positive_rescaling_scores_alike(self, monks2, kind, c):
        # grid weights times any positive factor keep proportional integer
        # numerators, even where the scaled weights are off every grid
        train = monks2.train
        rng = np.random.default_rng([2, list(KINDS_BY_NAME).index(kind), 7])
        kind, alpha = KINDS_BY_NAME[kind]
        ctx = EvalContext(train)
        for _ in range(30):
            w = rng.integers(0, 11, train.n_features)
            w[int(rng.integers(train.n_features))] = int(rng.integers(1, 11))
            k = int(rng.integers(1, 8))
            grid = ModelSpec(k, DistanceSpec(kind, alpha, w / 10))
            scaled = ModelSpec(k, DistanceSpec(kind, alpha, w * c))
            assert ctx.loo_count(grid) == ctx.loo_count(scaled)
            assert np.array_equal(ctx.loo_report(grid).winners, ctx.loo_report(scaled).winners)

    def test_terms_follow_the_data_magnitude(self):
        # the scale is a power of two taken from the data and never clamped,
        # so data scaled by 2**-40 stores the very same terms
        ds = random_dataset(np.random.default_rng(45))
        tiny = ds.vectors * 2.0 ** -40
        for key in ("abs", "sq", "cam"):
            (s1, _), (s2, _) = term_scale(key, ds.vectors), term_scale(key, tiny)
            for j in range(ds.n_features):
                terms = feature_terms(ds.vectors[:, j], ds.vectors[:, j], key, s1)
                assert np.array_equal(terms, feature_terms(tiny[:, j], tiny[:, j], key, s2))
                assert terms.max() > 2 ** 20 and np.array_equal(terms, np.rint(terms))

    def test_backward_elimination_candidates_are_deltas(self, ionosphere, monkeypatch):
        # a candidate differs from the last matrix in at most three columns
        # (the last candidate's drop, the kept drop, its own drop), so only
        # candidates with three or fewer features are summed in full
        summed = []
        original = evaluation.accumulate
        monkeypatch.setattr(evaluation, "accumulate", lambda kind, terms, factors, shape: (
            summed.append(len(factors)) or original(kind, terms, factors, shape)))
        ctx = EvalContext(ionosphere.train)
        result = select_features(ctx, ModelSpec())
        assert result.evaluations == 595 and ctx.evaluations > 500
        assert summed[0] == 34
        assert summed[1:] and max(summed[1:]) <= 3


def _walk(train: Dataset, steps) -> None:
    """Score a sequence of one-change models in one context; every report must
    equal a fresh context's, and sampled rows the scalar oracle's."""
    n = train.n_features
    ctx = EvalContext(train)
    mask, w, k, (kind, alpha) = np.ones(n, dtype=bool), np.ones(n), 1, (MINKOWSKI, 2)
    for op, a, b in steps:
        j = a % n
        if op == "drop" and mask.sum() > 1:
            mask[j] = False
        elif op == "restore":
            mask[j] = True
        elif op == "weight":
            w[j] = b / 10
        elif op == "off-grid":
            w[j] = (a % 997 + 1) / 997 + 1e-7  # no p/L within the tolerance
        elif op == "k":
            k = 1 + b % 5
        elif op == "kind":
            kind, alpha = ALL_KINDS[b % 4]
        model = ModelSpec(k, DistanceSpec(kind, alpha, w[mask].copy()), mask.copy())
        got = ctx.loo_report(model)
        fresh = EvalContext(train).loo_report(model)
        assert got.to_dict() == fresh.to_dict()
        assert np.array_equal(got.class_probs, fresh.class_probs)
        assert ctx.loo_count(model) == fresh.correct_count
        for i in (a % train.n, b % train.n):
            assert classify(model, train, train.vectors[i], exclude=i).winner == got.winners[i]


STEPS = st.lists(st.tuples(st.sampled_from(["drop", "drop", "restore", "weight", "weight",
                                            "off-grid", "k", "kind"]),
                           st.integers(0, 10 ** 6), st.integers(0, 10)),
                 min_size=1, max_size=12)


@given(steps=STEPS)
@settings(max_examples=25, deadline=None)
def test_delta_scoring_equals_fresh_scoring_monks2(monks2, steps):
    _walk(monks2.train, steps)


@given(steps=STEPS)
@settings(max_examples=25, deadline=None)
def test_delta_scoring_equals_fresh_scoring_ionosphere(ionosphere, steps):
    train = ionosphere.train
    _walk(Dataset(train.features, train.vectors[:60], train.labels[:60], train.class_names), steps)
