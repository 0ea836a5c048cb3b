import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, rule,
                                 run_state_machine_as_test)

from metaknn import (Dataset, DistanceSpec, EvalContext, ModelSpec, classify,
                     confusion_of, distance, evaluate, evaluation, leave_one_out, load_csv,
                     load_monks, load_partition, meta_search, select_features,
                     weight_search_quantized)
from metaknn.distance import (CAMBERRA, CHEBYSHEV, MINKOWSKI, accumulate, distance_sums,
                              feature_terms, multipliers, term_key, term_scale)
from metaknn.knn import shell_votes

from conftest import ALL_KINDS, DATA_DIR, make_dataset, random_dataset, random_model


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


def spy_term_builds(monkeypatch) -> list:
    """Every feature_terms call."""
    calls = []
    original = distance.feature_terms
    monkeypatch.setattr(distance, "feature_terms",
                        lambda *args: calls.append(args) or original(*args))
    return calls


def kept(ctx) -> dict:
    return {key: sorted(terms) for key, terms in ctx._terms.items() if terms}


class TestTrainingTerms:
    def test_built_per_column_on_first_use(self, monks1, monkeypatch):
        # a 124-row Monk matrix is one block, so each column is built whole and
        # kept when first used, by a full sum or by a delta
        calls = spy_term_builds(monkeypatch)
        ctx = EvalContext(monks1.train)
        mask = [False, True, False, False, True, False]
        ctx.loo_count(ModelSpec(feature_mask=mask))
        assert len(calls) == 2 and kept(ctx) == {"sq": [1, 4]}
        ctx.loo_count(ModelSpec(k=3, distance=DistanceSpec(MINKOWSKI, 2, [0.5, 1.0]),
                                feature_mask=mask))
        assert len(calls) == 2
        ctx.loo_count(ModelSpec(feature_mask=[True, True, False, False, True, False]))
        assert len(calls) == 3 and kept(ctx) == {"sq": [0, 1, 4]}

    @pytest.mark.parametrize("n", [40, 300])  # one row block, and two
    def test_one_shot_scorings_keep_only_whole_columns(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        train = make_dataset(np.round(rng.normal(size=(n, 4)) * 3, 3), rng.integers(0, 3, n))
        test = make_dataset(np.round(rng.normal(size=(30, 4)) * 3, 3), rng.integers(0, 3, 30),
                            n_classes=3)
        one_block = distance.block_rows(n) >= n
        assert one_block == (n == 40)
        calls = spy_term_builds(monkeypatch)
        ctx = EvalContext(train, test)
        ctx.test_report(ModelSpec())
        ctx.loo_report(ModelSpec(k=3))
        assert kept(ctx) == ({"sq": [0, 1, 2, 3]} if one_block else {})
        assert len(calls) == 4 + 4 * (1 if one_block else 2)

    def test_a_delta_after_the_first_scoring_keeps_only_its_columns(self):
        rng = np.random.default_rng(47)
        train = make_dataset(np.round(rng.normal(size=(300, 4)) * 3, 3), rng.integers(0, 3, 300))
        assert distance.block_rows(train.n) < train.n
        ctx = EvalContext(train)
        ctx.loo_report(ModelSpec())
        ctx.loo_report(ModelSpec(feature_mask=[True, True, False, True]))
        assert kept(ctx) == {"sq": [2]}
        vectors = train.vectors
        scale = term_scale("sq", vectors)
        terms = (feature_terms(vectors[:, j], vectors[:, j], "sq", scale) for j in (0, 1, 3))
        fresh = accumulate(MINKOWSKI, terms, np.ones(3), (train.n, train.n))
        np.fill_diagonal(fresh, np.inf)
        assert ctx._last.dist.tobytes() == fresh.tobytes()

    def test_a_context_that_scores_again_keeps_its_columns(self, monkeypatch):
        # 300 rows make a 720 KB matrix, two row blocks: the first full sum
        # builds per block and keeps nothing, the second keeps every column,
        # and later sums and deltas read them
        rng = np.random.default_rng(46)
        train = make_dataset(np.round(rng.normal(size=(300, 4)) * 3, 3), rng.integers(0, 3, 300))
        test = make_dataset(np.round(rng.normal(size=(100, 4)) * 3, 3), rng.integers(0, 3, 100),
                            n_classes=3)
        assert 8 * train.n * train.n > distance.BLOCK_BYTES
        ctx = EvalContext(train, test)
        ctx.loo_report(ModelSpec())
        ctx.test_report(ModelSpec())  # releases the last matrix
        assert kept(ctx) == {}
        ctx.loo_report(ModelSpec())
        assert kept(ctx) == {"sq": [0, 1, 2, 3]}
        calls = spy_term_builds(monkeypatch)
        dropped = ModelSpec(feature_mask=[True, True, False, True])
        ctx.loo_report(dropped)
        vectors = train.vectors
        scale = term_scale("sq", vectors, queries=test.vectors)
        terms = (feature_terms(vectors[:, j], vectors[:, j], "sq", scale) for j in (0, 1, 3))
        fresh = accumulate(MINKOWSKI, terms, np.ones(3), (train.n, train.n))
        np.fill_diagonal(fresh, np.inf)
        assert ctx._last.dist.tobytes() == fresh.tobytes()
        ctx.test_report(dropped)
        ctx.loo_report(ModelSpec())
        # only the test scoring builds terms, one block of its 3 columns
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


class TestClassTableCheck:
    def test_separately_loaded_sides_are_rejected(self, tmp_path):
        # separate load_csv calls number each file's classes by first appearance;
        # load_partition encodes the test file with the training file's table
        paths = tmp_path / "train.csv", tmp_path / "test.csv"
        paths[0].write_text("0,a\n1,a\n10,b\n11,b\n")
        paths[1].write_text("10,b\n0,a\n11,b\n1,a\n")
        train, test = (load_csv(path) for path in paths)
        assert (train.class_names, test.class_names) == (["a", "b"], ["b", "a"])
        with pytest.raises(ValueError, match="class tables differ"):
            evaluate(ModelSpec(), train, test)
        with pytest.raises(ValueError, match="class tables differ"):
            meta_search(train, test)
        part = load_partition(*paths)
        assert evaluate(ModelSpec(), part.train, part.test).correct_count == 4

    def test_separately_loaded_symbol_tables_are_rejected(self, tmp_path):
        # equal class tables, but each file numbers its symbols by first appearance
        paths = tmp_path / "train.csv", tmp_path / "test.csv"
        paths[0].write_text("x,0,a\ny,0,b\nx,1,a\ny,1,b\n")
        paths[1].write_text("y,9,a\nx,0,a\ny,0,b\nx,1,a\ny,1,b\n")
        train, test = (load_csv(path) for path in paths)
        assert (train.features[0].codes, test.features[0].codes) == ({"x": 0, "y": 1},
                                                                     {"y": 0, "x": 1})
        with pytest.raises(ValueError, match="encode feature 'a1' differently"):
            evaluate(ModelSpec(), train, test)
        with pytest.raises(ValueError, match="encode feature 'a1' differently"):
            meta_search(train, test)
        part = load_partition(*paths)
        assert evaluate(ModelSpec(), part.train, part.test).correct_count == 4

    def test_other_feature_kinds_are_rejected(self, tmp_path):
        paths = tmp_path / "train.csv", tmp_path / "test.csv"
        paths[0].write_text("x,0,a\ny,0,b\n")
        paths[1].write_text("1,0,a\n0,0,b\n")
        with pytest.raises(ValueError, match="encode feature 'a1' differently"):
            evaluate(ModelSpec(), *(load_csv(path) for path in paths))

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_separately_loaded_native_codes_pass(self, request, i):
        # Monk tokens keep their integer values, so a test table may lack a
        # symbol but never gives one another code
        files = [DATA_DIR / f"monks-{i}.{side}" for side in ("train", "test")]
        train, test = (load_monks(path) for path in files)
        part = request.getfixturevalue(f"monks{i}")
        assert (evaluate(ModelSpec(), train, test).to_dict()
                == evaluate(ModelSpec(), part.train, part.test).to_dict())


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

    def test_requested_counts_every_loo_count(self, monks1):
        ctx = EvalContext(monks1.train)
        model = ModelSpec(k=3)
        ctx.loo_count(model)
        ctx.loo_count(model)
        assert (ctx.requested, ctx.evaluations) == (2, 1)
        memo = dict(ctx._counts)
        ctx.loo_report(model)  # a report is not a request, and is not remembered
        assert ctx.requested == 2 and ctx._counts == memo

    @pytest.mark.parametrize("kind, alpha", [(MINKOWSKI, 2), (CHEBYSHEV, None)])
    def test_spellings_score_as_in_a_fresh_context(self, monks1, kind, alpha):
        # -0.0 misses the last matrix's key and falls through to a delta that
        # steps no column (Chebyshev: a full sum); the explicit mask is the
        # same key as None
        zero, minus_zero = np.ones(6), np.ones(6)
        zero[2], minus_zero[2] = 0.0, -0.0
        spellings = [(zero, None), (minus_zero, None), (None, None),
                     (None, np.ones(6, dtype=bool))]
        ctx = EvalContext(monks1.train)
        for weights, mask in spellings:
            for k in (1, 3):
                model = ModelSpec(k, DistanceSpec(kind, alpha, weights), mask)
                fresh = EvalContext(monks1.train)
                assert ctx.loo_count(model) == fresh.loo_count(model)
                assert ctx._last.dist.tobytes() == fresh._last.dist.tobytes()

    def test_counts_match_reports(self, monks1):
        ctx = EvalContext(monks1.train, monks1.test)
        rng = np.random.default_rng(44)
        models = [random_model(rng, 6) for _ in range(8)]
        for model in models + models:
            assert ctx.loo_count(model) == ctx.loo_report(model).correct_count
            assert ctx.test_count(model) == ctx.test_report(model).correct_count


def test_full_sum_frees_the_old_matrix_first():
    # a change of kind sums in full; the old matrix is gone before the new one exists
    rng = np.random.default_rng(12)
    n = 200
    ds = make_dataset(rng.normal(size=(n, 12)), rng.integers(0, 2, size=n))
    weights = np.round(rng.integers(1, 11, size=12) / 10, 10)
    tracemalloc.start()
    try:
        ctx = EvalContext(ds)
        ctx.loo_count(ModelSpec(distance=DistanceSpec(CHEBYSHEV, None, weights)))
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ctx.loo_count(ModelSpec(distance=DistanceSpec(MINKOWSKI, 1, weights)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * n * n * 8


def traced_peak(score) -> int:
    """Bytes that score() allocates at its peak, beyond what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        score()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def wide_split(rng, n_train, n_test, width):
    train = make_dataset(rng.normal(size=(n_train, width)), rng.integers(0, 3, n_train))
    test = make_dataset(rng.normal(size=(n_test, width)), rng.integers(0, 3, n_test),
                        n_classes=3)
    return train, test


def test_test_scoring_holds_no_test_matrix():
    # 400 test rows against 800 training rows are five row blocks, each summed
    # and voted in block-sized arrays; the whole 400 x 800 matrix is 2.56 MB
    train, test = wide_split(np.random.default_rng(20), 800, 400, 8)
    assert 4 * distance.BLOCK_BYTES < 8 * test.n * train.n
    for k in (1, 3):
        peak = traced_peak(lambda: EvalContext(train, test).test_report(ModelSpec(k=k)))
        assert peak < 4 * distance.BLOCK_BYTES


def test_an_eval_peaks_at_its_loo_matrix_and_four_blocks():
    # metaknn eval's two scorings: the leave-one-out matrix is the one n x n
    # array, and neither the vote nor the test side adds another
    train, test = wide_split(np.random.default_rng(21), 800, 400, 8)
    model = ModelSpec(k=3, distance=DistanceSpec(MINKOWSKI, 1, np.arange(1, 9) / 10))

    def scorings():
        ctx = EvalContext(train, test)
        ctx.loo_report(model)
        ctx.test_report(model)

    assert traced_peak(scorings) <= 8 * train.n * train.n + 4 * distance.BLOCK_BYTES


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [1, 3])
def test_test_report_in_row_blocks_is_the_whole_matrix_vote(kind, k):
    # blocks of 7 rows cut 45 test rows into 7, the last ragged; small integer
    # features tie many distances, so first shells are shared and votes widen
    rng = np.random.default_rng(k)
    train = make_dataset(rng.integers(0, 3, size=(60, 4)).astype(float), rng.integers(0, 3, 60))
    test = make_dataset(rng.integers(0, 3, size=(45, 4)).astype(float), rng.integers(0, 3, 45),
                        n_classes=3)
    model = ModelSpec(k, DistanceSpec(*kind, weights=[1.0, 0.5, 2.0, 1.0]))
    key = term_key(*kind)
    scale = term_scale(key, train.vectors, queries=test.vectors)
    factors, _, _ = multipliers(model.active_weights(4))
    whole = distance_sums(kind[0], key, scale, test.vectors, train.vectors, range(4), factors)
    assert distance.block_rows(train.n) >= test.n  # one block: the whole matrix is voted at once
    winners, votes, sizes = shell_votes(whole, train.labels, k, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance, "BLOCK_BYTES", 8 * 60 * 7)
        report = EvalContext(train, test).test_report(model)
    assert report.winners.tobytes() == winners.tobytes()
    assert report.class_probs.tobytes() == (votes / sizes[:, None]).tobytes()
    assert np.array_equal(report.confusion, confusion_of(test.labels, winners, 3))


def test_kept_columns_share_one_store_per_term_kind(monks1):
    # each term kind's kept columns are views of one (features, n, n) array,
    # allocated at its first kept column and filled column by column
    train = monks1.train
    ctx = EvalContext(train)
    ctx.loo_count(ModelSpec(feature_mask=[True, False, True, False, False, True]))
    ctx.loo_count(ModelSpec(distance=DistanceSpec(MINKOWSKI, 1)))
    assert sorted(ctx._stores) == ["abs", "sq"]
    for key, columns in (("sq", [0, 2, 5]), ("abs", list(range(6)))):
        store = ctx._stores[key]
        assert store.shape == (6, train.n, train.n) and sorted(ctx._terms[key]) == columns
        for j in columns:
            kept = ctx._terms[key][j]
            assert kept.base is store
            fresh = feature_terms(train.vectors[:, j], train.vectors[:, j], key, ctx._scale(key))
            assert kept.tobytes() == fresh.tobytes()


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
            s1, s2 = term_scale(key, ds.vectors), term_scale(key, tiny)
            for j in range(ds.n_features):
                terms = feature_terms(ds.vectors[:, j], ds.vectors[:, j], key, s1)
                assert np.array_equal(terms, feature_terms(tiny[:, j], tiny[:, j], key, s2))
                assert terms.max() > 2 ** 20 and np.array_equal(terms, np.rint(terms))

    def test_backward_elimination_candidates_are_deltas(self, ionosphere, monks2, monkeypatch):
        # each round's drops are one-column batches from the round's base, which
        # is itself a delta from the last matrix; no scoring after the first
        # sums more than three columns in full (an unbatched candidate is a
        # delta that changes at most three), and the requests are unchanged
        summed = []
        original = evaluation.distance_sums
        monkeypatch.setattr(evaluation, "distance_sums", lambda *args: (
            summed.append(len(args[6])) or original(*args)))
        ctx = EvalContext(ionosphere.train)
        select_features(ctx, ModelSpec())
        assert ctx.requested == 595 and ctx.evaluations > 500
        assert summed[0] == 34
        assert max(summed[1:], default=0) <= 3
        # most of the 594 drops, from 33 rounds
        assert ctx.filled_by_pairs + ctx.filled_by_stack > 500
        # Monk-2's rounds are tie-heavy: every drop of its 5 rounds is voted as
        # stacked rows, and each count is the one a fresh context scores
        summed.clear()
        ctx = EvalContext(monks2.train)
        select_features(ctx, ModelSpec())
        assert ctx.requested == 21 and ctx.evaluations == 21 and summed == [6]
        assert ctx.filled_by_stack == 20 and ctx.filled_by_pairs == ctx.batches_refused == 0
        for (_, key), count in ctx._counts.items():
            assert EvalContext(monks2.train).loo_count(model_of(key)) == count

    def test_delta_needs_numerators_inside_the_headroom(self, monks2, monkeypatch):
        # one column moves in both pairs; at the common denominator 4 every
        # numerator is small, at 999000 the unit weight's is 999000 >= 2**16
        summed = []
        original = evaluation.distance_sums
        monkeypatch.setattr(evaluation, "distance_sums", lambda *args: (
            summed.append(len(args[6])) or original(*args)))
        train = monks2.train
        n = train.n_features

        def model(second):
            w = np.ones(n)
            w[1] = second
            return ModelSpec(distance=DistanceSpec(MINKOWSKI, 2, w))

        for first, second, full in ((0.5, 0.25, False), (1 / 999, 1 / 1000, True)):
            ctx = EvalContext(train)
            ctx.loo_report(model(first))
            fresh = EvalContext(train).loo_report(model(second))
            summed.clear()
            got = ctx.loo_report(model(second))
            assert len(summed) == full
            assert got.to_dict() == fresh.to_dict()
            assert np.array_equal(got.class_probs, fresh.class_probs)


@pytest.mark.parametrize("name", ["monks2", "ionosphere"])
def test_column_steps_leave_the_fresh_matrix(request, monkeypatch, name):
    # unit steps (a drop, then its restore) and a multi-step move (0.2 -> 0.7
    # at L=10) are deltas; the matrix they leave must be the one a fresh
    # accumulation gives, bit for bit, not only score alike
    train = request.getfixturevalue(name).train
    n, vectors = train.n_features, train.vectors
    summed = []
    original = evaluation.distance_sums
    monkeypatch.setattr(evaluation, "distance_sums", lambda *args: (
        summed.append(len(args[6])) or original(*args)))

    def fresh(model):
        scale = term_scale("sq", vectors, [f.name for f in train.features])
        columns = np.flatnonzero(model.mask_for(n))
        factors, _, _ = multipliers(model.active_weights(n))
        terms = (feature_terms(vectors[:, j], vectors[:, j], "sq", scale) for j in columns)
        dist = accumulate(MINKOWSKI, terms, factors, (train.n, train.n))
        np.fill_diagonal(dist, np.inf)
        return dist

    dropped, tenths = np.ones(n, dtype=bool), np.ones(n)
    dropped[1] = False
    tenths[2] = 0.2
    moved = tenths.copy()
    moved[2] = 0.7
    ctx = EvalContext(train)
    models = [ModelSpec(), ModelSpec(feature_mask=dropped), ModelSpec(),
              ModelSpec(distance=DistanceSpec(MINKOWSKI, 2, tenths)),
              ModelSpec(distance=DistanceSpec(MINKOWSKI, 2, moved))]
    for model in models:
        ctx.loo_report(model)
        assert ctx._last.dist.tobytes() == fresh(model).tobytes()
    assert summed == [n]  # only the first model was summed in full


def first_rows(data: Dataset, n: int) -> Dataset:
    return Dataset(data.features, data.vectors[:n], data.labels[:n], data.class_names)


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
    _walk(first_rows(ionosphere.train, 60), steps)


@given(steps=STEPS)
@settings(max_examples=10, deadline=None)
def test_delta_scoring_equals_fresh_scoring_in_row_blocks(ionosphere, steps):
    # blocks of 7 rows cut the 60-row slice into 9, the last ragged: the first
    # scoring streams each block against its own and later rows, and later
    # full sums read the kept columns block by block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance, "BLOCK_BYTES", 8 * 60 * 7)
        _walk(first_rows(ionosphere.train, 60), steps)


BATCHES = ("drops", "grid", "lcm", "headroom")
# _BATCH_TIE_SHARE values that force each route of a one-column batch: no
# base's share of shared minima exceeds 1.0, and every base's exceeds -1.0
ROUTES = {"pairs": 1.0, "stack": -1.0}


def model_of(key: tuple) -> ModelSpec:
    """The model whose EvalContext.model_key is key."""
    k, kind, alpha, mask, weights = key
    return ModelSpec(k, DistanceSpec(kind, alpha, np.frombuffer(weights).copy()),
                     np.frombuffer(mask, dtype=bool).copy())


@given(seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans(), kind=st.sampled_from(ALL_KINDS),
       batch=st.sampled_from(BATCHES), route=st.sampled_from(sorted(ROUTES)))
@settings(max_examples=200, deadline=None)
def test_filled_counts_equal_fresh_counts(seed, ties, kind, batch, route):
    # a batch of candidates that each change one column of the base: drops,
    # grid steps, quarters against tenths (worked at their lcm, 20), and
    # 1/1000ths against a 1/990 base, whose lcm 99000 puts a unit weight's
    # numerator past the headroom, so that batch fills nothing, and neither
    # does a Chebyshev one; the route is forced, so that small-integer data
    # reaches the pair route's shared minima and tied votes, and spread data
    # the stacked rows
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(8, 31)), int(rng.integers(2, 6))
    labels = rng.integers(0, 3, n)
    labels[:2] = 0, 1
    vectors = rng.integers(0, 3, (n, width)) if ties else np.round(rng.normal(size=(n, width)), 3)
    train = make_dataset(vectors, labels)
    w, pos = rng.integers(1, 11, width) / 10, int(rng.integers(width))
    values = {"grid": [g / 10 for g in range(11) if g / 10 != w[pos]], "lcm": [0.25, 0.75],
              "headroom": [1 / 1000, 3 / 1000]}.get(batch, [])
    if batch == "headroom":
        w[pos], w[pos - 1] = 1 / 990, 1.0
    base = ModelSpec(1, DistanceSpec(*kind, w))
    if batch == "drops":
        candidates = [ModelSpec(1, DistanceSpec(*kind, np.delete(w, j)), np.arange(width) != j)
                      for j in range(width)]
    else:
        candidates = [ModelSpec(1, DistanceSpec(*kind, np.where(np.arange(width) == pos, v, w)))
                      for v in values]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_BATCH_TIE_SHARE", ROUTES[route])
        ctx = EvalContext(train)
        ctx.fill_one_column(base, [(c.mask_for(width), c.active_weights(width))
                                   for c in candidates])
    refused = batch == "headroom" or kind[0] == CHEBYSHEV
    filled = 0 if refused else len(candidates)
    assert ctx.requested == 0
    assert ctx.evaluations == len(ctx._counts) == filled
    assert ctx.batches_refused == refused
    assert (ctx.filled_by_pairs, ctx.filled_by_stack) == \
        ((filled, 0) if route == "pairs" else (0, filled))
    if not refused:  # the base's matrix stays the last one
        assert ctx._last.model == ctx.model_key(base)[1:]
    for cand in candidates:
        count = ctx._counts.get(("train", ctx.model_key(cand)))
        assert count in (None, EvalContext(train).loo_count(cand))


class Unbatched(EvalContext):
    """A context that scores every candidate one by one."""

    def fill_one_column(self, model, candidates) -> None:
        pass


@pytest.mark.parametrize("monk", ["monks1", "monks2", "monks3"])
@given(kind=st.sampled_from(ALL_KINDS), mask=st.lists(st.booleans(), min_size=6, max_size=6),
       quarters=st.lists(st.integers(0, 4), min_size=6, max_size=6))
@example(kind=(MINKOWSKI, 2), mask=[True] * 6, quarters=[4] * 6)  # the suites' reference
@settings(max_examples=4, deadline=None)
def test_batched_channels_equal_one_by_one(request, monk, kind, mask, quarters):
    # backward elimination and a quantized weight search at step 0.25, each in
    # a context with its batches and in one without: every count the two
    # memos hold, and the requests and evaluations, must be the same
    train = request.getfixturevalue(monk).train
    mask, weights = np.array(mask), np.array(quarters) / 4
    mask[np.argmax(weights)] = True  # one feature at least is active
    ref = ModelSpec(1, DistanceSpec(*kind, weights[mask]), mask)
    for channel, options in ((select_features, {}), (weight_search_quantized, {"step": 0.25})):
        ctx, plain = EvalContext(train), Unbatched(train)
        got, want = channel(ctx, ref, **options), channel(plain, ref, **options)
        assert got.correct_count == want.correct_count
        assert got.model.describe(6) == want.model.describe(6)
        assert ctx._counts == plain._counts
        assert (ctx.requested, ctx.evaluations) == (plain.requested, plain.evaluations)
        assert plain.filled_by_pairs == plain.filled_by_stack == 0
        batched = ctx.filled_by_pairs + ctx.filled_by_stack
        if kind[0] == CHEBYSHEV:
            assert batched == 0
        elif channel is weight_search_quantized or np.count_nonzero(weights[mask]) > 1:
            # some round has two candidates or more that change a column's
            # factor (a dropped zero weight changes none)
            assert batched > 0


class TestFillRefusals:
    """Batches that fill nothing, whose candidates take the scoring path, and
    one that a tie-heavy base does not refuse."""

    @staticmethod
    def filled(train, base, candidates) -> int:
        ctx, n = EvalContext(train), train.n_features
        ctx.fill_one_column(base, [(c.mask_for(n), c.active_weights(n)) for c in candidates])
        assert ctx.evaluations == len(ctx._counts)
        return ctx.evaluations

    @staticmethod
    def weighted(*weights, k=1):
        return [ModelSpec(k, DistanceSpec(MINKOWSKI, 2, w)) for w in weights]

    def test_k_above_one(self, ionosphere):
        base, *candidates = self.weighted(*np.ones((3, 34)), k=3)
        candidates[0].distance.weights[0], candidates[1].distance.weights[1] = 0.5, 0.5
        assert self.filled(ionosphere.train, base, candidates) == 0

    def test_inexact_candidate_and_batch_of_one(self, ionosphere):
        base, exact, inexact = self.weighted(*np.ones((3, 34)))
        exact.distance.weights[0], inexact.distance.weights[1] = 0.5, 1 / 997 + 1e-7
        assert self.filled(ionosphere.train, base, [exact, inexact]) == 0
        assert self.filled(ionosphere.train, base, [exact, exact]) == 0

    def test_two_column_candidate(self, ionosphere):
        base, one, two = self.weighted(*np.ones((3, 34)))
        one.distance.weights[0] = 0.5
        two.distance.weights[:2] = 0.5
        assert self.filled(ionosphere.train, base, [one, two]) == 0
        two.distance.weights[0] = 1.0  # now it changes column 2 alone
        assert self.filled(ionosphere.train, base, [one, two]) == 2

    def test_tie_heavy_base(self, monks2):
        # Monk-2's plain model holds most rows' minima twice: the batch votes
        # its candidates as stacked rows, each count the one a fresh context scores
        base, *candidates = self.weighted(*np.ones((3, 6)))
        candidates[0].distance.weights[0], candidates[1].distance.weights[1] = 0.5, 0.5
        ctx, n = EvalContext(monks2.train), 6
        ctx.fill_one_column(base, [(c.mask_for(n), c.active_weights(n)) for c in candidates])
        assert ctx.evaluations == ctx.filled_by_stack == len(ctx._counts) == 2
        for cand in candidates:
            fresh = EvalContext(monks2.train).loo_count(cand)
            assert ctx._counts["train", ctx.model_key(cand)] == fresh


@pytest.mark.parametrize("scored", [True, False])
def test_a_dropped_zero_weight_takes_the_base_count(monks1, scored):
    # dropping column 2, whose weight is 0, leaves the base's factors and so its
    # matrix: the batch gives that drop the base's count when the memo holds it,
    # and otherwise leaves it to loo_count; the other five drops are batched
    train, n = monks1.train, 6
    w = np.array([1.0, 0.5, 0.0, 1.0, 0.3, 1.0])
    base = ModelSpec(1, DistanceSpec(MINKOWSKI, 2, w))
    drops = [ModelSpec(1, DistanceSpec(MINKOWSKI, 2, np.delete(w, j)), np.arange(n) != j)
             for j in range(n)]
    ctx = EvalContext(train)
    if scored:
        ctx.loo_count(base)
    ctx.fill_one_column(base, [(c.mask_for(n), c.active_weights(n)) for c in drops])
    assert ctx.filled_by_base == scored
    assert ctx.filled_by_pairs + ctx.filled_by_stack == 5
    assert ctx.evaluations == len(ctx._counts) == 5 + 2 * scored
    fresh = EvalContext(train).loo_count(drops[2])
    assert ctx.loo_count(drops[2]) == fresh
    assert ctx.evaluations == 6 + scored  # the drop is scored one by one only when not filled
    if scored:
        assert fresh == ctx.loo_count(base)


VARIED = 6
COLUMN = st.integers(0, VARIED - 1)  # the first Ionosphere features: steps meet on them


class ContextMachine(RuleBasedStateMachine):
    """One EvalContext through interleaved model changes and scorings on both
    sides; every count and report must equal a fresh context's, and sampled
    rows the scalar oracle's.  The rules change the first VARIED features;
    the others stay as initialize leaves them, all active at unit weight or
    all off."""

    def __init__(self, train: Dataset, test: Dataset):
        super().__init__()
        self.train, self.test = train, test
        self.ctx = EvalContext(train, test)
        self.requested = 0
        n = train.n_features
        self.mask, self.w, self.k, self.kind = np.ones(n, dtype=bool), np.ones(n), 1, ALL_KINDS[1]
        self.fine = 0, 1 / 1000  # the last fine_weight column and value

    @initialize(rest=st.booleans())
    def start(self, rest):
        self.mask[VARIED:] = rest

    def model(self) -> ModelSpec:
        kind, alpha = self.kind
        return ModelSpec(self.k, DistanceSpec(kind, alpha, self.w[self.mask].copy()),
                         self.mask.copy())

    @rule(j=COLUMN)
    def drop(self, j):
        if self.mask.sum() > 1:
            self.mask[j] = False

    @rule(j=COLUMN)
    def restore(self, j):
        self.mask[j] = True

    @rule(j=COLUMN, step=st.sampled_from([-1, 1]))
    def grid_step(self, j, step):
        self.w[j] = min(max(round(self.w[j] * 10) + step, 0), 10) / 10

    @rule(j=COLUMN, p=st.integers(1, 996))
    def off_grid(self, j, p):
        self.w[j] = p / 997 + 1e-7  # no p/L within the tolerance

    @rule(j=COLUMN)
    def fine_weight(self, j):
        # 1/990 and 1/1000 in turn, on one column at a time: each is exact
        # with tenths, and a delta between the two works at their lcm 99000,
        # past the headroom, so it is refused
        last, value = self.fine
        if self.w[last] == value:
            self.w[last] = 1.0
        value = 1 / 1000 if value == 1 / 990 else 1 / 990
        self.w[j], self.fine = value, (j, value)

    @rule(j=COLUMN, drops=st.booleans())
    def fill_batch(self, j, drops):
        # the varied columns' drops, or column j at every grid value; every
        # count, filled or not, must equal the one a context without the
        # batch scores
        base, (kind, alpha) = self.model(), self.kind
        if drops:
            masks = [self.mask & (np.arange(len(self.mask)) != c) for c in range(VARIED)]
            candidates = [ModelSpec(self.k, DistanceSpec(kind, alpha, self.w[m].copy()), m)
                          for m in masks if m.any()]
        else:
            candidates = []
            for g in range(11):
                w = self.w.copy()
                w[j] = g / 10
                candidates.append(ModelSpec(self.k, DistanceSpec(kind, alpha, w[self.mask]),
                                            self.mask.copy()))
        n = len(self.mask)
        self.ctx.fill_one_column(base, [(c.mask_for(n), c.active_weights(n)) for c in candidates])
        unbatched = EvalContext(self.train)
        for cand in candidates:
            self.requested += 1
            assert self.ctx.loo_count(cand) == unbatched.loo_count(cand)

    @rule(k=st.integers(1, 5))
    def set_k(self, k):
        self.k = k

    @rule(kind=st.sampled_from(ALL_KINDS))
    def set_kind(self, kind):
        self.kind = kind

    @rule()
    def loo_count(self):
        model = self.model()
        self.requested += 1
        assert self.ctx.loo_count(model) == EvalContext(self.train).loo_count(model)

    @rule(i=st.integers(0, 59))
    def loo_report(self, i):
        model = self.model()
        got = self.ctx.loo_report(model)
        self.same_report(got, EvalContext(self.train).loo_report(model))
        oracle = classify(model, self.train, self.train.vectors[i], exclude=i)
        assert oracle.winner == got.winners[i]

    @rule()
    def test_count(self):
        model = self.model()
        assert self.ctx.test_count(model) == EvalContext(self.train, self.test).test_count(model)

    @rule(i=st.integers(0, 39))
    def test_report(self, i):
        model = self.model()
        got = self.ctx.test_report(model)
        self.same_report(got, EvalContext(self.train, self.test).test_report(model))
        assert classify(model, self.train, self.test.vectors[i]).winner == got.winners[i]

    @staticmethod
    def same_report(got, fresh):
        assert got.to_dict() == fresh.to_dict()
        assert np.array_equal(got.class_probs, fresh.class_probs)

    @invariant()
    def every_request_is_counted(self):
        assert self.ctx.requested == self.requested

    @invariant()
    def memo_is_multipliers(self):
        for w, (factors, den, unit) in self.ctx._multipliers.items():
            fresh_factors, fresh_den, fresh_unit = multipliers(np.frombuffer(w))
            assert factors.tobytes() == fresh_factors.tobytes() and den == fresh_den
            assert np.float64(unit).tobytes() == np.float64(fresh_unit).tobytes()


def test_context_state_machine(ionosphere):
    # blocks of 7 rows cut the 60 training rows into 9 and the 40 test rows
    # into 6, each ending ragged; 100 walks of up to 30 steps take about 6 s
    # and usually reach the delta's headroom refusal and knn's exhausted shells
    train, test = first_rows(ionosphere.train, 60), first_rows(ionosphere.test, 40)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance, "BLOCK_BYTES", 8 * 60 * 7)
        run_state_machine_as_test(lambda: ContextMachine(train, test),
                                  settings=settings(max_examples=100, stateful_step_count=30,
                                                    deadline=None))
