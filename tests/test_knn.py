import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from metaknn import (DistanceSpec, EvalContext, ModelSpec, classify, distance, knn, neighbors,
                     shell_vote)
from metaknn.distance import MINKOWSKI
from metaknn.knn import _is_tied, shell_votes

from conftest import ALL_KINDS, make_dataset, random_dataset, random_model


def manhattan(k=1, weights=None, mask=None):
    return ModelSpec(k=k, distance=DistanceSpec(MINKOWSKI, 1, weights), feature_mask=mask)


@pytest.fixture
def line_points():
    # 1-D training set at 0, 1, 2
    return make_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])


class TestNeighbors:
    def test_nearest_single(self, line_points):
        got = neighbors(manhattan(k=1), line_points, [1.9])
        assert len(got) == 1
        assert got[0][0] == 2
        assert got[0][1] == pytest.approx(0.1)

    def test_all_three_ordered(self, line_points):
        got = neighbors(manhattan(k=3), line_points, [1.9])
        assert [row for row, _ in got] == [2, 1, 0]
        dists = [d for _, d in got]
        assert dists == sorted(dists)

    def test_ties_at_kth_rank_included_lower_index_first(self):
        # the neighborhood keeps every point tied with the k-th rank, so a
        # tie at the boundary makes it larger than k; equidistant rows come
        # back in row-index order
        train = make_dataset([[0.0], [2.0], [2.0]], [0, 1, 1])
        got = neighbors(manhattan(k=2), train, [1.0])
        assert [row for row, _ in got] == [0, 1, 2]
        assert len(got) == 3

    def test_exclude_removes_row(self, line_points):
        got = neighbors(manhattan(k=1), line_points, [2.0], exclude=2)
        assert got[0][0] == 1

    def test_k_too_large(self, line_points):
        with pytest.raises(ValueError, match="k=3"):
            neighbors(manhattan(k=3), line_points, [1.0], exclude=0)


class TestClassify:
    def test_three_point_vote(self, line_points):
        pred = classify(manhattan(k=3), line_points, [0.5])
        assert pred.winner == 0
        assert np.allclose(pred.class_probs, [2 / 3, 1 / 3])

    def test_k1_one_hot(self, line_points):
        pred = classify(manhattan(k=1), line_points, [1.9])
        assert pred.winner == 1
        assert np.array_equal(pred.class_probs, [0.0, 1.0])

    def test_vote_tie_smaller_distance_sum_wins(self):
        # k=2: one A at 0.1, one B at 0.5; tied vote falls back to the
        # smaller summed distance once no further shell exists
        train = make_dataset([[0.0], [0.6]], [0, 1])
        pred = classify(manhattan(k=2), train, [0.1])
        assert pred.winner == 0
        assert np.allclose(pred.class_probs, [0.5, 0.5])

    def test_vote_tie_extends_by_one_shell(self):
        # shell {0, 2} is tied 1-1; the next shell brings one more B vote
        train = make_dataset([[0.0], [2.0], [3.0]], [0, 1, 1])
        pred = classify(manhattan(k=2), train, [1.0])
        assert pred.winner == 1
        assert np.allclose(pred.class_probs, [1 / 3, 2 / 3])

    def test_equal_sums_pick_lower_class_index(self):
        train = make_dataset([[0.0], [2.0]], [1, 0])
        pred = classify(manhattan(k=2), train, [1.0])
        assert pred.winner == 0

    def test_winner_attains_max_probability(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ds = random_dataset(rng, max_n=15)
            model = random_model(rng, ds.n_features)
            model = ModelSpec(k=min(model.k, ds.n - 1), distance=model.distance,
                              feature_mask=model.feature_mask)
            pred = classify(model, ds, rng.normal(size=ds.n_features))
            assert pred.class_probs[pred.winner] == pred.class_probs.max()
            assert pred.class_probs.sum() == pytest.approx(1.0)

    def test_exclude_changes_self_match(self, line_points):
        with_self = classify(manhattan(k=1), line_points, [2.0])
        without = classify(manhattan(k=1), line_points, [2.0], exclude=2)
        assert with_self.winner == 1
        assert without.winner == 0

    def test_mask_equals_zero_weight(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            ds = random_dataset(rng, max_n=20, max_features=5)
            if ds.n_features < 2:
                continue
            mask = rng.random(ds.n_features) < 0.6
            if not mask.any():
                mask[0] = True
            kind, alpha = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
            masked = ModelSpec(k=1, distance=DistanceSpec(kind, alpha), feature_mask=mask)
            zeroed = ModelSpec(k=1, distance=DistanceSpec(
                kind, alpha, weights=mask.astype(float)))
            q = rng.normal(size=ds.n_features)
            assert classify(masked, ds, q).winner == classify(zeroed, ds, q).winner

    def test_weight_rescaling_keeps_predictions(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, max_n=25, max_features=4)
        w = rng.random(ds.n_features) + 0.5
        queries = rng.normal(size=(20, ds.n_features))
        for kind, alpha in ALL_KINDS:
            base = ModelSpec(k=3, distance=DistanceSpec(kind, alpha, w))
            for c in (0.01, 3.0, 1000.0):
                scaled = ModelSpec(k=3, distance=DistanceSpec(kind, alpha, c * w))
                for q in queries:
                    assert classify(base, ds, q).winner == classify(scaled, ds, q).winner

    def test_repeat_calls_identical(self, line_points):
        model = manhattan(k=3)
        a = classify(model, line_points, [0.7])
        b = classify(model, line_points, [0.7])
        assert a.winner == b.winner
        assert np.array_equal(a.class_probs, b.class_probs)


class TestShellVote:
    def test_shell_sizes_respect_ties(self):
        labels = np.array([0, 0, 1, 1])
        dist = np.array([1.0, 2.0, 2.0, 3.0])
        winner, votes, size = shell_vote(dist, labels, 2, 2)
        # k=2 cutoff hits the tied pair at distance 2, so the shell holds 3
        assert size == 3
        assert winner == 0

    def test_infinite_entries_excluded(self):
        labels = np.array([0, 1, 1])
        dist = np.array([np.inf, 1.0, 2.0])
        winner, _, _ = shell_vote(dist, labels, 1, 2)
        assert winner == 1

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(k=0)
        with pytest.raises(ValueError):
            ModelSpec(k=1, feature_mask=np.zeros(3, dtype=bool))


@st.composite
def vote_cases(draw, min_rows=1, max_rows=8, max_cols=12):
    """Small distance matrices over a few integer values (so ties abound), some +inf."""
    n_rows, n_cols = draw(st.integers(min_rows, max_rows)), draw(st.integers(1, max_cols))
    n_classes = draw(st.integers(2, 3))
    cell = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf])
    dist = np.array(draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows)))
    finite = int(np.isfinite(dist).sum(axis=1).min())
    assume(finite >= 1)
    labels = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                                    min_size=n_cols, max_size=n_cols)))
    return dist, labels, draw(st.integers(1, finite)), n_classes


@st.composite
def block_cases(draw):
    """vote_cases with the rows per block that cut them into three or more blocks."""
    dist, labels, k, n_classes = draw(vote_cases(min_rows=3, max_rows=24, max_cols=10))
    return dist, labels, k, n_classes, draw(st.integers(1, len(dist) // 3))


def votes_in_blocks(dist, labels, k, n_classes, per_block):
    """shell_votes with distance.BLOCK_BYTES set to per_block rows of dist."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance, "BLOCK_BYTES", 8 * max(1, dist.shape[1]) * per_block)
        assert distance.block_rows(dist.shape[1]) == per_block
        return shell_votes(dist, labels, k, n_classes)


# rows 4 and 8, in the second and third blocks, hold two equal entries of two
# classes and nothing else, so their shells run out while still tied
EXHAUSTED = (np.array([[0.0, 1.0, 2.0, 3.0]] * 4 + [[1.0, 1.0, np.inf, np.inf]]
                      + [[2.0, 0.0, 0.0, 1.0]] * 3 + [[np.inf, np.inf, 3.0, 3.0]]),
             np.array([0, 1, 0, 1]))


class TestShellVotes:
    @given(block_cases())
    @settings(max_examples=200, deadline=None)
    @example((*EXHAUSTED, 1, 2, 3))
    @example((*EXHAUSTED, 2, 2, 3))
    @example((*EXHAUSTED, 1, 2, 1))
    # k=1, every minimum unique in the first block, shared in the second
    @example((np.array([[0.0, 1.0, 2.0]] * 3 + [[1.0, 1.0, 2.0]] * 3 + [[2.0, 0.0, 1.0]] * 3),
              np.array([0, 1, 0]), 1, 2, 3))
    def test_row_blocks_match_per_row_shell_vote(self, case):
        # each block takes the k=1 shortcut, widens its tied rows and sends its
        # exhausted rows to shell_vote on its own, through one buffer
        dist, labels, k, n_classes, per_block = case
        before = dist.copy()
        winners, votes, sizes = votes_in_blocks(dist, labels, k, n_classes, per_block)
        assert dist.tobytes() == before.tobytes()
        for i, row in enumerate(dist):
            winner, row_votes, size = shell_vote(row, labels, k, n_classes)
            assert winners[i] == winner
            assert np.array_equal(votes[i], row_votes)
            assert sizes[i] == size

    @pytest.mark.parametrize("k, short, available", [(2, 7, 1), (1, 5, 0)])
    def test_short_row_in_a_later_block_raises(self, k, short, available):
        dist = np.tile([0.0, 1.0, 2.0, 3.0], (9, 1))
        dist[short, :4 - available] = np.inf
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match=f"k={k} but only {available} training points"):
            votes_in_blocks(dist, labels, k, 2, 3)

    @pytest.mark.parametrize("k", [1, 3])
    def test_votes_allocate_about_three_blocks(self, k):
        # an 800 x 800 matrix is ten blocks; the vote's scratch space is one
        # block's buffer and the tied rows of one block, never an n x n array
        rng = np.random.default_rng(k)
        n = 800
        dist = rng.integers(0, 40, size=(n, n)).astype(float)
        labels = rng.integers(0, 3, size=n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = shell_votes(dist, labels, k, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert distance.block_rows(n) < n // 8
        assert peak - before <= 3 * distance.BLOCK_BYTES + sum(a.nbytes for a in out)

    @given(vote_cases())
    @settings(max_examples=300, deadline=None)
    # k=1 with every row's minimum unique (the one-point shortcut): +inf
    # entries, a row holding a single finite entry, a single column
    @example((np.array([[0.0, 2.0, np.inf, 3.0], [np.inf, np.inf, 1.0, np.inf],
                        [3.0, 1.0, 2.0, np.inf]]), np.array([0, 1, 2, 0]), 1, 3))
    @example((np.array([[np.inf, 1.0], [1.0, np.inf]]), np.array([1, 0]), 1, 2))
    @example((np.array([[2.0], [0.0]]), np.array([1]), 1, 2))
    @example((np.array([[0.0, 1.0, 2.0]] * 10), np.array([0, 1, 0]), 1, 2))
    # k=1 with one row tied at its minimum: every row goes through the kernel,
    # also when the tie lies past the first rows, which are checked first
    @example((np.array([[0.0, 2.0, np.inf], [1.0, 1.0, 3.0]]), np.array([0, 1, 1]), 1, 2))
    @example((np.array([[0.0, 1.0, 2.0]] * 9 + [[1.0, 1.0, 2.0]]), np.array([0, 1, 0]), 1, 2))
    def test_matches_per_row_shell_vote(self, case):
        dist, labels, k, n_classes = case
        before = dist.copy()
        winners, votes, sizes = shell_votes(dist, labels, k, n_classes)
        # in a search dist is the context's last matrix, which the next delta updates
        assert dist.tobytes() == before.tobytes()
        for i, row in enumerate(dist):
            winner, row_votes, size = shell_vote(row, labels, k, n_classes)
            assert winners[i] == winner
            assert np.array_equal(votes[i], row_votes)
            assert sizes[i] == size

    def test_k_above_finite_count_raises(self):
        dist = np.array([[0.0, 1.0, 2.0], [np.inf, 1.0, np.inf]])
        labels = np.array([0, 1, 1])
        with pytest.raises(ValueError, match="k=2 but only 1"):
            shell_votes(dist, labels, 2, 2)

    def test_k1_without_finite_entries_raises(self):
        # the k=1 threshold is the row minimum, which a zero-width matrix lacks
        with pytest.raises(ValueError, match="k=1 but only 0 training points available"):
            shell_votes(np.empty((2, 0)), np.array([], dtype=int), 1, 2)
        dist = np.array([[0.0, 1.0], [np.inf, np.inf]])
        with pytest.raises(ValueError, match="k=1 but only 0 training points available"):
            shell_votes(dist, np.array([0, 1]), 1, 2)

    def test_k_above_row_width_raises(self):
        dist = np.array([[np.inf, 1.0], [1.0, np.inf]])
        with pytest.raises(ValueError, match="k=3 but only 1"):
            shell_votes(dist, np.array([0, 1]), 3, 2)

    def test_widens_every_tied_row_together(self, monkeypatch):
        # k=2 over labels 0,1,0,1,0,1: row 0 is decided at its first shell,
        # row 1 at its second, row 2 at its third; row 3 runs out of shells
        # while tied, and the summed-distance rule gives it class 1
        dist = np.array([[1.0, 2.0, 1.0, 3.0, 4.0, 5.0],
                         [1.0, 2.0, 3.0, 9.0, 9.0, 9.0],
                         [1.0, 2.0, 3.0, 3.0, 4.0, 9.0],
                         [2.0, 1.0, np.inf, np.inf, np.inf, np.inf]])
        labels = np.array([0, 1, 0, 1, 0, 1])
        expected = [shell_vote(row, labels, 2, 2) for row in dist]
        assert [(w, s) for w, _, s in expected] == [(0, 2), (0, 3), (0, 5), (1, 2)]
        scalar_rows = []
        monkeypatch.setattr(knn, "shell_vote",
                            lambda row, *args: scalar_rows.append(row) or shell_vote(row, *args))
        winners, votes, sizes = shell_votes(dist, labels, 2, 2)
        assert len(scalar_rows) == 1 and np.array_equal(scalar_rows[0], dist[3])
        for i, (winner, row_votes, size) in enumerate(expected):
            assert winners[i] == winner
            assert np.array_equal(votes[i], row_votes)
            assert sizes[i] == size

    @pytest.mark.parametrize("k", [1, 4])
    def test_monk2_loo_report_matches_classify(self, monks2, k):
        # Monk-2 attributes are small integers, so most shells hold ties
        train = monks2.train
        model = manhattan(k=k)
        report = EvalContext(train).loo_report(model)
        for i in range(train.n):
            direct = classify(model, train, train.vectors[i], exclude=i)
            assert report.winners[i] == direct.winner
            assert np.array_equal(report.class_probs[i], direct.class_probs)

    @pytest.mark.parametrize("name, short", [("ionosphere", True), ("monks2", False)])
    def test_k1_loo_takes_the_one_point_shortcut_without_ties(self, request, monkeypatch,
                                                              name, short):
        # the kernel tests its first votes for ties; the shortcut, taken only
        # when every row's minimum is unique, never votes by shells.  Nearly
        # every Ionosphere row has one nearest point; Monk-2 rows are full of ties
        tie_tests = []
        monkeypatch.setattr(knn, "_is_tied", lambda votes: (
            tie_tests.append(len(votes)) or _is_tied(votes)))
        train = request.getfixturevalue(name).train
        report = EvalContext(train).loo_report(ModelSpec())
        assert (tie_tests == []) == short
        if short:
            assert np.all(report.class_probs.max(axis=1) == 1.0)

    def test_ionosphere_k1_loo_report_matches_classify(self, ionosphere):
        # continuous data: nearly every first shell holds one point; the
        # scalar oracle is slow, so only the first rows are checked
        train = ionosphere.train
        model = manhattan(k=1)
        report = EvalContext(train).loo_report(model)
        for i in range(60):
            direct = classify(model, train, train.vectors[i], exclude=i)
            assert report.winners[i] == direct.winner
            assert np.array_equal(report.class_probs[i], direct.class_probs)


class TestComplexityRank:
    def test_plain_model_is_zero(self):
        assert ModelSpec().complexity_rank() == 0

    def test_each_deviation_counts(self):
        assert ModelSpec(k=3).complexity_rank() == 1
        assert ModelSpec(distance=DistanceSpec(MINKOWSKI, 1)).complexity_rank() == 1
        m = ModelSpec(distance=DistanceSpec(MINKOWSKI, 2, [1, 1, 0.5, 1, 0.2, 1.0]))
        assert m.complexity_rank() == 2
        mask = np.array([True, True, False, True, False, True])
        assert ModelSpec(feature_mask=mask).complexity_rank() == 2
