import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metaknn import (DistanceSpec, EvalContext, ModelSpec, PoolMember, build_pool,
                     classify, ensemble_predict, evaluate_sequence, meta_search,
                     optimize_distance, optimize_k, select_features,
                     select_model_sequence)
from metaknn.distance import CAMBERRA, MINKOWSKI
from metaknn.metasearch import _majority

from conftest import make_dataset, random_dataset


def perfect_set():
    return make_dataset([[0.0], [0.2], [5.0], [5.2]], [0, 0, 1, 1])


class TestMetaSearch:
    def test_perfect_reference_stops_immediately(self):
        model, trace = meta_search(perfect_set())
        assert trace.levels_accepted() == 0
        assert trace.stop_reason == "no-improvement"
        assert model.k == 1 and model.distance.kind == MINKOWSKI

    def test_decisions_ignore_test_set(self, monks1):
        with_test, trace_a = meta_search(monks1.train, monks1.test)
        without, trace_b = meta_search(monks1.train)
        assert with_test.describe(6) == without.describe(6)
        assert [lv.accepted for lv in trace_a.levels] == [lv.accepted for lv in trace_b.levels]
        assert trace_a.stop_reason == trace_b.stop_reason

    def test_accepted_scores_strictly_increase(self, monks1):
        model, trace = meta_search(monks1.train)
        scores = [trace.initial.train_correct]
        scores += [r.train_correct for r in trace.accepted_records()]
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_final_model_scores_last_accepted(self, monks1):
        from metaknn import EvalContext
        model, trace = meta_search(monks1.train)
        last = trace.accepted_records()[-1]
        assert EvalContext(monks1.train).loo_count(model) == last.train_correct

    def test_epsilon_blocks_small_gains(self, monks1):
        model, trace = meta_search(monks1.train, epsilon=0.5)
        # half the training set per level is unreachable, nothing is accepted
        assert trace.levels_accepted() == 0

    def test_channel_subset_respected(self, monks1):
        model, trace = meta_search(monks1.train, channels=("k",))
        assert all(c.channel == "k" for lv in trace.levels for c in lv.candidates)

    def test_unknown_channel_rejected(self, monks1):
        with pytest.raises(ValueError, match="unknown channels"):
            meta_search(monks1.train, channels=("k", "nope"))

    def test_unknown_weight_method_rejected(self, monks1):
        with pytest.raises(ValueError, match="unknown weight method"):
            meta_search(monks1.train, channels=("weights",), weight_method="bogus", budget=3)

    @pytest.mark.parametrize("step", [0.0, float("nan")])
    def test_bad_step_rejected_before_any_scoring(self, monks1, monkeypatch, step):
        def scored(*args, **kwargs):
            raise AssertionError("a model was scored")
        monkeypatch.setattr(EvalContext, "_score", scored)
        with pytest.raises(ValueError, match="must divide 1 evenly"):
            meta_search(monks1.train, channels=("weights",), step=step)

    def test_too_fine_step_rejected_before_any_scoring(self, monks1, monkeypatch):
        def scored(*args, **kwargs):
            raise AssertionError("a model was scored")
        monkeypatch.setattr(EvalContext, "_score", scored)
        with pytest.raises(ValueError, match="more than 1000 grid intervals"):
            meta_search(monks1.train, step=1e-6)

    @pytest.mark.parametrize("options, message", [
        ({"weight_method": "simplex", "budget": 0}, "budget must be a positive integer"),
        ({"budget": -7}, "budget must be a positive integer"),
        ({"channels": ("features",), "budget": 0}, "budget must be a positive integer"),
        ({"k_range": (5, 3)}, r"bad k range \(5, 3\)"),
        ({"k_range": (0, 3)}, r"bad k range \(0, 3\)"),
        ({"channels": ("weights",), "k_range": (200, 300)}, r"bad k range \(200, 123\)"),
    ], ids=["simplex-budget-0", "quantized-budget-negative", "no-weights-budget-0",
            "k-lo-above-hi", "k-lo-0", "k-lo-above-rows"])
    def test_bad_option_rejected_before_any_scoring(self, monks1, monkeypatch, options,
                                                    message):
        def scored(*args, **kwargs):
            raise AssertionError("a model was scored")
        monkeypatch.setattr(EvalContext, "_score", scored)
        with pytest.raises(ValueError, match=message):
            meta_search(monks1.train, step=1.0, **options)

    def test_level_one_candidates_match_the_public_channels(self, monks1):
        _, trace = meta_search(monks1.train, max_levels=1)
        ref = trace.initial.model
        recorded = {c.channel: c for c in trace.levels[0].candidates}
        for name, channel in [("k", optimize_k), ("distance", optimize_distance),
                              ("features", select_features)]:
            res = channel(EvalContext(monks1.train), ref)
            record = recorded[name]
            assert record.model.describe(6) == res.model.describe(6), name
            assert record.train_correct == res.correct_count, name
            assert record.evaluations == res.evaluations, name

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, monks1, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            meta_search(monks1.train, epsilon=epsilon)

    def test_budget_exhaustion_reaches_the_trace(self, monks1):
        _, trace = meta_search(monks1.train, channels=("weights", "k"),
                               weight_method="simplex", budget=20)
        first = {c.channel: c for c in trace.levels[0].candidates}
        assert first["weights"].budget_exhausted and first["weights"].evaluations == 20
        assert not first["k"].budget_exhausted
        records = trace.to_records()
        assert {r["channel"] for r in records if "budget_exhausted" in r} == {"weights"}
        assert all(r["budget_exhausted"] is True for r in records if "budget_exhausted" in r)

    def test_trace_serialization_is_stable(self, monks1):
        _, trace_a = meta_search(monks1.train, monks1.test)
        _, trace_b = meta_search(monks1.train, monks1.test)
        blob_a = "\n".join(json.dumps(r, sort_keys=True) for r in trace_a.to_records())
        blob_b = "\n".join(json.dumps(r, sort_keys=True) for r in trace_b.to_records())
        assert blob_a == blob_b
        kinds = {r["type"] for r in trace_a.to_records()}
        assert kinds == {"reference", "candidate", "decision", "stop"}


def member(k, preds, kind=MINKOWSKI, alpha=2):
    return PoolMember(ModelSpec(k=k, distance=DistanceSpec(kind, alpha)),
                      np.array(preds))


def column(votes):
    """One committee vote on a single row: a (members x 1) prediction matrix."""
    return np.asarray(votes)[:, None]


def earliest_member_majority(votes, n_classes):
    """Reference vote of one column: the first member voting for a leading class."""
    counts = np.bincount(votes, minlength=n_classes)
    leaders = set(np.flatnonzero(counts == counts.max()).tolist())
    return next(int(v) for v in votes if int(v) in leaders)


def vote_correct(members, truths):
    stacked = np.stack([m.predictions for m in members])
    n_classes = int(max(truths.max(), stacked.max())) + 1
    return int(np.sum(_majority(stacked, n_classes) == truths))


class TestSequenceSelection:
    def test_single_model_pool(self):
        truths = np.array([0, 1, 0, 1])
        pool = [member(1, [0, 1, 0, 0])]
        seq = select_model_sequence(pool, truths)
        assert len(seq.members) == 1
        assert seq.combined_correct == 3
        assert seq.combined_score == 0.75

    def test_duplicates_collapse_to_one(self):
        truths = np.array([0, 1, 0, 1])
        pool = [member(1, [0, 1, 0, 0]), member(1, [0, 1, 0, 0]),
                member(1, [0, 1, 0, 0])]
        seq = select_model_sequence(pool, truths)
        assert len(seq.members) == 1

    def test_two_member_step_is_flat(self):
        # a two-member committee equals its first member (vote ties revert
        # to the earliest), so the zero-gain rule stops growth at one model
        truths = np.array([0, 0, 0, 1, 1, 1])
        pool = [member(1, [0, 0, 0, 1, 1, 0]),  # 5 correct
                member(2, [0, 0, 0, 1, 0, 1]),  # 5 correct
                member(3, [0, 0, 0, 0, 1, 1])]  # 5 correct
        seq = select_model_sequence(pool, truths)
        assert len(seq.members) == 1
        assert seq.combined_correct == 5

    def test_negative_epsilon_lets_committees_form(self):
        # allowing zero-gain steps carries the sequence through the flat
        # two-member stage; the three complementary models then fix every
        # vector by majority
        truths = np.array([0, 0, 0, 1, 1, 1])
        pool = [member(1, [0, 0, 0, 1, 1, 0]),
                member(2, [0, 0, 0, 1, 0, 1]),
                member(3, [0, 0, 0, 0, 1, 1])]
        seq = select_model_sequence(pool, truths, epsilon=-0.1)
        assert len(seq.members) == 3
        assert seq.combined_correct == 6

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # a NaN epsilon never stops the greedy loop: it would take every member
        truths = np.array([0, 0, 0, 1, 1, 1])
        pool = [member(1, [0, 0, 0, 1, 1, 0]), member(2, [0, 0, 0, 1, 0, 1])]
        with pytest.raises(ValueError, match="epsilon must be finite"):
            select_model_sequence(pool, truths, epsilon=epsilon)

    def test_matches_exhaustive_on_hand_pools(self):
        # binary 3-model pools: two-member subsets collapse to their first
        # member, so once zero-gain steps are allowed the greedy path always
        # visits the exhaustive optimum (best single or the full committee)
        truths = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        rng = np.random.default_rng(67)
        for _ in range(40):
            pool = [member(k + 1, rng.integers(0, 2, size=8)) for k in range(3)]
            best_single = max(int(np.sum(m.predictions == truths)) for m in pool)
            best_subset = max(vote_correct(list(combo), truths)
                              for r in (1, 2, 3)
                              for combo in itertools.combinations(pool, r))
            seq0 = select_model_sequence(pool, truths)
            assert seq0.combined_correct == best_single
            seq = select_model_sequence(pool, truths, epsilon=-1e-9)
            assert seq.combined_correct == best_subset

    def test_combined_score_non_decreasing_on_random_pools(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(5, 15))
            truths = rng.integers(0, 2, size=n)
            pool = [member(int(k + 1), rng.integers(0, 2, size=n)) for k in range(4)]
            seq = select_model_sequence(pool, truths, epsilon=-1e-9)
            # replay the greedy growth and check each prefix
            prefix_scores = [vote_correct(seq.members[:i], truths)
                             for i in range(1, len(seq.members) + 1)]
            assert all(b >= a for a, b in zip(prefix_scores, prefix_scores[1:]))
            assert seq.combined_correct == prefix_scores[-1]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            select_model_sequence([member(1, [0, 1])], np.array([0, 1, 0]))


class TestEnsemblePredict:
    def test_single_member_equals_classify(self):
        ds = perfect_set()
        m = ModelSpec(k=1)
        report = classify(m, ds, [0.1])
        pool = [PoolMember(m, np.array([0, 0, 1, 1]))]
        seq = select_model_sequence(pool, ds.labels)
        pred = ensemble_predict(seq, ds, [0.1])
        assert pred.winner == report.winner

    def test_two_one_vote(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        members = [PoolMember(ModelSpec(k=1), np.array([0, 0, 1])),
                   PoolMember(ModelSpec(k=3), np.array([0, 0, 1])),
                   PoolMember(ModelSpec(k=2), np.array([0, 0, 1]))]
        from metaknn.metasearch import ModelSequence
        seq = ModelSequence(members, 3, 3)
        pred = ensemble_predict(seq, ds, [1.6])
        # members vote individually; probabilities are vote fractions
        assert pred.class_probs.sum() == pytest.approx(1.0)
        assert pred.class_probs[pred.winner] == pred.class_probs.max()

    def test_tie_goes_to_earliest_member(self):
        assert _majority(column([0, 1]), 2).tolist() == [0]
        assert _majority(column([1, 0]), 2).tolist() == [1]
        # a three-way count where the earliest member's class is not among
        # the leaders: the first member voting for a tied class decides
        assert _majority(column([2, 0, 0, 1, 1]), 3).tolist() == [0]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matrix_vote_matches_per_column_reference(self, data):
        n_classes = data.draw(st.integers(2, 4))
        shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 20)))
        stacked = data.draw(arrays(np.int64, shape, elements=st.integers(0, n_classes - 1)))
        expected = [earliest_member_majority(stacked[:, p], n_classes)
                    for p in range(shape[1])]
        assert _majority(stacked, n_classes).tolist() == expected

    def test_odd_binary_committee_never_ties(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            votes = rng.integers(0, 2, size=5)
            counts = np.bincount(votes, minlength=2)
            assert counts[0] != counts[1]
            assert _majority(column(votes), 2).tolist() == [int(counts.argmax())]

    def test_build_pool_and_evaluate_sequence(self, monks1):
        _, trace = meta_search(monks1.train, channels=("k", "distance"))
        pool, truths = build_pool(monks1.train, trace)
        assert len(pool) >= 3  # reference plus at least one level of candidates
        seq = select_model_sequence(pool, truths)
        correct, total = evaluate_sequence(seq, monks1.train, monks1.test)
        assert total == 432
        assert 0 <= correct <= total

    def test_build_pool_scores_each_distinct_model_once(self, monks1, monkeypatch):
        _, trace = meta_search(monks1.train)
        scorings = []
        original = EvalContext._score
        monkeypatch.setattr(EvalContext, "_score",
                            lambda *args, **kwargs: scorings.append(args)
                            or original(*args, **kwargs))
        pool, _ = build_pool(monks1.train, trace)
        assert len(pool) == 13 and len(scorings) == 9
        for m in pool:  # a shared scoring is the member's own leave-one-out vote
            expected = EvalContext(monks1.train).loo_report(m.model).winners
            assert np.array_equal(m.predictions, expected)
