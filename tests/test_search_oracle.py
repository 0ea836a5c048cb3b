"""Whole searches against an independent scorer, and two metamorphic relations.

OracleContext scores every model by the scalar oracle, knn.classify, one row
at a time, and batches nothing, so a search run through it takes none of the
engine's routes: no kept columns, deltas, one-column batches or block votes.
The search and the pool built from its trace must still be the engine's,
record for record.  The oracle shares the engine's arithmetic (pair_sum at
the training scale), so this shows that every route gives the scalar loop's
counts, not that the arithmetic is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaknn import Dataset, EvalContext, build_pool, classify, meta_search, metasearch
from metaknn.evaluation import EvalReport, confusion_of

from conftest import make_dataset, model_of


class OracleContext(EvalContext):
    """A context whose counts and reports come from knn.classify: each training
    row against the others (exclude=p), each test row against every training
    row.  It keeps the memo and the request count, and fills nothing."""

    def _score(self, key: tuple, side: str, report: bool):
        model, train = model_of(key), self.train
        data = train if side == "train" else self.test
        predictions = [classify(model, train, row, exclude=p if side == "train" else None)
                       for p, row in enumerate(data.vectors)]
        winners = np.array([p.winner for p in predictions])
        correct = int(np.count_nonzero(winners == data.labels))
        if side == "train":
            self.evaluations += 1
        if not report:
            return correct
        return EvalReport(correct / data.n, correct, data.n, winners,
                          np.array([p.class_probs for p in predictions]), data.labels,
                          confusion_of(data.labels, winners, self.n_classes))

    def fill_one_column(self, model, candidates) -> None:
        pass


def searched(train: Dataset, test: Dataset, context=EvalContext, **options):
    """The records of meta_search's trace, and each pool member's model and
    leave-one-out winners, with every context of both built as context."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metasearch, "EvalContext", context)
        _, trace = meta_search(train, test, **options)
        pool, _ = build_pool(train, trace)
    return trace.to_records(), [(m.model.describe(train.n_features), m.predictions.tolist())
                                for m in pool]


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(10, 30), width=st.integers(2, 4),
       classes=st.integers(2, 3), ties=st.booleans(), k_lo=st.integers(1, 2),
       k_span=st.integers(0, 3), step=st.sampled_from([0.25, 0.5]),
       method=st.sampled_from(["quantized", "simplex"]), budget=st.integers(10, 60),
       max_levels=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_a_search_equals_the_oracle_search(seed, n, width, classes, ties, k_lo, k_span, step,
                                           method, budget, max_levels):
    # small data, tie-heavy codes in {0, 1, 2} or rounded normals; every
    # channel runs, through every route the engine takes on such data
    rng = np.random.default_rng(seed)

    def rows(m):
        return rng.integers(0, 3, (m, width)) if ties else np.round(rng.normal(size=(m, width)), 1)

    labels = rng.integers(0, classes, n)
    labels[:classes] = np.arange(classes)
    train = make_dataset(rows(n), labels, n_classes=classes)
    test = make_dataset(rows(6), rng.integers(0, classes, 6), n_classes=classes)
    options = {"k_range": (k_lo, k_lo + k_span), "step": step, "weight_method": method,
               "budget": budget, "max_levels": max_levels}
    assert searched(train, test, **options) == searched(train, test, OracleContext, **options)


def permuted(data: Dataset, order) -> Dataset:
    return Dataset(data.features, data.vectors[order], data.labels[order], data.class_names)


def scaled(data: Dataset, factor: float) -> Dataset:
    return Dataset(data.features, data.vectors * factor, data.labels, data.class_names)


@pytest.mark.parametrize("monk", ["monks1", "monks3"])
def test_the_suite_search_is_invariant(request, monk):
    # the Monk-1 and Monk-3 suites' search: permuting the training rows, and
    # scaling every feature of both sides by 8 (a power of two, so every term
    # scales exactly), must each leave every record of the trace unchanged
    part = request.getfixturevalue(monk)
    train, test = part.train, part.test
    want = meta_search(train, test)[1].to_records()
    rng = np.random.default_rng(len(monk))
    for order in (rng.permutation(train.n), np.arange(train.n)[::-1]):
        assert meta_search(permuted(train, order), test)[1].to_records() == want
    assert meta_search(scaled(train, 8.0), scaled(test, 8.0))[1].to_records() == want
