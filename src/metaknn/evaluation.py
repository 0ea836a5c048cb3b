"""Model evaluation: leave-one-out and train/test scoring.

EvalContext caches the training set's per-feature term matrices, each built
the first time a scored model uses its column, so that the optimization
channels can score thousands of leave-one-out candidates without recomputing
|x-y| terms; test-side terms are computed afresh per scoring.
Both go through distance.accumulate, per feature in index order, which keeps
the matrix path bitwise identical to classifying each vector independently
with knn.classify.  Every row of a scoring is voted by one knn.shell_votes
call, and a report keeps its arrays: the winner of each row, and each row's
vote fractions over its deciding neighborhood.

loo_count and test_count remember each count they compute, keyed on the
side and model_key (k, the distance kind and the resolved feature mask and
weights), so a search that asks again for a model it has scored (under any
spelling of all features or unit weights) gets the stored integer.  Reports
are always computed.  ctx.evaluations counts the leave-one-out scorings
actually computed; the channels count the evaluations they request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .distance import accumulate, feature_terms, term_key
from .knn import ModelSpec, shell_votes


@dataclass
class EvalReport:
    accuracy: float  # correct_count / total, exact rational in floating point
    correct_count: int
    total: int
    winners: np.ndarray  # predicted class per row
    class_probs: np.ndarray  # rows x classes: vote fractions over each deciding neighborhood
    truths: np.ndarray
    confusion: np.ndarray  # rows = true class, columns = predicted class

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "correct": self.correct_count,
            "total": self.total,
            "confusion": self.confusion.tolist(),
            "predicted": self.winners.tolist(),
        }


def confusion_of(truths: np.ndarray, winners: np.ndarray, n_classes: int) -> np.ndarray:
    """Counts of (true class, predicted class) pairs; rows = true class."""
    pairs = np.asarray(truths) * n_classes + np.asarray(winners)
    return np.bincount(pairs, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


class EvalContext:
    """Scores models on one training set (and optional test set).

    Caches training terms, and the correct count of each model scored.
    """

    def __init__(self, train: Dataset, test: Dataset | None = None):
        if test is not None and test.n_features != train.n_features:
            raise ValueError("train and test widths differ")
        self.train = train
        self.test = test
        self.n_features = train.n_features
        self.n_classes = train.n_classes
        self._terms: dict[str, dict[int, np.ndarray]] = {}  # training terms per key, per column
        self._counts: dict[tuple, int] = {}  # correct count per side and resolved model
        self.evaluations = 0  # leave-one-out scorings computed, not served from _counts

    def _distances(self, model: ModelSpec, side: str) -> np.ndarray:
        key = term_key(model.distance.kind, model.distance.alpha)
        columns = np.flatnonzero(model.mask_for(self.n_features))
        weights = model.active_weights(self.n_features)
        train = self.train.vectors
        if side == "test":
            # test terms are streamed, not cached: each test scoring is one model
            test = self.test.vectors
            terms = (feature_terms(test[:, j], train[:, j], key) for j in columns)
            return accumulate(model.distance.kind, terms, weights, (len(test), len(train)))
        terms = self._terms.setdefault(key, {})
        for j in columns:
            if j not in terms:
                terms[j] = feature_terms(train[:, j], train[:, j], key)
        return accumulate(model.distance.kind, (terms[j] for j in columns), weights,
                          (len(train), len(train)))

    def _score(self, model: ModelSpec, side: str, report: bool):
        """Leave-one-out on "train", else the test set, through one shell_votes call.

        Returns the correct count, or the full EvalReport when report is set.
        """
        if side == "test" and self.test is None:
            raise ValueError("context has no test set")
        data = self.train if side == "train" else self.test
        dist = self._distances(model, side)
        if side == "train":
            self.evaluations += 1
            np.fill_diagonal(dist, np.inf)
        winners, votes, sizes = shell_votes(dist, self.train.labels, model.k, self.n_classes)
        correct = int(np.count_nonzero(winners == data.labels))
        if not report:
            return correct
        return EvalReport(correct / data.n, correct, data.n, winners, votes / sizes[:, None],
                          data.labels, confusion_of(data.labels, winners, self.n_classes))

    def model_key(self, model: ModelSpec) -> tuple:
        """k, distance, resolved mask and weights: models with equal keys score alike."""
        n = self.n_features
        return (model.k, model.distance.kind, model.distance.alpha,
                model.mask_for(n).tobytes(), model.active_weights(n).tobytes())

    def _count(self, model: ModelSpec, side: str) -> int:
        """Correct count on side, scored once per distinct resolved model."""
        key = (side, *self.model_key(model))
        if key not in self._counts:
            self._counts[key] = self._score(model, side, report=False)
        return self._counts[key]

    def loo_count(self, model: ModelSpec) -> int:
        """Leave-one-out correct count; the fast path used by the search channels."""
        return self._count(model, "train")

    def loo_report(self, model: ModelSpec) -> EvalReport:
        return self._score(model, "train", report=True)

    def test_count(self, model: ModelSpec) -> int:
        return self._count(model, "test")

    def test_report(self, model: ModelSpec) -> EvalReport:
        return self._score(model, "test", report=True)


def leave_one_out(model: ModelSpec, train: Dataset) -> EvalReport:
    """Score a model by leave-one-out over the training data.

    Each vector is classified against the remaining n-1; the held-out row
    never votes and never appears in the neighborhood.
    """
    return EvalContext(train).loo_report(model)


def evaluate(model: ModelSpec, train: Dataset, test: Dataset) -> EvalReport:
    """Classify every test vector against the full training data."""
    return EvalContext(train, test).test_report(model)
