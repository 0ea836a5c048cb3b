"""Model evaluation: leave-one-out and train/test scoring.

EvalContext caches per-feature term tensors for a dataset pair so that the
optimization channels can score thousands of candidate models without
recomputing |x-y| terms.  The cached terms go through distance.accumulate,
per feature in index order, which keeps the cached path bitwise identical to
classifying each vector independently with knn.classify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .distance import accumulate, feature_terms, term_key
from .knn import ModelSpec, Prediction, shell_vote


@dataclass
class EvalReport:
    accuracy: float  # correct_count / total, exact rational in floating point
    correct_count: int
    total: int
    predictions: list[Prediction]
    truths: np.ndarray
    confusion: np.ndarray  # rows = true class, columns = predicted class

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "correct": self.correct_count,
            "total": self.total,
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "predicted": [p.winner for p in self.predictions],
        }


def confusion_of(truths: np.ndarray, predictions: list[Prediction], n_classes: int) -> np.ndarray:
    out = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(truths, predictions):
        out[int(t), p.winner] += 1
    return out


def _report(truths: np.ndarray, predictions: list[Prediction], n_classes: int) -> EvalReport:
    truths = np.asarray(truths)
    correct = int(sum(p.winner == int(t) for t, p in zip(truths, predictions)))
    return EvalReport(correct / len(truths), correct, len(truths), predictions,
                      truths, confusion_of(truths, predictions, n_classes))


class EvalContext:
    """Caches per-feature term tensors for one training set (and optional test set)."""

    def __init__(self, train: Dataset, test: Dataset | None = None):
        self.train = train
        self.test = test
        self.n_features = train.n_features
        self.n_classes = train.n_classes
        self._terms: dict[tuple[str, str], np.ndarray] = {}
        self.evaluations = 0

    def _distances(self, model: ModelSpec, side: str) -> np.ndarray:
        key = term_key(model.distance.kind, model.distance.alpha)
        terms = self._terms.get((side, key))
        if terms is None:
            a = self.train.vectors if side == "train" else self.test.vectors
            terms = np.stack([feature_terms(a[:, j], self.train.vectors[:, j], key)
                              for j in range(self.n_features)])
            self._terms[(side, key)] = terms
        columns = np.flatnonzero(model.mask_for(self.n_features))
        return accumulate(model.distance.kind, (terms[j] for j in columns),
                          model.active_weights(self.n_features), terms.shape[1:])

    def _score(self, model: ModelSpec, side: str, report: bool):
        """The one per-row vote loop: leave-one-out on "train", else the test set.

        Returns the correct count, or the full EvalReport when report is set.
        """
        if side == "test" and self.test is None:
            raise ValueError("context has no test set")
        data = self.train if side == "train" else self.test
        dist = self._distances(model, side)
        if side == "train":
            self.evaluations += 1
            np.fill_diagonal(dist, np.inf)
        labels, k, n_classes = self.train.labels, model.k, self.n_classes
        correct, predictions = 0, []
        for row, truth in zip(dist, data.labels.tolist()):
            winner, votes, size = shell_vote(row, labels, k, n_classes)
            correct += winner == truth
            if report:
                predictions.append(Prediction(winner, votes / size))
        return _report(data.labels, predictions, n_classes) if report else correct

    def loo_count(self, model: ModelSpec) -> int:
        """Leave-one-out correct count; the fast path used by the search channels."""
        return self._score(model, "train", report=False)

    def loo_report(self, model: ModelSpec) -> EvalReport:
        return self._score(model, "train", report=True)

    def test_count(self, model: ModelSpec) -> int:
        return self._score(model, "test", report=False)

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
    if train.n_features != test.n_features:
        raise ValueError("train and test widths differ")
    return EvalContext(train, test).test_report(model)
