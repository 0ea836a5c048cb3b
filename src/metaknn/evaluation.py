"""Model evaluation: leave-one-out and train/test scoring.

EvalContext caches the training set's per-feature term matrices, stored at
the training set's distance.term_scale and each built the first time a
scored model uses its column, so that the optimization channels can score
thousands of leave-one-out candidates without recomputing |x-y| terms;
test-side terms are computed afresh per scoring, at the training scale.
Every matrix is summed by distance.accumulate, per feature in index order,
which keeps the matrix path bitwise identical to classifying each vector
independently with knn.classify.  Every row of a scoring is voted by one
knn.shell_votes call, and a report keeps its arrays: the winner of each
row, and each row's vote fractions over its deciding neighborhood.

Delta scoring.  The context keeps the last leave-one-out matrix it computed
(+inf diagonal included), with the distance kind, term key, denominator and
per-column multipliers it was summed with.  A model with the same
multipliers (a k candidate) reuses it untouched.  An exact model of the same
kind and term key that changes fewer columns than it has active (a feature
drop, a coordinate-descent move) updates it in place: both models are
brought to the lcm of their denominators, (n_new - n_old) * T_j is added for
each changed column, and the result is divided back to the model's own
denominator.  All of that is integer arithmetic below 2**53, so the matrix
is bitwise the one a full accumulation gives.  Chebyshev, inexact and other
models are accumulated in full.  A test-side scoring releases the matrix.

loo_count and test_count remember each count they compute, keyed on the
side and model_key (k, the distance kind and the resolved feature mask and
weights), so a search that asks again for a model it has scored (under any
spelling of all features or unit weights) gets the stored integer.  Reports
are always computed.  ctx.evaluations counts the leave-one-out scorings
actually computed; the channels count the evaluations they request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .distance import CHEBYSHEV, accumulate, feature_terms, multipliers, term_key, term_scale
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


@dataclass
class _Matrix:
    """A leave-one-out distance matrix and the multipliers it was summed with."""
    dist: np.ndarray
    kind: str
    key: str
    den: int | None  # None: inexact float multipliers
    factors: np.ndarray  # one per training column, 0 where inactive


class EvalContext:
    """Scores models on one training set (and optional test set).

    Caches training terms, the last leave-one-out distance matrix, and the
    correct count of each model scored.
    """

    def __init__(self, train: Dataset, test: Dataset | None = None):
        if test is not None and test.n_features != train.n_features:
            raise ValueError("train and test widths differ")
        self.train = train
        self.test = test
        self.n_features = train.n_features
        self.n_classes = train.n_classes
        self._scales: dict[str, tuple[float, np.ndarray]] = {}  # per key: scale, term bounds
        self._terms: dict[str, dict[int, np.ndarray]] = {}  # training terms per key, per column
        self._last: _Matrix | None = None  # the last leave-one-out matrix computed
        self._counts: dict[tuple, int] = {}  # correct count per side and resolved model
        self.evaluations = 0  # leave-one-out scorings computed, not served from _counts

    def _scale(self, key: str) -> tuple[float, np.ndarray]:
        """The training scale of key's terms, and each column's largest scaled term."""
        if key not in self._scales:
            train = self.train.vectors
            names = [f.name for f in self.train.features]
            queries = None if self.test is None else self.test.vectors
            self._scales[key] = term_scale(key, train, names, queries)
        return self._scales[key]

    def _column(self, key: str, j: int) -> np.ndarray:
        terms = self._terms.setdefault(key, {})
        if j not in terms:
            train = self.train.vectors
            terms[j] = feature_terms(train[:, j], train[:, j], key, self._scale(key)[0])
        return terms[j]

    def _distances(self, model: ModelSpec, side: str) -> np.ndarray:
        kind = model.distance.kind
        key = term_key(kind, model.distance.alpha)
        columns = np.flatnonzero(model.mask_for(self.n_features))
        factors, den, _ = multipliers(model.active_weights(self.n_features))
        if side == "test":
            # test terms are streamed, not cached: each test scoring is one model
            self._last = None  # and the leave-one-out matrix is not held across it
            test, train = self.test.vectors, self.train.vectors
            scale = self._scale(key)[0]
            terms = (feature_terms(test[:, j], train[:, j], key, scale) for j in columns)
            return accumulate(kind, terms, factors, (len(test), len(train)))
        full = np.zeros(self.n_features)
        full[columns] = factors
        last, dist = self._last, None
        if last is not None and (last.kind, last.key) == (kind, key):
            if last.den == den and np.array_equal(last.factors, full):
                return last.dist
            if den and last.den and kind != CHEBYSHEV:
                dist = self._delta(last, full, den, len(columns))
        if dist is None:
            dist = accumulate(kind, (self._column(key, j) for j in columns), factors,
                              (self.train.n, self.train.n))
            np.fill_diagonal(dist, np.inf)
        self._last = _Matrix(dist, kind, key, den, full)
        return dist

    def _delta(self, last: _Matrix, factors: np.ndarray, den: int, active: int):
        """last's matrix updated in place to the exact multipliers factors / den,
        or None when that would change as many columns as are active, or
        could take a partial sum to 2**53."""
        common = math.lcm(last.den, den)
        up_old, up_new = common // last.den, common // den
        old, new = last.factors * up_old, factors * up_new
        changed = np.flatnonzero(old != new)
        if len(changed) >= active:
            return None
        # a partial sum mixes old and new multipliers column by column; the
        # limit is 2**52, not 2**53, to allow for the rounding of this dot product
        if np.maximum(old, new) @ self._scale(last.key)[1] >= 2.0 ** 52:
            return None
        dist = last.dist
        if up_old != 1:
            dist *= up_old
        for j in changed:
            dist += (new[j] - old[j]) * self._column(last.key, j)
        if up_new != 1:
            dist /= up_new  # exact: every entry is a multiple of up_new
        return dist

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
