"""Nearest-neighbor classification with distance-shell neighborhoods.

The neighborhood of a query is defined by distance shells: training points
are grouped by exact distance value, and shells are taken in increasing
order until at least k points are covered.  Every point tied with the k-th
rank is therefore included; the neighborhood can be larger than k but never
depends on the order training rows happen to be stored in.  Distances are
exact sums of terms stored at the training set's scale (see distance), so
a tie is a real tie, not an accident of summation order.

Class votes are counted over the whole neighborhood.  A tied vote widens
the neighborhood by one more shell and re-votes; if the shells are
exhausted while still tied, the class with the smallest summed distance to
the query wins, then the lowest class index.

shell_votes votes every row of a distance matrix in one pass, and widens
all tied rows together, one shell per round.  shell_vote is the per-row
form: shell_votes falls back to it only for rows whose shells run out while
still tied, and it is the oracle shell_votes is tested against, as
classify and dissimilarity, through the scalar loop distance.pair_sum, are
the reference for the distance kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .distance import MINKOWSKI, DistanceSpec, multipliers, pair_sum, term_key, term_scale


@dataclass
class ModelSpec:
    k: int = 1
    distance: DistanceSpec = field(default_factory=DistanceSpec)
    feature_mask: np.ndarray | None = None  # None = all features active

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        self.k = int(self.k)
        if self.feature_mask is not None:
            self.feature_mask = np.asarray(self.feature_mask, dtype=bool)
            if self.feature_mask.ndim != 1 or not self.feature_mask.any():
                raise ValueError("feature mask must keep at least one feature")

    def mask_for(self, n_features: int) -> np.ndarray:
        if self.feature_mask is None:
            return np.ones(n_features, dtype=bool)
        if len(self.feature_mask) != n_features:
            raise ValueError(f"mask length {len(self.feature_mask)} for {n_features} features")
        return self.feature_mask

    def active_weights(self, n_features: int) -> np.ndarray:
        """Weights aligned with the active columns, in ascending column order."""
        return self.distance.resolved_weights(int(self.mask_for(n_features).sum()))

    def complexity_rank(self) -> int:
        """Deviation count from the plain model: k=1, Euclidean, all features, unit weights."""
        w, mask = self.distance.weights, self.feature_mask
        return (int(self.k != 1)
                + (0 if w is None else int(np.sum(w != 1.0)))
                + (0 if mask is None else int(np.sum(~mask)))
                + int(not (self.distance.kind == MINKOWSKI and self.distance.alpha == 2)))

    def describe(self, n_features: int | None = None) -> dict:
        out = {"k": self.k, "distance": self.distance.describe()}
        if n_features is not None:
            out["features"] = [int(j) + 1 for j in np.flatnonzero(self.mask_for(n_features))]
            out["weights"] = [float(v) for v in self.active_weights(n_features)]
        return out


@dataclass
class Prediction:
    winner: int
    class_probs: np.ndarray  # vote fractions over the deciding neighborhood

    def __post_init__(self):
        self.class_probs = np.asarray(self.class_probs, dtype=float)


def _shell(dist: np.ndarray, k: int):
    """Stable distance order of a row and the size of its k-th shell.

    Entries set to +inf are excluded.  Returns (order, sorted distances,
    available points, shell size).
    """
    order = np.argsort(dist, kind="stable")
    ds = dist[order]
    available = int(np.sum(np.isfinite(ds)))
    if k > available:
        raise ValueError(f"k={k} but only {available} training points available")
    return order, ds, available, int(np.searchsorted(ds[:available], ds[k - 1], side="right"))


def shell_vote(dist: np.ndarray, labels: np.ndarray, k: int, n_classes: int):
    """Shell-neighborhood vote on a precomputed distance row.

    Entries set to +inf are excluded.  Returns (winner, votes, size) where
    votes counts each class inside the deciding neighborhood of that size.
    """
    order, ds, available, size = _shell(dist, k)
    while True:
        votes = np.bincount(labels[order[:size]], minlength=n_classes)
        top = votes.max()
        tied = np.flatnonzero(votes == top)
        if len(tied) == 1:
            return int(tied[0]), votes, size
        if size >= available:
            break
        size = int(np.searchsorted(ds[:available], ds[size], side="right"))
    # shells exhausted: smallest summed distance among tied classes, then lowest index
    in_hood = labels[order[:size]]
    sums = np.array([ds[:size][in_hood == c].sum() for c in tied])
    return int(tied[int(np.argmin(sums))]), votes, size


def _is_tied(votes: np.ndarray) -> np.ndarray:
    """Per votes row: is the top count shared by more than one class?"""
    return np.count_nonzero(votes == votes.max(axis=1, keepdims=True), axis=1) > 1


def shell_votes(dist: np.ndarray, labels: np.ndarray, k: int, n_classes: int):
    """shell_vote for every row of a distance matrix at once.

    The k-th shell of a row is every finite entry at or below its k-th
    smallest distance.  Rows whose top vote is tied there are widened
    together, one shell per round: each such row's threshold moves to its
    smallest entry above the current one, and only those rows are voted
    again, until none is tied.  A row whose shells run out while still
    tied goes to shell_vote, which applies the summed-distance rule.
    Returns (winners, votes, sizes) with one entry (or votes row) per row.
    """
    available = np.count_nonzero(np.isfinite(dist), axis=1)
    short = np.flatnonzero(available < k)
    if len(short):
        raise ValueError(f"k={k} but only {available[short[0]]} training points available")
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    onehot = np.equal.outer(labels, np.arange(n_classes)).astype(float)
    # +inf entries stay outside every shell: thresholds are finite
    votes = ((dist <= kth[:, None]) @ onehot).astype(np.int64)
    winners = votes.argmax(axis=1)
    rows = np.flatnonzero(_is_tied(votes))
    sub, thr = dist[rows], kth[rows]  # tied rows only, never the whole matrix
    while len(rows):
        thr = np.where(sub > thr[:, None], sub, np.inf).min(axis=1)
        exhausted = thr == np.inf
        for i in rows[exhausted]:
            winners[i], votes[i], _ = shell_vote(dist[i], labels, k, n_classes)
        rows, sub, thr = rows[~exhausted], sub[~exhausted], thr[~exhausted]
        wider = ((sub <= thr[:, None]) @ onehot).astype(np.int64)
        votes[rows], winners[rows] = wider, wider.argmax(axis=1)
        tied = _is_tied(wider)
        rows, sub, thr = rows[tied], sub[tied], thr[tied]
    return winners, votes, votes.sum(axis=1)


def _distance_row(model: ModelSpec, train: Dataset, query, exclude: int | None):
    """Scaled distance sums from the query to each training row, and the unit
    (scale times the weights' unit) that turns them into data units."""
    query = np.asarray(query, dtype=float)
    if query.shape != (train.n_features,):
        raise ValueError(f"query must have {train.n_features} components")
    mask = model.mask_for(train.n_features)
    kind, key = model.distance.kind, term_key(model.distance.kind, model.distance.alpha)
    names = [f.name for f in train.features]
    scale, _ = term_scale(key, train.vectors, names, queries=query[None, :])
    factors, _, unit = multipliers(model.active_weights(train.n_features))
    factors, q = factors.tolist(), query[mask].tolist()
    d = np.array([pair_sum(kind, key, row, q, scale, factors)
                  for row in train.vectors[:, mask].tolist()])
    if exclude is not None:
        d[exclude] = np.inf
    return d, scale * unit


def neighbors(model: ModelSpec, train: Dataset, query, exclude: int | None = None):
    """Neighborhood of a query: all rows in the shells covering at least k points.

    Returns (row_index, distance) pairs sorted by distance, then row index;
    distances are in data units, as dissimilarity() at the training scale.
    """
    d, unit = _distance_row(model, train, query, exclude)
    order, ds, _, size = _shell(d, model.k)
    return [(int(order[i]), float(ds[i] / unit)) for i in range(size)]


def classify(model: ModelSpec, train: Dataset, query, exclude: int | None = None) -> Prediction:
    """Classify a query vector against the training data."""
    d, _ = _distance_row(model, train, query, exclude)
    winner, votes, size = shell_vote(d, train.labels, model.k, train.n_classes)
    return Prediction(winner, votes / size)
