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

shell_votes votes the rows of a distance matrix one row block at a time
(distance.block_rows, the blocks the distance kernel sums), through one
scratch buffer of a block's size, and widens each block's tied rows
together, one shell per round; no temporary is larger than a block, and a
matrix of one block (every Monk and Ionosphere leave-one-out matrix) is the
loop's single block.  Its first threshold is each row's k-th smallest
entry: at k=1 the row minimum, found by argmin, for k>1 a selection (numpy
partition, in the buffer).  At k=1, when no row of a block shares its
minimum, every first shell is one point and the vote is that point's label;
one shared minimum sends every row of the block through the shell kernel.
shell_vote is the per-row form: shell_votes falls back to it only for rows
whose shells run out while still tied, and it is the oracle shell_votes is
tested against, as classify and dissimilarity, through the scalar loop
distance.pair_sum, are the reference for the distance kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .distance import (MINKOWSKI, DistanceSpec, block_rows, multipliers, pair_sum, term_key,
                       term_scale)


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

    def describe(self, n_features: int) -> dict:
        return {"k": self.k, "distance": self.distance.describe(),
                "features": [int(j) + 1 for j in np.flatnonzero(self.mask_for(n_features))],
                "weights": [float(v) for v in self.active_weights(n_features)]}


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


def shared_minima(dist: np.ndarray, first: np.ndarray, lowest: np.ndarray) -> np.ndarray:
    """Per row of dist: is its minimum, lowest, at column first, held twice?
    The runner-up is found with each minimum overwritten by +inf and then
    restored; the restore writes back the very values read, so dist is left
    bitwise unchanged.  A second argmin and a gather find it faster than a
    row minimum does."""
    every = np.arange(len(dist))
    dist[every, first] = np.inf
    second = dist[every, dist.argmin(axis=1)]
    dist[every, first] = lowest
    return second == lowest


# rows whose minima shell_votes checks for ties before masking every row's:
# on tie-heavy data one of them is nearly always tied, which ends the check
_TIE_PROBE_ROWS = 8


def shell_votes(dist: np.ndarray, labels: np.ndarray, k: int, n_classes: int):
    """shell_vote for every row of a distance matrix, one row block at a time.

    The rows are voted in blocks of distance.block_rows(width) rows, through
    one scratch buffer of a block's size, so a block stays in L2 from its
    k-th selection to its last widening round and no temporary is larger
    than a block; a matrix of one block goes through the loop once.  The
    k-th shell of a row is every finite entry at or below its k-th smallest
    distance; at k=1 that threshold is the row minimum, taken at each row's
    argmin, and only k>1 runs a selection, in the buffer.  At k=1, unless
    one of a block's first rows holds its minimum twice, shared_minima finds
    each row's runner-up; if every row's runner-up is larger, each row's
    shell is its one nearest point, and the votes are its label with size 1.
    Otherwise (all of the block's rows or none: counting the tied rows costs
    what it would save) the shells are voted as a comparison, written into
    the buffer as 0.0 and 1.0, and a matrix product.  Rows whose top vote is
    tied there are widened together, one shell per round: each such row's
    threshold moves to its smallest entry above the current one, and the
    entries of that next shell alone are counted onto its votes, until none
    is tied.  A row whose shells run out while still tied goes to
    shell_vote, which applies the summed-distance rule.  Entries are never
    NaN (data and weights are finite, and a distance that could overflow is
    a DataError upstream), so the minimum and the selection agree.  dist
    must be a writable float array and is left bitwise unchanged.  Returns
    (winners, votes, sizes) with one entry (or votes row) per row.
    """
    n, width = dist.shape
    winners, sizes = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.int64)
    votes = np.empty((n, n_classes), dtype=np.int64)
    rows = block_rows(width)
    buffer = np.empty(min(rows, n) * width)  # a short matrix is one short block
    for r in range(0, n, rows):
        m = min(rows, n - r)
        _vote_block(dist[r:r + m], labels, k, buffer[:m * width].reshape(m, width),
                    winners[r:r + m], votes[r:r + m], sizes[r:r + m])
    return winners, votes, sizes


def _vote_block(dist, labels, k, buffer, winners, votes, sizes) -> None:
    """shell_votes on one block of rows, with buffer, an array of dist's shape,
    as its scratch space; writes each row's winner, votes and size in place."""
    n_classes = votes.shape[1]
    if k > dist.shape[1]:  # also k=1 on zero width, where a row has no minimum
        kth = np.full(len(dist), np.inf)
    elif k == 1:
        every, first = np.arange(len(dist)), dist.argmin(axis=1)
        kth = dist[every, first]
        head = min(_TIE_PROBE_ROWS, len(dist))
        # a row without finite entries holds inf twice: checked below
        if np.count_nonzero(dist[:head] == kth[:head, None]) == head and \
                not shared_minima(dist, first, kth).any():  # each first shell is one point
            winners[:] = labels[first]
            votes[:] = 0
            votes[every, winners] = 1
            sizes[:] = 1
            return
    else:
        buffer[...] = dist
        buffer.partition(k - 1, axis=1)
        kth = buffer[:, k - 1].copy()
    short = np.flatnonzero(kth == np.inf)  # rows with fewer than k finite entries
    if len(short):
        available = np.count_nonzero(np.isfinite(dist[short[0]]))
        raise ValueError(f"k={k} but only {available} training points available")
    onehot = np.equal.outer(labels, np.arange(n_classes)).astype(float)
    # +inf entries stay outside every shell: thresholds are finite
    votes[:] = np.less_equal(dist, kth[:, None], out=buffer) @ onehot
    winners[:] = votes.argmax(axis=1)
    rows = np.flatnonzero(_is_tied(votes))
    # the tied rows only: their entries, thresholds and votes
    sub, thr, held = dist[rows], kth[rows], votes[rows].astype(float)
    while len(rows):
        np.putmask(sub, sub <= thr[:, None], np.inf)  # the shells counted so far
        thr = sub.min(axis=1)
        held += np.less_equal(sub, thr[:, None], out=buffer[:len(rows)]) @ onehot  # next shell
        votes[rows], winners[rows] = held, held.argmax(axis=1)
        # a row with no shell left (its held count is void) is still tied
        exhausted = thr == np.inf
        for i in rows[exhausted]:
            winners[i], votes[i], _ = shell_vote(dist[i], labels, k, n_classes)
        tied = _is_tied(held) & ~exhausted
        rows, sub, thr, held = rows[tied], sub[tied], thr[tied], held[tied]
    sizes[:] = votes.sum(axis=1)


def _distance_row(model: ModelSpec, train: Dataset, query, exclude: int | None):
    """Scaled distance sums from the query to each training row, the scale,
    and the weights' unit: a sum divided by both is in data units."""
    query = np.asarray(query, dtype=float)
    if query.shape != (train.n_features,):
        raise ValueError(f"query must have {train.n_features} components")
    mask = model.mask_for(train.n_features)
    kind, key = model.distance.kind, term_key(model.distance.kind, model.distance.alpha)
    names = [f.name for f in train.features]
    scale = term_scale(key, train.vectors, names, queries=query[None, :])
    factors, _, unit = multipliers(model.active_weights(train.n_features))
    factors, q = factors.tolist(), query[mask].tolist()
    d = np.array([pair_sum(kind, key, row, q, scale, factors)
                  for row in train.vectors[:, mask].tolist()])
    if exclude is not None:
        d[exclude] = np.inf
    return d, scale, unit


def neighbors(model: ModelSpec, train: Dataset, query, exclude: int | None = None):
    """Neighborhood of a query: all rows in the shells covering at least k points.

    Returns (row_index, distance) pairs sorted by distance, then row index;
    distances are in data units, as dissimilarity() at the training scale.
    """
    d, scale, unit = _distance_row(model, train, query, exclude)
    order, ds, _, size = _shell(d, model.k)
    return [(int(order[i]), float(ds[i] / scale / unit)) for i in range(size)]


def classify(model: ModelSpec, train: Dataset, query, exclude: int | None = None) -> Prediction:
    """Classify a query vector against the training data."""
    d, _, _ = _distance_row(model, train, query, exclude)
    winner, votes, size = shell_vote(d, train.labels, model.k, train.n_classes)
    return Prediction(winner, votes / size)
