"""Model evaluation: leave-one-out and train/test scoring.

EvalContext keeps training-side per-feature term matrices, stored at the
training set's distance.term_scale, so that the optimization channels can
score thousands of leave-one-out candidates without recomputing |x-y|
terms.  It keeps every whole training column it builds, each term kind's
columns in one (n_features, n, n) store, allocated at that kind's first
kept column and filled column by column, not one array per column, each
column built by distance.column_terms, which builds the columns a sum reads
and the store lacks from one set of operands of those columns
(distance.term_sides and distance.left_side).  One rule, by the matrix size
alone, decides what is kept.  When the n x n matrix is one block of
distance.distance_sums (distance.block_rows), a whole column is no larger
than that block, so each is kept the first time a scored model uses it, by
a full sum, a delta or a one-column batch (below).  A larger matrix streams
every full sum block by block, keeping nothing, and keeps only the columns
that a delta or a one-column batch steps.  So a one-shot context (metaknn
eval, leave_one_out, evaluate) on data larger than one block keeps no term
matrix.  A full sum of kept columns is distance.accumulate over them,
through distance.sum_into, the loop a delta (below) steps its columns by;
any other matrix is streamed by distance.block_sums.  Either way each entry
is bitwise the sum over the features in index order (a streamed exact sum by
one product per stack of columns, the others feature by feature), which
keeps the matrix path bitwise identical to classifying each vector
independently with knn.classify.  A leave-one-out matrix is the training
rows against themselves, so a streamed sum of several blocks builds and sums
each unordered pair of row blocks once and mirrors it (distance_sums), and
its rows are voted by one knn.shell_votes call (a count filled by a
one-column batch, below, is voted there instead).  A test-side scoring
never holds its test x train matrix: it takes the sums one row block at a
time from block_sums, in one block-sized array, and votes each block by
shell_votes while it is in L2.
Its terms are never kept: they are built in stacks per block, at the
training scale.
A report keeps its arrays: the winner of each row, and each row's vote
fractions over its deciding neighborhood.  The context checks once that the
two sides agree: widths, class tables, feature kinds, and each test
symbol's code, which must be its training code (a test table may lack
symbols).

Resolution by key.  Each request resolves its model once, to model_key
(k, the distance kind and alpha, and the bytes of the resolved feature mask
and weights); everything below reads that key and never the ModelSpec.  The
context keeps the distance.multipliers of each weight vector it scores,
keyed on the weight bytes, so a candidate whose weights it has seen skips
their derivation; the memo lives and dies with the context.

Delta scoring.  The context keeps the last leave-one-out matrix it computed
(+inf diagonal included), with the distance part of its key (kind, alpha,
mask and weight bytes), its denominator and the per-column multipliers it
was summed with.  A model with the same distance part (a k candidate)
reuses it untouched after one tuple comparison, before its multipliers are
looked up or a full-width factor vector is built.  An exact model of the
same kind and alpha that changes fewer columns than it has active (a
feature drop, a coordinate-descent move) updates it in place: both models
are brought to the lcm of their denominators, (n_new - n_old) * T_j is
added for each changed column, through distance.sum_into, and the result is
divided back to the model's own denominator.  As in every sum, a step of +1
or -1 (such as a unit column restored or dropped) adds or subtracts the
cached column itself, in place, with no step * T_j temporary.  With every
numerator at the lcm below 2**HEADROOM_BITS, all of that is integer
arithmetic below 2**53 (term_scale), so the matrix is bitwise the one a
full accumulation gives.  Chebyshev, inexact and other models are
accumulated in full.  Other bytes for the same multipliers (-0.0 for 0.0)
are thus a delta that steps no column, or a full sum: the same matrix
either way.  A test-side scoring releases the matrix, and so does a full
sum before it allocates the new one: no scoring holds the old matrix
while it sums the new one.

One-column batches.  A channel whose candidates each change one column of a
base model (backward elimination's drops, one coordinate's weight grid) hands
fill_one_column the base and the candidates' resolved (feature mask,
weights) arrays first, and then asks loo_count for each as before, so every
filled count is a memo hit.  The batch keys each candidate once, from the
base's k, kind and alpha and the two arrays' bytes, the layout model_key
spells too.  It needs no generator to stay lazy: it keys nothing until its
early refusals have passed.  With D the base's matrix and every factor at
the lcm of the batch's denominators, candidate c's matrix is
E_c = D + (new_j - old_j) * T_j, and a batch takes one of two routes.  On a
base where at most _BATCH_TIE_SHARE of the rows hold their minimum twice,
E_c's row minimum is at most its entry at D's row argmin, and every entry is
at least D - M, M the elementwise largest step down times T_j over the
batch, so only the pairs where D - M reaches the largest such entry of their
row are summed, for every candidate at once.  Each row's minimum is the
entry at D's argmin lowered by the few entries below it, and its first
shell, the entries at that minimum, is voted there; only a row whose vote is
tied, and would widen past the pairs summed, is voted on its row of E_c,
stacked with the other tied rows in one shell_votes call.  On a tie-heavy
base, where shared minima would keep many pairs and tie many votes, every
row is such a row: whole matrices E_c are stacked, as many as fill one
distance.block_rows block (or one, when a matrix is larger), and each stack
is one shell_votes call.  _shared_rows counts the shared minima of the
base's matrix and finds each row's argmin, and leaves both on it, so a later
batch on the same base (a round whose coordinate did not move) scans
nothing.  Every entry is exact either way, as a delta's, so each count is
the one the candidate's own scoring gives.  The batch takes k=1,
non-Chebyshev models with exact multipliers whose numerators at the lcm stay
inside the headroom (as a delta's), and at least two candidates not yet
counted.  A candidate
whose factors over their denominator equal the base's (a dropped feature
whose weight is 0) changes no column and scores as the base does: it takes
the base's count when the memo holds it, and is otherwise left to
loo_count.  Each filled count adds one to ctx.evaluations and to
ctx.filled_by_pairs, ctx.filled_by_stack or ctx.filled_by_base (the route),
a call that batches nothing adds one to ctx.batches_refused, ctx.requested
is unchanged, and the base's matrix is left as the last one.

loo_count and test_count remember each count they compute, keyed on the
side and model_key (k, the distance kind and the resolved feature mask and
weights), so a search that asks again for a model it has scored (under any
spelling of all features or unit weights) gets the stored integer.  Reports
are always computed.  ctx.requested counts the leave-one-out counts
requested, repeats included, and ctx.evaluations the scorings computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .distance import (CHEBYSHEV, HEADROOM_BITS, accumulate, block_rows, block_sums,
                       column_terms, distance_sums, multipliers, sum_into, term_key, term_scale)
from .knn import ModelSpec, shared_minima, shell_votes


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
    """A leave-one-out distance matrix, the distance part of the model_key it
    was summed for, and the multipliers it was summed with."""
    dist: np.ndarray
    model: tuple  # kind, alpha, mask bytes, weight bytes: the key without k
    den: int | None  # None: inexact float multipliers
    factors: np.ndarray  # one per training column, 0 where inactive
    shared: int = 0  # rows holding their minimum twice, once _shared_rows counted them
    nearest: np.ndarray | None = None  # each row's first argmin, once _shared_rows found it


# a one-column batch votes its candidates' whole matrices, stacked, when more
# than this share of its base's rows hold their minimum twice: shared minima
# keep many pairs in the pair route and tie many votes, while stacking every
# batch made a one-level Ionosphere search (few ties) about 35% slower
_BATCH_TIE_SHARE = 0.2


def _shared_rows(dist: np.ndarray):
    """How many of dist's rows hold their minimum twice (knn.shared_minima,
    which leaves dist unchanged), and each row's first argmin."""
    nearest = dist.argmin(axis=1)
    shared = shared_minima(dist, nearest, dist[np.arange(len(dist)), nearest])
    return int(np.count_nonzero(shared)), nearest


def _key(model: ModelSpec, mask: np.ndarray, weights: np.ndarray) -> tuple:
    """The model_key of model holding this resolved feature mask and these weights."""
    return model.k, model.distance.kind, model.distance.alpha, mask.tobytes(), weights.tobytes()


class EvalContext:
    """Scores models on one training set (and optional test set).

    Caches training terms, the multipliers of each weight vector, the last
    leave-one-out distance matrix, and the correct count of each model scored.
    """

    def __init__(self, train: Dataset, test: Dataset | None = None):
        if test is not None:
            if test.n_features != train.n_features:
                raise ValueError("train and test widths differ")
            if test.class_names != train.class_names:
                raise ValueError("train and test class tables differ")
            for f, g in zip(train.features, test.features):
                # a test table may lack symbols, as separately loaded native codes do
                if f.kind != g.kind or not (g.codes or {}).items() <= (f.codes or {}).items():
                    raise ValueError(f"train and test encode feature {f.name!r} differently")
        self.train = train
        self.test = test
        self.n_features = train.n_features
        self.n_classes = train.n_classes
        self._scales: dict[str, float] = {}  # training term scale per key
        self._stores: dict[str, np.ndarray] = {}  # per key, every column's training terms
        self._terms: dict[str, dict[int, np.ndarray]] = {}  # per key, the columns built in it
        self._multipliers: dict[bytes, tuple] = {}  # distance.multipliers per weight bytes
        self._last: _Matrix | None = None  # the last leave-one-out matrix computed
        self._counts: dict[tuple, int] = {}  # correct count per side and resolved model
        self.requested = 0  # loo_count calls, repeats included
        self.evaluations = 0  # leave-one-out scorings computed, not served from _counts
        self.filled_by_pairs = 0  # counts fill_one_column summed on the pairs it kept
        self.filled_by_stack = 0  # counts it voted as stacked rows, on tie-heavy bases
        self.filled_by_base = 0  # counts it took from the base, for candidates with its factors
        self.batches_refused = 0  # fill_one_column calls that batched nothing

    def _scale(self, key: str) -> float:
        """The training scale of key's terms."""
        if key not in self._scales:
            train = self.train.vectors
            names = [f.name for f in self.train.features]
            queries = None if self.test is None else self.test.vectors
            self._scales[key] = term_scale(key, train, names, queries)
        return self._scales[key]

    def _columns(self, key: str, columns) -> list:
        """The whole training term matrices of columns, each kept once built in
        key's store, which the first kept column allocates: a full sum or a
        delta reads them."""
        if key not in self._stores:
            n = self.train.n
            self._stores[key] = np.empty((self.n_features, n, n))
        kept = self._terms.setdefault(key, {})
        missing = [j for j in columns if j not in kept]
        if missing:
            train = self.train.vectors
            kept.update(zip(missing, column_terms(train, train, missing, key, self._scale(key),
                                                  self._stores[key])))
        return [kept[j] for j in columns]

    def _factors(self, weights: bytes) -> tuple[np.ndarray, int | None]:
        """The multipliers of weight bytes and their denominator, derived once per context."""
        if weights not in self._multipliers:
            self._multipliers[weights] = multipliers(np.frombuffer(weights))
        factors, den, _ = self._multipliers[weights]
        return factors, den

    def _full(self, mask: bytes, factors: np.ndarray) -> np.ndarray:
        """One factor per training column: factors on the mask's columns, 0 elsewhere."""
        full = np.zeros(self.n_features)
        full[np.frombuffer(mask, dtype=bool)] = factors
        return full

    def _distances(self, key: tuple) -> np.ndarray:
        """The leave-one-out distance matrix of the model whose model_key is key."""
        _, kind, alpha, mask, weights = key
        if self._last and self._last.model == key[1:]:
            return self._last.dist  # a k candidate
        factors, den = self._factors(weights)
        terms = term_key(kind, alpha)
        columns = np.flatnonzero(np.frombuffer(mask, dtype=bool))
        full = self._full(mask, factors)
        last, dist = self._last, None
        # equal factors under other bytes (-0.0 for 0.0) are a delta that steps no column
        if den and last and last.den and kind != CHEBYSHEV and last.model[:2] == (kind, alpha):
            dist = self._delta(last, full, den, len(columns))
        if dist is None:
            self._last = last = None  # the old matrix is freed before the new one is allocated
            train, n = self.train.vectors, self.train.n
            # a whole column of a one-block matrix is no larger than that block
            if block_rows(n) >= n:
                dist = accumulate(kind, self._columns(terms, columns), factors, (n, n))
            else:
                dist = distance_sums(kind, terms, self._scale(terms), train, train, columns,
                                     factors)
            np.fill_diagonal(dist, np.inf)
        self._last = _Matrix(dist, key[1:], den, full)
        return dist

    def _test_votes(self, key: tuple):
        """shell_votes of the test rows, for the model whose model_key is key,
        one row block of test x train sums at a time: the test matrix is never
        held, and its terms are built per block, not kept."""
        k, kind, alpha, mask, weights = key
        factors, _ = self._factors(weights)
        terms = term_key(kind, alpha)
        columns = np.flatnonzero(np.frombuffer(mask, dtype=bool))
        self._last = None  # the leave-one-out matrix, held by no local, is freed first
        blocks = block_sums(kind, terms, self._scale(terms), self.test.vectors,
                            self.train.vectors, columns, factors)
        parts = [shell_votes(sums, self.train.labels, k, self.n_classes) for sums in blocks]
        return [np.concatenate(arrays) for arrays in zip(*parts)]

    def _delta(self, last: _Matrix, factors: np.ndarray, den: int, active: int):
        """last's matrix updated in place to the exact multipliers factors / den,
        or None when that would change as many columns as are active, or
        when a numerator at the common denominator leaves the headroom."""
        common = math.lcm(last.den, den)
        up_old, up_new = common // last.den, common // den
        old, new = last.factors * up_old, factors * up_new
        changed = np.flatnonzero(old != new)
        if len(changed) >= active:
            return None
        # numerators inside the headroom keep every partial sum below 2**53
        if max(old.max(), new.max()) >= 2 ** HEADROOM_BITS:
            return None
        kind, alpha = last.model[:2]
        dist = last.dist
        if up_old != 1:
            dist *= up_old
        sum_into(dist, None, kind, self._columns(term_key(kind, alpha), changed),
                 new[changed] - old[changed])
        if up_new != 1:
            dist /= up_new  # exact: every entry is a multiple of up_new
        return dist

    def _score(self, key: tuple, side: str, report: bool):
        """Leave-one-out on "train", else the test set, of the model whose
        model_key is key: one shell_votes call on the leave-one-out matrix, or
        one per row block of the test side.

        Returns the correct count, or the full EvalReport when report is set.
        """
        if side == "test" and self.test is None:
            raise ValueError("context has no test set")
        data = self.train if side == "train" else self.test
        if side == "train":
            dist = self._distances(key)
            self.evaluations += 1
            winners, votes, sizes = shell_votes(dist, self.train.labels, key[0], self.n_classes)
        else:
            winners, votes, sizes = self._test_votes(key)
        correct = int(np.count_nonzero(winners == data.labels))
        if not report:
            return correct
        return EvalReport(correct / data.n, correct, data.n, winners, votes / sizes[:, None],
                          data.labels, confusion_of(data.labels, winners, self.n_classes))

    def fill_one_column(self, model: ModelSpec, candidates) -> None:
        """Fill the count memo for the candidates, (feature_mask, weights) pairs
        of resolved arrays for model to hold, that each change one exact column
        factor of model, at k=1, all from model's leave-one-out matrix at once:
        by the pairs that can hold a row minimum, or, on a tie-heavy base, by
        stacked rows; see the module docstring.  A candidate whose factors are
        model's own (a dropped zero weight) takes model's count, when that is
        in the memo.  The others are left to loo_count, and model's matrix is
        left as the last one.  Each candidate is keyed once, and none is keyed
        when the batch is refused before it.
        """
        kind, alpha = model.distance.kind, model.distance.alpha
        if model.k != 1 or kind == CHEBYSHEV:
            self.batches_refused += 1
            return
        base_key = self.model_key(model)
        old, den = self._factors(base_key[4])
        if den is None:
            self.batches_refused += 1
            return
        old = self._full(base_key[3], old)
        base_count = self._counts.get(("train", base_key))
        batch = {}  # model_key -> its changed column, new factor and denominator
        for mask, weights in candidates:
            key = _key(model, mask, weights)
            if ("train", key) in self._counts or key in batch:
                continue
            new, new_den = self._factors(key[4])
            if new_den is None:
                continue
            new = self._full(key[3], new)
            changed = np.flatnonzero(old * new_den != new * den)  # exact integers
            if len(changed) == 1:
                batch[key] = int(changed[0]), new[changed[0]], new_den
            elif len(changed) == 0 and base_count is not None:  # it scores as the base does
                self._counts["train", key] = base_count
                self.evaluations += 1
                self.filled_by_base += 1
        if len(batch) < 2:
            self.batches_refused += 1
            return
        common = math.lcm(den, *(new_den for _, _, new_den in batch.values()))
        columns = np.array([j for j, _, _ in batch.values()])
        ups = np.array([common // new_den for _, _, new_den in batch.values()])
        new = np.array([f for _, f, _ in batch.values()]) * ups
        old *= common // den
        # numerators inside the headroom keep every sum below 2**53, as in _delta
        if max(old.max(), new.max()) >= 2 ** HEADROOM_BITS:
            self.batches_refused += 1
            return
        dist = self._distances(base_key)
        base_matrix = self._last
        if base_matrix.nearest is None:  # a base batched from before keeps its scan
            base_matrix.shared, base_matrix.nearest = _shared_rows(dist)
        stacked = base_matrix.shared > _BATCH_TIE_SHARE * len(dist)
        nearest = base_matrix.nearest
        up, steps, n = common // den, new - old[columns], len(dist)
        distinct = sorted(set(columns.tolist()))  # np.unique imports numpy.ma, 1.7 MB
        index = np.searchsorted(distinct, columns)
        terms = term_key(kind, alpha)
        cached = self._columns(terms, distinct)
        base = dist * up if up != 1 else dist  # the base's matrix at the batch's denominator
        if stacked:
            counts = np.zeros(len(steps), dtype=np.intp)
            per = max(1, block_rows(n) // n)  # candidates voted at once: one block, or one matrix
            for first in range(0, len(steps), per):
                chunk = dict.fromkeys(range(first, min(first + per, len(steps))), slice(None))
                counts[first:first + per] = self._stacked_counts(cached, index, base, steps, ups,
                                                                 chunk)
            self.filled_by_stack += len(batch)
        else:
            counts = self._one_column_counts(cached, index, base, nearest, steps, ups)
            self.filled_by_pairs += len(batch)
        for key, count in zip(batch, counts.tolist()):
            self._counts["train", key] = count
        self.evaluations += len(batch)

    def _stacked_counts(self, cached, index, base, steps, ups, rows: dict) -> np.ndarray:
        """For each candidate c of rows, how many of its rows rows[c] (row
        indices, or slice(None) for all) a k=1 vote gets right on its matrix,
        (base + steps[c] * T_j) / ups[c] with T_j = cached[index[c]], in the
        order of rows: the rows of every candidate stacked and voted by one
        shell_votes call.  Every entry is exact, as in _delta, so each row is
        bitwise the row that candidate's own scoring votes.
        """
        labels = self.train.labels
        bounds = np.cumsum([0] + [len(labels[r]) for r in rows.values()]).tolist()
        sub = np.empty((bounds[-1], len(base)))
        for (c, r), lo, hi in zip(rows.items(), bounds, bounds[1:]):
            part, t = sub[lo:hi], cached[index[c]][r]
            if abs(steps[c]) == 1:  # a unit step adds or subtracts the column itself
                (np.add if steps[c] > 0 else np.subtract)(base[r], t, out=part)
            else:
                np.multiply(t, steps[c], out=part)
                part += base[r]
            if ups[c] != 1:
                part /= ups[c]
        winners = shell_votes(sub, labels, 1, self.n_classes)[0]
        return np.array([np.count_nonzero(winners[lo:hi] == labels[r])
                         for r, lo, hi in zip(rows.values(), bounds, bounds[1:])], dtype=np.intp)

    def _one_column_counts(self, cached, index, base, nearest, steps, ups) -> np.ndarray:
        """k=1 leave-one-out counts of the candidates whose matrices, at the batch's
        denominator, are base + steps[c] * T_j, T_j = cached[index[c]], divided by
        ups[c].  Each is summed only on the pairs that can hold some candidate's
        row minimum, and the first shell of each row is voted here; a tied vote,
        which would widen past those pairs, goes to _stacked_counts.
        """
        n, labels, classes = len(base), self.train.labels, self.n_classes
        flat = [t.reshape(-1) for t in cached]
        rise, fall = np.zeros(len(cached)), np.zeros(len(cached))
        np.maximum.at(rise, index, steps)  # per column, the largest step up
        np.maximum.at(fall, index, -steps)  # and down
        # every candidate's row minimum is at most its entry at the base's nearest
        # point, and each of its entries at least base - max_j fall_j * T_j
        near = np.arange(n) * n + nearest
        upper = base.reshape(-1)[near]
        upper += np.max([r * t[near] for r, t in zip(rise, flat) if r > 0], axis=0, initial=0.0)
        reach = np.zeros(n * n)
        for f, t in zip(fall, flat):
            if f > 0:
                np.maximum(reach, t if f == 1 else t * f, out=reach)
        np.subtract(base.reshape(-1), reach, out=reach)
        pairs = np.flatnonzero(reach.reshape(n, n) <= upper[:, None])
        del reach
        rows, cols = np.divmod(pairs, n)
        at_base = base.reshape(-1)[pairs]
        gathered = np.stack([t.take(pairs) for t in flat])
        near, width = np.searchsorted(pairs, near), len(pairs)
        del pairs
        counts = np.zeros(len(steps), dtype=np.intp)
        per = block_rows(width)  # candidates summed at once
        for first in range(0, len(steps), per):
            m = min(per, len(steps) - first)
            sums = gathered[index[first:first + m]] * steps[first:first + m, None]
            sums += at_base
            # each row's minimum: the entry at the base's nearest point, lowered
            # by the few entries below it
            low = sums[:, near].reshape(-1)  # flat, so that it is updated in place
            below = np.flatnonzero(sums < low.reshape(m, n)[:, rows])
            np.minimum.at(low, below // width * n + rows[below % width], sums.reshape(-1)[below])
            at_min = np.flatnonzero(sums == low.reshape(m, n)[:, rows])
            del sums, low, below
            # votes per class and (candidate, row) cell over each first shell
            cells = m * n
            votes = np.bincount(labels[cols[at_min % width]] * cells
                                + at_min // width * n + rows[at_min % width],
                                minlength=classes * cells).reshape(classes, cells)
            top = votes.max(axis=0)
            tied = np.count_nonzero(votes == top, axis=0) > 1
            right = (votes[np.tile(labels, m), np.arange(cells)] == top) & ~tied
            counts[first:first + m] = np.count_nonzero(right.reshape(m, n), axis=1)
            owner, at = np.divmod(np.flatnonzero(tied), n)
            if len(at):  # every tied row of the chunk, each its candidate's own, in one vote
                rows_of = {first + c: at[owner == c] for c in dict.fromkeys(owner.tolist())}
                counts[list(rows_of)] += self._stacked_counts(cached, index, base, steps, ups,
                                                              rows_of)
        return counts

    def model_key(self, model: ModelSpec) -> tuple:
        """k, distance, resolved mask and weights: models with equal keys score alike."""
        return _key(model, model.mask_for(self.n_features), model.active_weights(self.n_features))

    def _count(self, model: ModelSpec, side: str) -> int:
        """Correct count on side, scored once per distinct resolved model."""
        key = self.model_key(model)
        if (side, key) not in self._counts:
            self._counts[side, key] = self._score(key, side, report=False)
        return self._counts[side, key]

    def loo_count(self, model: ModelSpec) -> int:
        """Leave-one-out correct count; the fast path used by the search channels."""
        self.requested += 1
        return self._count(model, "train")

    def loo_report(self, model: ModelSpec) -> EvalReport:
        return self._score(self.model_key(model), "train", report=True)

    def test_count(self, model: ModelSpec) -> int:
        return self._count(model, "test")

    def test_report(self, model: ModelSpec) -> EvalReport:
        return self._score(self.model_key(model), "test", report=True)


def leave_one_out(model: ModelSpec, train: Dataset) -> EvalReport:
    """Score a model by leave-one-out over the training data.

    Each vector is classified against the remaining n-1; the held-out row
    never votes and never appears in the neighborhood.
    """
    return EvalContext(train).loo_report(model)


def evaluate(model: ModelSpec, train: Dataset, test: Dataset) -> EvalReport:
    """Classify every test vector against the full training data."""
    return EvalContext(train, test).test_report(model)
