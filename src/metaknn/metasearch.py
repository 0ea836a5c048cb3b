"""Meta-level search over the model space, and model sequence selection.

meta_search runs the optimization channels level by level.  At each level
every channel starts from the same reference model; the best candidate
replaces the reference when its gain exceeds epsilon, otherwise the search
stops.  Decisions use leave-one-out training scores only.  Test scores, when
a test set is supplied, are recorded in the trace for reporting but are
never consulted by any decision.

select_model_sequence builds a committee greedily from a pool of scored
models: starting from the best one, it keeps adding whichever member
improves the majority vote the most, until no addition helps.  Every
committee vote goes through _majority, which votes all columns of a
(members x rows) prediction matrix at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .evaluation import EvalContext
from .knn import ModelSpec, Prediction, classify
from .optimize import (BUDGET, CHANNELS, K_RANGE, STEP, WEIGHT_METHOD, check_budget,
                       check_k_range, check_step, check_weight_method)

DEFAULT_CHANNELS = tuple(CHANNELS)


@dataclass
class CandidateRecord:
    level: int
    channel: str
    model: ModelSpec
    train_correct: int
    train_total: int
    evaluations: int
    test_correct: int | None = None
    test_total: int | None = None
    budget_exhausted: bool = False  # the channel stopped on its evaluation budget

    def to_record(self, n_features: int) -> dict:
        out = {
            "type": "candidate",
            "level": self.level,
            "channel": self.channel,
            "train_correct": self.train_correct,
            "train_total": self.train_total,
            "evaluations": self.evaluations,
            "model": self.model.describe(n_features),
        }
        if self.test_correct is not None:
            out["test_correct"] = self.test_correct
            out["test_total"] = self.test_total
        if self.budget_exhausted:
            out["budget_exhausted"] = True
        return out


@dataclass
class LevelRecord:
    level: int
    candidates: list[CandidateRecord]
    accepted: str | None  # channel name, or None when the level was rejected


@dataclass
class SearchTrace:
    n_features: int
    initial: CandidateRecord  # the starting reference, channel name "reference"
    levels: list[LevelRecord] = field(default_factory=list)
    # "no-improvement", "level-cap" (max_levels levels run) or
    # "channel-exhaustion" (no channels to run)
    stop_reason: str = ""

    def accepted_records(self) -> list[CandidateRecord]:
        out = []
        for level in self.levels:
            if level.accepted is not None:
                out.append(next(c for c in level.candidates if c.channel == level.accepted))
        return out

    @property
    def final(self) -> CandidateRecord:
        """The search's result: the last accepted record, else the initial reference."""
        accepted = self.accepted_records()
        return accepted[-1] if accepted else self.initial

    def levels_accepted(self) -> int:
        return sum(1 for level in self.levels if level.accepted is not None)

    def to_records(self) -> list[dict]:
        records = [dict(self.initial.to_record(self.n_features), type="reference")]
        for level in self.levels:
            records.extend(c.to_record(self.n_features) for c in level.candidates)
            records.append({"type": "decision", "level": level.level,
                            "accepted": level.accepted})
        records.append({"type": "stop", "reason": self.stop_reason,
                        "levels_accepted": self.levels_accepted()})
        return records


def meta_search(train: Dataset, test: Dataset | None = None,
                channels=DEFAULT_CHANNELS, epsilon: float = 0.0, k_range=K_RANGE,
                weight_method: str = WEIGHT_METHOD, step: float = STEP,
                budget: int = BUDGET, max_levels: int | None = None):
    """Level-wise search through the model space.

    Returns (final model, SearchTrace).  The final model is the reference
    left standing when the search stops; its leave-one-out score equals the
    last accepted candidate's (or the plain k=1 Euclidean reference's, when
    nothing was accepted).
    """
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    unknown = [c for c in channels if c not in CHANNELS]
    if unknown:
        raise ValueError(f"unknown channels {unknown}")
    check_weight_method(weight_method)
    check_step(step)
    check_budget(budget)
    if max_levels is not None and max_levels < 0:
        raise ValueError(f"max_levels must be non-negative, got {max_levels}")
    check_k_range(k_range, train.n)
    opts = {"k_range": k_range, "weight_method": weight_method,
            "step": step, "budget": budget}
    ctx = EvalContext(train, test)
    ref = ModelSpec()
    ref_count = ctx.loo_count(ref)

    def observed(record: CandidateRecord) -> CandidateRecord:
        if test is not None:
            record.test_correct = ctx.test_count(record.model)
            record.test_total = test.n
        return record

    trace = SearchTrace(train.n_features, observed(CandidateRecord(
        0, "reference", ref, ref_count, train.n, ctx.requested)))
    # accepted gains are strictly positive vector counts, so the loop is
    # bounded by train.n even without an explicit level cap
    level = 0
    while max_levels is None or level < max_levels:
        level += 1
        candidates = []
        for name in channels:
            before = ctx.requested  # a channel's cost: the LOO counts it requested
            result = CHANNELS[name](ctx, ref, **opts)
            candidates.append(observed(CandidateRecord(
                level, name, result.model, result.correct_count, train.n,
                ctx.requested - before, budget_exhausted=result.budget_exhausted)))
        if not candidates:
            trace.stop_reason = "channel-exhaustion"
            break
        best = candidates[0]
        for cand in candidates[1:]:
            if cand.train_correct > best.train_correct or (
                    cand.train_correct == best.train_correct
                    and cand.model.complexity_rank() < best.model.complexity_rank()):
                best = cand
        if best.train_correct - ref_count > epsilon * train.n:
            trace.levels.append(LevelRecord(level, candidates, best.channel))
            ref, ref_count = best.model, best.train_correct
        else:
            trace.levels.append(LevelRecord(level, candidates, None))
            trace.stop_reason = "no-improvement"
            break
    else:
        trace.stop_reason = "level-cap"
    return ref, trace


# ------------------------------------------------------- sequence selection

@dataclass
class PoolMember:
    model: ModelSpec
    predictions: np.ndarray  # predicted class per validation vector

    def __post_init__(self):
        self.predictions = np.asarray(self.predictions, dtype=int)


@dataclass
class ModelSequence:
    members: list[PoolMember]
    combined_correct: int
    total: int

    @property
    def combined_score(self) -> float:
        return self.combined_correct / self.total


def _majority(stacked: np.ndarray, n_classes: int) -> np.ndarray:
    """Majority vote of every column of a (members x rows) prediction matrix.

    A tied column goes to the earliest member whose vote is among the tied
    classes.
    """
    rows = np.arange(stacked.shape[1])
    counts = np.bincount((rows * n_classes + stacked).ravel(),
                         minlength=len(rows) * n_classes).reshape(len(rows), n_classes)
    leading = counts == counts.max(axis=1, keepdims=True)
    first = np.take_along_axis(leading, stacked.T, axis=1).argmax(axis=1)
    return stacked[first, rows]


def select_model_sequence(pool: list[PoolMember], truths, epsilon: float = 0.0) -> ModelSequence:
    """Greedy forward selection of a majority-vote committee.

    The pool is ordered by decreasing validation accuracy (ties prefer the
    simpler model); the best member seeds the sequence.  Each step adds the
    remaining member whose inclusion improves the joint vote the most, and
    stops when the gain falls to epsilon or below.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if not pool:
        raise ValueError("empty model pool")
    truths = np.asarray(truths, dtype=int)
    total = len(truths)
    if any(len(m.predictions) != total for m in pool):
        raise ValueError("pool predictions and truths must have equal length")
    stacked = np.stack([m.predictions for m in pool])
    n_classes = int(max(truths.max(), stacked.max())) + 1
    correct = np.count_nonzero(stacked == truths, axis=1)
    ranks = [m.model.complexity_rank() for m in pool]
    remaining = sorted(range(len(pool)), key=lambda i: (-correct[i], ranks[i], i))
    chosen = [remaining.pop(0)]
    current = int(correct[chosen[0]])
    while remaining:
        best_i, best_correct, best_rank = -1, -1, None
        for i, cand in enumerate(remaining):
            joint = int(np.count_nonzero(_majority(stacked[chosen + [cand]], n_classes) == truths))
            if joint > best_correct or (joint == best_correct and ranks[cand] < best_rank):
                best_i, best_correct, best_rank = i, joint, ranks[cand]
        if best_correct - current <= epsilon * total:
            break
        chosen.append(remaining.pop(best_i))
        current = best_correct
    return ModelSequence([pool[i] for i in chosen], current, total)


def build_pool(train: Dataset, trace: SearchTrace) -> tuple[list[PoolMember], np.ndarray]:
    """Pool every model the search trace visited, with leave-one-out predictions.

    A model visited more than once keeps each place, all sharing one scoring.
    """
    ctx = EvalContext(train)
    models = [trace.initial.model]
    for level in trace.levels:
        models.extend(c.model for c in level.candidates)
    pool, scored = [], {}
    for model in models:
        key = ctx.model_key(model)
        if key not in scored:
            scored[key] = ctx.loo_report(model).winners
        pool.append(PoolMember(model, scored[key]))
    return pool, train.labels.copy()


def evaluate_sequence(sequence: ModelSequence, train: Dataset, test: Dataset) -> tuple[int, int]:
    """Majority-vote correct count of the sequence on a test set."""
    ctx = EvalContext(train, test)
    stacked = np.stack([ctx.test_report(m.model).winners for m in sequence.members])
    joint = _majority(stacked, train.n_classes)
    return int(np.count_nonzero(joint == test.labels)), test.n


def ensemble_predict(sequence: ModelSequence, train: Dataset, query) -> Prediction:
    """Classify a query by the sequence's majority vote.

    Vote ties go to the earliest member of the sequence whose vote is among
    the tied classes; class probabilities are the vote fractions.
    """
    if not sequence.members:
        raise ValueError("empty sequence")
    votes = np.array([classify(m.model, train, query).winner for m in sequence.members])
    winner = int(_majority(votes[:, None], train.n_classes)[0])
    probs = np.bincount(votes, minlength=train.n_classes) / len(votes)
    return Prediction(winner, probs)
