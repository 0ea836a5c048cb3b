"""Single-parameter optimization channels.

Each channel improves one aspect of a reference model while leaving the
rest alone: the neighborhood size k, the distance kind, the active feature
subset, or the feature weights.  Each is one public function,
channel(ctx, ref, **options) -> ChannelResult, scoring in the EvalContext
it is given, so a search shares one context (its count memo, and the
ctx.requested count that prices each channel) across all of its channels.
Every channel scores candidates by leave-one-out accuracy on the training
data only and never returns a model scoring below the reference.

Every channel follows one protocol.  It deep-copies its reference once and
sets each candidate on that private model in place (k; the kind and alpha;
the feature mask and weights), requests it as ctx.loo_count(model), and
returns the copy set to its best candidate (the quantized weight search
runs two passes, each on a copy of its own, and returns the better one).
So the copy is the only ModelSpec a channel makes: none is built per
candidate, no channel writes into an array its reference holds, and no
result shares one.  The distance channel returns the reference itself when
no kind beats it, and a Minkowski re-fit's own result when that one wins.

Backward elimination and the quantized weight search both change one
parameter of the model per candidate: a feature dropped (a mask change, not
a weight of 0, so that drops of unit weights share one weight vector, whose
multipliers are derived once) or one weight moved to another grid value.
Each round of such candidates goes through _round.  Every candidate is a
(feature mask, weights) pair of resolved arrays.  A round of two or more is
first handed to EvalContext.fill_one_column as those arrays, and then each
candidate is set on the model and requested through loo_count, in order.

All search loops are fully deterministic: candidate orders are fixed, and
every tie rule is explicit.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass

import numpy as np

from .distance import CAMBERRA, CHEBYSHEV, GRID_TOLERANCE, MAX_DENOMINATOR, MINKOWSKI
from .evaluation import EvalContext
from .knn import ModelSpec

# candidate distance kinds, in evaluation order
DISTANCE_CANDIDATES = ((MINKOWSKI, 1), (MINKOWSKI, 2), (CHEBYSHEV, None), (CAMBERRA, None))

# search defaults, shared by meta_search and the command line
K_RANGE = (1, 10)  # neighborhood sizes scanned by the k channel
STEP = 0.1  # quantized weight grid step
BUDGET = 2000  # simplex leave-one-out evaluation budget
WEIGHT_METHODS = ("quantized", "simplex")
WEIGHT_METHOD = WEIGHT_METHODS[0]


@dataclass
class ChannelResult:
    model: ModelSpec
    correct_count: int  # leave-one-out correct count of model, out of ctx.train.n
    budget_exhausted: bool = False


# ---------------------------------------------------------------- k channel

def check_k_range(k_range, n: int) -> tuple[int, int]:
    """The k values (lo, hi) scanned on n training rows, hi capped at n - 1;
    ValueError when that leaves no k or lo < 1."""
    lo, hi = k_range
    hi = min(hi, n - 1)
    if lo < 1 or lo > hi:
        raise ValueError(f"bad k range ({lo}, {hi})")
    return lo, hi


def optimize_k(ctx: EvalContext, ref: ModelSpec, k_range=K_RANGE, **_) -> ChannelResult:
    """Exhaustive scan of the neighborhood size; ties keep the smallest k."""
    lo, hi = check_k_range(k_range, ctx.train.n)
    model = deepcopy(ref)  # every k is set on this copy in turn, and then the best
    best_k, best_count = None, -1
    for model.k in range(lo, hi + 1):
        count = ctx.loo_count(model)
        if count > best_count:  # ties keep the smaller k
            best_k, best_count = model.k, count
    if not lo <= ref.k <= hi:  # never return a model scoring below the reference
        model.k = ref.k
        ref_count = ctx.loo_count(model)
        if ref_count >= best_count:
            best_k, best_count = ref.k, ref_count
    model.k = best_k
    return ChannelResult(model, best_count)


# --------------------------------------------------------- distance channel

def optimize_distance(ctx: EvalContext, ref: ModelSpec, **options) -> ChannelResult:
    """Try each candidate distance kind in order; keep the reference on ties.

    Minkowski candidates of a weighted reference are re-fitted by the weights
    channel under the search's options (budget_exhausted if any re-fit ran
    out); Chebyshev and Camberra are scored with the weights as they are.
    """
    best, best_count = ref, ctx.loo_count(ref)  # a model, or a kind scored on the copy
    exhausted = False
    weighted = np.any(ref.active_weights(ctx.n_features) != 1.0)
    model = deepcopy(ref)  # every kind is set on this copy in turn
    for kind, alpha in DISTANCE_CANDIDATES:
        if kind == ref.distance.kind and alpha == ref.distance.alpha:
            continue
        model.distance.kind, model.distance.alpha = kind, alpha
        if weighted and kind == MINKOWSKI:
            # weights tuned under one exponent rarely transfer to another;
            # re-run the search's weight search under the candidate exponent
            refit = _weight_channel(ctx, model, **options)
            cand, count = refit.model, refit.correct_count
            exhausted |= refit.budget_exhausted
        else:
            cand, count = (kind, alpha), ctx.loo_count(model)
        if count > best_count:  # strict: ties keep the reference / earlier kind
            best, best_count = cand, count
    if isinstance(best, tuple):  # a kind scored on the copy: the copy, set back to it
        model.distance.kind, model.distance.alpha = best
        best = model
    return ChannelResult(best, best_count, exhausted)


# ------------------------------------------------- one-parameter rounds

def _round(ctx: EvalContext, model: ModelSpec, candidates: list) -> list[int]:
    """The leave-one-out counts of model set to each (feature_mask, weights)
    pair of candidates, requested in order after one fill_one_column batch
    when there are two or more.  Each pair holds resolved arrays that change
    one parameter of model, a feature dropped or a weight stepped; model is
    set to each pair in place and left holding what it held before."""
    if len(candidates) > 1:
        ctx.fill_one_column(model, candidates)
    held, counts = (model.feature_mask, model.distance.weights), []
    for model.feature_mask, model.distance.weights in candidates:
        counts.append(ctx.loo_count(model))
    model.feature_mask, model.distance.weights = held
    return counts


# --------------------------------------------------------- feature channel

def select_features(ctx: EvalContext, ref: ModelSpec, **_) -> ChannelResult:
    """Backward elimination over the active features.

    Each round drops the feature whose removal scores best (ties drop the
    higher index), even when that round loses ground; the best subset seen
    anywhere along the march is returned, preferring fewer features on equal
    score.
    """
    model = deepcopy(ref)  # every drop is set on this copy in turn, and then the best
    mask, weights = model.feature_mask, model.distance.weights = \
        model.mask_for(ctx.n_features), model.active_weights(ctx.n_features)
    best, best_count = (mask, weights), ctx.loo_count(model)
    but = ~np.eye(len(mask), dtype=bool)  # but[j]: every column but j
    # march all the way down to one feature, keeping the best subset seen
    while mask.sum() > 1:
        drops = [(mask & but[j], np.delete(weights, pos))
                 for pos, j in enumerate(np.flatnonzero(mask))]
        counts = _round(ctx, model, drops)
        pick = max(range(len(drops)), key=lambda i: (counts[i], i))
        mask, weights = model.feature_mask, model.distance.weights = drops[pick]
        if counts[pick] >= best_count:  # each round is smaller, so equal scores prefer it
            best, best_count = drops[pick], counts[pick]
    model.feature_mask, model.distance.weights = best
    return ChannelResult(model, best_count)


# -------------------------------------------------- quantized weight search

def check_step(step: float) -> np.ndarray:
    """The weight grid 0, step, ..., 1; ValueError unless step divides 1 evenly
    into at most MAX_DENOMINATOR intervals (finest step 0.001), so every grid
    weight is an exact distance multiplier (distance.multipliers)."""
    intervals = 1.0 / step if step > 0 else 0.0  # zero, negative and NaN steps
    if intervals > MAX_DENOMINATOR + 0.5:  # the margin lets float noise round to the cap
        raise ValueError(f"step {step} makes more than {MAX_DENOMINATOR} grid intervals")
    levels = int(round(intervals))
    if levels < 1 or abs(levels * step - 1.0) > GRID_TOLERANCE:
        raise ValueError(f"step {step} must divide 1 evenly")
    return np.round(np.arange(levels + 1) * step, 10)


def _cd_pass(ctx: EvalContext, ref: ModelSpec, grid: np.ndarray, tie: str):
    """One coordinate-descent run over the weight grid.

    tie='near' moves only on strict gain, to the value nearest the current
    one; tie='low' also moves sideways to the lowest equal-scoring value,
    walking plateaus toward zero.
    """
    model = deepcopy(ref)  # every candidate is set on this copy, never on ref
    mask = model.feature_mask = model.mask_for(ctx.n_features)
    w = model.distance.weights = model.active_weights(ctx.n_features)  # moved in place
    count = ctx.loo_count(model)
    changed = True
    while changed:
        changed = False
        for pos in range(len(w)):
            cur = w[pos]
            others = grid[grid != cur]
            steps = np.repeat(w[None], len(others), axis=0)  # row i: w with weight pos at others[i]
            steps[:, pos] = others
            counts = iter(_round(ctx, model, [(mask, s) for s in steps]))
            scores = [count if g == cur else next(counts) for g in grid]
            top = max(scores)
            if top < count:
                continue
            tied = [i for i, s in enumerate(scores) if s == top]
            if tie == "near":
                pick = min(tied, key=lambda i: (abs(grid[i] - cur), grid[i]))
            else:
                pick = tied[0]
            if grid[pick] != cur and (top > count or tie == "low" or cur not in grid):
                w[pos], count, changed = grid[pick], top, True
    return model, count


def weight_search_quantized(ctx: EvalContext, ref: ModelSpec, step=STEP,
                            **_) -> ChannelResult:
    """Coordinate descent over quantized weights in [0, 1].

    Two passes with different plateau policies are run (conservative
    nearest-value moves, and sideways moves toward zero); the better final
    score wins, and equal scores prefer the sparser weight vector.
    """
    grid = check_step(step)
    m1, c1 = _cd_pass(ctx, ref, grid, "near")
    m2, c2 = _cd_pass(ctx, ref, grid, "low")
    sparser = np.count_nonzero(m2.distance.weights) < np.count_nonzero(m1.distance.weights)
    if c2 > c1 or (c2 == c1 and sparser):
        return ChannelResult(m2, c2)
    return ChannelResult(m1, c1)


# ---------------------------------------------------- simplex weight search

def check_budget(budget: int) -> None:
    """Raise ValueError unless budget allows at least one evaluation."""
    if budget < 1:
        raise ValueError("budget must be a positive integer")


def weight_search_simplex(ctx: EvalContext, ref: ModelSpec, budget=BUDGET,
                          **_) -> ChannelResult:
    """Nelder-Mead search over continuous non-negative weights.

    The objective maximizes leave-one-out correct count, breaking ties
    toward smaller total weight.  Vertices are clamped at zero after every
    move.  Stops when the simplex diameter falls below 1e-3 or the
    evaluation budget runs out; the best vertex ever evaluated is returned
    either way, with a flag recording budget exhaustion.
    """
    check_budget(budget)
    dim = int(ref.mask_for(ctx.n_features).sum())
    stop = ctx.requested + budget  # the budget counts this search's own requests
    model = deepcopy(ref)  # every vertex is set on this copy in turn, and then the best
    best_w, best_score = None, (-1, 0.0)

    def objective(w):
        # maximize correct count, then prefer small total weight; keep the best vertex
        nonlocal best_w, best_score
        model.distance.weights = w
        score = ctx.loo_count(model), -float(np.sum(w))
        if score > best_score:
            best_w, best_score = w.copy(), score
        return score

    start = model.active_weights(ctx.n_features)
    vertices = ([start] + [start + 0.5 * np.eye(dim)[i] for i in range(dim)])[:budget]
    scores = [objective(v) for v in vertices]

    # stops on convergence or on the budget; ctx.requested >= stop tells which
    while ctx.requested < stop and len(vertices) == dim + 1:
        order = sorted(range(dim + 1), key=lambda i: scores[i], reverse=True)
        vertices = [vertices[i] for i in order]
        scores = [scores[i] for i in order]
        spread = max(float(np.max(np.abs(a - vertices[0]))) for a in vertices[1:])
        if spread < 1e-3:
            break
        centroid = np.mean(vertices[:-1], axis=0)
        reflected = np.maximum(centroid + (centroid - vertices[-1]), 0.0)
        s_r = objective(reflected)
        if ctx.requested >= stop:
            break
        if s_r > scores[0]:
            expanded = np.maximum(centroid + 2.0 * (centroid - vertices[-1]), 0.0)
            s_e = objective(expanded)
            if s_e > s_r:
                vertices[-1], scores[-1] = expanded, s_e
            else:
                vertices[-1], scores[-1] = reflected, s_r
        elif s_r > scores[-2]:
            vertices[-1], scores[-1] = reflected, s_r
        else:
            contracted = np.maximum(centroid + 0.5 * (vertices[-1] - centroid), 0.0)
            s_c = objective(contracted)
            if s_c > scores[-1]:
                vertices[-1], scores[-1] = contracted, s_c
            else:
                for i in range(1, dim + 1):
                    if ctx.requested >= stop:
                        break
                    vertices[i] = vertices[0] + 0.5 * (vertices[i] - vertices[0])
                    scores[i] = objective(vertices[i])

    model.distance.weights = best_w
    return ChannelResult(model, best_score[0], ctx.requested >= stop)


def check_weight_method(weight_method: str) -> None:
    """Raise ValueError unless weight_method names one of WEIGHT_METHODS."""
    if weight_method not in WEIGHT_METHODS:
        raise ValueError(f"unknown weight method {weight_method!r}; "
                         f"expected one of {WEIGHT_METHODS}")


def _weight_channel(ctx: EvalContext, ref: ModelSpec, weight_method=WEIGHT_METHOD,
                    **options) -> ChannelResult:
    """The quantized grid search or the simplex search, by weight_method."""
    check_weight_method(weight_method)
    search = weight_search_quantized if weight_method == "quantized" else weight_search_simplex
    return search(ctx, ref, **options)


# channel name -> channel(ctx, ref, **search options) -> ChannelResult
CHANNELS = {"k": optimize_k, "distance": optimize_distance,
            "features": select_features, "weights": _weight_channel}
