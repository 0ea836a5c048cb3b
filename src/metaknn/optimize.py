"""Single-parameter optimization channels.

Each channel improves one aspect of a reference model while leaving the
rest alone: the neighborhood size k, the distance kind, the active feature
subset, or the feature weights.  Each is one public function,
channel(ctx, ref, **options) -> ChannelResult, scoring in the EvalContext
it is given, so a search shares one context (and its count memo) across
all of its channels.  Every channel scores candidates by leave-one-out
accuracy on the training data only and never returns a model scoring below
the reference.

All search loops are fully deterministic: candidate orders are fixed, and
every tie rule is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    evaluations: int  # leave-one-out evaluations requested, repeats included
    budget_exhausted: bool = False


def _with_weights(model: ModelSpec, weights) -> ModelSpec:
    return replace(model, distance=replace(model.distance, weights=np.asarray(weights, float)))


def _with_kind(model: ModelSpec, kind: str, alpha) -> ModelSpec:
    return replace(model, distance=replace(model.distance, kind=kind, alpha=alpha))


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
    best_model, best_count, evals = None, -1, 0
    for k in range(lo, hi + 1):
        cand = ref if k == ref.k else replace(ref, k=k)
        count = ctx.loo_count(cand)
        evals += 1
        if count > best_count:  # ties keep the smaller k
            best_model, best_count = cand, count
    if not lo <= ref.k <= hi:  # never return a model scoring below the reference
        ref_count = ctx.loo_count(ref)
        evals += 1
        if ref_count >= best_count:
            best_model, best_count = ref, ref_count
    return ChannelResult(best_model, best_count, evals)


# --------------------------------------------------------- distance channel

def optimize_distance(ctx: EvalContext, ref: ModelSpec, step=STEP, **_) -> ChannelResult:
    """Try each candidate distance kind in order; keep the reference on ties.

    When the reference carries non-unit weights, Minkowski candidates get a
    quantized weight re-fit before comparison; Chebyshev and Camberra are
    scored with the weights as they are.
    """
    ref_count = ctx.loo_count(ref)
    evals = 1
    best_model, best_count = ref, ref_count
    weighted = np.any(ref.active_weights(ctx.n_features) != 1.0)
    for kind, alpha in DISTANCE_CANDIDATES:
        if kind == ref.distance.kind and alpha == ref.distance.alpha:
            continue
        cand = _with_kind(ref, kind, alpha)
        if weighted and kind == MINKOWSKI:
            # weights tuned under one exponent rarely transfer to another;
            # re-run the quantized weight search under the candidate exponent
            refit = weight_search_quantized(ctx, cand, step)
            cand, count = refit.model, refit.correct_count
            evals += refit.evaluations
        else:
            count = ctx.loo_count(cand)
            evals += 1
        if count > best_count:  # strict: ties keep the reference / earlier kind
            best_model, best_count = cand, count
    return ChannelResult(best_model, best_count, evals)


# --------------------------------------------------------- feature channel

def _drop_feature(model: ModelSpec, mask: np.ndarray, j: int) -> ModelSpec:
    new_mask = mask.copy()
    new_mask[j] = False
    out = replace(model, feature_mask=new_mask)
    if model.distance.weights is not None:
        pos = int(np.searchsorted(np.flatnonzero(mask), j))
        out = _with_weights(out, np.delete(model.distance.weights, pos))
    return out


def select_features(ctx: EvalContext, ref: ModelSpec, **_) -> ChannelResult:
    """Backward elimination over the active features.

    Each round drops the feature whose removal scores best (ties drop the
    higher index), even when that round loses ground; the best subset seen
    anywhere along the march is returned, preferring fewer features on equal
    score.
    """
    best_model = ref
    best_count = ctx.loo_count(ref)
    best_size = int(ref.mask_for(ctx.n_features).sum())
    evals = 1
    current, current_mask = ref, ref.mask_for(ctx.n_features)
    # march all the way down to one feature, keeping the best subset seen
    while current_mask.sum() > 1:
        candidates = []
        for j in np.flatnonzero(current_mask):
            cand = _drop_feature(current, current_mask, int(j))
            candidates.append((ctx.loo_count(cand), int(j), cand))
            evals += 1
        count, _, cand = max(candidates, key=lambda t: (t[0], t[1]))
        current = cand
        current_mask = current.mask_for(ctx.n_features)
        size = int(current_mask.sum())
        if count > best_count or (count == best_count and size < best_size):
            best_model, best_count, best_size = current, count, size
    return ChannelResult(best_model, best_count, evals)


# -------------------------------------------------- quantized weight search

def _grid(step: float) -> np.ndarray:
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


def check_step(step: float) -> None:
    """Raise ValueError unless _grid accepts step."""
    _grid(step)


def _cd_pass(ctx: EvalContext, ref: ModelSpec, grid: np.ndarray, tie: str):
    """One coordinate-descent run over the weight grid.

    tie='near' moves only on strict gain, to the value nearest the current
    one; tie='low' also moves sideways to the lowest equal-scoring value,
    walking plateaus toward zero.
    """
    w = ref.active_weights(ctx.n_features).copy()
    model = _with_weights(ref, w)
    count = ctx.loo_count(model)
    evals = 1
    changed = True
    while changed:
        changed = False
        for pos in range(len(w)):
            cur = w[pos]
            scores = []
            for g in grid:
                if g == cur:
                    scores.append(count)
                    continue
                w[pos] = g
                scores.append(ctx.loo_count(_with_weights(model, w)))
                evals += 1
            w[pos] = cur
            top = max(scores)
            if top < count:
                continue
            tied = [i for i, s in enumerate(scores) if s == top]
            if tie == "near":
                pick = min(tied, key=lambda i: (abs(grid[i] - cur), grid[i]))
            else:
                pick = tied[0]
            if grid[pick] != cur and (top > count or tie == "low" or cur not in grid):
                w[pos] = grid[pick]
                count = top
                changed = True
    return _with_weights(model, w), count, evals


def weight_search_quantized(ctx: EvalContext, ref: ModelSpec, step=STEP,
                            **_) -> ChannelResult:
    """Coordinate descent over quantized weights in [0, 1].

    Two passes with different plateau policies are run (conservative
    nearest-value moves, and sideways moves toward zero); the better final
    score wins, and equal scores prefer the sparser weight vector.
    """
    grid = _grid(step)
    m1, c1, e1 = _cd_pass(ctx, ref, grid, "near")
    m2, c2, e2 = _cd_pass(ctx, ref, grid, "low")
    nnz1 = int(np.count_nonzero(m1.active_weights(ctx.n_features)))
    nnz2 = int(np.count_nonzero(m2.active_weights(ctx.n_features)))
    if c2 > c1 or (c2 == c1 and nnz2 < nnz1):
        return ChannelResult(m2, c2, e1 + e2)
    return ChannelResult(m1, c1, e1 + e2)


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

    def objective(w):
        # maximize correct count, then prefer small total weight
        count = ctx.loo_count(_with_weights(ref, w))
        return count, -float(np.sum(w))

    best_w, best_score = None, (-1, 0.0)

    def track(w, s):
        nonlocal best_w, best_score
        if s > best_score:
            best_w, best_score = w.copy(), s

    start = ref.active_weights(ctx.n_features).copy()
    vertices = [start] + [start + 0.5 * np.eye(dim)[i] for i in range(dim)]
    vertices = vertices[:budget]
    scores = [objective(v) for v in vertices]
    for v, s in zip(vertices, scores):
        track(v, s)
    evals = len(vertices)

    # stops on convergence or on the budget; evals >= budget tells which
    while evals < budget and len(vertices) == dim + 1:
        order = sorted(range(dim + 1), key=lambda i: scores[i], reverse=True)
        vertices = [vertices[i] for i in order]
        scores = [scores[i] for i in order]
        spread = max(float(np.max(np.abs(a - vertices[0]))) for a in vertices[1:])
        if spread < 1e-3:
            break
        centroid = np.mean(vertices[:-1], axis=0)
        reflected = np.maximum(centroid + (centroid - vertices[-1]), 0.0)
        s_r = objective(reflected)
        evals += 1
        track(reflected, s_r)
        if evals >= budget:
            break
        if s_r > scores[0]:
            expanded = np.maximum(centroid + 2.0 * (centroid - vertices[-1]), 0.0)
            s_e = objective(expanded)
            evals += 1
            track(expanded, s_e)
            if s_e > s_r:
                vertices[-1], scores[-1] = expanded, s_e
            else:
                vertices[-1], scores[-1] = reflected, s_r
        elif s_r > scores[-2]:
            vertices[-1], scores[-1] = reflected, s_r
        else:
            contracted = np.maximum(centroid + 0.5 * (vertices[-1] - centroid), 0.0)
            s_c = objective(contracted)
            evals += 1
            track(contracted, s_c)
            if s_c > scores[-1]:
                vertices[-1], scores[-1] = contracted, s_c
            else:
                for i in range(1, dim + 1):
                    if evals >= budget:
                        break
                    vertices[i] = vertices[0] + 0.5 * (vertices[i] - vertices[0])
                    scores[i] = objective(vertices[i])
                    evals += 1
                    track(vertices[i], scores[i])

    return ChannelResult(_with_weights(ref, best_w), best_score[0], evals, evals >= budget)


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
