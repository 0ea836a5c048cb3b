"""Weighted dissimilarity functions over feature vectors.

Three families share one parameterisation (scaling weights s_j >= 0):

  minkowski alpha=1   D = sum_j s_j |x_j - y_j|
  minkowski alpha=2   D = sum_j s_j |x_j - y_j|^2      (no root is taken)
  chebyshev           D = max_j s_j |x_j - y_j|
  camberra            D = sum_j s_j |x_j - y_j| / (|x_j| + |y_j|),  0/0 -> 0

Minkowski values are left in the power domain: the root is monotone, so
neighbor rankings are unchanged and leaving it out keeps sums exact.

Exact distances.  A per-feature term T is stored as the integer-valued float
rint(T * S).  The scale S is a power of two fixed by a set of reference rows
(the training rows): S = 2**(52 - 16 - ceil(log2 sum_j maxT_j)), where maxT_j
is column j's range for |x-y| terms, its square for squared terms and 1 for
Camberra, so every sum of scaled terms stays below 2**36.  multipliers() turns
weights into integer numerators p_j over one denominator L when every weight
is within 1e-9 of p_j/L with L <= 1000 and every p_j fits in the remaining 16
bits, or, failing that, when every weight over the largest is; p_j is 0 only
for a zero weight.  Between rows inside the reference range every partial sum
is then an integer below 2**53: exact, the same in any order, with ties that
are real.  Weights whose ratios to the largest lie on such a grid (every
search grid's do) keep proportional numerators when all are multiplied by
any positive factor, so the rescaling changes no comparison.  Other weights
(simplex vertices, arbitrary floats), divided by a power of two that puts
the largest at most 1, multiply the terms as they are; that is the one
inexact path, through the same kernel.

accumulate() is the one matrix kernel: it combines per-feature term matrices
one feature at a time, in index order, with the same per-term operations as
the scalar loop pair_sum, so matrix entries are bitwise equal to pair_sum on
the corresponding rows at the same scale.  pairwise_matrix and cross_matrix
feed it fresh terms; evaluation.EvalContext feeds it cached ones, and updates
its last matrix in place when a model changes a few exact multipliers.
dissimilarity (at the scale of its two vectors), pairwise_matrix and
cross_matrix report distances in data units: the sum divided by S and by the
weights' unit (L for grid weights).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataError

MINKOWSKI = "minkowski"
CAMBERRA = "camberra"
CHEBYSHEV = "chebyshev"
KINDS = (MINKOWSKI, CAMBERRA, CHEBYSHEV)

HEADROOM_BITS = 16  # bits of a distance sum left to weight numerators
MAX_DENOMINATOR = 1000  # largest weight denominator L carried exactly
GRID_TOLERANCE = 1e-9  # how far a weight may sit from p/L and still be p/L


@dataclass
class DistanceSpec:
    kind: str = MINKOWSKI
    alpha: int | None = 2  # Minkowski exponent; None for other kinds
    weights: np.ndarray | None = None  # one scaling factor per feature; None = all ones

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distance kind {self.kind!r}")
        if self.kind == MINKOWSKI:
            if self.alpha not in (1, 2):
                raise ValueError(f"minkowski alpha must be 1 or 2, got {self.alpha!r}")
        else:
            self.alpha = None
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.ndim != 1:
                raise ValueError("weights must be a flat vector")
            if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
                raise ValueError("weights must be finite and non-negative")

    def resolved_weights(self, n_features: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(n_features)
        if len(self.weights) != n_features:
            raise ValueError(f"{len(self.weights)} weights for {n_features} features")
        return self.weights

    def describe(self) -> str:
        if self.kind == MINKOWSKI:
            return {1: "minkowski(alpha=1)", 2: "minkowski(alpha=2)"}[self.alpha]
        return self.kind


def term_key(kind: str, alpha: int | None) -> str:
    """Which per-feature term tensor a distance kind consumes."""
    if kind == MINKOWSKI:
        return "sq" if alpha == 2 else "abs"
    if kind == CHEBYSHEV:
        return "abs"
    return "cam"


def term_scale(key: str, reference: np.ndarray, names=None,
               queries=None) -> tuple[float, np.ndarray]:
    """The power-of-two scale S of key's terms between rows of reference, and
    per column the largest scaled term rint(maxT_j * S).

    S = 2**(52 - HEADROOM_BITS - ceil(log2 sum_j maxT_j)), with maxT_j the
    largest term between two reference rows in column j.  Raises DataError,
    naming the column (from names, else by position), when a term bound
    overflows; with queries, also when a term between a query row and a
    reference row could overflow at scale S.
    """
    with np.errstate(over="ignore"):
        bounds = _term_bounds(key, reference)
        total = np.cumsum(bounds)
        _require_finite(total, names)
        mantissa, exponent = math.frexp(total[-1])  # total = mantissa * 2**exponent
        ceil_log2 = exponent - (mantissa == 0.5)  # exact, and 0 for a zero total
        # the cap keeps S finite for a total below 2**-987
        scale = math.ldexp(1.0, min(1023, 52 - HEADROOM_BITS - ceil_log2))
        if queries is not None:
            _require_finite(_term_bounds(key, np.vstack([reference, queries])) * scale, names)
    return scale, np.rint(bounds * scale)


def _term_bounds(key: str, rows: np.ndarray) -> np.ndarray:
    """Per column, the largest unscaled term between two of the rows."""
    if key == "cam":  # at most 1, once |x| + |y| cannot overflow
        return np.where(np.isfinite(2 * np.abs(rows).max(axis=0)), 1.0, np.inf)
    span = rows.max(axis=0) - rows.min(axis=0)
    return span * span if key == "sq" else span


def _require_finite(bounds: np.ndarray, names) -> None:
    bad = np.flatnonzero(~np.isfinite(bounds))
    if len(bad):
        j = int(bad[0])
        name = names[j] if names is not None else j + 1
        raise DataError(f"column {name!r}: values too large for exact distances")


def feature_terms(a: np.ndarray, b: np.ndarray, key: str, scale: float) -> np.ndarray:
    """Scaled per-feature term matrix rint(T[p, q] * scale) between rows of a and b."""
    t = np.subtract.outer(a, b)
    np.abs(t, out=t)
    if key == "sq":
        np.multiply(t, t, out=t)
    elif key == "cam":
        s = np.add.outer(np.abs(a), np.abs(b))
        np.divide(t, s, out=t, where=s != 0)  # s == 0 only where a = b = 0, and t is 0
    t *= scale
    return np.rint(t, out=t)


_DENOMINATORS = np.arange(1, MAX_DENOMINATOR + 1)


@functools.lru_cache(maxsize=4096)
def _fraction(w: float) -> tuple[int, int] | None:
    """(p, q) with the smallest q <= MAX_DENOMINATOR that puts w within
    GRID_TOLERANCE of p/q, or None; None also when p cannot fit the headroom.
    p is 0 only for w == 0: a nonzero weight never becomes a zero multiplier."""
    if w == 0:
        return 0, 1
    if w >= 2 ** HEADROOM_BITS:
        return None
    p = np.rint(w * _DENOMINATORS)
    hit = np.flatnonzero((np.abs(w - p / _DENOMINATORS) <= GRID_TOLERANCE) & (p > 0))
    return (int(p[hit[0]]), int(hit[0]) + 1) if len(hit) else None


def _numerators(ratios: list) -> tuple[np.ndarray, int] | None:
    """Integer numerators over one denominator L for ratios, or None."""
    fractions = []
    for r in ratios:  # an off-grid vector usually fails at its first ratios
        f = _fraction(r)
        if f is None:
            return None
        fractions.append(f)
    den = math.lcm(*(q for _, q in fractions))
    num = [p * (den // q) for p, q in fractions]
    if den <= MAX_DENOMINATOR and max(num, default=0) < 2 ** HEADROOM_BITS:
        return np.array(num, dtype=float), den
    return None


def multipliers(weights: np.ndarray) -> tuple[np.ndarray, int | None, float]:
    """The factors scaled terms are multiplied by, their denominator L, and
    the unit u with weights = factors / u, which turns sums into data units.

    Exact: the factors are integers p_j < 2**HEADROOM_BITS over one
    L <= MAX_DENOMINATOR, with each weight within GRID_TOLERANCE of p_j/L or,
    failing that, each weight over the largest within GRID_TOLERANCE of
    p_j/L, so a grid vector scaled by any positive factor keeps proportional
    numerators.  Sums of the scaled terms are then exact.  Otherwise the
    factors are the weights divided by a power of two that puts the largest
    at most 1, and L is None: the inexact path.
    """
    weights = np.asarray(weights, dtype=float)
    exact = _numerators(weights.tolist())
    if exact is not None:
        return exact[0], exact[1], float(exact[1])
    top = float(weights.max())
    exact = _numerators([0.0 if w == 0 else w / top for w in weights.tolist()])
    if exact is not None:
        return exact[0], exact[1], exact[1] / top
    shift = math.frexp(top)[1] if top > 1 else 0  # exact: comparisons are unchanged
    return np.ldexp(weights, -shift), None, math.ldexp(1.0, -shift)


def _scaled_term(x: float, y: float, key: str, scale: float) -> float:
    d = abs(x - y)
    if key == "sq":
        d = d * d
    elif key == "cam":
        s = abs(x) + abs(y)
        d = d / s if s != 0 else 0.0
    return float(round(d * scale))  # round() ties to even, as np.rint


def pair_sum(kind: str, key: str, x: list, y: list, scale: float, factors: list) -> float:
    """The scalar loop: scaled terms of x and y times factors, combined in index order."""
    acc = 0.0
    for j in range(len(x)):
        t = factors[j] * _scaled_term(x[j], y[j], key, scale)
        acc = max(acc, t) if kind == CHEBYSHEV else acc + t
    return acc


def dissimilarity(spec: DistanceSpec, x, y) -> float:
    """Dissimilarity between two vectors, accumulated feature by feature.

    Terms are stored at term_scale of the two vectors; the result is the sum
    divided by the scale and the weights' unit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    key = term_key(spec.kind, spec.alpha)
    factors, _, unit = multipliers(spec.resolved_weights(len(x)))
    scale, _ = term_scale(key, np.vstack([x, y]))
    acc = pair_sum(spec.kind, key, x.tolist(), y.tolist(), scale, factors.tolist())
    return acc / (scale * unit)


def accumulate(kind: str, terms, factors, shape) -> np.ndarray:
    """Distance matrix of the given shape from per-feature term matrices.

    terms yields one scaled term matrix per active feature and factors holds
    the matching multipliers; they are combined in the order given, which
    callers keep ascending by column to mirror the scalar loop exactly.
    """
    out = np.zeros(shape)
    product = np.empty(shape)
    for f, t in zip(factors, terms):
        np.multiply(t, f, out=product)
        if kind == CHEBYSHEV:
            np.maximum(out, product, out=out)
        else:
            out += product
    return out


def pairwise_matrix(spec: DistanceSpec, data) -> np.ndarray:
    """All-pairs distance matrix for a Dataset (zero diagonal, symmetric)."""
    return cross_matrix(spec, data, data)


def cross_matrix(spec: DistanceSpec, data, other) -> np.ndarray:
    """Matrix of distances from each row of `data` to each row of `other`.

    Terms are stored at the scale of other's rows, as a test set is measured
    against its training set.
    """
    if data.n_features != other.n_features:
        raise ValueError("datasets have different widths")
    a, b = data.vectors, other.vectors
    key = term_key(spec.kind, spec.alpha)
    scale, _ = term_scale(key, b, [f.name for f in other.features], queries=a)
    factors, _, unit = multipliers(spec.resolved_weights(data.n_features))
    terms = (feature_terms(a[:, j], b[:, j], key, scale) for j in range(data.n_features))
    out = accumulate(spec.kind, terms, factors, (len(a), len(b)))
    out /= scale * unit
    return out
