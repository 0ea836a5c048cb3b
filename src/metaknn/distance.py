"""Weighted dissimilarity functions over feature vectors.

Three families share one parameterisation (scaling weights s_j >= 0):

  minkowski alpha=1   D = sum_j s_j |x_j - y_j|
  minkowski alpha=2   D = sum_j s_j |x_j - y_j|^2      (no root is taken)
  chebyshev           D = max_j s_j |x_j - y_j|
  camberra            D = sum_j s_j |x_j - y_j| / (|x_j| + |y_j|),  0/0 -> 0

Minkowski values are left in the power domain: the root is monotone, so
neighbor rankings are unchanged and leaving it out keeps sums exact.

accumulate() is the one matrix kernel: it combines per-feature term matrices
one feature at a time, in index order, with the same per-term operations as
the scalar loop, so matrix entries are bitwise equal to dissimilarity() on
the corresponding rows.  pairwise_matrix and cross_matrix feed it fresh
terms; evaluation.EvalContext feeds it cached ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MINKOWSKI = "minkowski"
CAMBERRA = "camberra"
CHEBYSHEV = "chebyshev"
KINDS = (MINKOWSKI, CAMBERRA, CHEBYSHEV)


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


def feature_terms(a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
    """Per-feature term matrix T[p, q] between rows of a and rows of b."""
    d = np.abs(a[:, None] - b[None, :])
    if key == "abs":
        return d
    if key == "sq":
        return d * d
    s = np.abs(a)[:, None] + np.abs(b)[None, :]
    out = np.zeros_like(d)
    np.divide(d, s, out=out, where=s != 0)
    return out


def dissimilarity(spec: DistanceSpec, x, y) -> float:
    """Dissimilarity between two vectors, accumulated feature by feature."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    w = spec.resolved_weights(len(x))
    if spec.kind == CHEBYSHEV:
        acc = 0.0
        for j in range(len(x)):
            acc = max(acc, w[j] * abs(x[j] - y[j]))
        return float(acc)
    acc = 0.0
    for j in range(len(x)):
        d = abs(x[j] - y[j])
        if spec.kind == MINKOWSKI:
            acc += w[j] * (d * d) if spec.alpha == 2 else w[j] * d
        else:
            s = abs(x[j]) + abs(y[j])
            if s != 0:
                acc += w[j] * (d / s)
    return float(acc)


def accumulate(kind: str, terms, weights, shape) -> np.ndarray:
    """Distance matrix of the given shape from per-feature term matrices.

    terms yields one term matrix per active feature and weights holds the
    matching scaling factors; they are combined in the order given, which
    callers keep ascending by column to mirror the scalar loop exactly.
    """
    out = np.zeros(shape)
    for w, t in zip(weights, terms):
        if kind == CHEBYSHEV:
            np.maximum(out, w * t, out=out)
        else:
            out += w * t
    return out


def pairwise_matrix(spec: DistanceSpec, data) -> np.ndarray:
    """All-pairs distance matrix for a Dataset (zero diagonal, symmetric)."""
    return cross_matrix(spec, data, data)


def cross_matrix(spec: DistanceSpec, data, other) -> np.ndarray:
    """Matrix of distances from each row of `data` to each row of `other`."""
    if data.n_features != other.n_features:
        raise ValueError("datasets have different widths")
    a, b = data.vectors, other.vectors
    key = term_key(spec.kind, spec.alpha)
    terms = (feature_terms(a[:, j], b[:, j], key) for j in range(data.n_features))
    return accumulate(spec.kind, terms, spec.resolved_weights(data.n_features),
                      (len(a), len(b)))
