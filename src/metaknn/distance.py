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

Term stacks.  feature_terms builds the term matrices of F columns for a
few rows of a against rows of b as one (F, m, w) stack: the differences are
one batched rank-2 matrix product, [x, 1] @ [p; -p * y] for every column at
once, with a power of two p folded in: S itself for |x-y| and Camberra, and
2**(e // 2) for squares, where S = 2**e, completed by one multiplication by
2 when e is odd.  While p * x is exact for every operand, each entry is one
rounding of p*x - p*y, which is p * fl(x - y), on any BLAS kernel, with a
fused multiply-add or without; then one call each over the whole stack
takes abs (or the square), Camberra's division, the leftover scale and
rint, with no fill, subtract or per-column pass.  A Camberra denominator
|x| + |y| is a product of the same shape, [|x|, 1] @ [1; |y|], and dividing
p * |x - y| by it rounds once to p times the scalar loop's quotient.  p is
chosen per column: it is 1, and the scale is applied after the difference
as the scalar loop applies it, when 2 * p * max|x| could overflow (a column
of large magnitude and small span), and for every column when S is below 1
or above 2**1020, where a subnormal square's last bit can be worth a unit.
term_sides builds the b side [p; -p * y] of every column, and its p, once
per block_sums call, from the columns' ends (column_ends: four reductions,
which block_sums also reads for its combine route) and one copy of each
column, with no temporary of the data; left_side builds the a side [x, 1]
of one row block at a time, so the two sides never hold more than the b
side and one block's rows.  column_terms builds the whole matrices of the columns a
cache lacks through the same feature_terms, from one term_sides and one
left_side of those columns, each as a stack of one.

block_sums() is the one matrix kernel.  It builds a distance matrix one
block of rows at a time (block_rows) and yields each block once its rows
are whole: a block's terms and its sum take BLOCK_BYTES each, and so does
the product of cached terms (terms built for the block are multiplied in
place), so the block stays in L2 through all of its passes.  Given the
whole matrix it sums each block into it, as distance_sums() does; given
none, it sums every block into one block-sized array, which the next block
overwrites, so a caller that votes each block as it comes (a test-side
scoring, through knn.shell_votes, whose own blocks are these) never holds
the matrix.
Without a cache it keeps nothing: it builds each block's terms in one
reused buffer of a block's size, Camberra's denominators in a second one,
so no stack holds more entries than one block, and combines them by the
route _route picks, bitwise equal to accumulate() over whole term matrices,
which adds each term matrix times its factor in index order through
sum_into, the one combine loop, with the same per-term operations as the
scalar loop pair_sum (a factor of 1 combines the term matrix itself, as
t * 1 is t), and so to pair_sum on the corresponding rows at the same
scale.  When every factor is a non-negative integer and the sum over the
columns of each factor times the column's largest term is below 2**53, a
block is built a few rows at a time, as a stack of every active column's
terms for those rows (of some of the columns for one row, when a block has
fewer rows than there are columns), and each stack is combined by one
product factors @ stack, every partial sum of which is an exact integer in
any order, on any BLAS kernel.  Any other block (Chebyshev, off-grid
weights, or test rows so far outside the training range that a sum could
pass 2**53) is built one column at a time, each a stack of one column's
whole block, which sum_into multiplies in place and combines: sum_into over
stacks of a few rows would pay its per-column calls once per stack, not
once per block.
A whole matrix of rows against themselves (a is b: a leave-one-out matrix,
pairwise_matrix) is symmetric term by term, since x - y is exactly -(y - x)
and |x| + |y| is |y| + |x|, so each block's rows are built and summed
against its own and later rows only (the upper trapezoid) and the rest is
mirrored: each unordered pair of blocks once.
Given a cache of whole term matrices, it reads each column from there,
first building each missing one whole (column_terms) and adding it, and
combines the columns through sum_into; feature_terms builds a whole column in row
blocks too, so no product is taller than a block (BLAS would thread one).
pairwise_matrix and cross_matrix pass no cache.
evaluation.EvalContext passes its training terms when it keeps them (it
decides when; it builds them through column_terms into one store per term
kind, and passes the columns a sum reads), and updates its last matrix in
place when a model changes a few exact multipliers, stepping the changed
columns through sum_into.  It also keeps the multipliers of each weight
vector it scores: multipliers() keeps nothing between calls, and only
_fraction's per-weight fractions are cached for the process.
dissimilarity (at the scale of its two vectors), pairwise_matrix and
cross_matrix report distances in data units: the sum divided by S, then by
the weights' unit (L for grid weights), as S times the unit can overflow.
"""

from __future__ import annotations

import functools
import math
import sys
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
BLOCK_BYTES = 2 ** 19  # per row block: terms, sum and (cached terms only) product fit a 2 MB L2


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


def term_scale(key: str, reference: np.ndarray, names=None, queries=None) -> float:
    """The power-of-two scale S of key's terms between rows of reference.

    S = 2**(52 - HEADROOM_BITS - ceil(log2 sum_j maxT_j)), with maxT_j the
    largest term between two reference rows in column j, so every sum of
    scaled terms times numerators below 2**HEADROOM_BITS, partial or full,
    stays below 2**53.  Raises DataError, naming the column (from names, else
    by position), when a term bound overflows; with queries, also when a term
    between a query row and a reference row could overflow at scale S.
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
    return scale


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


def column_ends(a: np.ndarray, b: np.ndarray, columns) -> np.ndarray:
    """Per column of columns, the ends [min a, max a, min b, max b] of its
    values (+-inf for no rows), shaped (4, len(columns)): the reductions that
    both the folded scale (term_sides) and the product route's bound (_route)
    read, taken once per block_sums call."""
    return np.array([a.min(axis=0, initial=np.inf), a.max(axis=0, initial=-np.inf),
                     b.min(axis=0, initial=np.inf), b.max(axis=0, initial=-np.inf)])[:, columns]


def _folded_scale(key: str, scale: float, ends: np.ndarray) -> np.ndarray:
    """Per column of ends (column_ends), the power of two p that
    feature_terms folds into its product: the scale S = 2**e itself, or
    2**(e // 2) for squares; 1 when p * x could overflow for some operand x
    of the column (or p * (x - y) for some pair), and for every column when
    e is negative or above 1020, or when S is no power of two."""
    mantissa, e = math.frexp(scale)  # scale = mantissa * 2**e
    e -= 1
    if mantissa != 0.5 or not 0 <= e <= 1020:
        return np.ones(ends.shape[1:])
    p = math.ldexp(1.0, e // 2 if key == "sq" else e)
    bound = np.maximum(-ends[0::2], ends[1::2]).max(axis=0)  # max|x| over a and b
    # 2 * p * bound is finite exactly where bound is at most the largest float over 2 * p
    return np.where(bound <= sys.float_info.max / (2 * p), p, 1.0)


def term_sides(b: np.ndarray, columns, key: str, scale: float, ends: np.ndarray) -> tuple:
    """The b side of the term products between rows of a and b over columns,
    built once for every stack (see the module docstring): (key, rhs, rest,
    cam_rhs), each of a column's pieces stacked along a leading axis of
    len(columns).  rhs[f] is [p_f; -p_f * b_f] (2 x len(b)), with p_f from
    _folded_scale over ends, the columns' column_ends in a and b; rest[f] is
    what p_f leaves of the scale, shaped (F, 1, 1), or None where that is 1
    for every column; cam_rhs[f] is Camberra's [1; |b_f|] (None for other
    keys).  Each column is copied out of b once, with no temporary of b's
    columns."""
    p = _folded_scale(key, scale, ends)
    rest = scale / (p * p if key == "sq" else p)
    rhs = np.empty((len(p), 2, len(b)))
    rhs[:, 0] = p[:, None]
    cam_rhs = np.ones_like(rhs) if key == "cam" else None
    for f, j in enumerate(columns):
        np.multiply(b[:, j], -p[f], out=rhs[f, 1])
        if cam_rhs is not None:
            np.abs(b[:, j], out=cam_rhs[f, 1])
    return key, rhs, None if (rest == 1).all() else rest[:, None, None], cam_rhs


def left_side(a: np.ndarray, columns, key: str) -> tuple:
    """The a side of the term products for the rows of a over columns:
    (lhs, cam_lhs), lhs[f] = [a_f, 1] (len(a) x 2) and Camberra's
    cam_lhs[f] = [|a_f|, 1] (None for other keys).  block_sums builds it per
    row block, so it never holds more than a block's rows."""
    lhs = np.ones((len(columns), len(a), 2))
    lhs[:, :, 0] = a[:, columns].T
    cam_lhs = None
    if key == "cam":
        cam_lhs = np.ones_like(lhs)
        np.abs(lhs[:, :, 0], out=cam_lhs[:, :, 0])
    return lhs, cam_lhs


def feature_terms(sides: tuple, left: tuple, rows: slice = slice(None), start: int = 0,
                  features: slice = slice(None), out: np.ndarray | None = None,
                  denominators: np.ndarray | None = None) -> np.ndarray:
    """The stack of scaled term matrices rint(T_f[i, j] * scale) between the
    rows `rows` of left's a and the rows start: of sides' b, one matrix per
    column f of features, shaped (F, m, w), written into out when given.

    The differences are the batched rank-2 products lhs @ rhs of left and
    sides, in row chunks that put at most one block (block_rows) of entries
    in each product, as a whole column is built (column_terms).  Then one
    call each takes the abs (or the square, which needs no abs, as
    (-d) * (-d) is d * d bit for bit), divides Camberra's by its
    denominators, multiplies by what p leaves of the scale where that is not
    1 for every column, and rounds.  Camberra's denominators
    [|a|, 1] @ [1; |b|] are written into denominators, a flat buffer of at
    least one chunk's entries (allocated when not given).
    """
    key, rhs, rest, cam_rhs = sides
    lhs, cam_lhs = left
    lhs, rhs = lhs[features, rows], rhs[features, :, start:]
    f, m, w = len(lhs), lhs.shape[1], rhs.shape[2]
    t = np.empty((f, m, w)) if out is None else out
    # never one tall product, which BLAS would thread
    chunk_rows = max(1, block_rows(w) // max(1, f))
    rest = None if rest is None else rest[features]
    if key == "cam":
        cam_lhs, cam_rhs = cam_lhs[features, rows], cam_rhs[features, :, start:]
        if denominators is None:
            denominators = np.empty(f * min(chunk_rows, m) * w)
    for r in range(0, m, chunk_rows):
        chunk = t[:, r:r + chunk_rows]
        np.matmul(lhs[:, r:r + chunk_rows], rhs, out=chunk)
        if key == "sq":
            np.multiply(chunk, chunk, out=chunk)
        else:
            np.abs(chunk, out=chunk)
        if key == "cam":
            s = np.matmul(cam_lhs[:, r:r + chunk_rows], cam_rhs,
                          out=denominators[:chunk.size].reshape(chunk.shape))
            # |x| + |y| is 0 only where the difference is 0: 0 over the smallest subnormal is 0
            chunk /= np.maximum(s, math.ulp(0.0), out=s)
        if rest is not None:
            chunk *= rest
        np.rint(chunk, out=chunk)
    return t


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

    Each call derives the factors afresh, in a new array the caller may
    keep; an EvalContext keeps them per weight vector it scores.
    """
    weights = np.asarray(weights, dtype=float)
    exact = _numerators(weights.tolist())
    if exact is not None:
        factors, den, unit = exact[0], exact[1], float(exact[1])
    else:
        top = float(weights.max())
        exact = _numerators([0.0 if w == 0 else w / top for w in weights.tolist()])
        if exact is not None:
            factors, den, unit = exact[0], exact[1], exact[1] / top
        else:
            shift = math.frexp(top)[1] if top > 1 else 0  # exact: comparisons are unchanged
            factors, den, unit = np.ldexp(weights, -shift), None, math.ldexp(1.0, -shift)
    return factors, den, unit


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
    divided by the scale, then by the weights' unit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    key = term_key(spec.kind, spec.alpha)
    factors, _, unit = multipliers(spec.resolved_weights(len(x)))
    scale = term_scale(key, np.vstack([x, y]))
    acc = pair_sum(spec.kind, key, x.tolist(), y.tolist(), scale, factors.tolist())
    return acc / scale / unit


def accumulate(kind: str, terms, factors, shape) -> np.ndarray:
    """Distance matrix of the given shape from per-feature term matrices.

    terms yields one scaled term matrix per active feature and factors holds
    the matching multipliers; they are combined in the order given, which
    callers keep ascending by column to mirror the scalar loop exactly.
    It is the whole-matrix reference that distance_sums is tested against.
    """
    return sum_into(np.zeros(shape), np.empty(shape), kind, terms, factors)


def sum_into(out: np.ndarray, product: np.ndarray | None, kind: str, terms, factors) -> np.ndarray:
    """The one combine loop: each term matrix times its factor, combined into out.

    A factor of 1 combines the term matrix itself, and a factor of -1 (a
    delta's step down, never Chebyshev) subtracts it; any other factor is
    multiplied into product first, or into a fresh array when product is None.
    product may be the term matrices' own buffer, which is then multiplied in
    place.
    """
    for f, t in zip(factors, terms):
        if abs(f) != 1:
            t = np.multiply(t, f, out=product)
        if kind == CHEBYSHEV:
            np.maximum(out, t, out=out)
        elif f == -1:
            out -= t
        else:
            out += t
    return out


def block_rows(width: int) -> int:
    """Rows in one block of a matrix of width columns (distance_sums, and
    knn.shell_votes); a row of zero width counts as one column."""
    return max(1, BLOCK_BYTES // (8 * max(1, width)))


def distance_sums(kind: str, key: str, scale: float, a: np.ndarray, b: np.ndarray,
                  columns, factors, cache: dict | None = None) -> np.ndarray:
    """Distance sums (before division by scale and unit) from each row of a to
    each row of b, over columns with the matching factors: the whole matrix
    that block_sums builds block by block."""
    out = np.zeros((len(a), len(b)))
    for _ in block_sums(kind, key, scale, a, b, columns, factors, cache, out):
        pass
    return out


def block_sums(kind: str, key: str, scale: float, a: np.ndarray, b: np.ndarray,
               columns, factors, cache: dict | None = None, out: np.ndarray | None = None):
    """Yield, for each block of rows of a in order, the distance sums of its
    rows to every row of b: a view of out, the whole matrix, when given; else
    one block-sized array that the next block overwrites, so no caller holds
    the whole matrix.

    Every entry is bitwise the one accumulate gives on whole term matrices.
    When a is b and out is given, the block of rows r:r+m is built against
    columns r: only, and its entries right of the diagonal block are copied
    below it, transposed: terms are symmetric bit for bit, so these are the
    entries the later blocks would build, and rows r:r+m are whole when the
    block is yielded.  One buffer of a block's size serves every block's
    terms.  Without a cache, the b side of every column (term_sides) is
    built once (from one column_ends, which _route reads too) and the a side
    once per block (left_side).  On the product route a block is built a few
    rows at a time, each sub-block's terms for every column in one stack
    (feature_terms) that fills at most the buffer: as many columns as the
    block has rows, and as many rows as fit; each stack is combined by one
    product factors @ stack.  On the others each column's terms for the whole
    block are one stack, which sum_into multiplies in place and combines.
    Camberra's denominators take a second buffer.  With a cache, which maps
    a column to its whole term matrix between a and b, each column is read
    from it, or built whole (column_terms) and added to it, so the caller
    keeps it, and the columns are combined by sum_into: the cached terms
    are multiplied into the buffer and never written.
    """
    rows = block_rows(len(b))
    short = min(rows, len(a))  # a short matrix is one short block
    buffer = np.empty(short * len(b))
    block_out = np.empty(short * len(b)) if out is None else None
    symmetric = a is b and out is not None
    factors = np.asarray(factors, dtype=float)
    if cache is not None:
        column_terms(a, b, columns, key, scale, cache)
    else:
        ends = column_ends(a, b, columns)
        sides = term_sides(b, columns, key, scale, ends)
        route = _route(kind, key, scale, factors, ends)
        width = len(factors)
        if route == "product":  # every column's terms for a few rows at a time
            group, per = max(1, min(width, short)), max(1, short // max(1, width))
            spare = np.empty(per * len(b))  # the product, before it joins the sums
        else:  # one column's terms for a whole block, multiplied in place
            group, per = 1, short
        denominators = np.empty(short * len(b)) if key == "cam" else None  # a second buffer
    for r in range(0, len(a), rows):
        m = min(rows, len(a) - r)
        c = r if symmetric else 0  # rows against themselves: columns r: only, mirrored below
        w = len(b) - c
        sums = out[r:r + m] if out is not None else block_out[:m * len(b)].reshape(m, -1)
        if out is None:
            sums.fill(0)
        if cache is None:  # the block's terms in stacks, as the route builds them
            left = left_side(a[r:r + m], columns, key)
            for i in range(0, m, per):
                k = min(per, m - i)
                for g in range(0, width, group):
                    f = min(group, width - g)
                    stack = feature_terms(sides, left, slice(i, i + k), c, slice(g, g + f),
                                          buffer[:f * k * w].reshape(f, k, w), denominators)
                    if route == "product":
                        into = spare[:k * w]
                        np.matmul(factors[g:g + f], stack.reshape(f, -1), out=into)
                        sums[i:i + k, c:] += into.reshape(k, w)
                    else:
                        sum_into(sums[i:i + k, c:], stack[0], kind, stack, factors[g:g + f])
        else:  # the cache's terms, multiplied into the block
            terms = (cache[j][r:r + m, c:] for j in columns)
            sum_into(sums[:, c:], buffer[:m * w].reshape(m, w), kind, terms, factors)
        if symmetric:
            out[r + m:, r:r + m] = out[r:r + m, r + m:].T
        yield sums


def _route(kind: str, key: str, scale: float, factors: np.ndarray, ends: np.ndarray) -> str:
    """How block_sums combines the stacks of key's terms between rows of a
    and b over columns (one per factor, with their column_ends): "max" for
    Chebyshev; "product", one factors @ stack product, when every factor is
    a non-negative integer and the sum over the columns of each factor times
    the column's largest scaled term is below 2**53, so that every partial
    sum is an exact integer in any order, on any BLAS kernel; else "loop".
    Off-grid weights, and test rows far outside the training range, take
    the loop.  "max" and "loop" blocks are combined alike, by sum_into."""
    if kind == CHEBYSHEV:
        return "max"
    if not all(f >= 0 and f.is_integer() for f in factors.tolist()):
        return "loop"
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.rint(_term_bounds(key, ends) * scale)  # monotone: no term exceeds it
    if not np.isfinite(top).all():
        return "loop"
    bound = sum(int(f) * int(t) for f, t in zip(factors.tolist(), top.tolist()))
    return "product" if bound < 2 ** 53 else "loop"


def column_terms(a, b, columns, key: str, scale: float, cache: dict,
                 store: np.ndarray | None = None) -> None:
    """Build into cache the whole term matrix between rows of a and b of
    each of columns that it lacks, into store[j] when a store of every
    column's matrix is given: the sides of the missing columns built once
    (term_sides, left_side), then each column by feature_terms as a stack
    of one."""
    missing = [j for j in columns if j not in cache]
    if missing:
        sides = term_sides(b, missing, key, scale, column_ends(a, b, missing))
        left = left_side(a, missing, key)
        for i, j in enumerate(missing):
            out = None if store is None else store[j][None]
            cache[j] = feature_terms(sides, left, features=slice(i, i + 1), out=out)[0]


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
    scale = term_scale(key, b, [f.name for f in other.features], queries=a)
    factors, _, unit = multipliers(spec.resolved_weights(data.n_features))
    out = distance_sums(spec.kind, key, scale, a, b, range(data.n_features), factors)
    out /= scale  # a power of two; scale * unit can overflow
    out /= unit
    return out
