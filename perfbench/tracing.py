"""Span tracing of metaknn's layers, applied from outside the package.

Instrumented() replaces the public functions of each metaknn module (and the
EvalContext scoring methods and the optimize.CHANNELS entries) with wrappers
that record one span per call: name, start, end, parent span and operation
id.  Every binding of a wrapped function in every metaknn module is
replaced, so calls made inside the package are traced as well, and all of
them are restored on exit.  Spans live in flat arrays in memory; per-layer
metrics are derived from them after the traced pass.

Counters that cannot be read off the spans (tie-widened votes, repeated LOO
models, term bytes, search levels) are computed in the wrappers inside a
span of their own, "trace.count", so their cost is charged to the tracer
and not to the layer that called the traced function.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

import metaknn
from metaknn import cli, dataset, distance, evaluation, knn, metasearch, optimize

MODULES = (metaknn, dataset, distance, knn, evaluation, optimize, metasearch, cli,
           metaknn.reproduce)

# layer -> public functions wrapped by identity wherever they are bound
FUNCTIONS = {
    "dataset": (dataset.load_csv, dataset.load_monks, dataset.load_partition,
                dataset.split_rows, dataset.minmax_rescale),
    "distance": (distance.feature_terms, distance.dissimilarity,
                 distance.pairwise_matrix, distance.cross_matrix),
    "knn": (knn.shell_vote, knn.classify, knn.neighbors),
    "evaluation": (evaluation.evaluate, evaluation.leave_one_out),
    "metasearch": (metasearch.meta_search, metasearch.build_pool,
                   metasearch.select_model_sequence, metasearch.evaluate_sequence,
                   metasearch.ensemble_predict),
    "cli": (cli.main,),
}
EVAL_METHODS = ("loo_count", "loo_report", "test_count", "test_report")
LOO_SPANS = ("evaluation.loo_count", "evaluation.loo_report")
TEST_SPANS = ("evaluation.test_count", "evaluation.test_report")
SEQUENCE_SPANS = ("metasearch.build_pool", "metasearch.select_model_sequence",
                  "metasearch.evaluate_sequence")
CHANNEL_NAMES = ("k", "distance", "features", "weights")
LAYERS = ("dataset", "distance", "knn", "evaluation", "optimize", "metasearch", "cli",
          "bench", "trace")


class Tracer:
    """In-memory span store for one traced pass (or one traced set-up)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = -1
        self._seen: set = set()
        self.tie_widened = 0
        self.loo_repeats = 0
        self.term_bytes = 0
        self.levels = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op: int):
        """Spans opened from now on belong to operation `op`; repeats are per operation."""
        self._op = op
        self._seen = set()

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self._stack.append(i)
        return i

    def close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    # ---------------------------------------------------------- counters

    def count_vote(self, args, out):
        dist, k = args[0], args[2]
        kth = np.partition(dist, k - 1)[k - 1]
        self.tie_widened += out[2] > int(np.count_nonzero(dist <= kth))

    def count_loo(self, args, out):
        ctx, model = args[0], args[1]
        n = ctx.n_features
        key = (model.k, model.distance.kind, model.distance.alpha,
               model.mask_for(n).tobytes(), model.active_weights(n).tobytes())
        self.loo_repeats += key in self._seen
        self._seen.add(key)

    def count_terms(self, args, out):
        self.term_bytes += out.nbytes

    def count_levels(self, args, out):
        self.levels += len(out[1].levels)

    # ---------------------------------------------------------- analysis

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy()}


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.i = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.i)
        return False


def _wrap(tracer: Tracer, name: str, fn, count=None):
    nid = tracer.name_id(name)
    count_nid = tracer.name_id("trace.count")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count is not None:
            j = tracer.open(count_nid)
            count(args, out)
            tracer.close(j)
        return out
    return traced


class Instrumented:
    """Context manager: metaknn's layer boundaries record spans into `tracer`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def __enter__(self):
        tr = self.tracer
        counters = {knn.shell_vote: tr.count_vote, distance.feature_terms: tr.count_terms,
                    metasearch.meta_search: tr.count_levels}
        for layer, fns in FUNCTIONS.items():
            for fn in fns:
                wrapped = _wrap(tr, f"{layer}.{fn.__name__}", fn, counters.get(fn))
                for mod in MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, wrapped)
        for method in EVAL_METHODS:
            fn = getattr(evaluation.EvalContext, method)
            count = tr.count_loo if f"evaluation.{method}" in LOO_SPANS else None
            self._set(evaluation.EvalContext, method,
                      _wrap(tr, f"evaluation.{method}", fn, count))
        for name in CHANNEL_NAMES:
            channel = optimize.CHANNELS[name]
            self._undo.append((optimize.CHANNELS.__setitem__, name, channel))
            optimize.CHANNELS[name] = _wrap(tr, f"optimize.{name}", channel)
        return tr

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for setter, attr, original in reversed(self._undo):
            setter(attr, original)
        self._undo.clear()
        return False


class SpanTable:
    """Durations and self times of a tracer's spans, grouped by name and layer."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.nid = a["name"]
        self.dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        up = np.maximum(parent, 0)
        # spans nest like calls, so a span's children never overlap each other
        self.self_time = self.dur - np.bincount(parent[has_parent], weights=self.dur[has_parent],
                                                minlength=len(self.dur))
        self.parent_nid = np.where(has_parent, self.nid[up], -1)
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=int)
        self.layer = layer_of[self.nid]
        self.parent_layer = np.where(has_parent, self.layer[up], -1)
        # net time: a span's duration less the tracer's own counting nested under it
        counted = np.where(self.layer == LAYERS.index("trace"), self.dur, 0.0).tolist()
        parents = parent.tolist()
        for i in range(len(parents) - 1, -1, -1):  # a child always follows its parent
            if parents[i] >= 0:
                counted[parents[i]] += counted[i]
        self.net = self.dur - np.array(counted)

    def _mask(self, names, parent=None):
        ids = [self.names.index(n) for n in names if n in self.names]
        m = np.isin(self.nid, ids)
        if parent is not None:
            m &= self.parent_nid == (self.names.index(parent) if parent in self.names else -2)
        return m

    def calls(self, *names, parent=None) -> int:
        return int(np.count_nonzero(self._mask(names, parent)))

    def seconds(self, *names, parent=None) -> float:
        return float(self.net[self._mask(names, parent)].sum())

    def layer_seconds(self, layer: str) -> float:
        """Time inside the layer's outermost spans (nested same-layer calls counted once)."""
        i = LAYERS.index(layer)
        return float(self.net[(self.layer == i) & (self.parent_layer != i)].sum())

    def layer_self(self, layer: str) -> float:
        return float(self.self_time[self.layer == LAYERS.index(layer)].sum())


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its root span is bench.pass)."""
    t = SpanTable(tracer)
    vote_calls = t.calls("knn.shell_vote")
    vote_s = t.seconds("knn.shell_vote")
    eval_s = t.layer_seconds("evaluation")
    loo_calls = t.calls(*LOO_SPANS)
    m = {
        "knn.shell_vote.calls": vote_calls,
        "knn.shell_vote.s": vote_s,
        "knn.vote_share": vote_s / eval_s if eval_s else 0.0,
        "knn.tie_widen_ratio": tracer.tie_widened / vote_calls if vote_calls else 0.0,
        "evaluation.loo.calls": loo_calls,
        "evaluation.test.calls": t.calls(*TEST_SPANS),
        "evaluation.s": eval_s,
        "evaluation.ms_per_loo": 1e3 * t.seconds(*LOO_SPANS) / loo_calls if loo_calls else 0.0,
        "evaluation.loo.repeat_ratio": tracer.loo_repeats / loo_calls if loo_calls else 0.0,
        "distance.feature_terms.calls": t.calls("distance.feature_terms"),
        "distance.feature_terms.s": t.seconds("distance.feature_terms"),
        "distance.term_bytes": tracer.term_bytes,
        "metasearch.levels": tracer.levels,
        "metasearch.observe_test_s": t.seconds("evaluation.test_count",
                                               parent="metasearch.meta_search"),
        "metasearch.sequence_s": t.seconds(*SEQUENCE_SPANS),
    }
    for name in CHANNEL_NAMES:
        m[f"optimize.{name}.s"] = t.seconds(f"optimize.{name}")
        m[f"optimize.{name}.loo_evals"] = t.calls(*LOO_SPANS, parent=f"optimize.{name}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.layer_self(layer)
    m["trace.wall_s"] = float(t.dur[t._mask(("bench.pass",))].sum())
    m["trace.self_sum_s"] = float(t.self_time.sum())
    return m


def load_seconds(tracer: Tracer) -> float:
    """Time spent in dataset loaders, counting nested loader calls once."""
    return SpanTable(tracer).layer_seconds("dataset")
