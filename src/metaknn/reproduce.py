"""Benchmark reproduction suites.

Each suite runs the meta-search on a bundled dataset and checks the trace
against published reference results, within stated tolerances.  Train-side
numbers gate the suites; test-set numbers are reported alongside and only
gated where the reference run's generalization is part of the claim.

Count tolerances are in vectors (a +-1 band absorbs implementation-level
tie handling); percentage tolerances are in points of accuracy.

Each gate's reference values are written in one place: a row is built from
checks, each of which formats its part of the row's expected text from the
same values it compares (`_count`, `_at_least` and `_accuracy` for scores,
`_k`, `_distance`, `_features`, `_feature_count` and `_accepts` for the
model), so the printed expectation cannot drift from its gate.  A count's
total is the size of the loaded data, so no total is written here.  `_fmt` is
the one `correct/total (percent%)` score text, which the CLI prints too.

`SUITES` holds each suite's data files, how to load them and its runner.
`load_suite` is the one way to read a suite's partition: `run_suite` runs the
suite on it, and the test fixtures for the bundled datasets load through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .dataset import DataError, Partition, load_csv, load_partition, split_rows
from .distance import MINKOWSKI, DistanceSpec
from .evaluation import EvalContext
from .knn import ModelSpec
from .metasearch import CandidateRecord, SearchTrace, meta_search

_TIES = 1  # the count band, in vectors, that absorbs tie handling

_Check = tuple[str, bool]  # a part of a row's expected text, and whether it holds


@dataclass
class RowResult:
    label: str
    expected: str
    observed: str
    passed: bool


@dataclass
class SuiteResult:
    suite: str
    rows: list[RowResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "rows": [vars(r) for r in self.rows]}


def _fmt(correct: int, total: int) -> str:
    return f"{correct}/{total} ({100.0 * correct / total:.1f}%)"


def _scores(record: CandidateRecord) -> str:
    out = f"train {_fmt(record.train_correct, record.train_total)}"
    if record.test_correct is not None:
        out += f", test {_fmt(record.test_correct, record.test_total)}"
    return out


def _side(record: CandidateRecord, side: str) -> tuple[int, int]:
    return getattr(record, f"{side}_correct"), getattr(record, f"{side}_total")


def _count(record: CandidateRecord, side: str, ref: int, tol: int = 0) -> _Check:
    """`side`'s correct count within `tol` vectors of `ref`; 0 is exact."""
    correct, total = _side(record, side)
    return f"{side} {ref}/{total}" + (f" +-{tol}" if tol else ""), abs(correct - ref) <= tol


def _at_least(record: CandidateRecord, side: str, ref: int) -> _Check:
    correct, total = _side(record, side)
    return f"{side} >= {ref}/{total}", correct >= ref


def _accuracy(record: CandidateRecord, side: str, ref: float, tol: float) -> _Check:
    """`side`'s accuracy within `tol` percentage points of `ref` percent."""
    correct, total = _side(record, side)
    return (f"{side} {ref:.1f}% +-{tol}pp",
            abs(100.0 * correct / total - ref) <= tol + 1e-9)


def _k(record: CandidateRecord, k: int) -> _Check:
    return f"k={k}", record.model.k == k


def _distance(record: CandidateRecord, name: str) -> _Check:
    return name, record.model.distance.describe() == name


def _features(record: CandidateRecord, n_features: int, ref: tuple[int, ...]) -> _Check:
    return ("features {" + ",".join(map(str, ref)) + "}",
            record.model.describe(n_features)["features"] == list(ref))


def _feature_count(record: CandidateRecord, n_features: int, lo: int, hi: int) -> _Check:
    return f"{lo}-{hi} features", lo <= len(record.model.describe(n_features)["features"]) <= hi


def _accepts(trace: SearchTrace, levels: int, distance: str, reweighted: bool = False) -> _Check:
    """`levels` accepted levels, the last of which accepts `distance`; when
    reweighted, through the distance channel, over weights that are not all 1."""
    last = trace.final
    ok = trace.levels_accepted() == levels and last.model.distance.describe() == distance
    if reweighted:
        ok = ok and last.channel == "distance" and bool(
            np.any(last.model.active_weights(trace.n_features) != 1.0))
    return f"{levels} levels, level {levels} accepts {'reweighted ' * reweighted}{distance}", ok


def _row(label: str, observed: str, *checks: _Check) -> RowResult:
    return RowResult(label, ", ".join(text for text, _ in checks), observed,
                     all(ok for _, ok in checks))


def _searched(trace: SearchTrace) -> str:
    final = trace.final
    return (f"{trace.levels_accepted()} levels, final {final.model.distance.describe()}, "
            + _scores(final))


def _level1(trace: SearchTrace, *channels: str) -> list[CandidateRecord]:
    """The first level's candidates of the named channels, in that order."""
    by_channel = {c.channel: c for c in trace.levels[0].candidates}
    return [by_channel[name] for name in channels]


def run_monks1(part: Partition) -> list[RowResult]:
    _, trace = meta_search(part.train, part.test)
    k, dist, feats, weights = _level1(trace, "k", "distance", "features", "weights")
    ref, final, nfeat = trace.initial, trace.final, part.train.n_features
    return [
        _row("reference k=1 euclidean", _scores(ref),
             _count(ref, "train", 95, _TIES), _count(ref, "test", 371, _TIES)),
        _row("k channel", f"k={k.model.k}, " + _scores(k),
             _k(k, 3), _count(k, "train", 102, _TIES), _count(k, "test", 348, _TIES)),
        _row("distance channel", f"{dist.model.distance.describe()}, " + _scores(dist),
             _distance(dist, "camberra"),
             _count(dist, "train", 99, _TIES), _count(dist, "test", 382, _TIES)),
        _row("feature selection channel",
             f"features {feats.model.describe(nfeat)['features']}, " + _scores(feats),
             _features(feats, nfeat, (1, 2, 5)),
             _count(feats, "train", 120), _count(feats, "test", 432)),
        _row("weight channel", _scores(weights),
             _at_least(weights, "train", 123), _count(weights, "test", 432)),
        _row("meta-search", _searched(trace), _accepts(trace, 2, "camberra"),
             _count(final, "train", 124), _count(final, "test", 432)),
    ]


def run_monks2(part: Partition) -> list[RowResult]:
    _, trace = meta_search(part.train, part.test)
    [dist] = _level1(trace, "distance")
    return [_row("distance channel", f"{dist.model.distance.describe()}, " + _scores(dist),
                 _distance(dist, "camberra"),
                 _count(dist, "train", 152, _TIES), _count(dist, "test", 392, _TIES))]


def run_monks3(part: Partition) -> list[RowResult]:
    nfeat = part.train.n_features
    test_pp = (97.2, 0.5)  # the published run's test accuracy, and its band
    weights = np.array([0, 1, 0, 0, 1, 0.0])
    model = ModelSpec(k=1, distance=DistanceSpec(MINKOWSKI, 2, weights))
    ctx = EvalContext(part.train, part.test)
    published = CandidateRecord(0, "published", model, ctx.loo_count(model), part.train.n, 1,
                                ctx.test_count(model), part.test.n)

    _, trace = meta_search(part.train, part.test)
    final = trace.final
    support = int(np.count_nonzero(weights))
    nnz = int(np.count_nonzero(final.model.active_weights(nfeat)))
    train_holds = final.train_correct >= published.train_correct
    if nnz == support:
        checks = [(f"{support} active features", True), ("train >= published", train_holds),
                  _accuracy(final, "test", *test_pp)]
    else:
        # a different support is acceptable when training accuracy holds up
        checks = [("train >= published (support differs from published run)", train_holds)]
    return [
        _row(f"published weights ({','.join(f'{w:g}' for w in weights)})",
             _scores(published), _accuracy(published, "test", *test_pp)),
        _row("meta-search", f"{nnz} active features "
             f"{final.model.describe(nfeat)['features']}, " + _scores(final), *checks),
    ]


def run_ionosphere(part: Partition) -> list[RowResult]:
    _, trace = meta_search(part.train, part.test)
    k, dist, feats, weights = _level1(trace, "k", "distance", "features", "weights")
    nfeat = part.train.n_features
    pp = 1.5  # every row's band, in percentage points
    return [
        _row("k channel", f"k={k.model.k}, " + _scores(k), _accuracy(k, "train", 86.0, pp)),
        _row("distance channel", f"{dist.model.distance.describe()}, " + _scores(dist),
             _distance(dist, "minkowski(alpha=1)"), _accuracy(dist, "train", 87.5, pp)),
        _row("feature selection channel",
             f"{len(feats.model.describe(nfeat)['features'])} features, " + _scores(feats),
             _feature_count(feats, nfeat, 8, 12), _accuracy(feats, "train", 92.5, pp)),
        _row("weight channel", _scores(weights), _accuracy(weights, "train", 94.0, pp)),
        _row("meta-search", _searched(trace),
             _accepts(trace, 2, "minkowski(alpha=1)", reweighted=True),
             _accuracy(trace.final, "train", 95.0, pp)),
    ]


_monks = partial(load_partition, fmt="monks")

# suite name -> (data files in the data directory, loader taking their paths,
# runner taking the loaded partition)
SUITES = {
    "monks1": (("monks-1.train", "monks-1.test"), _monks, run_monks1),
    "monks2": (("monks-2.train", "monks-2.test"), _monks, run_monks2),
    "monks3": (("monks-3.train", "monks-3.test"), _monks, run_monks3),
    "ionosphere": (("ionosphere.data",),
                   lambda path: split_rows(load_csv(path, label_column=-1), 200, 150),
                   run_ionosphere),
}
SUITE_NAMES = tuple(SUITES)


def load_suite(name: str, data_dir) -> Partition:
    """The train/test partition suite `name` runs on, read from `data_dir`."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    data_dir = Path(data_dir)
    files, load, _ = SUITES[name]
    missing = [f for f in files if not (data_dir / f).is_file()]
    if missing:
        raise DataError(
            f"missing data files in {data_dir}: {', '.join(missing)} "
            "(bundled under data/ in the source tree; originals available "
            "from the UCI Machine Learning Repository)")
    return load(*(data_dir / f for f in files))


def run_suite(name: str, data_dir) -> SuiteResult:
    part = load_suite(name, data_dir)  # checks the name before SUITES is read
    return SuiteResult(name, SUITES[name][2](part))
