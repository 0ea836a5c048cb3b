"""Benchmark reproduction suites.

Each suite runs the meta-search on a bundled dataset and checks the trace
against published reference results, within stated tolerances.  Train-side
numbers gate the suites; test-set numbers are reported alongside and only
gated where the reference run's generalization is part of the claim.

Count tolerances are in vectors (a +-1 band absorbs implementation-level
tie handling); percentage tolerances are in points of accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import DataError, load_csv, load_partition, split_rows
from .distance import CAMBERRA, MINKOWSKI, DistanceSpec
from .evaluation import EvalContext
from .knn import ModelSpec
from .metasearch import CandidateRecord, meta_search

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

    def add(self, label: str, expected: str, observed: str, ok: bool):
        self.rows.append(RowResult(label, expected, observed, bool(ok)))

    def to_dict(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "rows": [vars(r) for r in self.rows]}


def _pct(correct: int, total: int) -> float:
    return 100.0 * correct / total


def _scores(record: CandidateRecord) -> str:
    out = f"train {record.train_correct}/{record.train_total} ({_pct(record.train_correct, record.train_total):.1f}%)"
    if record.test_correct is not None:
        out += f", test {record.test_correct}/{record.test_total} ({_pct(record.test_correct, record.test_total):.1f}%)"
    return out


def _within_pp(record: CandidateRecord, expected_pct: float, tol: float) -> bool:
    got = _pct(record.train_correct, record.train_total)
    return abs(got - expected_pct) <= tol + 1e-9


def _level1(trace) -> dict:
    return {c.channel: c for c in trace.levels[0].candidates}


def run_monks1(train_file: Path, test_file: Path) -> SuiteResult:
    part = load_partition(train_file, test_file, fmt="monks")
    result = SuiteResult("monks1")
    model, trace = meta_search(part.train, part.test)
    level1 = _level1(trace)
    nfeat = part.train.n_features

    ref = trace.initial
    result.add("reference k=1 euclidean",
               "train 95/124 +-1, test 371/432 +-1", _scores(ref),
               abs(ref.train_correct - 95) <= 1 and abs(ref.test_correct - 371) <= 1)

    r = level1["k"]
    result.add("k channel", "k=3, train 102/124 +-1, test 348/432 +-1",
               f"k={r.model.k}, " + _scores(r),
               r.model.k == 3 and abs(r.train_correct - 102) <= 1
               and abs(r.test_correct - 348) <= 1)

    r = level1["distance"]
    result.add("distance channel", "camberra, train 99/124 +-1, test 382/432 +-1",
               f"{r.model.distance.describe()}, " + _scores(r),
               r.model.distance.kind == CAMBERRA and abs(r.train_correct - 99) <= 1
               and abs(r.test_correct - 382) <= 1)

    r = level1["features"]
    features = r.model.describe(nfeat)["features"]
    result.add("feature selection channel",
               "features {1,2,5}, train 120/124, test 432/432",
               f"features {features}, " + _scores(r),
               features == [1, 2, 5] and r.train_correct == 120 and r.test_correct == 432)

    r = level1["weights"]
    result.add("weight channel", "train >= 123/124, test 432/432", _scores(r),
               r.train_correct >= 123 and r.test_correct == 432)

    accepted = trace.accepted_records()
    final = trace.final
    two_levels = (trace.levels_accepted() == 2 and len(accepted) == 2
                  and accepted[1].model.distance.kind == CAMBERRA)
    result.add("meta-search", "2 levels, level 2 accepts camberra, train 124/124, test 432/432",
               f"{trace.levels_accepted()} levels, final {final.model.distance.describe()}, "
               + _scores(final),
               two_levels and final.train_correct == 124 and final.test_correct == 432)
    return result


def run_monks2(train_file: Path, test_file: Path) -> SuiteResult:
    part = load_partition(train_file, test_file, fmt="monks")
    result = SuiteResult("monks2")
    _, trace = meta_search(part.train, part.test)
    r = _level1(trace)["distance"]
    result.add("distance channel", "camberra, train 152/169 +-1, test 392/432 +-1",
               f"{r.model.distance.describe()}, " + _scores(r),
               r.model.distance.kind == CAMBERRA and abs(r.train_correct - 152) <= 1
               and abs(r.test_correct - 392) <= 1)
    return result


def run_monks3(train_file: Path, test_file: Path) -> SuiteResult:
    part = load_partition(train_file, test_file, fmt="monks")
    result = SuiteResult("monks3")
    ctx = EvalContext(part.train, part.test)

    published = ModelSpec(k=1, distance=DistanceSpec(MINKOWSKI, 2, np.array([0, 1, 0, 0, 1, 0.0])))
    train_c = ctx.loo_count(published)
    test_c = ctx.test_count(published)
    result.add("published weights (0,1,0,0,1,0)", "test 97.2% +-0.5pp",
               f"train {train_c}/{part.train.n} ({_pct(train_c, part.train.n):.1f}%), "
               f"test {test_c}/{part.test.n} ({_pct(test_c, part.test.n):.1f}%)",
               abs(_pct(test_c, part.test.n) - 97.2) <= 0.5 + 1e-9)

    model, trace = meta_search(part.train, part.test)
    final = trace.final
    support = model.full_weights(part.train.n_features)
    nnz = int(np.count_nonzero(support))
    if nnz == 2:
        ok = (final.train_correct >= train_c
              and abs(_pct(final.test_correct, part.test.n) - 97.2) <= 0.5 + 1e-9)
        expected = "2 active features, train >= published, test 97.2% +-0.5pp"
    else:
        # a different support is acceptable when training accuracy holds up
        ok = final.train_correct >= train_c
        expected = "train >= published (support differs from published run)"
    result.add("meta-search", expected,
               f"{nnz} active features {model.describe(part.train.n_features)['features']}, "
               + _scores(final), ok)
    return result


def run_ionosphere(data_file: Path) -> SuiteResult:
    data = load_csv(data_file, label_column=-1)
    part = split_rows(data, 200, 150)
    result = SuiteResult("ionosphere")
    _, trace = meta_search(part.train, part.test)
    level1 = _level1(trace)
    nfeat = part.train.n_features

    r = level1["k"]
    result.add("k channel", "train 86.0% +-1.5pp",
               f"k={r.model.k}, " + _scores(r), _within_pp(r, 86.0, 1.5))

    r = level1["distance"]
    result.add("distance channel", "minkowski(alpha=1), train 87.5% +-1.5pp",
               f"{r.model.distance.describe()}, " + _scores(r),
               r.model.distance.kind == MINKOWSKI and r.model.distance.alpha == 1
               and _within_pp(r, 87.5, 1.5))

    r = level1["features"]
    n_active = len(r.model.describe(nfeat)["features"])
    result.add("feature selection channel", "8-12 features, train 92.5% +-1.5pp",
               f"{n_active} features, " + _scores(r),
               8 <= n_active <= 12 and _within_pp(r, 92.5, 1.5))

    r = level1["weights"]
    result.add("weight channel", "train 94.0% +-1.5pp", _scores(r),
               _within_pp(r, 94.0, 1.5))

    accepted = trace.accepted_records()
    final = trace.final
    weights_ok = bool(np.any(final.model.active_weights(nfeat) != 1.0))
    structure = (trace.levels_accepted() == 2 and len(accepted) == 2
                 and accepted[1].channel == "distance"
                 and accepted[1].model.distance.kind == MINKOWSKI
                 and accepted[1].model.distance.alpha == 1
                 and weights_ok)
    result.add("meta-search",
               "2 levels, level 2 accepts reweighted minkowski(alpha=1), train 95.0% +-1.5pp",
               f"{trace.levels_accepted()} levels, final {final.model.distance.describe()}, "
               + _scores(final),
               structure and _within_pp(final, 95.0, 1.5))
    return result


# suite name -> (data files in the data directory, runner taking their paths)
SUITES = {
    "monks1": (("monks-1.train", "monks-1.test"), run_monks1),
    "monks2": (("monks-2.train", "monks-2.test"), run_monks2),
    "monks3": (("monks-3.train", "monks-3.test"), run_monks3),
    "ionosphere": (("ionosphere.data",), run_ionosphere),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, data_dir) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    data_dir = Path(data_dir)
    files, runner = SUITES[name]
    missing = [f for f in files if not (data_dir / f).is_file()]
    if missing:
        raise DataError(
            f"missing data files in {data_dir}: {', '.join(missing)} "
            "(bundled under data/ in the source tree; originals available "
            "from the UCI Machine Learning Repository)")
    return runner(*(data_dir / f for f in files))
