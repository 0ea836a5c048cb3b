"""The benchmark's workloads: seeded inputs, operations, and correctness checks.

Each workload writes its inputs for a seed, loads them through metaknn's own
loaders (the timed set-up; `mk` is the metaknn package to load with), and
hands out one pass of operations.  The program only ever sees the generated
files.  Checks run after the timed passes and compare each operation's output
with the scalar oracle (knn.classify, exclude=i for leave-one-out).

Seeds: seed 0 is the bundled data as shipped.  For the two searches, any
other seed writes the same rows in a seeded order.  Shell neighborhoods and
the search's tie rules do not depend on row order, so every seed does the
same search work.  Drawing fresh training rows instead moved the Monk pass
cost by about +-25% between seeds, as much as the widest bound a metric may
have.  wide-eval draws fresh synthetic data for every seed, with shapes and
an operation schedule that fix the amount of work.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import metaknn
from metaknn import cli, knn, metasearch
from metaknn.distance import CAMBERRA, CHEBYSHEV, MINKOWSKI, DistanceSpec

# seed reserved for confirming a claimed gain; not to be used while tuning a change
HELD_OUT_SEED = 20261017


@dataclass
class Op:
    slot: int
    label: str
    run: object  # zero-argument callable returning the operation's raw output


def _shuffle_rows(lines: list[str], rng, label_of) -> list[str]:
    """Seeded row order that keeps the first row's class first.

    Class indices are assigned by first occurrence, so keeping that class
    first keeps every class index, and with it every tie rule, unchanged.
    """
    order = rng.permutation(len(lines))
    first = next(p for p, i in enumerate(order) if label_of(lines[i]) == label_of(lines[0]))
    order[[0, first]] = order[[first, 0]]
    return [lines[i] for i in order]


def _read_rows(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if line.strip()]


def _write_rows(path: Path, rows: list[str]) -> Path:
    path.write_text("\n".join(rows) + "\n")
    return path


def loo_recount(model, train) -> int:
    """Leave-one-out correct count by the scalar oracle."""
    return sum(knn.classify(model, train, train.vectors[i], exclude=i).winner == train.labels[i]
               for i in range(train.n))


# ------------------------------------------------------------------ searches

class _Search:
    """Meta-search on bundled partitions; optionally the `metaknn sequence` steps."""

    search_kwargs: dict = {}
    sequence = False

    def ops(self, loaded) -> list[Op]:
        return [Op(i, label, lambda part=part: self._run(part))
                for i, (label, part) in enumerate(loaded)]

    def _run(self, part):
        model, trace = metasearch.meta_search(part.train, part.test, **self.search_kwargs)
        if not self.sequence:
            return model, trace, None
        pool, truths = metasearch.build_pool(part.train, trace)
        seq = metasearch.select_model_sequence(pool, truths)
        return model, trace, (seq, metasearch.evaluate_sequence(seq, part.train, part.test))

    def canonical(self, loaded, slot: int, out) -> str:
        model, trace, sequence = out
        n = trace.n_features
        doc = {"trace": trace.to_records(), "final": model.describe(n)}
        if sequence is not None:
            seq, test_counts = sequence
            doc["sequence"] = {"members": [m.model.describe(n) for m in seq.members],
                               "train": [seq.combined_correct, seq.total],
                               "test": list(test_counts)}
        return json.dumps(doc, sort_keys=True)

    def check(self, loaded, slot: int, out) -> list[str]:
        """Every accepted model's reported train count must equal the oracle's LOO recount."""
        label, part = loaded[slot]
        errors = []
        for record in out[1].accepted_records():
            oracle = loo_recount(record.model, part.train)
            if oracle != record.train_correct:
                errors.append(f"{label} level {record.level} {record.channel}: reported "
                              f"{record.train_correct} LOO correct, oracle counts {oracle}")
        return errors


class MonksSearch(_Search):
    name = "monks-search"
    search_kwargs = {"step": 0.25}
    sequence = True

    def inputs(self, seed: int, data_dir: Path, work: Path):
        pairs = []
        for i in (1, 2, 3):
            train, test = data_dir / f"monks-{i}.train", data_dir / f"monks-{i}.test"
            if seed != 0:
                rng = np.random.default_rng([seed, i])
                cls = lambda line: line.split()[0]
                train = _write_rows(work / train.name, _shuffle_rows(_read_rows(train), rng, cls))
                test = _write_rows(work / test.name, _shuffle_rows(_read_rows(test), rng, cls))
            pairs.append((f"monk{i}", train, test))
        return pairs

    def load(self, inputs, mk=metaknn):
        return [(label, mk.load_partition(train, test, fmt="monks"))
                for label, train, test in inputs]


class IonosphereSearch(_Search):
    name = "ionosphere-search"
    search_kwargs = {"step": 1.0, "max_levels": 1}
    N_TRAIN, N_TEST = 200, 150

    def inputs(self, seed: int, data_dir: Path, work: Path):
        path = data_dir / "ionosphere.data"
        if seed == 0:
            return path
        rows = _read_rows(path)
        rng = np.random.default_rng([seed, 4])
        cls = lambda line: line.rsplit(",", 1)[1]
        cut = self.N_TRAIN + self.N_TEST
        rows = (_shuffle_rows(rows[:self.N_TRAIN], rng, cls)
                + [rows[self.N_TRAIN + i] for i in rng.permutation(self.N_TEST)]
                + rows[cut:])
        return _write_rows(work / path.name, rows)

    def load(self, inputs, mk=metaknn):
        return [("ionosphere", mk.split_rows(mk.load_csv(inputs), self.N_TRAIN, self.N_TEST))]


# ------------------------------------------------------------------ wide-eval

class WideEval:
    """In-process `metaknn eval` on synthetic continuous data, fresh EvalContext each time."""

    name = "wide-eval"
    N_TRAIN, N_TEST, N_FEATURES, N_CLASSES = 800, 400, 24, 3
    DISTANCES = ("euclidean", "manhattan", "chebyshev", "camberra")
    KINDS = {"euclidean": (MINKOWSKI, 2), "manhattan": (MINKOWSKI, 1),
             "chebyshev": (CHEBYSHEV, None), "camberra": (CAMBERRA, None)}
    # active-feature counts per operation; fixed so every seed does the same work
    MASK_SIZES = (24, 18, 12, 20, 16, 22, 14, 10)
    ORACLE_ROWS = 2  # rows per side checked against the scalar oracle, per operation

    def inputs(self, seed: int, data_dir: Path, work: Path):
        specs = []
        for slot, size in enumerate(self.MASK_SIZES):
            rng = np.random.default_rng([seed, slot])
            centers = rng.normal(0.0, 1.0, (self.N_CLASSES, self.N_FEATURES))
            paths = []
            for side, n in (("train", self.N_TRAIN), ("test", self.N_TEST)):
                labels = rng.integers(0, self.N_CLASSES, n)
                x = centers[labels] + rng.normal(0.0, 1.5, (n, self.N_FEATURES))
                header = ",".join(f"f{j + 1}" for j in range(self.N_FEATURES)) + ",class"
                rows = [",".join(f"{v:.6f}" for v in row) + f",c{c}" for row, c in zip(x, labels)]
                paths.append(_write_rows(work / f"wide{slot}.{side}.csv", [header] + rows))
            features = sorted(int(j) + 1 for j in rng.choice(self.N_FEATURES, size, replace=False))
            specs.append({"train": paths[0], "test": paths[1],
                          "output": work / f"wide{slot}.jsonl",
                          "distance": self.DISTANCES[slot % len(self.DISTANCES)],
                          "k": int(rng.integers(1, 11)), "features": features,
                          "weights": [int(w) / 10 for w in rng.integers(1, 11, size)],
                          "oracle_seed": [seed, 100 + slot]})
        return specs

    def load(self, inputs, mk=metaknn):
        return [(spec, mk.load_partition(spec["train"], spec["test"])) for spec in inputs]

    @staticmethod
    def argv(spec) -> list[str]:
        return ["eval", "--train", str(spec["train"]), "--test", str(spec["test"]),
                "--distance", spec["distance"], "--k", str(spec["k"]),
                "--features", ",".join(map(str, spec["features"])),
                "--weights", ",".join(map(str, spec["weights"])),
                "--output", str(spec["output"])]

    def ops(self, loaded) -> list[Op]:
        return [Op(i, f"eval{i}-{spec['distance']}", lambda spec=spec: self._run(spec))
                for i, (spec, _) in enumerate(loaded)]

    @staticmethod
    def _run(spec):
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = cli.main(WideEval.argv(spec))
        return code, stdout.getvalue(), Path(spec["output"]).read_text()

    def canonical(self, loaded, slot: int, out) -> str:
        return json.dumps(out)

    def model(self, spec, n_features: int) -> knn.ModelSpec:
        kind, alpha = self.KINDS[spec["distance"]]
        mask = np.zeros(n_features, dtype=bool)
        mask[[j - 1 for j in spec["features"]]] = True
        return knn.ModelSpec(spec["k"], DistanceSpec(kind, alpha, np.array(spec["weights"])), mask)

    def check(self, loaded, slot: int, out) -> list[str]:
        """Sampled JSONL predictions must match the scalar oracle; counts must match them."""
        spec, part = loaded[slot]
        code, _, jsonl = out
        if code != 0:
            return [f"eval{slot}: exit code {code}"]
        records = {r["type"]: r for r in map(json.loads, jsonl.splitlines())}
        model = self.model(spec, part.train.n_features)
        rng = np.random.default_rng(spec["oracle_seed"])
        errors = []
        for side, data, exclude in (("train", part.train, True), ("test", part.test, False)):
            rec = records.get(side)
            if rec is None:
                errors.append(f"eval{slot}: no {side} record")
                continue
            predicted = np.array(rec["predicted"])
            if len(predicted) != data.n or rec["correct"] != int(np.sum(predicted == data.labels)):
                errors.append(f"eval{slot} {side}: correct count does not match predictions")
            for i in rng.choice(data.n, self.ORACLE_ROWS, replace=False):
                oracle = knn.classify(model, part.train, data.vectors[i],
                                      exclude=int(i) if exclude else None).winner
                if oracle != predicted[i]:
                    errors.append(f"eval{slot} {side} row {i}: predicted {predicted[i]}, "
                                  f"oracle {oracle}")
        return errors


WORKLOADS = {w.name: w for w in (MonksSearch(), IonosphereSearch(), WideEval())}
