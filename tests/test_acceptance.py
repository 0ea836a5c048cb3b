"""Acceptance criteria, one test (and one printed pass/fail line) each.

Criteria 1-4 reproduce the published Monk and Ionosphere experiments within
their stated tolerances via the bundled reproduction suites.  Criterion 5
is the property battery standing in for the non-public dataset: oracle
equivalence, metric axioms, invariances, sequence-selection oracles, grid
oracles, and byte-level determinism.
"""

import itertools
import json

import numpy as np
import pytest

from metaknn import (DistanceSpec, EvalContext, ModelSpec, PoolMember,
                     classify, dissimilarity, select_model_sequence,
                     weight_search_quantized)
from metaknn.cli import main
from metaknn.distance import CAMBERRA, CHEBYSHEV, MINKOWSKI
from metaknn.metasearch import _majority

from conftest import ALL_KINDS, DATA_DIR, make_dataset, random_dataset, random_model


def gate(label: str, expected: str, observed: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {label} | expected {expected} | observed {observed}")
    assert ok, f"{label}: expected {expected}, observed {observed}"


def suite_row(result, label):
    row = next(r for r in result.rows if r.label == label)
    gate(f"[{result.suite}] {label}", row.expected, row.observed, row.passed)


class TestCriterion1Monk1:
    def test_k1_euclidean_reference(self, suite_monks1):
        suite_row(suite_monks1, "reference k=1 euclidean")

    def test_k3_euclidean(self, suite_monks1):
        suite_row(suite_monks1, "k channel")

    def test_camberra(self, suite_monks1):
        suite_row(suite_monks1, "distance channel")

    def test_feature_selection_mask_125(self, suite_monks1):
        suite_row(suite_monks1, "feature selection channel")

    def test_quantized_weighting(self, suite_monks1):
        suite_row(suite_monks1, "weight channel")

    def test_meta_search_level2_weighted_camberra(self, suite_monks1):
        suite_row(suite_monks1, "meta-search")


class TestCriterion2Monk2:
    def test_camberra_final_model(self, suite_monks2):
        suite_row(suite_monks2, "distance channel")


class TestCriterion3Monk3:
    def test_published_two_weight_model(self, suite_monks3):
        suite_row(suite_monks3, "published weights (0,1,0,0,1,0)")

    def test_search_finds_two_feature_support(self, suite_monks3):
        suite_row(suite_monks3, "meta-search")


class TestCriterion4Ionosphere:
    def test_k_opt(self, suite_ionosphere):
        suite_row(suite_ionosphere, "k channel")

    def test_manhattan(self, suite_ionosphere):
        suite_row(suite_ionosphere, "distance channel")

    def test_feature_selection(self, suite_ionosphere):
        suite_row(suite_ionosphere, "feature selection channel")

    def test_weighting(self, suite_ionosphere):
        suite_row(suite_ionosphere, "weight channel")

    def test_level2_weighted_manhattan_then_stop(self, suite_ionosphere):
        suite_row(suite_ionosphere, "meta-search")


class TestCriterion5Properties:
    def test_oracle_equivalence_cached_vs_naive(self):
        rng = np.random.default_rng(101)
        mismatches = 0
        for _ in range(50):
            ds = random_dataset(rng, max_n=40, max_features=6, max_classes=3)
            model = random_model(rng, ds.n_features)
            if model.k >= ds.n:
                model = ModelSpec(k=1, distance=model.distance,
                                  feature_mask=model.feature_mask)
            cached = EvalContext(ds).loo_report(model)
            for p in range(ds.n):
                direct = classify(model, ds, ds.vectors[p], exclude=p)
                if cached.winners[p] != direct.winner:
                    mismatches += 1
        gate("[properties] cached LOO == naive recomputation",
             "0 mismatches on 50 random datasets", f"{mismatches} mismatches",
             mismatches == 0)

    def test_metric_axioms(self):
        rng = np.random.default_rng(103)
        bad = 0
        for _ in range(1000):
            x, y = rng.normal(size=(2, 4)) * 10
            for kind, alpha in ALL_KINDS:
                spec = DistanceSpec(kind, alpha)
                d = dissimilarity(spec, x, y)
                if not (d >= 0 and d == dissimilarity(spec, y, x)
                        and dissimilarity(spec, x, x) == 0):
                    bad += 1
        for _ in range(1000):
            x, y, z = rng.normal(size=(3, 4)) * 10
            for kind, alpha in ((MINKOWSKI, 1), (CHEBYSHEV, None)):
                spec = DistanceSpec(kind, alpha)
                if dissimilarity(spec, x, z) > (dissimilarity(spec, x, y)
                                                + dissimilarity(spec, y, z) + 1e-9):
                    bad += 1
        gate("[properties] metric axioms",
             "symmetry/identity/nonnegativity on 1000 pairs, triangle on 1000 triples",
             f"{bad} violations", bad == 0)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(107)
        changed = 0
        for _ in range(12):
            ds = random_dataset(rng, max_n=25)
            w = rng.random(ds.n_features) + 0.25
            for kind, alpha in ALL_KINDS:
                base = EvalContext(ds).loo_report(
                    ModelSpec(k=2, distance=DistanceSpec(kind, alpha, w)))
                for c in (0.01, 3.0, 1000.0):
                    scaled = EvalContext(ds).loo_report(
                        ModelSpec(k=2, distance=DistanceSpec(kind, alpha, c * w)))
                    changed += sum(a != b for a, b in zip(base.winners, scaled.winners))
        gate("[properties] weight rescaling c in {0.01,3,1000}",
             "no prediction changes", f"{changed} changed predictions", changed == 0)

    def test_zero_weight_equals_mask(self):
        rng = np.random.default_rng(109)
        diff = 0
        for _ in range(25):
            ds = random_dataset(rng, max_n=25, max_features=6)
            if ds.n_features < 2:
                continue
            mask = rng.random(ds.n_features) < 0.5
            if not mask.any():
                mask[int(rng.integers(ds.n_features))] = True
            kind, alpha = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
            masked = EvalContext(ds).loo_report(
                ModelSpec(k=1, distance=DistanceSpec(kind, alpha), feature_mask=mask))
            zeroed = EvalContext(ds).loo_report(
                ModelSpec(k=1, distance=DistanceSpec(kind, alpha, mask.astype(float))))
            diff += sum(a != b for a, b in zip(masked.winners, zeroed.winners))
        gate("[properties] zero weight == masked feature",
             "identical predictions", f"{diff} differing predictions", diff == 0)

    def test_sequence_selection_oracles(self):
        rng = np.random.default_rng(113)
        truths = np.array([0, 1, 0, 1, 0, 1, 0, 1])

        def vote_correct(members):
            stacked = np.stack([m.predictions for m in members])
            return int(np.sum(_majority(stacked, 2) == truths))

        bad = 0
        for _ in range(40):
            pool = [PoolMember(ModelSpec(k=i + 1), rng.integers(0, 2, size=8))
                    for i in range(3)]
            best_subset = max(vote_correct(list(c)) for r in (1, 2, 3)
                              for c in itertools.combinations(pool, r))
            seq = select_model_sequence(pool, truths, epsilon=-1e-9)
            if seq.combined_correct != best_subset:
                bad += 1
        nondec_bad = 0
        for _ in range(100):
            n = int(rng.integers(5, 15))
            t = rng.integers(0, 2, size=n)
            pool = [PoolMember(ModelSpec(k=i + 1), rng.integers(0, 2, size=n))
                    for i in range(4)]
            seq = select_model_sequence(pool, t, epsilon=-1e-9)
            stacked = [int(np.sum(
                _majority(np.stack([m.predictions for m in seq.members[:i]]), 2) == t))
                for i in range(1, len(seq.members) + 1)]
            if any(b < a for a, b in zip(stacked, stacked[1:])):
                nondec_bad += 1
        gate("[properties] sequence selection vs exhaustive + monotone growth",
             "greedy == exhaustive on 3-model pools; non-decreasing on 100 pools",
             f"{bad} oracle mismatches, {nondec_bad} monotonicity violations",
             bad == 0 and nondec_bad == 0)

    def test_quantized_search_equals_grid(self):
        rng = np.random.default_rng(127)
        grid = np.round(np.arange(11) * 0.1, 10)
        bad = 0
        for _ in range(8):
            labels = rng.integers(0, 2, size=26)
            labels[:2] = [0, 1]
            informative = labels * 4.0 + rng.normal(scale=0.4, size=26)
            noise = rng.normal(scale=6.0, size=26)
            ds = make_dataset(np.column_stack([informative, noise]), labels)
            res = weight_search_quantized(ModelSpec(), ds)
            best = max(
                EvalContext(ds).loo_count(
                    ModelSpec(distance=DistanceSpec(MINKOWSKI, 2, [a, b])))
                for a in grid for b in grid)
            if res.correct_count != best:
                bad += 1
        gate("[properties] quantized search == 11x11 grid",
             "equal best counts on 8 synthetics", f"{bad} mismatches", bad == 0)

    def test_cli_determinism(self, capsys, tmp_path):
        argv = ["search", "--format", "monks",
                "--train", str(DATA_DIR / "monks-1.train"),
                "--test", str(DATA_DIR / "monks-1.test")]
        out_a = tmp_path / "a.ndjson"
        out_b = tmp_path / "b.ndjson"
        main(argv + ["--output", str(out_a)])
        text_a = capsys.readouterr().out
        main(argv + ["--output", str(out_b)])
        text_b = capsys.readouterr().out
        ok = text_a == text_b and out_a.read_bytes() == out_b.read_bytes()
        main(["eval", "--format", "monks", "--train", str(DATA_DIR / "monks-1.train")])
        text_c = capsys.readouterr().out
        main(["eval", "--format", "monks", "--train", str(DATA_DIR / "monks-1.train")])
        text_d = capsys.readouterr().out
        ok = ok and text_c == text_d
        gate("[properties] command determinism",
             "byte-identical stdout and output files",
             "identical" if ok else "diverged", ok)
