from pathlib import Path

import numpy as np
import pytest

from metaknn import CONTINUOUS, Dataset, DistanceSpec, FeatureSpec, ModelSpec, distance
from metaknn.distance import (CAMBERRA, CHEBYSHEV, MINKOWSKI, column_ends, feature_terms, left_side,
                              term_sides)
from metaknn.reproduce import load_suite, run_suite

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

ALL_KINDS = ((MINKOWSKI, 1), (MINKOWSKI, 2), (CHEBYSHEV, None), (CAMBERRA, None))


def term_matrix(a: np.ndarray, b: np.ndarray, key: str, scale: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """One column's scaled term matrix between the vectors a and b, written
    into out when given: feature_terms's stack of one."""
    a, b = a[:, None], b[:, None]
    sides = term_sides(b, [0], key, scale, column_ends(a, b, [0]))
    stack = feature_terms(sides, left_side(a, [0], key),
                          out=None if out is None else out[None])
    return stack[0] if out is None else out


def spy_stacks(monkeypatch) -> list:
    """The shape of the stack each feature_terms call builds."""
    shapes = []

    def spy(*args, **kwargs):
        stack = feature_terms(*args, **kwargs)
        shapes.append(stack.shape)
        return stack

    monkeypatch.setattr(distance, "feature_terms", spy)
    return shapes


def make_dataset(vectors, labels, n_classes=None) -> Dataset:
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vectors.shape[0] == 1 and np.ndim(labels) and len(labels) > 1:
        vectors = vectors.T
    labels = np.asarray(labels, dtype=int)
    k = n_classes if n_classes is not None else int(labels.max()) + 1
    features = [FeatureSpec(f"a{j + 1}", CONTINUOUS, j) for j in range(vectors.shape[1])]
    return Dataset(features, vectors, labels, [f"c{i}" for i in range(max(k, 2))])


def random_dataset(rng, max_n=40, max_features=6, max_classes=3) -> Dataset:
    n = int(rng.integers(5, max_n + 1))
    nfeat = int(rng.integers(1, max_features + 1))
    k = int(rng.integers(2, max_classes + 1))
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)  # every class present
    vectors = np.round(rng.normal(size=(n, nfeat)) * 3, 3)
    return make_dataset(vectors, labels, n_classes=k)


def random_model(rng, n_features: int) -> ModelSpec:
    kind, alpha = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
    mask = None
    n_active = n_features
    if rng.random() < 0.5 and n_features > 1:
        mask = rng.random(n_features) < 0.6
        if not mask.any():
            mask[int(rng.integers(n_features))] = True
        n_active = int(mask.sum())
    weights = None
    if rng.random() < 0.6:
        weights = np.round(rng.random(n_active) * 2, 2)
        if not weights.any():
            weights[0] = 1.0
    k = int(rng.integers(1, 4))
    return ModelSpec(k=k, distance=DistanceSpec(kind, alpha, weights), feature_mask=mask)


# the bundled datasets as the reproduction suites load them
@pytest.fixture(scope="session")
def monks1():
    return load_suite("monks1", DATA_DIR)


@pytest.fixture(scope="session")
def monks2():
    return load_suite("monks2", DATA_DIR)


@pytest.fixture(scope="session")
def monks3():
    return load_suite("monks3", DATA_DIR)


@pytest.fixture(scope="session")
def ionosphere():
    return load_suite("ionosphere", DATA_DIR)


# each reproduction suite runs once per session; the acceptance gates and the
# golden guard read the same results
@pytest.fixture(scope="session")
def suite_monks1():
    return run_suite("monks1", DATA_DIR)


@pytest.fixture(scope="session")
def suite_monks2():
    return run_suite("monks2", DATA_DIR)


@pytest.fixture(scope="session")
def suite_monks3():
    return run_suite("monks3", DATA_DIR)


@pytest.fixture(scope="session")
def suite_ionosphere():
    return run_suite("ionosphere", DATA_DIR)
