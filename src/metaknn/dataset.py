"""Dataset loading, encoding, and partitioning.

Two on-disk formats are supported: generic CSV (optional header, comma
separated, "." decimal point) and the UCI Monk layout (whitespace separated:
class, six attributes, trailing case identifier).

Symbolic features are encoded as ordinal integers and treated as continuous
by the distance functions.  Native integer attribute values are kept as-is;
free-text symbols are coded by first occurrence in the training data and the
same codes are applied verbatim to test rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
SYMBOLIC = "symbolic-ordinal"


class DataError(Exception):
    """Raised for malformed files, schema mismatches, or unknown symbols."""


@dataclass
class FeatureSpec:
    name: str
    kind: str  # CONTINUOUS or SYMBOLIC
    index: int
    # for symbolic features: raw token -> integer code (encoding table)
    codes: dict[str, int] | None = None

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, SYMBOLIC):
            raise DataError(f"unknown feature kind {self.kind!r}")


@dataclass
class Dataset:
    features: list[FeatureSpec]
    vectors: np.ndarray  # (n, N) float
    labels: np.ndarray  # (n,) int in 0..K-1
    class_names: list[str]

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        n, nfeat = self.vectors.shape
        if n < 1:
            raise DataError("dataset is empty")
        if nfeat != len(self.features):
            raise DataError("vector width does not match feature list")
        if [f.index for f in self.features] != list(range(nfeat)):
            raise DataError("feature indices must be contiguous from 0")
        if not np.all(np.isfinite(self.vectors)):
            raise DataError("non-finite value in encoded vectors")
        if len(self.class_names) < 2:
            raise DataError("need at least two classes")
        if self.labels.min() < 0 or self.labels.max() >= len(self.class_names):
            raise DataError("label index out of range")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_features(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass
class Partition:
    train: Dataset
    test: Dataset
    unused_rows: int = 0  # rows consumed by neither side of an explicit split

    def __post_init__(self):
        a, b = self.train, self.test
        if [(f.name, f.kind) for f in a.features] != [(f.name, f.kind) for f in b.features]:
            raise DataError("train and test feature schemas differ")
        if a.class_names != b.class_names:
            raise DataError("train and test class names differ")


def encode_symbolic(raw: list[str], codes: dict[str, int] | None = None) -> tuple[list[int], dict[str, int]]:
    """Encode one symbolic column.

    Tokens that all parse as integers keep their native values (Monk style).
    Otherwise codes are assigned by first occurrence.  When an existing code
    table is supplied it is reused verbatim and unseen tokens are an error.
    """
    if codes is not None:
        try:
            return [codes[t] for t in raw], codes
        except KeyError as exc:
            raise DataError(f"unknown symbol {exc.args[0]!r} not present in training data") from None
    try:
        values = [int(t) for t in raw]
        return values, {str(v): v for v in sorted(set(values))}
    except ValueError:
        pass
    codes = {}
    values = []
    for t in raw:
        if t not in codes:
            codes[t] = len(codes)
        values.append(codes[t])
    return values, codes


def _encode_labels(raw: list[str], class_names: list[str] | None) -> tuple[list[int], list[str]]:
    if class_names is None:
        class_names = []
        for t in raw:
            if t not in class_names:
                class_names.append(t)
    index = {c: i for i, c in enumerate(class_names)}
    try:
        return [index[t] for t in raw], class_names
    except KeyError as exc:
        raise DataError(f"unknown class label {exc.args[0]!r} not present in training data") from None


def _looks_numeric(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _symbol_floats(path, name: str, values: list[int]) -> list[float]:
    """Symbol codes as floats; a native integer too large for a float is a DataError."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise DataError(f"{path}: column {name!r}: symbol value too large") from None


def load_csv(path, label_column=-1, schema: dict | None = None,
             header: bool | str = "auto", reference: Dataset | None = None) -> Dataset:
    """Load a CSV classification table.

    label_column is a column name (requires a header) or integer position
    (negative counts from the end).  schema maps column name/position to a
    feature kind, overriding numeric auto-detection.  With a reference
    dataset, its feature kinds, symbol codes, and class names are reused so
    test rows are encoded identically to the training rows.
    """
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = [row for row in csv.reader(f) if row and any(cell.strip() for cell in row)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no rows")
    width = len(rows[0])
    if width < 2:
        raise DataError(f"{path}: need a label column and at least one feature column")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
    rows = [[cell.strip() for cell in row] for row in rows]

    if header == "auto":
        # a header is assumed when some column is non-numeric only in row 0
        header = isinstance(label_column, str) or (
            len(rows) > 1
            and any(not _looks_numeric(rows[0][j]) and _looks_numeric(rows[1][j])
                    for j in range(width))
        )
    names = rows[0] if header else [f"a{j + 1}" for j in range(width)]
    body = rows[1:] if header else rows

    if isinstance(label_column, str):
        if label_column not in names:
            raise DataError(f"{path}: label column {label_column!r} not found")
        label_idx = names.index(label_column)
    else:
        if not -width <= label_column < width:
            raise DataError(f"{path}: label column {label_column} out of range")
        label_idx = label_column % width

    feat_cols = [j for j in range(width) if j != label_idx]
    schema = schema or {}

    def declared_kind(j: int) -> str | None:
        name = names[j]
        if name in schema:
            return schema[name]
        if j in schema:
            return schema[j]
        return None

    features: list[FeatureSpec] = []
    columns: list[list[float]] = []
    for out_idx, j in enumerate(feat_cols):
        raw = [row[j] for row in body]
        if reference is not None:
            ref = reference.features[out_idx]
            kind = ref.kind
            if kind == SYMBOLIC and ref.codes is not None and not all(t in ref.codes for t in raw):
                missing = next(t for t in raw if t not in ref.codes)
                raise DataError(f"{path}: unknown symbol {missing!r} in column {names[j]!r}")
            if kind == SYMBOLIC:
                values, codes = encode_symbolic(raw, ref.codes)
                features.append(FeatureSpec(ref.name, SYMBOLIC, out_idx, codes))
                columns.append(_symbol_floats(path, names[j], values))
                continue
        else:
            kind = declared_kind(j)
        if kind is None:
            kind = CONTINUOUS if all(_looks_numeric(t) for t in raw) else SYMBOLIC
        if kind == CONTINUOUS:
            try:
                columns.append([float(t) for t in raw])
            except ValueError:
                bad = next(i for i, t in enumerate(raw) if not _looks_numeric(t))
                raise DataError(
                    f"{path}: row {bad + 1 + int(header)}, column {names[j]!r}: "
                    f"cannot parse {raw[bad]!r} as a number") from None
            features.append(FeatureSpec(names[j], CONTINUOUS, out_idx))
        else:
            values, codes = encode_symbolic(raw)
            features.append(FeatureSpec(names[j], SYMBOLIC, out_idx, codes))
            columns.append(_symbol_floats(path, names[j], values))

    raw_labels = [row[label_idx] for row in body]
    labels, class_names = _encode_labels(
        raw_labels, reference.class_names if reference is not None else None)
    vectors = np.array(columns, dtype=float).T if columns else np.empty((len(body), 0))
    return Dataset(features, vectors, np.array(labels), class_names)


def load_monks(path, reference: Dataset | None = None) -> Dataset:
    """Load a UCI Monk file: "class a1 a2 a3 a4 a5 a6 case-id" per line."""
    vectors, raw_labels = [], []
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 8:
            raise DataError(f"{path}: line {i + 1} has {len(tokens)} tokens, expected 8")
        try:
            attrs = [int(t) for t in tokens[1:7]]
        except ValueError:
            raise DataError(f"{path}: line {i + 1}: non-integer attribute") from None
        raw_labels.append(tokens[0])
        vectors.append(attrs)
    if not vectors:
        raise DataError(f"{path}: no rows")
    labels, class_names = _encode_labels(
        raw_labels, reference.class_names if reference is not None else None)
    features = [FeatureSpec(f"a{j + 1}", SYMBOLIC, j,
                            {str(v): v for v in sorted({row[j] for row in vectors})})
                for j in range(6)]
    try:
        matrix = np.array(vectors, dtype=float)
    except OverflowError:
        raise DataError(f"{path}: attribute value too large") from None
    return Dataset(features, matrix, np.array(labels), class_names)


def load_partition(train_path, test_path, fmt="csv", **kwargs) -> Partition:
    """Load a train/test pair; the test file reuses the training encodings."""
    loader = load_monks if fmt == "monks" else load_csv
    train = loader(train_path, **kwargs)
    test = loader(test_path, reference=train, **kwargs)
    return Partition(train, test)


def split_rows(data: Dataset, n_train: int, n_test: int) -> Partition:
    """Partition by explicit row counts, in file order.

    Rows beyond n_train + n_test are left unused and surfaced on the
    Partition so callers can report the discrepancy.
    """
    if n_train < 0 or n_test < 0:
        raise DataError(f"split {n_train}:{n_test} has a negative row count")
    if n_train + n_test > data.n:
        raise DataError(f"split {n_train}+{n_test} exceeds {data.n} rows")
    take = lambda lo, hi: Dataset(data.features, data.vectors[lo:hi],
                                  data.labels[lo:hi], data.class_names)
    return Partition(take(0, n_train), take(n_train, n_train + n_test),
                     unused_rows=data.n - n_train - n_test)


def minmax_rescale(data: Dataset, reference: Dataset | None = None) -> Dataset:
    """Optional per-feature min-max rescale; off in all reproduction runs.

    The bounds are the reference dataset's when one is given (a test set takes
    its training set's min and max, so it may land outside [0,1]), otherwise
    the data's own, which maps it onto [0,1].
    """
    source = data if reference is None else reference
    lo = source.vectors.min(axis=0)
    span = source.vectors.max(axis=0) - lo
    span[span == 0] = 1.0
    return Dataset(data.features, (data.vectors - lo) / span, data.labels, data.class_names)


def write_csv(data: Dataset, path, label_name="class") -> None:
    """Write with a header row; symbolic codes are decoded back to their tokens."""
    decoders = []
    for f_spec in data.features:
        if f_spec.kind == SYMBOLIC and f_spec.codes:
            decoders.append({v: k for k, v in f_spec.codes.items()})
        else:
            decoders.append(None)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([fs.name for fs in data.features] + [label_name])
        for row, label in zip(data.vectors, data.labels):
            cells = []
            for j, value in enumerate(row):
                if decoders[j] is not None:
                    cells.append(decoders[j][int(value)])
                else:
                    cells.append(repr(float(value)))
            cells.append(data.class_names[label])
            w.writerow(cells)
