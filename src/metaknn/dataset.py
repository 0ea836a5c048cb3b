"""Dataset loading, encoding, and partitioning.

Two on-disk formats are supported: generic CSV (optional header, comma
separated, "." decimal point) and the UCI Monk layout (whitespace separated:
class, six attributes, trailing case identifier).  `FORMATS` maps each format
name to its loader; `load_partition` and the CLI's --format both read it.
Both read their files as UTF-8 with an optional byte-order mark
("utf-8-sig"), which is not part of the first cell.

CSV has one general path, `_csv_rows`: `csv.reader` tokens, encoded by
`_encode`; it reads every CSV file, and it alone raises a malformed file's
DataError.  A plain numeric table is read faster by numpy's C text reader
(`_numeric_rows`, numpy 1.23 or later): no schema, quote, NUL or lone
carriage return, every line as wide as the first, every feature cell a
number numpy reads, and for a test file a training file with continuous
features only.  numpy reads such a cell as float() reads it stripped, so
both paths give the same Dataset, bit for bit; any other file, and any file
the general path would reject, falls back to the general path.

Symbolic features are encoded as ordinal integers and treated as continuous
by the distance functions.  Native integer attribute values are kept as-is;
free-text symbols are coded by first occurrence in the training data.  Both
formats share one encoder, `_encode`, which holds the rule that a test file
is encoded as its training file: the test file takes the training file's
feature kinds, code tables and class names, so a test symbol or label that
the training file lacks is a DataError.  The numpy reader takes a test file
only when the training file has no symbolic feature, where the rule leaves
the column count and the class names (`_encode_labels`, shared).

A Dataset stores its vectors column-major (each feature's values
contiguous), whatever array it is handed: the distance kernels read one
feature column at a time.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
SYMBOLIC = "symbolic-ordinal"

# numpy 1.23 replaced loadtxt's pure-Python reader, which turns hex tokens
# into floats through float.fromhex, with a C reader that parses a number
# as float() does; `load_csv` uses loadtxt only where it is the C reader
NUMPY_C_READER = np.lib.NumpyVersion(np.__version__) >= "1.23.0"


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
    vectors: np.ndarray  # (n, N) float, column-major
    labels: np.ndarray  # (n,) int in 0..K-1
    class_names: list[str]

    def __post_init__(self):
        # contiguous columns: the distance kernels read one feature at a time
        self.vectors = np.asfortranarray(self.vectors, dtype=float)
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

    Tokens that all parse as integers keep their native values (Monk style),
    and the table is keyed by the tokens as written.  Otherwise codes are
    assigned by first occurrence.  When an existing code table is supplied it
    is reused verbatim and unseen tokens are an error.
    """
    if codes is not None:
        try:
            return [codes[t] for t in raw], codes
        except KeyError as exc:
            raise DataError(f"unknown symbol {exc.args[0]!r} not present in training data") from None
    try:
        values = [int(t) for t in raw]
        return values, {t: v for v, t in sorted(set(zip(values, raw)))}
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


def _encode(path, names: list[str], kinds: list[str | None], columns: list[list[str]],
            raw_labels: list[str], reference: Dataset | None, first_row: int = 1) -> Dataset:
    """Encode token columns and label tokens into a Dataset.

    A kind of None is detected: CONTINUOUS when every token parses as a
    number, else SYMBOLIC.  With a reference dataset, the column count must
    match it, and its feature kinds, symbol codes and class names replace
    `kinds` and the detected tables, so test rows are encoded as the training
    rows were.  first_row is the file's row number of the first token.
    """
    if reference is not None:
        if len(columns) != reference.n_features:
            raise DataError(f"{path}: {len(columns)} feature columns, "
                            f"expected {reference.n_features} as in the training data")
        kinds = [f.kind for f in reference.features]
    features: list[FeatureSpec] = []
    vectors: list[list[float]] = []
    for j, (name, kind, raw) in enumerate(zip(names, kinds, columns)):
        if kind in (None, CONTINUOUS):
            try:
                vectors.append([float(t) for t in raw])
                features.append(FeatureSpec(name, CONTINUOUS, j))
                continue
            except ValueError:
                if kind == CONTINUOUS:
                    bad = next(i for i, t in enumerate(raw) if not _looks_numeric(t))
                    raise DataError(f"{path}: row {bad + first_row}, column {name!r}: "
                                    f"cannot parse {raw[bad]!r} as a number") from None
        try:
            values, codes = encode_symbolic(
                raw, None if reference is None else reference.features[j].codes)
            vectors.append([float(v) for v in values])
        except DataError as exc:
            raise DataError(f"{path}: column {name!r}: {exc}") from None
        except OverflowError:
            raise DataError(f"{path}: column {name!r}: symbol value too large") from None
        features.append(FeatureSpec(name, SYMBOLIC, j, codes))
    labels, class_names = _encode_labels(
        raw_labels, None if reference is None else reference.class_names)
    return Dataset(features, np.array(vectors, dtype=float).T, np.array(labels), class_names)


def _layout(path, rows: list[list[str]], label_column) -> tuple[list[str], bool, int]:
    """Column names, whether row 0 is a header, and the label column's index,
    read from a table's first two rows of stripped cells (see `load_csv`)."""
    width = len(rows[0])
    header = isinstance(label_column, str) or (len(rows) > 1 and any(
        not _looks_numeric(rows[0][j]) and _looks_numeric(rows[1][j]) for j in range(width)))
    names = rows[0] if header else [f"a{j + 1}" for j in range(width)]
    if isinstance(label_column, str):
        if label_column not in names:
            raise DataError(f"{path}: label column {label_column!r} not found")
        return names, header, names.index(label_column)
    if not -width <= label_column < width:
        raise DataError(f"{path}: label column {label_column} out of range")
    return names, header, label_column % width


def _csv_text(path) -> str:
    """A CSV file's text, line ends as written, without a UTF-8 byte-order mark."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None


def _csv_rows(path, text: str, label_column=-1, schema: dict | None = None,
              reference: Dataset | None = None) -> Dataset:
    """The general CSV path: `csv.reader` tokens, encoded by `_encode`.

    It reads every CSV text `load_csv` accepts, and it alone raises the
    DataError of a malformed one.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(text, newline=""))
                if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:
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
    names, header, label_idx = _layout(path, rows[:2], label_column)
    body = rows[1:] if header else rows
    feat_cols = [j for j in range(width) if j != label_idx]
    schema = schema or {}
    kinds = [schema.get(names[j], schema.get(j)) for j in feat_cols]
    return _encode(path, [names[j] for j in feat_cols], kinds,
                   [[row[j] for row in body] for j in feat_cols],
                   [row[label_idx] for row in body], reference, first_row=2 if header else 1)


def _numeric_rows(path, text: str, label_column=-1,
                  reference: Dataset | None = None) -> Dataset | None:
    """A plain numeric table read by numpy's C reader, or None.

    Plain: no quote, NUL or lone carriage return; every line as wide as the
    first, and no longer than the csv module's field limit; every feature
    cell a number numpy reads; a reference, if any, with continuous features
    only.  numpy reads a token as float() reads it stripped, or refuses it,
    so the result is exactly `_csv_rows`' for the same text.  Every other
    text, and every text that path would reject, is None: this path raises
    nothing of its own.
    """
    if '"' in text or "\0" in text:
        return None
    text = text.replace("\r\n", "\n")
    if "\r" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    commas = lines[0].count(",")
    if not commas or {line.count(",") for line in lines} != {commas}:
        return None
    rows = [[cell.strip() for cell in line.split(",")] for line in lines[:2]]
    try:
        names, header, label_idx = _layout(path, rows, label_column)
    except DataError:
        return None
    # a blank header line is a row the csv path skips; a blank body line is
    # one numpy refuses, as it refuses every blank feature cell
    body = lines[1:] if header else lines
    if header and not any(rows[0]) or not body:
        return None
    feat_cols = [j for j in range(commas + 1) if j != label_idx]
    kinds = [CONTINUOUS] * len(feat_cols)
    if reference is not None and [f.kind for f in reference.features] != kinds:
        return None
    if label_idx == commas:
        raw_labels = [line.rsplit(",", 1)[1].strip() for line in body]
    else:
        raw_labels = [line.split(",", label_idx + 1)[label_idx].strip() for line in body]
    try:
        vectors = np.loadtxt(body, dtype=float, delimiter=",", usecols=feat_cols,
                             comments=None, ndmin=2)
        labels, class_names = _encode_labels(
            raw_labels, None if reference is None else reference.class_names)
        return Dataset([FeatureSpec(names[j], CONTINUOUS, i) for i, j in enumerate(feat_cols)],
                       vectors, labels, class_names)
    except (ValueError, DataError):
        return None


def load_csv(path, label_column=-1, schema: dict | None = None,
             reference: Dataset | None = None) -> Dataset:
    """Load a CSV classification table.

    Row 0 is a header when label_column is a column name, or when some
    column is non-numeric in row 0 but numeric in row 1; otherwise columns
    are named a1, a2, ...  label_column is a column name or integer position
    (negative counts from the end).  schema maps column name/position to a feature
    kind, overriding numeric auto-detection.  With a reference dataset, the
    rows are encoded as the reference's were (see `_encode`).  A table
    without a schema goes to `_numeric_rows` first, and to `_csv_rows` when
    that declines it.
    """
    text = _csv_text(path)
    if NUMPY_C_READER and not schema:
        data = _numeric_rows(path, text, label_column, reference)
        if data is not None:
            return data
    return _csv_rows(path, text, label_column, schema, reference)


def load_monks(path, reference: Dataset | None = None) -> Dataset:
    """Load a UCI Monk file: "class a1 a2 a3 a4 a5 a6 case-id" per line."""
    rows = []
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    for i, line in enumerate(lines):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 8:
            raise DataError(f"{path}: line {i + 1} has {len(tokens)} tokens, expected 8")
        try:
            for t in tokens[1:7]:
                int(t)
        except ValueError:
            raise DataError(f"{path}: line {i + 1}: non-integer attribute") from None
        rows.append(tokens)
    if not rows:
        raise DataError(f"{path}: no rows")
    return _encode(path, [f"a{j}" for j in range(1, 7)], [SYMBOLIC] * 6,
                   [[row[j] for row in rows] for j in range(1, 7)],
                   [row[0] for row in rows], reference)


# format name -> loader taking a path, the format's options and a reference
FORMATS = {"csv": load_csv, "monks": load_monks}


def load_partition(train_path, test_path, fmt="csv", **kwargs) -> Partition:
    """Load a train/test pair; the test file reuses the training encodings."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; choose from {', '.join(FORMATS)}")
    loader = FORMATS[fmt]
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
    if not n_train or not n_test:
        raise DataError(f"split {n_train}:{n_test} leaves the "
                        f"{'test' if n_train else 'training'} side empty")
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
    if source.n_features != data.n_features:
        raise DataError(f"cannot rescale {data.n_features} features by the bounds "
                        f"of a reference with {source.n_features}")
    lo = source.vectors.min(axis=0)
    span = source.vectors.max(axis=0) - lo
    span[span == 0] = 1.0
    return Dataset(data.features, (data.vectors - lo) / span, data.labels, data.class_names)
