"""Command-line interface.

Subcommands:

  eval       score a fixed model by leave-one-out (and on a test set)
  search     run the meta-level model search, printing the level table
  sequence   build a majority-vote model sequence from a search run
  reproduce  run a bundled benchmark suite against reference results

Exit codes: 0 success, 1 usage error, 2 data error, 3 reproduction rows
outside tolerance.  All output is deterministic: rerunning a command on the
same inputs produces byte-identical stdout and output files.

Each cmd_* function does no I/O: it returns its --output records, its stdout
lines and its exit code, and main alone writes the --output file and then
prints the lines.  So a command that fails, in its checks, its data or its
--output path, prints nothing to stdout; reproduce included, which prints
once all its suites have run.

Input has one path too.  --format's choices are the loaders of
`dataset.FORMATS`, and `_load` reads --train, --test and --split through
them.  The list flags --features, --weights, --channels, --k-range and
--split are parsed by `_entries` alone; a blank or malformed entry, or a
wrong count, is a usage error that names the flag.  So is a --channels name
not in `optimize.CHANNELS` (the message lists them), and a --weights list
that does not fit the active features or holds a negative, NaN or infinite
weight.  Every list flag is parsed, and the --channels names and --weights
values are checked, before `_load` reads a file, so such a usage error
exits 1 even when --train cannot be read; the checks against the data (a
--features index, the --weights count) follow the load.  --label-column
applies to CSV only: with --format monks any value but its default is a
usage error, not a setting echoed as if it had been applied.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .dataset import FORMATS, DataError, Dataset, load_partition, minmax_rescale, split_rows
from .distance import CAMBERRA, CHEBYSHEV, MINKOWSKI, DistanceSpec
from .evaluation import EvalContext
from .knn import ModelSpec
from .metasearch import (DEFAULT_CHANNELS, build_pool, evaluate_sequence, meta_search,
                         select_model_sequence)
from .optimize import BUDGET, CHANNELS, K_RANGE, STEP, WEIGHT_METHOD, WEIGHT_METHODS
from .reproduce import SUITE_NAMES, _fmt, run_suite

DISTANCE_NAMES = {
    "euclidean": (MINKOWSKI, 2),
    "manhattan": (MINKOWSKI, 1),
    "minkowski": (MINKOWSKI, 2),  # --alpha sets the exponent
    "chebyshev": (CHEBYSHEV, None),
    "camberra": (CAMBERRA, None),
}
_NOT_ECHOED = ("command", "output")  # arguments the config line leaves out
LABEL_COLUMN = "-1"  # --label-column's default: the last CSV column


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this interface reserves 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_data_args(p: _Parser):
    p.add_argument("--train", required=True, help="training data file")
    held_out = p.add_mutually_exclusive_group()
    held_out.add_argument("--test", help="test data file (encoded with the training tables)")
    p.add_argument("--format", choices=tuple(FORMATS), default="csv")
    p.add_argument("--label-column", default=LABEL_COLUMN,
                   help="CSV label column name or position (default: last)")
    held_out.add_argument("--split", metavar="TRAIN:TEST",
                          help="carve a train/test partition out of --train by row counts")
    p.add_argument("--rescale", action="store_true",
                   help="min-max rescale features to [0,1] (off by default)")
    p.add_argument("--output", help="write line-delimited JSON records to this file")


def _add_model_args(p: _Parser):
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--distance", choices=sorted(DISTANCE_NAMES), default="euclidean")
    p.add_argument("--alpha", type=int, choices=(1, 2), default=None,
                   help="minkowski exponent (with --distance minkowski)")
    p.add_argument("--weights", help="comma-separated weights for the active features")
    p.add_argument("--features", help="comma-separated 1-based active feature indices")


def _add_search_args(p: _Parser):
    p.add_argument("--channels", default=",".join(DEFAULT_CHANNELS),
                   help="comma-separated channel order")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="minimum accuracy gain to accept a level")
    p.add_argument("--k-range", default="{}:{}".format(*K_RANGE), metavar="LO:HI")
    p.add_argument("--weight-method", choices=WEIGHT_METHODS, default=WEIGHT_METHOD)
    p.add_argument("--step", type=float, default=STEP, help="weight grid step")
    p.add_argument("--budget", type=int, default=BUDGET, help="simplex evaluation budget")


@functools.cache  # built on the first call, not at import; parsing leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="metaknn", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate one model")
    _add_data_args(p)
    _add_model_args(p)

    p = sub.add_parser("search", help="run the meta-level model search")
    _add_data_args(p)
    _add_search_args(p)

    p = sub.add_parser("sequence", help="select a majority-vote model sequence")
    _add_data_args(p)
    _add_search_args(p)

    p = sub.add_parser("reproduce", help="run a benchmark reproduction suite")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.add_argument("--data-dir", default="data", help="directory with the bundled datasets")
    p.add_argument("--output", help="write line-delimited JSON records to this file")
    return parser


def _entries(flag: str, text: str, kind: type, pair: str | None = None) -> list:
    """The entries of a list flag, each parsed by `kind`: comma-separated, or
    the two halves of a `pair` such as LO:HI.  A blank flag, a blank or
    malformed entry (one that `kind` rejects or parses to ""), or a pair of
    another length is a ValueError naming the flag."""
    if not text.strip():
        raise ValueError(f"{flag} is empty")
    try:
        values = [kind(t) for t in text.split(":" if pair else ",")]
    except ValueError:
        values = []
    if not values or "" in values or pair and len(values) != 2:
        raise ValueError(f"{flag} expects {pair or 'a comma-separated list'}, got {text!r}")
    return values


def _load(args) -> tuple[Dataset, Dataset | None, int]:
    """Training set, test set (or None) and the rows a --split leaves unused."""
    label = args.label_column
    if args.format != "csv" and label != LABEL_COLUMN:  # the Monk label is always first
        raise ValueError(f"--label-column only applies to --format csv, got {label!r}")
    try:
        label = int(label)
    except ValueError:
        pass
    options = {"label_column": label} if args.format == "csv" else {}
    if args.test:
        part = load_partition(args.train, args.test, args.format, **options)
        train, test, unused = part.train, part.test, 0
    elif args.split:
        n_train, n_test = _entries("--split", args.split, int, "TRAIN:TEST row counts")
        part = split_rows(FORMATS[args.format](args.train, **options), n_train, n_test)
        train, test, unused = part.train, part.test, part.unused_rows
    else:
        train, test, unused = FORMATS[args.format](args.train, **options), None, 0
    if args.rescale:  # the test set takes the training set's min and max
        test = minmax_rescale(test, reference=train) if test is not None else None
        train = minmax_rescale(train)
    return train, test, unused


def _model_lists(args) -> tuple[np.ndarray | None, list | None]:
    """The --weights and --features entries, parsed before any data is read,
    and the weights checked for values a DistanceSpec rejects; the checks
    against the data's features come after the load."""
    weights = indices = None
    if args.weights is not None:
        weights = np.array(_entries("--weights", args.weights, float))
        try:
            DistanceSpec(weights=weights)
        except ValueError as exc:
            raise ValueError(f"--weights {args.weights!r}: {exc}") from None
    if args.features is not None:
        indices = _entries("--features", args.features, int)
    return weights, indices


def _model_from_args(args, train: Dataset, weights, indices) -> ModelSpec:
    kind, alpha = DISTANCE_NAMES[args.distance]
    if args.alpha is not None:
        if args.distance != "minkowski":
            raise ValueError("--alpha only applies to --distance minkowski")
        alpha = args.alpha
    if not 1 <= args.k < train.n:  # leave-one-out votes over the other n - 1 rows
        raise ValueError(f"--k must be in 1..{train.n - 1} on {train.n} training rows")
    mask = None
    if indices is not None:
        if min(indices) < 1 or max(indices) > train.n_features:
            raise ValueError(f"--features indices must be in 1..{train.n_features}")
        if len(set(indices)) < len(indices):
            raise ValueError(f"--features repeats an index: {args.features}")
        mask = np.zeros(train.n_features, dtype=bool)
        mask[[i - 1 for i in indices]] = True
    active = train.n_features if mask is None else int(mask.sum())
    if weights is not None and len(weights) != active:
        raise ValueError(f"--weights expects one weight per active feature, got "
                         f"{args.weights!r}: {len(weights)} weights for {active} features")
    if weights is not None and mask is not None:
        # each weight belongs to the feature written at its place; the model
        # holds the weights of the active features in ascending order
        weights = weights[np.argsort(indices)]
    return ModelSpec(k=args.k, distance=DistanceSpec(kind, alpha, weights), feature_mask=mask)


def _with_config(args, unused: int, records: list[dict],
                 lines: list[str]) -> tuple[list[dict], list[str], int]:
    """A passing command's records behind its config record, its lines behind
    the config line (and the note on rows a --split leaves unused), exit 0."""
    config = {k: v for k, v in sorted(vars(args).items()) if k not in _NOT_ECHOED}
    note = [f"note: {unused} rows beyond the split are unused"] if unused else []
    return ([{"type": "config", **config}, *records],
            [*note, "config: " + json.dumps(config, sort_keys=True), *lines], 0)


def _model_line(model: ModelSpec, n_features: int) -> str:
    d = model.describe(n_features)
    return (f"k={d['k']} distance={d['distance']} features={d['features']} "
            f"weights={[round(w, 10) for w in d['weights']]}")


def cmd_eval(args) -> tuple[list[dict], list[str], int]:
    lists = _model_lists(args)
    train, test, unused = _load(args)
    model = _model_from_args(args, train, *lists)
    ctx = EvalContext(train, test)
    loo = ctx.loo_report(model)
    records = [{"type": "model", **model.describe(train.n_features)},
               {"type": "train", **loo.to_dict()}]
    lines = ["model: " + _model_line(model, train.n_features),
             f"train loo: {_fmt(loo.correct_count, loo.total)}",
             f"train confusion: {loo.confusion.tolist()}"]
    if test is not None:
        rep = ctx.test_report(model)
        records.append({"type": "test", **rep.to_dict()})
        lines += [f"test: {_fmt(rep.correct_count, rep.total)}",
                  f"test confusion: {rep.confusion.tolist()}"]
    return _with_config(args, unused, records, lines)


def _search_kwargs(args):
    lo, hi = _entries("--k-range", args.k_range, int, "LO:HI")
    channels = tuple(_entries("--channels", args.channels, str.strip))
    unknown = [name for name in channels if name not in CHANNELS]
    if unknown:
        raise ValueError(f"--channels names an unknown channel {unknown[0]!r}; "
                         f"the channels are {', '.join(CHANNELS)}")
    return dict(channels=channels, epsilon=args.epsilon, k_range=(lo, hi),
                weight_method=args.weight_method, step=args.step, budget=args.budget)


def cmd_search(args) -> tuple[list[dict], list[str], int]:
    kwargs = _search_kwargs(args)
    train, test, unused = _load(args)
    model, trace = meta_search(train, test=test, **kwargs)
    n = train.n_features

    def scores(r) -> str:
        return (f"train {_fmt(r.train_correct, r.train_total)}"
                + (f"  test {_fmt(r.test_correct, r.test_total)}" if test is not None else ""))

    lines = [f"reference: {_model_line(trace.initial.model, n)}", "  " + scores(trace.initial)]
    for level in trace.levels:
        lines.append(f"level {level.level}:")
        lines += [f"  {c.channel:<9} {scores(c)}  [{_model_line(c.model, n)}]"
                  for c in level.candidates]
        lines.append(f"  accepted: {level.accepted if level.accepted else 'none'}")
    lines += [f"stop: {trace.stop_reason}", "final model: " + _model_line(model, n),
              "final " + scores(trace.final)]
    records = trace.to_records() + [{"type": "final", "model": model.describe(n)}]
    return _with_config(args, unused, records, lines)


def cmd_sequence(args) -> tuple[list[dict], list[str], int]:
    kwargs = _search_kwargs(args)
    train, test, unused = _load(args)
    _, trace = meta_search(train, **kwargs)  # the test set scores only the sequence
    pool, truths = build_pool(train, trace)
    seq = select_model_sequence(pool, truths, epsilon=args.epsilon)
    records, lines = [], [f"pool size: {len(pool)}"]
    for i, member in enumerate(seq.members, 1):
        correct = int(np.sum(member.predictions == truths))
        records.append({"type": "member", "position": i, "train_correct": correct,
                        "train_total": len(truths),
                        "model": member.model.describe(train.n_features)})
        lines.append(f"member {i}: {_model_line(member.model, train.n_features)}"
                     f"  train {_fmt(correct, len(truths))}")
    summary = {"type": "sequence", "members": len(seq.members),
               "train_correct": seq.combined_correct, "train_total": seq.total}
    lines.append(f"combined train {_fmt(seq.combined_correct, seq.total)}")
    if test is not None:
        scored = evaluate_sequence(seq, train, test)
        summary["test_correct"], summary["test_total"] = scored
        lines.append(f"combined test {_fmt(*scored)}")
    return _with_config(args, unused, records + [summary], lines)


def cmd_reproduce(args) -> tuple[list[dict], list[str], int]:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = [run_suite(name, args.data_dir) for name in names]
    lines = []
    for result in results:
        lines.append(f"suite {result.suite}:")
        lines += [f"  [{'PASS' if row.passed else 'FAIL'}] {row.label}: "
                  f"expected {row.expected}; observed {row.observed}" for row in result.rows]
        lines.append(f"  result: {'PASS' if result.passed else 'FAIL'}")
    code = 0 if all(result.passed for result in results) else 3
    return [result.to_dict() for result in results], lines, code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handlers = {"eval": cmd_eval, "search": cmd_search,
                "sequence": cmd_sequence, "reproduce": cmd_reproduce}
    try:
        records, lines, code = handlers[args.command](args)
        if args.output:
            with open(args.output, "w") as f:
                f.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)
        print("\n".join(lines))
        return code
    except (DataError, OSError) as exc:
        print(f"metaknn: data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"metaknn: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
