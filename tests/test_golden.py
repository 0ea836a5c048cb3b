"""Golden-output guard: fixed CLI commands must keep byte-identical output.

Each command's stdout and --output JSONL are stored under tests/golden/.
The config line echoes --train verbatim, so commands run from the repository
root with relative data paths.  Each reproduction suite's SuiteResult is
stored there too, as reproduce_<suite>.json, and the stdout of
`metaknn reproduce all --data-dir data` as reproduce_all.stdout, which
test_golden_reproduce_all checks in process and the CI workflow diffs against
the installed entry point's output.  After an
intended output change, regenerate all of these files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from metaknn import cli
from metaknn.cli import main
from metaknn.reproduce import SUITE_NAMES, run_suite

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

MONK1 = ["--format", "monks", "--train", "data/monks-1.train", "--test", "data/monks-1.test"]
MONK3 = ["--format", "monks", "--train", "data/monks-3.train", "--test", "data/monks-3.test"]
IONO = ["--train", "data/ionosphere.data", "--split", "200:150"]

COMMANDS = {
    "eval_monk1": ["eval", *MONK1, "--k", "3", "--distance", "euclidean"],
    "eval_ionosphere": ["eval", *IONO, "--distance", "manhattan", "--features", "1,3,5",
                        "--weights", "1,0.5,0.2"],
    "search_monk1": ["search", *MONK1],
    "sequence_monk1": ["sequence", *MONK1],
    "search_monk3_simplex": ["search", *MONK3, "--weight-method", "simplex"],
    "search_monk1_budget": ["search", *MONK1, "--channels", "weights,k",
                            "--weight-method", "simplex", "--budget", "20"],
    "search_ionosphere_rescale": ["search", *IONO, "--channels", "k,distance", "--rescale"],
    "search_ionosphere_features": ["search", *IONO, "--channels", "features,k"],
}


def run(name: str, output: Path) -> tuple[int, str, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(COMMANDS[name] + ["--output", str(output)])
    return code, stdout.getvalue(), output.read_text()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, stdout, jsonl = run(name, tmp_path / "out.jsonl")
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.stdout").read_text()
    assert jsonl == (GOLDEN / f"{name}.jsonl").read_text()


def suite_json(result) -> str:
    return json.dumps(result.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_golden_reproduce(suite, request):
    # the session fixtures share each suite run with the acceptance gates
    result = request.getfixturevalue(f"suite_{suite}")
    assert suite_json(result) == (GOLDEN / f"reproduce_{suite}.json").read_text()


def test_golden_reproduce_all(request, tmp_path, monkeypatch):
    # the session fixtures stand in for the suites, so none runs twice
    monkeypatch.setattr(cli, "run_suite", lambda name, _: request.getfixturevalue(f"suite_{name}"))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["reproduce", "all", "--data-dir", "data", "--output", str(tmp_path / "out")])
    assert code == 0
    assert stdout.getvalue() == (GOLDEN / "reproduce_all.stdout").read_text()
    records = [json.loads(line) for line in (tmp_path / "out").read_text().splitlines()]
    assert records == [json.loads((GOLDEN / f"reproduce_{suite}.json").read_text())
                       for suite in SUITE_NAMES]


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(COMMANDS):
        code, stdout, jsonl = run(name, GOLDEN / f"{name}.jsonl")
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.stdout").write_text(stdout)
        print(f"wrote {name}")
    for suite in SUITE_NAMES:
        (GOLDEN / f"reproduce_{suite}.json").write_text(suite_json(run_suite(suite, "data")))
        print(f"wrote reproduce_{suite}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["reproduce", "all", "--data-dir", "data"])
    if code != 0:
        sys.exit(f"reproduce all: exit code {code}")
    (GOLDEN / "reproduce_all.stdout").write_text(stdout.getvalue())
    print("wrote reproduce_all")
