import json

import numpy as np
import pytest

from metaknn import EvalContext
from metaknn.cli import main

from conftest import DATA_DIR

MONKS = ["--format", "monks", "--train", str(DATA_DIR / "monks-1.train"),
         "--test", str(DATA_DIR / "monks-1.test")]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_monk1_k1(self, capsys):
        code, out, _ = run(capsys, ["eval", *MONKS, "--k", "1"])
        assert code == 0
        assert "train loo: 95/124 (76.6%)" in out
        assert "test: 371/432 (85.9%)" in out
        assert out.startswith("config: ")

    def test_monk1_k3(self, capsys):
        code, out, _ = run(capsys, ["eval", *MONKS, "--k", "3"])
        assert code == 0
        assert "102/124 (82.3%)" in out
        assert "348/432 (80.6%)" in out

    def test_two_vector_zero_accuracy(self, capsys, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("0.0,A\n1.0,B\n")
        code, out, _ = run(capsys, ["eval", "--train", str(data)])
        assert code == 0
        assert "train loo: 0/2 (0.0%)" in out

    def test_model_overrides(self, capsys):
        code, out, _ = run(capsys, [
            "eval", *MONKS, "--distance", "manhattan",
            "--features", "1,2,5", "--weights", "1,1,0.5"])
        assert code == 0
        assert "minkowski(alpha=1)" in out
        assert "features=[1, 2, 5]" in out

    def test_rerun_is_byte_identical(self, capsys):
        _, out_a, _ = run(capsys, ["eval", *MONKS, "--k", "3"])
        _, out_b, _ = run(capsys, ["eval", *MONKS, "--k", "3"])
        assert out_a == out_b

    def test_output_records(self, capsys, tmp_path):
        out_path = tmp_path / "report.ndjson"
        code, _, _ = run(capsys, ["eval", *MONKS, "--output", str(out_path)])
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        kinds = [r["type"] for r in records]
        assert kinds == ["config", "model", "train", "test"]
        assert records[2]["correct"] == 95
        assert records[0]["k"] == 1  # resolved defaults echoed

    def test_weights_follow_their_features_as_written(self, capsys):
        _, reversed_out, _ = run(capsys, ["eval", *MONKS, "--features", "5,1",
                                          "--weights", "0.1,1"])
        code, out, _ = run(capsys, ["eval", *MONKS, "--features", "1,5", "--weights", "1,0.1"])
        assert code == 0
        assert "features=[1, 5] weights=[1.0, 0.1]" in reversed_out
        # the two spellings differ only in the echoed arguments
        assert reversed_out.splitlines()[1:] == out.splitlines()[1:]

    def test_repeated_feature_is_1(self, capsys):
        code, out, err = run(capsys, ["eval", *MONKS, "--features", "1,1,3"])
        assert code == 1 and out == ""
        assert "--features repeats an index: 1,1,3" in err

    def test_k_beyond_the_training_rows_prints_nothing(self, capsys):
        code, out, err = run(capsys, ["eval", *MONKS, "--k", "200"])
        assert code == 1 and out == ""
        assert "--k must be in 1..123 on 124 training rows" in err

    def test_weights_length_error(self, capsys):
        code, out, err = run(capsys, ["eval", *MONKS, "--weights", "1,2"])
        assert code == 1 and out == ""
        assert "2 weights for 6 features" in err

    @pytest.mark.parametrize("option", [["--weights", "1,2"],
                                        ["--features", "2,4", "--weights", "1,2,3"]],
                             ids=["all-features", "active-features"])
    def test_weights_count_names_the_flag(self, capsys, option):
        # like every other list flag's error, a count that does not fit the
        # active features names --weights and its value
        code, out, err = run(capsys, ["eval", *MONKS, *option])
        assert code == 1 and out == ""
        assert "--weights expects one weight per active feature" in err
        assert repr(option[-1]) in err

    def test_alpha_with_non_minkowski(self, capsys):
        code, _, err = run(capsys, ["eval", *MONKS, "--distance", "camberra",
                                    "--alpha", "1"])
        assert code == 1
        assert "alpha" in err

    @pytest.mark.parametrize("distance, alpha", [("euclidean", "1"), ("euclidean", "2"),
                                                 ("manhattan", "1"), ("manhattan", "2")])
    def test_alpha_with_named_minkowski_is_1(self, capsys, distance, alpha):
        # a named distance fixes its exponent; --alpha must not override it
        code, out, err = run(capsys, ["eval", *MONKS, "--distance", distance,
                                      "--alpha", alpha])
        assert code == 1
        assert "--alpha only applies to --distance minkowski" in err and out == ""

    @pytest.mark.parametrize("alpha, shown", [([], "2"), (["--alpha", "1"], "1"),
                                              (["--alpha", "2"], "2")])
    def test_minkowski_takes_alpha(self, capsys, alpha, shown):
        code, out, _ = run(capsys, ["eval", *MONKS, "--distance", "minkowski", *alpha])
        assert code == 0
        assert f"distance=minkowski(alpha={shown})" in out


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, _ = run(capsys, ["eval", "--no-such-flag"])
        assert code == 1

    def test_missing_command_is_1(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 1

    def test_missing_file_is_2(self, capsys):
        code, _, err = run(capsys, ["eval", "--train", "/nonexistent/x.csv"])
        assert code == 2
        assert "data error" in err

    def test_reproduce_missing_dir_is_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["reproduce", "monks1",
                                    "--data-dir", str(tmp_path)])
        assert code == 2
        assert "UCI" in err

    @pytest.mark.parametrize("content", [b"A\nB\n", b"1.0,A\n\xff,B\n"],
                             ids=["label-only", "non-utf8"])
    def test_bad_input_file_is_2(self, capsys, tmp_path, content):
        data = tmp_path / "t.csv"
        data.write_bytes(content)
        code, out, err = run(capsys, ["eval", "--train", str(data)])
        assert code == 2
        assert "data error" in err and out == ""

    def test_bad_split_is_1(self, capsys, tmp_path):
        data = tmp_path / "t.csv"
        data.write_text("0.0,A\n1.0,B\n")
        code, _, _ = run(capsys, ["eval", "--train", str(data), "--split", "nope"])
        assert code == 1


    @pytest.mark.parametrize("command", ["eval", "search", "sequence"])
    def test_split_with_test_is_1(self, capsys, command):
        # --split carves its partition out of --train; with --test it would be ignored
        code, out, err = run(capsys, [command, *MONKS, "--split", "10:5"])
        assert code == 1
        assert "not allowed with argument --test" in err and out == ""

    @pytest.mark.parametrize("command, option", [("eval", ["--k", "500"]),
                                                 ("search", ["--k-range", "0:3"]),
                                                 ("sequence", ["--step", "0.3"])])
    def test_split_note_waits_for_the_checks(self, capsys, command, option):
        # the note on rows a --split leaves unused once reached stdout before
        # the command's checks failed
        code, out, _ = run(capsys, [command, "--train", str(DATA_DIR / "ionosphere.data"),
                                    "--split", "200:150", *option])
        assert code == 1 and out == ""

    @pytest.mark.parametrize("command, option", [("eval", MONKS),
                                                 ("search", [*MONKS, "--channels", "k"]),
                                                 ("sequence", [*MONKS, "--channels", "k"]),
                                                 ("reproduce", ["monks1", "--data-dir",
                                                                str(DATA_DIR)])])
    def test_unwritable_output_prints_nothing(self, capsys, tmp_path, command, option):
        # the results once reached stdout before the --output file failed to open
        out_path = tmp_path / "missing" / "out.jsonl"
        code, out, err = run(capsys, [command, *option, "--output", str(out_path)])
        assert code == 2 and out == ""
        assert "data error" in err

    def test_reproduce_missing_later_suite_prints_nothing(self, capsys, tmp_path):
        # monks1 runs and passes; monks2's files are missing, so no suite is printed
        for name in ("monks-1.train", "monks-1.test"):
            (tmp_path / name).write_text((DATA_DIR / name).read_text())
        code, out, err = run(capsys, ["reproduce", "all", "--data-dir", str(tmp_path)])
        assert code == 2 and out == ""
        assert "monks-2.train, monks-2.test" in err

    @pytest.mark.parametrize("option", [["--features", "1,2", "--weights", ""],
                                        ["--features", "", "--weights", "1,0.5"],
                                        ["--weights", " "]],
                             ids=["empty-weights", "empty-features", "blank-weights"])
    def test_empty_list_is_1(self, capsys, option):
        # an empty list must not fall back to unit weights or to all features
        code, out, err = run(capsys, ["eval", *MONKS, *option])
        assert code == 1 and out == ""
        assert "is empty" in err

    @pytest.mark.parametrize("command, flag, value", [("eval", "--features", "1,,2"),
                                                      ("eval", "--weights", "1,x,1,1,1,1"),
                                                      ("search", "--k-range", "1:x"),
                                                      ("eval", "--split", "200:150:1")])
    def test_malformed_list_is_1(self, capsys, command, flag, value):
        # the message names the flag and its value, not int()'s or float()'s own
        data = ["--train", str(DATA_DIR / "ionosphere.data")] if flag == "--split" else MONKS
        code, out, err = run(capsys, [command, *data, flag, value])
        assert code == 1 and out == ""
        assert f"{flag} expects" in err and repr(value) in err

    @pytest.mark.parametrize("value", ["-1,1,1,1,1,1", "nan,1,1,1,1,1", "1,inf,1,1,1,1"])
    def test_rejected_weights_name_the_flag(self, capsys, value):
        # a weight the distance rejects is a usage error like any other list flag's
        code, out, err = run(capsys, ["eval", *MONKS, f"--weights={value}"])
        assert code == 1 and out == ""
        assert "--weights" in err and repr(value) in err

    @pytest.mark.parametrize("command, flag, value", [
        ("search", "--channels", "bogus"), ("sequence", "--channels", "bogus"),
        ("search", "--k-range", "1:x"), ("sequence", "--k-range", "1:x"),
        ("eval", "--weights", "1,x"), ("eval", "--weights", "-1,1"),
        ("eval", "--features", "1,,2")])
    def test_flags_are_checked_before_the_data_is_read(self, capsys, tmp_path, command, flag,
                                                       value):
        # a usage error is reported as such, not as the data error of an unreadable file
        missing = tmp_path / "missing.csv"
        code, out, err = run(capsys, [command, "--train", str(missing), f"{flag}={value}"])
        assert code == 1 and out == ""
        assert flag in err and "data error" not in err

    @pytest.mark.parametrize("command", ["eval", "search", "sequence"])
    def test_label_column_with_monks_is_1(self, capsys, command):
        # a Monk file's label is always its first token; the flag would be
        # ignored and then echoed as if it had been applied
        code, out, err = run(capsys, [command, "--format", "monks", "--train",
                                      str(DATA_DIR / "monks-1.train"), "--label-column", "3"])
        assert code == 1 and out == ""
        assert "--label-column" in err

    def test_negative_split_is_2(self, capsys):
        code, out, err = run(capsys, ["eval", "--train", str(DATA_DIR / "ionosphere.data"),
                                      "--split=-10:5"])
        assert code == 2
        assert "negative" in err and "unused" not in out

    @pytest.mark.parametrize("step", ["0", "nan"])
    def test_bad_step_is_1(self, capsys, step):
        code, out, err = run(capsys, ["search", *MONKS, "--step", step])
        assert code == 1
        assert "must divide 1 evenly" in err and "Traceback" not in err and out == ""

    def test_too_fine_step_is_1(self, capsys):
        code, out, err = run(capsys, ["search", *MONKS, "--step", "1e-6"])
        assert code == 1
        assert "more than 1000 grid intervals" in err and "Traceback" not in err and out == ""

    def test_nan_epsilon_is_1(self, capsys):
        code, out, err = run(capsys, ["sequence", *MONKS, "--epsilon", "nan"])
        assert code == 1
        assert "epsilon must be finite" in err and out == ""

    def test_zero_budget_is_1(self, capsys):
        code, out, err = run(capsys, ["search", *MONKS, "--weight-method", "simplex",
                                      "--budget", "0"])
        assert code == 1
        assert "budget must be a positive integer" in err and "Traceback" not in err
        assert out == ""

    def test_test_file_wider_than_training_is_2(self, capsys, tmp_path):
        train, test = tmp_path / "t.csv", tmp_path / "wide.csv"
        train.write_text("0.0,A\n1.0,B\n")
        test.write_text("0.0,5.0,A\n1.0,5.0,B\n")
        code, out, err = run(capsys, ["eval", "--train", str(train), "--test", str(test)])
        assert code == 2
        assert "2 feature columns, expected 1" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan", "camberra"])
    def test_overflowing_column_is_2(self, capsys, tmp_path, distance):
        # finite values whose distance terms overflow once made every distance +inf
        data = tmp_path / "t.csv"
        data.write_text("small,big,class\n0.5,1e308,A\n1.5,-1e308,B\n1.0,0,A\n2.0,3,B\n")
        code, out, err = run(capsys, ["eval", "--train", str(data), "--distance", distance])
        assert code == 2
        assert "column 'big'" in err and "Traceback" not in err
        assert "train loo" not in out

    @pytest.mark.parametrize("command", ["eval", "sequence"])
    def test_overflowing_test_value_prints_nothing(self, capsys, tmp_path, command):
        # the training terms are fine; a test value overflows only the test
        # scoring, which once ran after the first lines were printed
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("a,b,class\n0,1,x\n1,0,y\n0.5,0.5,x\n2,2,y\n")
        test.write_text("a,b,class\n1e300,1,x\n1,0,y\n")
        code, out, err = run(capsys, [command, "--train", str(train), "--test", str(test)])
        assert "column 'a'" in err and "Traceback" not in err
        assert code == 2 and out == ""

    def test_tiny_weight_keeps_its_column(self, capsys, tmp_path):
        # column y only breaks column x's ties; a weight of 1e-10 once
        # matched 0/1 and dropped the column
        data = tmp_path / "t.csv"
        data.write_text("x,y,class\n0,0,A\n0,1,A\n0,9,B\n10,0,B\n10,1,B\n10,9,A\n")
        for weights, loo in (("1,0", "0/6"), ("1,1e-10", "4/6"), ("1e-10,1e-20", "4/6")):
            code, out, _ = run(capsys, ["eval", "--train", str(data), "--distance", "manhattan",
                                        "--weights", weights])
            assert code == 0
            assert f"train loo: {loo} " in out

    @pytest.mark.filterwarnings("error")
    def test_huge_off_grid_weights_stay_finite(self, capsys):
        # off-grid weights once multiplied terms scaled up to 2**36, so
        # finite weights near 1e300 overflowed to +inf distances
        code, out, _ = run(capsys, [
            "eval", "--train", str(DATA_DIR / "ionosphere.data"), "--split", "200:150",
            "--distance", "manhattan", "--features", "1,3,5", "--weights", "1e300,1e300,0.2"])
        assert code == 0
        assert "train loo: 152/200 (76.0%)" in out
        assert "test: 126/150 (84.0%)" in out


class TestRescale:
    def test_test_set_takes_training_bounds(self, capsys, tmp_path):
        # own bounds would map the test rows onto 0 and 1 (one right);
        # the training bounds put both at 0.6 and 0.9, next to the B row
        train, test = tmp_path / "a.csv", tmp_path / "b.csv"
        train.write_text("0,A\n10,B\n")
        test.write_text("6,B\n9,B\n")
        code, out, _ = run(capsys, ["eval", "--train", str(train), "--test", str(test),
                                    "--rescale"])
        assert code == 0
        assert "test: 2/2 (100.0%)" in out


class TestSearch:
    def test_tiny_perfect_set_accepts_nothing(self, capsys, tmp_path):
        data = tmp_path / "t.csv"
        data.write_text("0.0,A\n0.2,A\n5.0,B\n5.2,B\n")
        code, out, _ = run(capsys, ["search", "--train", str(data)])
        assert code == 0
        assert "stop: no-improvement" in out
        assert "accepted: none" in out

    def test_monk1_search_output(self, capsys, tmp_path):
        out_path = tmp_path / "trace.ndjson"
        code, out, _ = run(capsys, ["search", *MONKS, "--output", str(out_path)])
        assert code == 0
        assert "final train 124/124 (100.0%)  test 432/432 (100.0%)" in out
        assert "camberra" in out
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert records[0]["type"] == "config"
        assert any(r["type"] == "decision" for r in records)
        assert records[-1]["type"] == "final"

    def test_search_rerun_byte_identical(self, capsys, tmp_path):
        data = tmp_path / "t.csv"
        rng = np.random.default_rng(3)
        rows = "".join(f"{x:.3f},{y:.3f},{'A' if x > 0 else 'B'}\n"
                       for x, y in rng.normal(size=(25, 2)))
        data.write_text(rows)
        _, out_a, _ = run(capsys, ["search", "--train", str(data)])
        _, out_b, _ = run(capsys, ["search", "--train", str(data)])
        assert out_a == out_b

    def test_channel_selection(self, capsys):
        code, out, _ = run(capsys, ["search", *MONKS, "--channels", "k"])
        assert code == 0
        assert "distance " not in out.split("level 1:")[1].split("accepted")[0]

    @pytest.mark.parametrize("command", ["search", "sequence"])
    @pytest.mark.parametrize("value", ["", " ", ",", "k,,distance", "k,,bogus", "bogus", "k,"])
    def test_bad_channels_is_1(self, capsys, command, value):
        # a blank entry is not skipped, and an unknown name is a usage error
        # that names the flag: neither runs a search short of a channel
        code, out, err = run(capsys, [command, *MONKS, "--channels", value])
        assert code == 1 and out == ""
        assert "--channels" in err

    @pytest.mark.parametrize("command", ["search", "sequence"])
    @pytest.mark.parametrize("value, name", [("bogus", "bogus"), ("k,Weights", "Weights")])
    def test_unknown_channel_lists_the_channels(self, capsys, command, value, name):
        # an unknown name is not a malformed list: the message names it and the channels
        code, out, err = run(capsys, [command, *MONKS, "--channels", value])
        assert code == 1 and out == ""
        assert "--channels" in err and repr(name) in err
        assert "k, distance, features, weights" in err

    def test_channel_names_are_stripped(self, capsys):
        _, plain, _ = run(capsys, ["search", *MONKS, "--channels", "k,distance"])
        code, spaced, _ = run(capsys, ["search", *MONKS, "--channels", " k , distance "])
        assert code == 0
        # the config line echoes --channels as written
        assert spaced.split("\n")[1:] == plain.split("\n")[1:]


class TestSequence:
    def test_monk1_sequence(self, capsys, tmp_path):
        out_path = tmp_path / "seq.ndjson"
        code, out, _ = run(capsys, ["sequence", *MONKS, "--channels", "k,distance",
                                    "--output", str(out_path)])
        assert code == 0
        assert "combined train" in out
        assert "combined test" in out
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert records[-1]["type"] == "sequence"
        assert records[-1]["train_total"] == 124

    def test_test_set_scores_only_the_sequence(self, capsys, monkeypatch):
        sides = []
        original = EvalContext._score
        monkeypatch.setattr(EvalContext, "_score", lambda self, model, side, report: (
            sides.append(side) or original(self, model, side, report)))
        code, out, _ = run(capsys, ["sequence", *MONKS])
        assert code == 0
        members = out.count("\nmember ")
        assert members == 1 and sides.count("test") == members


class TestReproduce:
    def test_monks2_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["reproduce", "monks2", "--data-dir", str(DATA_DIR)])
        assert code == 0
        assert "[PASS] distance channel" in out
        assert "result: PASS" in out

    def test_failed_tolerance_is_3(self, capsys, tmp_path, monkeypatch):
        # corrupt the training labels so the published numbers cannot match
        train = (DATA_DIR / "monks-2.train").read_text().splitlines()
        flipped = ["0" + line[1:] if line.startswith("1") else "1" + line[1:]
                   for line in train[:60]] + train[60:]
        (tmp_path / "monks-2.train").write_text("\n".join(flipped) + "\n")
        (tmp_path / "monks-2.test").write_text((DATA_DIR / "monks-2.test").read_text())
        code, out, _ = run(capsys, ["reproduce", "monks2", "--data-dir", str(tmp_path)])
        assert code == 3
        assert "FAIL" in out
