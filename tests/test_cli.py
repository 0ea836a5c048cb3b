import json

import numpy as np
import pytest

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

    def test_weights_length_error(self, capsys):
        code, _, err = run(capsys, ["eval", *MONKS, "--weights", "1,2"])
        assert code == 1

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
