"""The reproduction gates at their band edges, and the suite names.

Each check returns its part of a row's expected text together with its
verdict, formatted from the same reference values it compares.
"""

from types import SimpleNamespace

import pytest

from metaknn.reproduce import _accuracy, _count, load_suite, run_suite

from conftest import DATA_DIR


def scored(train_correct, train_total):
    return SimpleNamespace(train_correct=train_correct, train_total=train_total)


class TestCountBand:
    @pytest.mark.parametrize("correct, ok", [(93, False), (94, True), (95, True),
                                             (96, True), (97, False)])
    def test_edges(self, correct, ok):
        assert _count(scored(correct, 124), "train", 95, 1) == ("train 95/124 +-1", ok)

    @pytest.mark.parametrize("correct, ok", [(119, False), (120, True), (121, False)])
    def test_zero_tolerance_is_exact(self, correct, ok):
        assert _count(scored(correct, 124), "train", 120) == ("train 120/124", ok)


class TestAccuracyBand:
    @pytest.mark.parametrize("correct, ok", [(181, False), (182, True), (185, True),
                                             (188, True), (189, False)])
    def test_edges(self, correct, ok):
        # 182/200 is 91.0%, 1.5 points below 92.5
        assert _accuracy(scored(correct, 200), "train", 92.5, 1.5) == ("train 92.5% +-1.5pp", ok)

    def test_slack_absorbs_rounding(self):
        # 97.0 - 97.2 rounds to 0.20000000000000284; the 1e-9 slack keeps that edge in
        assert _accuracy(scored(97, 100), "train", 97.2, 0.2) == ("train 97.2% +-0.2pp", True)


@pytest.mark.parametrize("entry", [load_suite, run_suite])
def test_unknown_suite_lists_the_suites(entry):
    with pytest.raises(ValueError, match="unknown suite 'monks4'; "
                                         "choose from monks1, monks2, monks3, ionosphere"):
        entry("monks4", DATA_DIR)
