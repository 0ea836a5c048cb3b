"""The work pin: each reproduction suite's context counters, summed over the
contexts the suite builds.  A change that refuses or reroutes one-column
batches, scores a model twice or requests another number of counts moves a
figure here; a change that means to move one states the move."""

import pytest

from metaknn import EvalContext, metasearch, reproduce

from conftest import DATA_DIR

COUNTERS = ("filled_by_pairs", "filled_by_stack", "filled_by_base", "batches_refused",
            "evaluations", "requested")


@pytest.mark.parametrize("suite, work", [
    pytest.param(suite, work, id=suite) for suite, work in (
        ("monks1", (0, 591, 6, 67, 632, 1315)),
        ("monks2", (295, 568, 0, 94, 897, 1854)),
        ("monks3", (0, 259, 0, 13, 285, 418)),
        ("ionosphere", (8733, 15, 324, 257, 9109, 11696)))
])
def test_each_suite_does_its_pinned_work(suite, work, monkeypatch):
    contexts = []

    class Recording(EvalContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(metasearch, "EvalContext", Recording)
    monkeypatch.setattr(reproduce, "EvalContext", Recording)
    reproduce.run_suite(suite, DATA_DIR)
    summed = {name: sum(getattr(ctx, name) for ctx in contexts) for name in COUNTERS}
    assert summed == dict(zip(COUNTERS, work))
