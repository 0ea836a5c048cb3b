"""Self-test of the benchmark's correctness checks and metric names.

    python3 perfbench/selftest.py

Exits 0 when every check below holds:
- clean outputs pass the oracle checks;
- a planted wrong LOO count (search) and planted wrong predictions
  (wide-eval) are reported as failed operations;
- an operation whose output changes between passes is a failed operation;
- the traced run reports exactly the per-layer metrics BENCHMARK.json names,
  with their units, and layer self times add up to the traced wall time;
- the end-to-end metrics and units match BENCHMARK.json.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import tempfile
from pathlib import Path

import run  # sets the thread limits before numpy loads

sys.path.insert(0, str(run.SRC))

from workloads import MonksSearch, WideEval  # noqa: E402


class Monk3Only(MonksSearch):
    def inputs(self, seed, data_dir, work):
        return super().inputs(seed, data_dir, work)[2:]


def expect(ok: bool, what: str, failures: list[str]):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as work:
        work = Path(work)

        # search: planted wrong LOO count on an accepted model
        monks = Monk3Only()
        loaded = monks.load(monks.inputs(0, run.DATA, work))
        ops = monks.ops(loaded)
        good = run.run_pass(ops)
        attempted, failed, _ = run.tally(monks, loaded, ops, [good, good])
        expect((attempted, failed) == (2, 0), "clean search passes the oracle check", failures)
        planted = copy.deepcopy(good)
        record = planted.outputs[0][1].accepted_records()[0]
        record.train_correct += 1
        _, failed, messages = run.tally(monks, loaded, ops, [planted])
        expect(failed == 1 and "oracle counts" in messages[0],
               "planted wrong LOO count is a failed operation", failures)
        _, failed, messages = run.tally(monks, loaded, ops, [good, planted])
        expect(failed == 1 and "differs between passes" in messages[-1],
               "output that changes between passes is a failed operation", failures)

        # wide-eval: planted wrong predictions, counts kept consistent with them
        wide = WideEval()
        wide_loaded = wide.load(wide.inputs(0, run.DATA, work))[:1]
        wide_ops = wide.ops(wide_loaded)
        good = run.run_pass(wide_ops)
        _, failed, _ = run.tally(wide, wide_loaded, wide_ops, [good])
        expect(failed == 0, "clean eval passes the oracle check", failures)
        code, stdout, jsonl = good.outputs[0]
        records = [json.loads(line) for line in jsonl.splitlines()]
        truths = wide_loaded[0][1].train.labels
        for rec in records:
            if rec["type"] == "train":
                rec["predicted"] = [(p + 1) % wide.N_CLASSES for p in rec["predicted"]]
                rec["correct"] = sum(int(p == t) for p, t in zip(rec["predicted"], truths))
        good.outputs[0] = (code, stdout, "\n".join(json.dumps(r) for r in records) + "\n")
        _, failed, messages = run.tally(wide, wide_loaded, wide_ops, [good])
        expect(failed == 1 and "oracle" in messages[0],
               "planted wrong predictions are a failed operation", failures)

        # metric names and units against BENCHMARK.json
        values, _, _, _, _ = run.traced(monks, monks.inputs(0, run.DATA, work), 0)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        produced = {name: run.per_layer_unit(name) for name in values}
        expect(produced == declared, "traced run reports the per-layer metrics declared", failures)
        expect(math.isclose(values["trace.self_sum_s"], values["trace.wall_s"], rel_tol=1e-9),
               "layer self times add up to the traced wall time", failures)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        expect(declared == run.END_TO_END_UNITS, "end-to-end metrics match the declaration",
               failures)

    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
