"""metaknn benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a metaknn source tree; the package is imported from
its src/ directory.  One process, one caller, one operation at a time (a
closed loop).  Passes of the workload's operations repeat until --seconds
have been measured, and at least twice.  Outputs are checked after the
timed passes.  The last line of stdout is the JSON result; the lines before
it give the environment and each metric with its unit and sample count.

--trace 0 reports the end-to-end metrics, with every time scaled to the
reference host speed by the probe of hostspeed.py.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of tracing.py, plus
the tracing overhead; the spans are written to .perfbench-out/.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported: never more threads than usable cores
_CORES = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not _cur.isdigit() or not 1 <= int(_cur) <= _CORES:
        os.environ[_var] = str(_CORES)

import argparse
import importlib
import json
import platform
import resource
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

from hostspeed import REFERENCE_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = ROOT / ".perfbench-out"
SETUPS_PER_PASS = 2

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".loo_evals", ".levels")):
        return "count"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("term_bytes"):
        return "bytes"
    if name.endswith("ms_per_loo"):
        return "ms"
    return "ratio"


@dataclass
class Pass:
    op_times: list[float] = field(default_factory=list)  # wall seconds per operation
    op_cpu: list[float] = field(default_factory=list)  # process CPU seconds per operation
    outputs: list = field(default_factory=list)  # raw output, or the exception raised
    op_raw: list[float] = field(default_factory=list)  # wall seconds before host-speed scaling

    @property
    def wall(self) -> float:
        return sum(self.op_times)

    @property
    def cpu(self) -> float:
        return sum(self.op_cpu)


def run_pass(ops, tracer=None, speed=None) -> Pass:
    """One pass over the operations.

    With a tracer, every layer boundary records a span.  With a HostSpeed,
    each operation's times are scaled to the reference host speed.
    """
    result = Pass()
    if tracer is None:
        for op in ops:
            _timed_op(op, result, speed)
        return result
    from tracing import Instrumented

    with Instrumented(tracer), tracer.span("bench.pass"):
        for op in ops:
            tracer.begin_op(op.slot)
            with tracer.span("bench.op"):
                _timed_op(op, result)
    return result


def _timed_op(op, result: Pass, speed=None):
    def call():
        try:
            return op.run()
        except Exception as exc:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            return exc

    if speed is None:
        t0, c0 = perf_counter(), process_time()
        out = call()
        wall = raw = perf_counter() - t0
        cpu = process_time() - c0
    else:
        out, wall, cpu, raw = speed.measure(call)
    result.op_raw.append(raw)
    result.op_times.append(wall)
    result.op_cpu.append(cpu)
    result.outputs.append(out)


def tally(workload, loaded, ops, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages).

    Each operation's first good output is checked against the oracle once;
    every execution fails if it raised, if that check failed, or if its
    output differs from the first one (every pass must emit the same records).
    """
    attempted = failed = 0
    messages: list[str] = []
    verdicts: dict[int, tuple[str, list[str]]] = {}
    for p in passes:
        for op, out in zip(ops, p.outputs):
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                messages.append(f"{op.label}: raised {out!r}")
                continue
            if op.slot not in verdicts:
                verdicts[op.slot] = (workload.canonical(loaded, op.slot, out),
                                     workload.check(loaded, op.slot, out))
                messages.extend(verdicts[op.slot][1])
            canonical, errors = verdicts[op.slot]
            if errors:
                failed += 1
            elif workload.canonical(loaded, op.slot, out) != canonical:
                failed += 1
                messages.append(f"{op.label}: output differs between passes")
    return attempted, failed, messages


def setup_once(workload, inputs) -> None:
    """One set-up: import metaknn afresh, then load the inputs.

    numpy stays imported; metaknn's modules are dropped and re-executed, and
    the originals put back afterwards.
    """
    loaded = {name: mod for name, mod in sys.modules.items()
              if name == "metaknn" or name.startswith("metaknn.")}
    for name in loaded:
        del sys.modules[name]
    try:
        workload.load(inputs, importlib.import_module("metaknn"))
    finally:
        sys.modules.update(loaded)


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": _CORES, "cpu": cpu,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def measure(workload, inputs, ops, seconds: float):
    """Passes until `seconds` have gone by (at least two), with set-ups before each.

    Returns (passes, scaled set-up times, raw set-up times, HostSpeed).  The
    host's speed shifts within seconds; set-ups spread over the whole run
    sample the same shifts as the passes, where a block of them would not.
    """
    passes: list[Pass] = []
    setups: list[float] = []
    raw_setups: list[float] = []
    speed = HostSpeed()
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < seconds:
        for _ in range(SETUPS_PER_PASS):
            _, scaled, _, raw = speed.measure(lambda: setup_once(workload, inputs))
            setups.append(scaled)
            raw_setups.append(raw)
        passes.append(run_pass(ops, speed=speed))
    return passes, setups, raw_setups, speed


def end_to_end(passes: list[Pass], setups: list[float], raw_setups: list[float],
               speed: HostSpeed) -> tuple[dict, list[str]]:
    op_times = sorted(t for p in passes for t in p.op_times)
    n = len(op_times)
    values = {
        "wall_s": median(p.wall for p in passes),
        "op_p50_s": median(op_times),
        "cpu_s": median(p.cpu for p in passes),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"wall_s, cpu_s: medians over {len(passes)} passes "
             f"(wall min {min(p.wall for p in passes):.6g} s, max {max(p.wall for p in passes):.6g} s)",
             f"op_p50_s: median of {n} operations",
             f"setup_s: median of {len(setups)} set-ups (metaknn import + input load), "
             f"{SETUPS_PER_PASS} before each pass",
             f"host speed: {len(speed.probes)} probes, median "
             f"{median(w for w, _ in speed.probes):.6g} s (reference {REFERENCE_S} s); "
             f"unscaled medians: wall_s {median(sum(p.op_raw) for p in passes):.6g} s, "
             f"setup_s {median(raw_setups):.6g} s"]
    # highest percentile with at least ten samples beyond it, when it lies above the median
    pct = int(100 * (n - 10) / n) if n > 10 else 0
    if pct > 50:
        notes.append(f"op_tail_s: p{pct} = {op_times[int(n * pct / 100)]:.6g} s "
                     f"over {n} operations")
    else:
        notes.append(f"op_tail_s: not reported, {n} operations are too few")
    return values, notes


def traced(workload, inputs, seconds: float):
    """Alternate untraced and traced passes; per-layer metrics are medians over traced passes."""
    from tracing import Instrumented, Tracer, load_seconds, pass_metrics

    setup = Tracer()
    with Instrumented(setup), setup.span("bench.setup"):
        loaded = workload.load(inputs)
    ops = workload.ops(loaded)
    plain, tracers, traced_passes = [], [], []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        plain.append(run_pass(ops))
        tracers.append(Tracer())
        traced_passes.append(run_pass(ops, tracers[-1]))
    per_pass = [pass_metrics(t) for t in tracers]
    values = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
    values["dataset.load_s"] = load_seconds(setup)
    values["trace.untraced_wall_s"] = median(p.wall for p in plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values, loaded, ops, plain + traced_passes, [setup] + tracers


def write_spans(path: Path, tracers) -> None:
    import numpy as np

    arrays = {"names": np.array(tracers[-1].names)}
    for i, t in enumerate(tracers):  # 0 = traced set-up, then one per traced pass
        for key, value in t.arrays().items():
            arrays[f"{i}.{key}"] = value
    path.parent.mkdir(exist_ok=True)
    np.savez(path, **arrays)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "metaknn" / "__init__.py").is_file() or not DATA.is_dir():
        print(f"perfbench: no metaknn source tree at {ROOT} (need src/metaknn and data/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metaknn
    if Path(metaknn.__file__).resolve().parent != SRC / "metaknn":
        print(f"perfbench: imported metaknn from {metaknn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        inputs = workload.inputs(args.seed, DATA, Path(work))
        if args.trace:
            values, loaded, ops, passes, tracers = traced(workload, inputs, args.seconds)
            notes = [f"per-layer values: medians over {len(tracers) - 1} traced passes; "
                     f"dataset.load_s from one traced set-up"]
            units = {name: per_layer_unit(name) for name in values}
        else:
            loaded = workload.load(inputs)
            ops = workload.ops(loaded)
            passes, *setups = measure(workload, inputs, ops, args.seconds)
            values, notes = end_to_end(passes, *setups)
            units = END_TO_END_UNITS
        attempted, failed, messages = tally(workload, loaded, ops, passes)

    if args.trace:
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.npz", tracers)
    for message in messages:
        print(f"FAIL {message}", file=sys.stderr)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} operations/pass={len(ops)}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(*notes, sep="\n")
    print(f"fail_ratio = {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
