"""Self-test of the benchmark at tiny sizes; runs in about half a minute.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that:

* every metric that BENCHMARK.json names is emitted with its unit, and no
  other metric is;
* the outputs pass their checks;
* traced spans nest: each lies inside its parent and belongs to its step;
* per step, the self times of the layer spans add up to no more than the
  step's wall time.

It also checks that a second seed passes the same checks with numbers of
the same order, and that run.py exits nonzero without a result line in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # pins the BLAS thread count before numpy loads

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402
from spans import self_times  # noqa: E402

TINY = {
    "train-desk": {"utterances": 24, "hidden": 8},
    "infer-long": {"utterances": 4, "hidden": 8},
    "gradcheck-small": {"hidden": 2, "features": 3, "t_values": (1,)},
}
SEEDS = (1, 2)
SAME_ORDER = 3.0  # a second seed's numbers lie within this factor


class Report:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        self.failures += not ok


def declared(kind: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def check_spans(report: Report, name: str, tracer) -> None:
    spans = tracer.spans
    nested = all(
        parent is None
        or (
            spans[parent][1] <= start <= end <= spans[parent][2]
            and spans[parent][4] == step
        )
        for _, start, end, parent, step in spans
    )
    report.expect(nested and len(spans) > 0, f"{name}: {len(spans)} spans nest")

    wall = {}
    layers = {}
    for (_, start, end, parent, step), own in zip(spans, self_times(spans)):
        if parent is None:
            wall[step] = end - start
        else:
            layers[step] = layers.get(step, 0.0) + own
    over = [s for s, t in layers.items() if t > wall[s] + 1e-9]
    report.expect(
        not over, f"{name}: layer self times within the root wall time in {len(wall)} roots"
    )


RUNS = ((SEEDS[0], False), (SEEDS[0], True), (SEEDS[1], False))  # (seed, trace)


def check_workload(report: Report, name: str) -> None:
    declared_metrics = {False: declared("end_to_end"), True: declared("per_layer")}
    values = {}
    for seed, trace in RUNS:
        label = f"{name} seed {seed} trace {int(trace)}"
        outcome = workloads.run_workload(name, seed, 0.0, trace, **TINY[name])
        report.expect(outcome.correct, f"{label}: output checks pass")
        emitted = {k: m["unit"] for k, m in outcome.metrics.items()}
        report.expect(emitted == declared_metrics[trace], f"{label}: metric names and units")
        if trace:
            check_spans(report, label, outcome.tracer)
        else:
            values[seed] = {k: m["value"] for k, m in outcome.metrics.items()}
    first, second = (values[s] for s in SEEDS)
    apart = [k for k in first if not 1 / SAME_ORDER < first[k] / second[k] < SAME_ORDER]
    report.expect(not apart, f"{name}: seeds {SEEDS} give numbers of the same order {apart}")


def check_missing_sources(report: Report) -> None:
    os.makedirs(run.TRACE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TRACE_DIR) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            run.HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train-desk",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    report.expect(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        f"without sources: exit {proc.returncode}, no result line",
    )


def main() -> int:
    report = Report()
    for name in workloads.WORKLOADS:
        check_workload(report, name)
    check_missing_sources(report)
    print(f"{report.failures} failed")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
