"""Benchmark of the abn training kernel: end-to-end and per-layer numbers.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload`` is ``train-desk``, ``infer-long``, ``gradcheck-small`` (see
``workloads.py``) or ``all``, which runs the three one after another, each
in a fresh process, and ends with a summary under the per-workload names. ``--seed`` makes
the inputs; ``--seconds`` is the time budget of the measured loop.

With ``--trace 0`` the result line carries the end-to-end metrics:
``sec_per_unit.<variant>`` (wall seconds per unit of work: 1,000 valid
frames on train-desk and infer-long, one model gradient check on
gradcheck-small), ``setup_s`` (median wall time of the set-ups run between
the measured steps) and ``peak_rss_mb``. Both times are at reference host
speed: the raw wall times over the host factor measured in the same window
(``hostspeed.py``). The lines above it give the same numbers as
``train_fps.<v>``, ``infer_fps.<v>`` or ``gradcheck_s.<v>``, with the raw
wall times beside them.

With ``--trace 1`` every step runs twice, untraced and traced, in turns
within one window, and the result line carries the per-layer metrics from
the spans and ``trace.overhead_pct``, traced against untraced step time;
the spans themselves are written to ``.bench_trace/<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the abn sources are
missing.

BLAS runs single-threaded in every benchmark process (set below, before
numpy loads): losses are bit-identical either way, and one thread keeps a
2-core machine steady.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
WORKLOAD_NAMES = ("train-desk", "infer-long", "gradcheck-small")
CHILD_TIMEOUT_S = 600


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process; a summary under the per-workload names at the end."""
    import workloads

    summary, code = [], 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            summary.append(f"{name}: no result (exit {proc.returncode})")
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
        if args.trace:
            continue
        unit_s = {
            v: result["metrics"][f"sec_per_unit.{v}"]["value"] for v in workloads.VARIANTS
        }
        summary += workloads.workload_metric_lines(name, unit_s)
        for metric in ("setup_s", "peak_rss_mb"):
            entry = result["metrics"][metric]
            summary.append(f"{name}/{metric} {entry['value']:.4g} {entry['unit']}")
        summary.append(
            f"{name}/fail_ratio {result['failed'] / result['attempted']:.4g}"
            f" ({result['failed']}/{result['attempted']})"
        )
    print("== summary ==")
    print("\n".join(summary))
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "abn", "__init__.py")):
        print(f"perfbench: no abn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    import workloads

    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
        f" trace {args.trace}; unit: {workloads.WORKLOADS[args.workload].unit}"
    )
    outcome = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(outcome.lines))
    if outcome.tracer is not None:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
        outcome.tracer.write(
            path,
            {
                "workload": args.workload,
                "seed": args.seed,
                "env": workloads.environment(),
                "summary": outcome.summary,
            },
        )
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(outcome.result()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
