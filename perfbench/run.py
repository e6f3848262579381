"""Run the repository benchmark.

One workload::

    python3 perfbench/run.py --workload specgen-store --seed 1 --seconds 30 --trace 0

Both, each in its own process, printing every metric by name::

    python3 perfbench/run.py --seed 1 --seconds 30

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is non-zero when any
output check fails.  Run it from the repository root; it builds nothing
and reads and writes only inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("specgen-store", "campaign")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_one(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import checks
    from perfbench.layers import PER_LAYER_METRICS
    from perfbench.stats import failure_share
    from perfbench.workloads import WORKLOADS, RunSpec

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        spec = RunSpec(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            root=ROOT,
            work_dir=work_dir,
            expected=checks.load_expected(),
        )
        outcome = WORKLOADS[args.workload](spec)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    tag = f"[{args.workload}{' traced' if args.trace else ''}]"
    for problem in outcome.problems:
        print(f"{tag} CHECK FAILED: {problem}")
    for name, value, unit, note in outcome.named:
        print(f"{tag} {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"{tag} ops_attempted = {outcome.attempted}, ops_failed = {outcome.failed}"
          f" (failure share {failure_share(outcome.attempted, outcome.failed):.4f})")
    if args.trace:
        layers = outcome.layers
        rows = [(name, layers[name]) for name, _ in PER_LAYER_METRICS if name.startswith("self.")]
        print(f"{tag} self time per layer (traced wall {layers['trace.wall_s']:.4f} s,"
              f" {int(layers['trace.spans'])} spans, tracing overhead {layers['trace.overhead_ratio']:+.1%}):")
        for name, value in rows:
            layer = name[len("self."):-len("_s")]
            calls = layers.get(f"calls.{layer}")
            print(f"{tag}   {layer:<13} {value:10.4f} s" + (f"  {int(calls)} calls" if calls is not None else ""))
        print(f"{tag}   {'sum':<13} {sum(value for _, value in rows):10.4f} s")
        units = dict(PER_LAYER_METRICS)
        metrics = {name: {"value": layers[name], "unit": units[name]} for name, _ in PER_LAYER_METRICS}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.end_to_end.items()}
    correct = not outcome.problems
    print(result_line(correct, outcome.attempted, outcome.failed, metrics))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; prints every metric and a combined result."""
    correct = True
    attempted = failed = 0
    metrics: dict = {}
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"[{workload}] no result (exit {completed.returncode})")
            return completed.returncode or 1
        correct = correct and result["correct"] and completed.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
            print(f"[{workload}] {name} = {metric['value']:.6g} {metric['unit']}")
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
