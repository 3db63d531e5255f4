"""Benchmark of the nonlocality library and CLI.

    python3 perfbench/run.py --workload rti_campaign|box_ladder|floor_pipeline|all
        --seed N --seconds S --trace 0|1

Each workload runs in its own fresh process (worker.py): one client, one
process, one compute thread, a closed loop with no queue, so latency is
service time. With --trace 0 the end-to-end metrics are printed; set-up time
is the median of several fresh processes. Times are scaled to a nominal
machine speed by a reference loop interleaved with the work (see
worker.timed_run); the unscaled figures are printed alongside. With
--trace 1 a traced run gives the per-layer metrics instead, each per work
unit (linalg.eig_calls counts eigvalsh, eigh and svd calls; eig_matrices
counts a stacked batch by its shape). Inputs, results, spans and the run
environment are written under perfbench/out/. Tests of the benchmark itself:
`python3 -m pytest perfbench/tests`. The last line of output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
when every workload ran, whatever its verdict; it is 1, with no JSON line,
when a worker could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("rti_campaign", "box_ladder", "floor_pipeline")
SETUP_SAMPLES = 15
DEADLINE_S = 170.0


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float, setup_only=False) -> dict:
    """Start worker.py in a fresh interpreter and return its JSON line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    cmd += ["--launched", repr(launched)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: worker passed the {DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    if trace:
        return run_worker(workload, seed, seconds, trace, deadline)
    samples = [run_worker(workload, seed, seconds, 0, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    result = run_worker(workload, seed, seconds, 0, deadline)
    samples.append({"setup_s": result["metrics"]["setup_s"], "raw_setup_s": result["raw"]["setup_s"]})
    result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in samples)
    result["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in samples)
    result["setup_samples"] = samples
    return result


def with_units(metrics: dict, units: dict) -> dict:
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def print_report(workload: str, seed: int, result: dict, units: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}  seed={seed}  calls={attempted}  loop_s={result['loop_s']:.3f}  work unit: {result['unit']}")
    for name, unit in units.items():
        print(f"  {name:<30} {result['metrics'][name]:>14.6g} {unit}")
    print(f"  {'failed_ratio':<30} {failed / attempted:>14.6g} ({failed}/{attempted})")
    print(f"  {'correct':<30} {str(failed == 0).lower():>14}")
    if "raw" in result:
        print(f"  unscaled {json.dumps(result['raw'])}")
    print(f"  env {json.dumps(result['env'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    units = metric_units("per_layer" if args.trace else "end_to_end")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    for name, result in results.items():
        print_report(name, args.seed, result, units)
        path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)

    if len(names) == 1:
        metrics = with_units(results[names[0]]["metrics"], units)
    else:
        metrics = {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in with_units(result["metrics"], units).items()
        }
    failed = sum(r["failed"] for r in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
