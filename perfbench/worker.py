"""Run one workload in this fresh process and print its figures as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --launched T [--setup-only]

`run.py` starts this with `--launched` set to time.monotonic() just before
the launch, so set-up time counts interpreter start, imports and the warm-up
call, less the benchmark's own input generation. The BLAS thread cap is set
here, before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Times are scaled to a machine that runs the reference loop at this rate.
REF_NOMINAL_PER_S = 100_000.0
REF_SLICE_ITERS = 1_000
SEGMENT_S = 0.25
REF_WINDOW = 3


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    where the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


_REF_MATRIX = np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.conj().T


def reference_rate(iters: int = REF_SLICE_ITERS) -> float:
    """Iterations per second of a fixed pure-numpy loop of small Hermitian
    eigenproblems, the same kind of work as the workloads."""
    start = time.perf_counter()
    for _ in range(iters):
        np.linalg.eigvalsh(_REF_MATRIX @ _REF_MATRIX)
    return iters / (time.perf_counter() - start)


def environment(seed: int, ref_per_s: float) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "machine.ref_per_s": ref_per_s,
    }


def timed_run(workload, seconds: float) -> dict:
    """Whole cycles until `seconds` have passed, untraced.

    On a shared virtual machine the CPU speed can drift by tens of percent
    within seconds, and the workloads drift with it. So a slice of the
    reference loop runs after every SEGMENT_S of calls, and every time in a
    segment is scaled by the median reference rate of the REF_WINDOW slices
    on each side of it, over REF_NOMINAL_PER_S. The unscaled figures are
    kept under "raw".
    """
    tally = workloads.Tally(len(workload))
    ref_rates = [reference_rate()]
    segments = []  # (first call, end call, seconds); ref_rates[j] precedes segment j
    first = 0
    start = segment_start = time.perf_counter()
    while True:
        for i in range(len(workload)):
            workloads.run_call(workload, i, tally)
            elapsed = time.perf_counter() - segment_start
            if elapsed >= SEGMENT_S:
                segments.append((first, len(tally.latencies), elapsed))
                ref_rates.append(reference_rate())
                first = len(tally.latencies)
                segment_start = time.perf_counter()
        if time.perf_counter() - start >= seconds:
            break
    if first < len(tally.latencies):
        segments.append((first, len(tally.latencies), time.perf_counter() - segment_start))
        ref_rates.append(reference_rate())

    scaled_latencies: list[float] = []
    raw_s = scaled_s = 0.0
    for j, (lo, hi, segment_s) in enumerate(segments):
        window = ref_rates[max(0, j + 1 - REF_WINDOW) : j + 1 + REF_WINDOW]
        scale = statistics.median(window) / REF_NOMINAL_PER_S
        scaled_latencies.extend(scale * x for x in tally.latencies[lo:hi])
        raw_s += segment_s
        scaled_s += scale * segment_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, ok_units = workloads.verdict(workload, tally)
    raw = sorted(tally.latencies)
    scaled = sorted(scaled_latencies)
    return {
        "attempted": tally.attempted,
        "failed": failed,
        "unit": workload.unit,
        "loop_s": time.perf_counter() - start,
        "ref_per_s": statistics.median(ref_rates),
        "metrics": {
            "work_per_s": ok_units / scaled_s,
            "call_p50_ms": 1e3 * percentile(scaled, 0.5),
            "call_p90_ms": 1e3 * percentile(scaled, 0.9),
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {
            "work_per_s": ok_units / raw_s,
            "call_p50_ms": 1e3 * percentile(raw, 0.5),
            "call_p90_ms": 1e3 * percentile(raw, 0.9),
        },
    }


# Per-layer metrics, each per work unit, and what each should move:
# - linalg.*: work_per_s on rti_campaign and floor_pipeline; 0 on box_ladder.
# - states.*: work_per_s on rti_campaign, call_p50_ms on floor_pipeline.
# - rti.*: work_per_s on rti_campaign.
# - boxes.*, decomp.*: work_per_s and call_p90_ms on box_ladder; nothing on
#   rti_campaign.
# - bounds.*: call_p50_ms on floor_pipeline; setup_s if work moves to import.
# - cli.*: call_p50_ms on rti_campaign and the small rungs of box_ladder.
# - <layer>.errors: exceptions escaping the layer's public functions.
# No layer queues or waits on another, so there is no waiting-time metric.
COUNT_METRICS = (
    "linalg.eig_calls",
    "linalg.eig_matrices",
    "linalg.hermitian_checks",
    "states.validations",
    "states.steer_calls",
    "rti.certificate_evals",
    "boxes.strategies_enumerated",
    "boxes.deterministic_boxes",
    "boxes.ns_checks",
    "decomp.lp_solves",
    "decomp.pivots",
    "decomp.lp_columns",
    "decomp.lp_rows",
    "bounds.optimize_mu_calls",
    "cli.report_bytes",
)


def traced_run(workload, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced cycles until `seconds` have passed.

    Counts, self time and escaped errors come from the traced cycles and are
    given per work unit; the speed ratio is traced over untraced work rate.
    The spans of the first traced cycle are written when the run ends.
    """
    tally = workloads.Tally(len(workload))
    tr = tracer.Tracer()
    untraced_s = traced_s = 0.0
    cycles = 0
    first_spans = None
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        workloads.run_cycle(workload, tally)
        untraced_s += time.perf_counter() - t
        with tr.installed():
            t = time.perf_counter()
            workloads.run_cycle(workload, tally, tr)
            traced_s += time.perf_counter() - t
        spans = tr.take_spans()
        first_spans = first_spans or spans
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    leftover = tracer.leftover_wrappers()
    if leftover:
        print(f"wrappers left installed: {leftover}", file=sys.stderr)
    tracer.write_spans(first_spans, spans_path)
    failed, _ = workloads.verdict(workload, tally)

    units = cycles * sum(workload.units(i) for i in range(len(workload)))
    metrics = {name: tr.counts[name] / units for name in COUNT_METRICS}
    columns = tr.counts["decomp.lp_columns"]
    metrics["decomp.useful_column_ratio"] = (
        tr.counts["decomp.lp_useful_columns"] / columns if columns else 0.0
    )
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_ms"] = 1e3 * tr.self_s[layer] / units
        metrics[f"{layer}.errors"] = tr.errors[layer] / units
    metrics["trace.speed_ratio"] = untraced_s / traced_s
    return {
        "attempted": tally.attempted,
        "failed": failed + (1 if leftover else 0),
        "unit": workload.unit,
        "loop_s": time.perf_counter() - start,
        "traced_cycles": cycles,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    gen_start = time.monotonic()
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    gen_s = time.monotonic() - gen_start

    workloads.load_program(os.path.join(ROOT, "src"))
    workload.bind()
    try:
        workload.call(0)
    except (Exception, SystemExit):
        pass  # the timed calls record the failure
    raw_setup_s = time.monotonic() - args.launched - gen_s
    reference_rate(10)  # first-call work stays out of the reference
    setup_ref = statistics.median(reference_rate() for _ in range(7))
    setup = {"setup_s": raw_setup_s * setup_ref / REF_NOMINAL_PER_S, "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        result = traced_run(workload, args.seconds, spans_path)
    else:
        result = timed_run(workload, args.seconds)
        result["metrics"]["setup_s"] = setup["setup_s"]
        result["raw"]["setup_s"] = setup["raw_setup_s"]
    result["env"] = environment(args.seed, result.pop("ref_per_s", setup_ref))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
