"""The three workloads, the loop that drives them and the verdict on results.

Each workload is a fixed cycle of calls into one public entry point of the
program, made from seeded inputs. A call's result is reduced to a hashable
value, so repeated calls of one input are tallied instead of stored.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

import inputs
import oracles


@dataclass(frozen=True)
class Failure:
    """Result of a call that raised."""

    error: str


def load_program(src_dir: str):
    """Import the package and refuse any copy that is not under `src_dir`."""
    package = importlib.import_module("nonlocality")
    where = os.path.realpath(package.__file__)
    if not where.startswith(os.path.realpath(src_dir) + os.sep):
        raise ImportError(f"nonlocality was imported from {where}, not from {src_dir}")
    return package


class Workload:
    name = ""
    unit = ""

    def __len__(self) -> int:
        return len(self.items)

    def bind(self) -> None:
        """Import the entry points; part of set-up, after input generation."""

    def call(self, i: int):
        raise NotImplementedError

    def units(self, i: int) -> int:
        return 1

    def oracle(self, i: int):
        return None

    def check(self, result, oracle) -> bool:
        raise NotImplementedError

    def report_bytes(self, result) -> int:
        return 0


class CliWorkload(Workload):
    def bind(self) -> None:
        self.cli = importlib.import_module("nonlocality.cli")

    def call(self, i: int):
        """(exit code, report) of `nonlocality` run in-process on argv i."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(self.items[i])
        return rc, buf.getvalue()

    def report_bytes(self, result) -> int:
        return len(result[1].encode())


class RtiCampaign(CliWorkload):
    """`verify-rti` once per (dim, l) cell: general and commuting campaigns
    plus the extremal grid. Bound by eigendecompositions and validation."""

    name = "rti_campaign"
    unit = "RTI instances"

    def __init__(self, seed: int, workdir: str):
        self.items = inputs.rti_calls(seed)

    def units(self, i: int) -> int:
        return 2 * inputs.RTI_TRIALS

    def check(self, result, oracle) -> bool:
        return oracles.check_rti(result)


class BoxLadder(CliWorkload):
    """`box PATH --ops ns,fod,cf` over the box ladder. Bound by strategy
    enumeration and the simplex on the large rungs, by the CLI on the small."""

    name = "box_ladder"
    unit = "boxes"

    def __init__(self, seed: int, workdir: str):
        self.boxes = inputs.box_ladder(seed)
        paths = inputs.write_boxes(self.boxes, os.path.join(workdir, f"boxes-seed{seed}"))
        self.items = [["box", path, "--ops", "ns,fod,cf", "--seed", "0"] for path in paths]

    def oracle(self, i: int) -> dict:
        box = self.boxes[i]
        return {
            "fod": oracles.fod_oracle(box.p, box.outcomes_a, box.outcomes_b),
            "cf": oracles.cf_oracle(box.p, box.outcomes_a, box.outcomes_b),
        }

    def check(self, result, oracle) -> bool:
        return oracles.check_box(result, oracle)


class FloorPipeline(Workload):
    """`fod_floor_pipeline` on raw arrays, building the state and POVM
    objects in each call. Small one-at-a-time eigenwork, no batches."""

    name = "floor_pipeline"
    unit = "pipelines"

    def __init__(self, seed: int, workdir: str):
        self.items = inputs.realizations(seed)

    def bind(self) -> None:
        self.states = importlib.import_module("nonlocality.states")
        self.bounds = importlib.import_module("nonlocality.bounds")

    def call(self, i: int):
        r = self.items[i]
        rho = self.states.DensityMatrix(r.rho)
        alice = [self.states.Povm(tuple(m)) for m in r.alice]
        bob = [self.states.Povm(tuple(m)) for m in r.bob]
        trace = self.bounds.fod_floor_pipeline(rho, bob[0], bob[1], alice)
        return trace.passed, trace.vacuous, trace.c, trace.theorem_form

    def oracle(self, i: int) -> dict:
        r = self.items[i]
        k, l = r.alice.shape[1], r.bob.shape[1]
        box = oracles.born_box(r.rho, r.alice, r.bob)
        return {"fod": oracles.fod_oracle(box, (k, k), (l, l))}

    def check(self, result, oracle) -> bool:
        return oracles.check_floor(result, oracle)


WORKLOADS = {w.name: w for w in (RtiCampaign, BoxLadder, FloorPipeline)}


class Tally:
    """Results of every call, counted per input, and each call's latency."""

    def __init__(self, n_items: int):
        self.results = [Counter() for _ in range(n_items)]
        self.latencies: list[float] = []

    @property
    def attempted(self) -> int:
        return sum(sum(c.values()) for c in self.results)


def run_call(workload: Workload, i: int, tally: Tally, tracer=None) -> None:
    """Call input `i` once and tally its result and latency."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.call(i)
        else:
            with tracer.span("bench.call", "bench"):
                result = workload.call(i)
            tracer.counts["cli.report_bytes"] += workload.report_bytes(result)
    except (Exception, SystemExit) as exc:
        result = Failure(f"{type(exc).__name__}: {exc}")
    tally.latencies.append(time.perf_counter() - start)
    tally.results[i][result] += 1


def run_cycle(workload: Workload, tally: Tally, tracer=None) -> None:
    """Call every input once, in order."""
    for i in range(len(workload)):
        run_call(workload, i, tally, tracer)


def verdict(workload: Workload, tally: Tally) -> tuple[int, int]:
    """(failed calls, work units of the calls that passed), with each
    distinct result checked once against its input's oracle."""
    failed = 0
    ok_units = 0
    for i, results in enumerate(tally.results):
        if not results:
            continue
        try:
            oracle = workload.oracle(i)
        except Exception as exc:
            print(f"oracle for input {i} failed: {exc!r}", file=sys.stderr)
            failed += sum(results.values())
            continue
        for result, n in results.items():
            if _passes(workload, result, oracle):
                ok_units += n * workload.units(i)
            else:
                failed += n
    return failed, ok_units


def _passes(workload: Workload, result, oracle) -> bool:
    if isinstance(result, Failure):
        return False
    try:
        return bool(workload.check(result, oracle))
    except Exception:
        return False
