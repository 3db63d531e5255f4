"""Spans and counters for a traced run, installed from outside the program.

`Tracer.installed()` wraps every public function and method of the layer
modules, the `__post_init__` of every class they define, and numpy's
`eigvalsh`, `eigh` and `svd`. From-imports copy a function into other
modules (`states`, `rti`, `bounds`, `cli` and the package namespace), so each
wrapper is installed at every binding site, and every site is restored on
exit. Spans stay in memory; a layer's self time is a span's duration minus
the time of the spans it caused.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "bounds", "decomp", "rti", "boxes", "states", "linalg")
NUMPY_EIG = ("eigvalsh", "eigh", "svd")
VALIDATED = ("DensityMatrix", "SubnormalizedState", "Povm", "Ensemble")
WRAPPED_MARK = "__perfbench_original__"


def _count_eig(counts, args, kwargs, out):
    a = args[0] if args else next(iter(kwargs.values()))
    counts["linalg.eig_calls"] += 1
    counts["linalg.eig_matrices"] += math.prod(np.shape(a)[:-2])


def _count_simplex(counts, args, kwargs, out):
    lp = args[0] if args else kwargs["lp"]
    rows, cols = np.shape(lp.a)
    counts["decomp.lp_solves"] += 1
    counts["decomp.pivots"] += out.iterations
    counts["decomp.lp_rows"] += rows
    counts["decomp.lp_columns"] += cols
    counts["decomp.lp_useful_columns"] += int(np.count_nonzero(out.x > 0.0))


def _counter(name):
    def hook(counts, args, kwargs, out):
        counts[name] += 1

    return hook


def _count_strategies(counts, args, kwargs, out):
    counts["boxes.strategies_enumerated"] += len(out)


HOOKS = {
    **{f"numpy.linalg.{name}": _count_eig for name in NUMPY_EIG},
    "linalg.require_hermitian": _counter("linalg.hermitian_checks"),
    **{f"states.{cls}.__post_init__": _counter("states.validations") for cls in VALIDATED},
    "states.steer": _counter("states.steer_calls"),
    "rti.RtiInstance.tight_epsilon_of": _counter("rti.certificate_evals"),
    "boxes.enumerate_deterministic": _count_strategies,
    "boxes.deterministic_box": _counter("boxes.deterministic_boxes"),
    "boxes.validate_ns": _counter("boxes.ns_checks"),
    "decomp.simplex_solve": _count_simplex,
    "bounds.optimize_mu": _counter("bounds.optimize_mu_calls"),
}


class Tracer:
    """Collects spans, per-layer self time, escaped errors and counts."""

    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self.errors = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, parent index, start, end]
        self._stack: list[list] = []  # [span index, layer, start, child seconds]
        self._restore: list[tuple] = []

    # spans -----------------------------------------------------------------

    def _open(self, name: str, layer: str) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self._stack.append([len(self.spans), layer, start, 0.0])
        self.spans.append([name_id, parent, start, start])

    def _close(self, escaped: bool = False) -> None:
        end = time.perf_counter()
        index, layer, start, child_s = self._stack.pop()
        self.spans[index][3] = end
        duration = end - start
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        if escaped and (not self._stack or self._stack[-1][1] != layer):
            self.errors[layer] += 1

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        self._open(name, layer)
        try:
            yield
        except BaseException:
            self._close(escaped=True)
            raise
        self._close()

    def take_spans(self) -> dict:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return {"names": list(self.names), "spans": spans}

    # wrappers --------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(escaped=True)
                raise
            tracer._close()
            if hook is not None:
                hook(tracer.counts, args, kwargs, out)
            return out

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            wrappers = {}
            for layer in LAYERS:
                module = importlib.import_module(f"nonlocality.{layer}")
                for attr, value in vars(module).items():
                    if inspect.isfunction(value) and value.__module__ == module.__name__:
                        if not attr.startswith("_"):
                            wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{attr}", layer))
                    elif inspect.isclass(value) and value.__module__ == module.__name__:
                        self._install_methods(value, layer)
            for attr in NUMPY_EIG:
                fn = getattr(np.linalg, attr)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"numpy.linalg.{attr}", "linalg"))
            for module in binding_modules():
                for attr, value in list(vars(module).items()):
                    original, wrapper = wrappers.get(id(value), (None, None))
                    if original is value:
                        self._patch(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _install_methods(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr != "__post_init__" and attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(value.__func__, name, layer)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(value, name, layer))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def binding_modules() -> list:
    """Every module whose namespace may hold a wrapped function."""
    mods = [m for name, m in sys.modules.items() if name == "nonlocality" or name.startswith("nonlocality.")]
    return mods + [np.linalg]


def leftover_wrappers() -> list[str]:
    """Binding sites that still hold a wrapper; empty once uninstalled."""
    found = []
    for module in binding_modules():
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{module.__name__}.{attr}")
            if inspect.isclass(value):
                for name, member in vars(value).items():
                    fn = member.__func__ if isinstance(member, staticmethod) else member
                    if hasattr(fn, WRAPPED_MARK):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


def write_spans(taken: dict, path: str) -> None:
    """Write spans as [name id, parent index, start, end], times in
    microseconds from the first span's start."""
    spans = taken["spans"]
    origin = spans[0][2] if spans else 0.0
    rows = [
        [name_id, parent, round(1e6 * (start - origin), 1), round(1e6 * (end - origin), 1)]
        for name_id, parent, start, end in spans
    ]
    with open(path, "w") as fh:
        json.dump({"names": taken["names"], "spans": rows}, fh, separators=(",", ":"))
