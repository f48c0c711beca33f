"""Span recording around the public functions of each cohsmix module.

The traced run swaps every function in ``TRACED`` for a wrapper in each
``cohsmix`` module namespace that binds it, so calls between modules
(``cli`` -> ``fit_multi_restart`` -> ``fit`` -> ``e_step``) all pass through
a wrapper. Spans stay in memory; ``restore`` puts the original objects back.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# (module, function) pairs wrapped by the traced run.
TRACED = (
    ("simulate", "generate"),
    ("em", "init_responsibilities"),
    ("em", "e_step"),
    ("em", "m_step"),
    ("em", "mode_lower_bound"),
    ("em", "fit"),
    ("em", "fit_multi_restart"),
    ("model", "complete_log_likelihood"),
    ("selection", "icl_score"),
    ("selection", "select_q"),
    ("metrics", "adjusted_rand_index"),
    ("io", "read_graph"),
    ("io", "read_features"),
    ("io", "write_graph"),
    ("io", "write_features"),
    ("io", "write_result"),
    ("harness", "run_grid"),
    ("harness", "write_results_csv"),
    ("harness", "write_aggregate_csv"),
    ("harness", "write_timings_csv"),
    ("cli", "main"),
)


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


# Facts read from a call's arguments or result, outside the span's interval:
# layer -> (stat names, function of (args, kwargs, result) giving their values).
INSPECT = {
    "em.fit": (("em_iters", "converged"), lambda args, kwargs, result: (
        len(result.bound_trace) - 1, int(result.converged))),
    "io.read_graph": (("bytes",), lambda args, kwargs, result: (
        os.path.getsize(_path_arg(args, kwargs)),)),
    "io.write_graph": (("bytes",), lambda args, kwargs, result: (
        os.path.getsize(result),)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: str | None = None
    info: dict = field(default_factory=dict)


def cohsmix_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name == "cohsmix" or name.startswith("cohsmix.")]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self):
        modules = cohsmix_modules()
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"cohsmix.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                bound = [attr for attr, value in vars(module).items()
                         if value is original]
                for attr in bound:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def patched_bindings(self):
        """(module, attribute, original) of every binding ``install`` swapped."""
        return list(self._patched)

    def _wrap(self, name, original):
        keys, inspect = INSPECT.get(name, ((), None))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if inspect is not None:
                span.info = dict(zip(keys, inspect(args, kwargs, result)))
            return result

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Per function: calls, failed, busy_s, self_s and summed span info.

    ``busy_s`` is the spans' total duration; ``self_s`` subtracts the time
    covered by direct traced children (calls are serial, so children of
    one span never overlap).
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    stats: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(span.name, defaultdict(float))
        duration = span.end - span.start
        entry["calls"] += 1
        entry["failed"] += span.error is not None
        entry["busy_s"] += duration
        entry["self_s"] += duration - child_time[index]
        for key, value in span.info.items():
            entry[key] += value
    return stats


def op_counts(spans) -> dict[int, dict[str, int]]:
    """Deterministic per-op counts: calls, failures and summed span info."""
    counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        entry = counts[span.op]
        entry[f"{span.name}.calls"] += 1
        if span.error is not None:
            entry[f"{span.name}.failed"] += 1
        for key, value in span.info.items():
            entry[f"{span.name}.{key}"] += value
    return {op: dict(entry) for op, entry in counts.items()}
