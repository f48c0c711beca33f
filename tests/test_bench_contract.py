"""Contracts between the benchmark and the package.

The traced run wraps named functions of the package: a deleted or renamed
function would crash ``bench/run.py --trace 1``. Every workload calls into
the package, so a narrowed signature would make its ops fail; each runs
one tiny op here, untraced and traced. Times are scaled by the reference
kernel in ``bench/calibrate.py``, which is only valid while that kernel
runs none of the package's code.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import TRACED

    missing = [
        f"cohsmix.{module}.{name}" for module, name in TRACED
        if not callable(getattr(importlib.import_module(f"cohsmix.{module}"),
                                name, None))
    ]
    assert TRACED and not missing, missing


WORKLOADS = ["paper_fit", "icl_scan", "large_cli"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_op_runs_untraced_and_traced(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    # A workload missing from the list above would go unchecked.
    assert list(workloads.WORKLOADS) == WORKLOADS
    workload = workloads.WORKLOADS[name](tmp_path, tiny=True)
    plain = workload.check(workload.execute(0, 0))
    recorder = tracer.Tracer()
    with recorder:
        bindings = recorder.patched_bindings()
        traced = workload.check(workload.execute(0, 0))
    assert plain.ok, plain.problems
    assert traced.ok, traced.problems
    assert plain.fingerprint == traced.fingerprint
    assert bindings and recorder.spans
    for module, attr, original in bindings:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_calibration_kernel_never_imports_package():
    tree = ast.parse((BENCH / "calibrate.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported, "the kernel imports nothing; the parse went wrong"
    assert not [name for name in imported
                if name.split(".")[0] == "cohsmix"], imported
