#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on tiny inputs.

Run from the root of a checkout::

    python3 bench/smoke.py

For every workload it runs one tiny op untraced and traced, and checks that
the last line of output is a result object carrying every metric named in
``BENCHMARK.json``. In-process, it checks that the traced run wrapped every
traced function and left each patched ``cohsmix`` binding as the original
function. Finally it checks that the benchmark exits non-zero, printing no
result, in a directory without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(condition, message):
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def check_bindings_restored(name: str, work_dir: Path):
    from tracer import TRACED, Tracer

    workload = run.set_up(name, work_dir, tiny=True)
    tracer = Tracer()
    with tracer:
        bindings = tracer.patched_bindings()
        run.run_ops(workload, 0, None, 1, tracer=tracer)
    defining = {(m.__name__, attr) for m, attr, _ in bindings}
    for module_name, func_name in TRACED:
        expect((f"cohsmix.{module_name}", func_name) in defining,
               f"cohsmix.{module_name}.{func_name} was not wrapped")
    for module, attr, original in bindings:
        expect(getattr(module, attr) is original,
               f"{module.__name__}.{attr} still wrapped after the traced run")
    expect(tracer.spans, f"{name}: the traced op recorded no spans")


def check_result_line(name: str, trace: int, declared: dict):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=180, cwd=run.ROOT)
    expect(proc.returncode == 0, f"{name} trace={trace}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0, proc.stdout)
    expect(result["attempted"] >= 1, "no op attempted")
    wanted = declared["per_layer" if trace else "end_to_end"]
    expect(result["metrics"].keys() == wanted.keys(),
           f"{name} trace={trace}: {sorted(set(wanted) ^ set(result['metrics']))}")
    for metric, unit in wanted.items():
        expect(result["metrics"][metric]["unit"] == unit, f"unit of {metric}")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paper_fit",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare)
    expect(proc.returncode != 0, "ran without the package sources")
    expect("{" not in proc.stdout, f"printed a result: {proc.stdout}")


def main() -> int:
    workloads = run.import_workloads()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {key: {m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")}
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from bench/workloads.py")
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as work:
        for name in workloads.WORKLOADS:
            check_bindings_restored(name, Path(work))
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result_line(name, trace, declared)
            print(f"ok {name} trace={trace}")
    check_refuses_without_sources()
    print("ok refuses to run without src/cohsmix")
    return 0


if __name__ == "__main__":
    sys.exit(main())
