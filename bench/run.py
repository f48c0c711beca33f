#!/usr/bin/env python3
"""cohsmix benchmark: closed-loop workloads against the package in ``src/``.

Run from the root of a checkout::

    python3 bench/run.py --workload paper_fit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload large_cli --seed 1 --seconds 30 --trace 1

One client in one process runs ops back to back: the next op starts when
the previous one returns, and no op starts once the run would overrun
``--seconds`` by more than half a median op. ``COHSMIX_THREADS`` is removed from
the environment, so the harness runs serially, and BLAS gets one thread.

``--trace 0`` reports the end-to-end metrics, with times scaled by the
reference kernel of ``calibrate.py`` sampled between ops. ``--trace 1`` runs a fixed
number of ops untraced, then the same ops again with span-recording wrappers
around each module's public functions, and reports per-layer metrics; the
two passes must produce identical outputs. A human-readable report comes
first; the last line of standard output is one JSON object with the metrics
named in ``BENCHMARK.json``. Full results, and the spans of a traced run,
are written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

THREADS_ENV = "COHSMIX_THREADS"
BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"
SEEN_ENV = (THREADS_ENV, BLAS_THREADS_ENV)
# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5
# Reference kernel repetitions each set-up probe runs after its set-up.
SETUP_KERNEL_REPS = 150
# latency_tail_s is the highest percentile with this many ops beyond it;
# it is reported only when that percentile lies above the median.
TAIL_OPS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "ari_mean": "index",
    "q_hit_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One op per pass on small inputs; used by smoke.py.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    # Set up, then exit silently; the parent times this for setup_s.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Put the checkout's ``src`` first on the path and load the workloads."""
    if not (SRC / "cohsmix" / "__init__.py").is_file():
        raise SystemExit(f"error: no cohsmix sources under {SRC}; "
                         "run the benchmark from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def set_up(name: str, work_dir: Path, tiny: bool):
    """Build the workload and run one small op so lazy set-up is done."""
    workloads = import_workloads()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[name]
    warm = cls(work_dir, tiny=True)
    warm.check(warm.execute(0, 0))
    return cls(work_dir, tiny=tiny)


def setup_probe(name: str, work_dir: Path, tiny: bool):
    """Set up, then print the reference kernel's seconds per repetition and
    the seconds it ran for."""
    from calibrate import Kernel
    set_up(name, work_dir, tiny)
    begin = time.perf_counter()
    per_rep = Kernel().seconds_per_repetition(SETUP_KERNEL_REPS)
    print(per_rep, time.perf_counter() - begin)


def setup_seconds(args) -> tuple[float, float]:
    """Median set-up time of fresh interpreters, scaled by the kernel each
    ran after its set-up, and the median unscaled time."""
    from calibrate import REFERENCE_S
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        begin = time.perf_counter()
        proc = subprocess.run(command, check=True, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - begin
        per_rep, kernel_wall = map(float, proc.stdout.split())
        raw.append(wall - kernel_wall)
        scaled.append(raw[-1] * REFERENCE_S / per_rep)
    return statistics.median(scaled), statistics.median(raw)


def run_ops(workload, seed: int, seconds: float | None, max_ops: int | None,
            tracer=None, kernel=None):
    """Closed loop of ops.

    With a kernel, and a workload that asks for it, the reference kernel is
    sampled before the first op and after every op, outside the op's time.
    Returns per-op latencies and CPU times, outcomes, kernel seconds per
    repetition (one sample more than ops, or none) and the loop's wall time.
    """
    from workloads import Outcome
    latencies, cpu_times, outcomes, kernel_s = [], [], [], []
    reps = workload.calibration_reps if kernel is not None else 0
    if reps:
        kernel_s.append(kernel.seconds_per_repetition(reps))
    started = time.perf_counter()
    index = 0
    while True:
        if tracer is not None:
            tracer.op = index
        cpu_begin = time.process_time()
        begin = time.perf_counter()
        try:
            raw = workload.execute(index, seed)
        except Exception as err:  # a failed op is counted, not fatal
            latencies.append(time.perf_counter() - begin)
            cpu_times.append(time.process_time() - cpu_begin)
            outcomes.append(Outcome(problems=[f"raised {type(err).__name__}: {err}"]))
        else:
            latencies.append(time.perf_counter() - begin)
            cpu_times.append(time.process_time() - cpu_begin)
            try:
                outcomes.append(workload.check(raw))
            except Exception as err:
                outcomes.append(Outcome(
                    problems=[f"check raised {type(err).__name__}: {err}"]))
        if reps:
            kernel_s.append(kernel.seconds_per_repetition(reps))
        index += 1
        elapsed = time.perf_counter() - started
        if max_ops is not None:
            if index >= max_ops:
                break
        elif elapsed + statistics.median(latencies) / 2 > seconds:
            break
    return latencies, cpu_times, outcomes, kernel_s, time.perf_counter() - started


def end_to_end(latencies, cpu_times, outcomes, kernel_s, wall) -> dict:
    """End-to-end metrics, and the unscaled figures as notes.

    With kernel samples, op ``i`` ran between samples ``i`` and ``i + 1``;
    its latency and CPU time are scaled by ``REFERENCE_S`` over their mean.
    """
    from calibrate import REFERENCE_S
    ops = len(latencies)
    scale = [1.0] * ops
    if kernel_s:
        scale = [2 * REFERENCE_S / (before + after)
                 for before, after in zip(kernel_s, kernel_s[1:])]
    scaled = [t * f for t, f in zip(latencies, scale)]
    ordered = sorted(scaled)
    aris = [o.ari for o in outcomes if o.ari is not None]
    hits = [o.q_hit for o in outcomes if o.q_hit is not None]
    tail_rank = ops - TAIL_OPS
    metrics = {
        "ops_per_s": ops / sum(scaled),
        "latency_p50_s": statistics.median(scaled),
        "cpu_s_per_op": statistics.median(c * f for c, f in zip(cpu_times, scale)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": sum(not o.ok for o in outcomes) / ops,
        "ari_mean": statistics.fmean(aris) if aris else 0.0,
    }
    notes = {"ops": ops, "run_s": wall}
    if kernel_s:
        notes.update({
            "raw_ops_per_s": ops / sum(latencies),
            "raw_latency_p50_s": statistics.median(latencies),
            "raw_cpu_s_per_op": statistics.median(cpu_times),
            "kernel_p50_s": statistics.median(kernel_s),
        })
    if tail_rank > ops // 2:
        metrics["latency_tail_s"] = ordered[tail_rank - 1]
        notes["latency_tail_s"] = f"p{100 * tail_rank / ops:.1f} of {ops} ops"
    else:
        notes["latency_tail_s"] = (f"n/a: {ops} ops, a tail needs more than "
                                   f"{2 * TAIL_OPS}")
    if hits:
        metrics["q_hit_ratio"] = statistics.fmean(hits)
    return metrics, notes


def layer_metrics(stats) -> dict[str, float]:
    """Flat ``<module>.<function>.<stat>`` table, zero for uncalled layers."""
    from tracer import INSPECT, TRACED
    flat = {}
    for module_name, func_name in TRACED:
        name = f"{module_name}.{func_name}"
        entry = stats.get(name, {})
        for key in ("calls", "failed", "busy_s", "self_s") + INSPECT.get(name, ((),))[0]:
            flat[f"{name}.{key}"] = entry.get(key, 0)
        calls = flat[f"{name}.calls"]
        flat[f"{name}.mean_ms"] = 1000 * flat[f"{name}.busy_s"] / calls if calls else 0
    return flat


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def machine_facts(seed: int, seen_env: dict) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        **seen_env,
        "seed": seed,
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded by numpy, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def source_digest() -> str:
    """Digest of the package and benchmark sources; keys the cross-run record."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "cohsmix").glob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def compare_with_record(path: Path, fingerprints: dict, counts: dict) -> list[str]:
    """Check per-op outputs and counts against earlier runs of the same seed
    and sources, then add this run's ops to the record."""
    record = {"fingerprints": {}, "counts": {}}
    if path.is_file():
        record = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for kind, mine in (("fingerprints", fingerprints), ("counts", counts)):
        seen = record[kind]
        for op, value in mine.items():
            key = str(op)
            if key in seen and seen[key] != value:
                problems.append(f"op {op}: {kind} differ from an earlier run: "
                                f"{seen[key]} != {value}")
            seen.setdefault(key, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return problems


def declared_metrics(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def result_line(correct, attempted, failed, values, units, key) -> str:
    declared = declared_metrics(key)
    metrics = {}
    for name, unit in declared.items():
        if name not in values or units(name) != unit:
            raise RuntimeError(f"metric {name} ({unit}) was not measured")
        metrics[name] = {"value": float(values[name]), "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def print_problems(outcomes, label):
    for index, outcome in enumerate(outcomes):
        for problem in outcome.problems:
            print(f"FAILED {label} op {index}: {problem}")


def untraced_run(args, workload, facts, record_path, setup):
    from calibrate import Kernel
    steal_before = steal_seconds()
    latencies, cpu_times, outcomes, kernel_s, wall = run_ops(
        workload, args.seed, args.seconds, 1 if args.tiny else None,
        kernel=Kernel())
    if steal_before is not None:
        facts["cpu_steal_s_during_run"] = steal_seconds() - steal_before
    metrics, notes = end_to_end(latencies, cpu_times, outcomes, kernel_s, wall)
    metrics["setup_s"], notes["raw_setup_s"] = setup
    determinism = compare_with_record(
        record_path, {i: o.fingerprint for i, o in enumerate(outcomes)}, {})
    failed = sum(not o.ok for o in outcomes)

    steal = facts.get("cpu_steal_s_during_run")
    print(f"ops: {notes['ops']} in {notes['run_s']:.3f} s (closed loop, 1 client; "
          f"cpu steal {'n/a' if steal is None else f'{steal:.2f} s'})")
    for name, unit in END_TO_END_UNITS.items():
        if name in metrics:
            extra = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:<16} {metrics[name]:>14.6g} {unit}{extra}")
        else:
            print(f"{name:<16} {'n/a':>14} {unit}  ({notes.get(name, 'not measured on this workload')})")
    print_problems(outcomes, "untraced")
    for problem in determinism:
        print(f"NONDETERMINISTIC {problem}")
    print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in notes.items()
                                   if k.startswith(("raw_", "run_", "kernel_"))))
    save(args, {"facts": facts, "metrics": metrics, "notes": notes,
                "latencies_s": latencies, "cpu_s": cpu_times,
                "kernel_s_per_rep": kernel_s,
                "problems": [o.problems for o in outcomes],
                "determinism": determinism})
    return result_line(failed == 0 and not determinism, len(outcomes), failed,
                       metrics, END_TO_END_UNITS.get, "end_to_end")


def traced_run(args, workload, facts, record_path):
    from tracer import Tracer, layer_stats, op_counts
    ops = 1 if args.tiny else workload.trace_ops
    base_latencies, _, base_outcomes, _, _ = run_ops(workload, args.seed, None, ops)
    tracer = Tracer()
    with tracer:
        bindings = tracer.patched_bindings()
        traced_latencies, _, traced_outcomes, _, _ = run_ops(
            workload, args.seed, None, ops, tracer=tracer)
    leftover = [f"{m.__name__}.{attr}" for m, attr, original in bindings
                if getattr(m, attr) is not original]

    base_p50 = statistics.median(base_latencies)
    traced_p50 = statistics.median(traced_latencies)
    stats = layer_stats(tracer.spans)
    layers = layer_metrics(stats)
    layers.update({
        "trace.ops": ops,
        "trace.spans": len(tracer.spans),
        "trace.untraced_p50_s": base_p50,
        "trace.traced_p50_s": traced_p50,
        "trace.overhead_ratio": traced_p50 / base_p50,
    })
    fingerprints = {i: o.fingerprint for i, o in enumerate(traced_outcomes)}
    determinism = [f"op {i}: traced output differs from the untraced pass"
                   for i, o in enumerate(base_outcomes) if o.fingerprint != fingerprints[i]]
    if leftover:
        determinism.append(f"bindings not restored: {leftover}")
    counts = {op: c for op, c in op_counts(tracer.spans).items() if op >= 0}
    determinism += compare_with_record(record_path, fingerprints, counts)
    outcomes = base_outcomes + traced_outcomes
    failed = sum(not o.ok for o in outcomes)

    print(f"traced pass: {ops} ops, {len(tracer.spans)} spans, "
          f"{len(bindings)} bindings wrapped and restored")
    print(f"trace.overhead_ratio {layers['trace.overhead_ratio']:.4f} = traced "
          f"p50 {traced_p50:.6g} s / untraced p50 {base_p50:.6g} s")
    print(f"{'layer':<34}{'calls':>8}{'failed':>7}{'busy_s':>11}{'self_s':>11}"
          f"{'mean_ms':>10}  other")
    for name, entry in stats.items():
        other = ", ".join(f"{k}={int(v)}" for k, v in entry.items()
                          if k not in ("calls", "failed", "busy_s", "self_s"))
        print(f"{name:<34}{int(entry['calls']):>8}{int(entry['failed']):>7}"
              f"{entry['busy_s']:>11.4f}{entry['self_s']:>11.4f}"
              f"{1000 * entry['busy_s'] / entry['calls']:>10.3f}  {other}")
    print_problems(base_outcomes, "untraced")
    print_problems(traced_outcomes, "traced")
    for problem in determinism:
        print(f"NONDETERMINISTIC {problem}")
    tracer.write(output_path(args, "spans", ".jsonl"))
    save(args, {"facts": facts, "layers": layers, "op_counts": counts,
                "determinism": determinism,
                "problems": [o.problems for o in outcomes]})
    return result_line(failed == 0 and not determinism, len(outcomes), failed,
                       layers, layer_unit, "per_layer")


def output_path(args, kind: str, suffix: str) -> Path:
    tiny = "-tiny" if args.tiny else ""
    return RESULTS / f"{kind}-{args.workload}-s{args.seed}-trace{args.trace}{tiny}{suffix}"


def save(args, payload):
    output_path(args, "result", ".json").write_text(
        json.dumps(payload, indent=1, default=str) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    seen_env = {name: os.environ.get(name) for name in SEEN_ENV}
    os.environ.pop(THREADS_ENV, None)
    # Before numpy loads: one BLAS thread, so no op competes with its own
    # threads for the machine's two cores.
    os.environ[BLAS_THREADS_ENV] = "1"
    import_workloads()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as work:
        if args.setup_probe:
            setup_probe(args.workload, Path(work), args.tiny)
            return 0
        setup = None if args.trace else setup_seconds(args)
        workload = set_up(args.workload, Path(work), args.tiny)
        facts = machine_facts(args.seed, seen_env)
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
              f"  trace {args.trace}{'  tiny' if args.tiny else ''}")
        print("machine " + json.dumps(facts))
        tiny = "-tiny" if args.tiny else ""
        record = RESULTS / f"record-{args.workload}-s{args.seed}{tiny}-{source_digest()}.json"
        if args.trace:
            line = traced_run(args, workload, facts, record)
        else:
            line = untraced_run(args, workload, facts, record, setup)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
