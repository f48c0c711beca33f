"""Desk-scale reproduction of the synthetic benchmark study.

``run_grid`` simulates every model of a benchmark family a number of times,
fits each replicate (at the generating class count by default, or with a
class-count scan), and streams one record per replicate into results.csv
plus an aggregate of the agreement score against the swept parameter.
Replicates can run in parallel (COHSMIX_THREADS); output order and content
stay deterministic for a fixed seed, so reruns are byte-identical.
Wall-clock timings are nondeterministic and therefore go to a separate
timings.csv.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .em import EMConfig, child_seed, fit_multi_restart
from .io import write_csv
from .metrics import adjusted_rand_index
from .model import check_count
from .selection import icl_score, select_q
from .simulate import AffiliationSpec, generate, grid_specs, varied_parameter

THREADS_ENV = "COHSMIX_THREADS"

AGGREGATE_COLUMNS = (
    "setting", "spec_index", "varied_param", "varied_value", "n_ok",
    "mean_ari", "median_ari",
)


@dataclass
class ExperimentRecord:
    """One replicate of one synthetic model."""

    setting: str
    spec_index: int
    replicate: int
    n: int
    n_classes_true: int
    n_features: int
    within_prob: float
    between_prob: float
    mean_gap: float
    fitted_q: int | None
    final_bound: float | None
    icl: float | None
    ari: float | None
    # Counters of the reported fit (a scan's selected candidate), empty for
    # a replicate that failed; failed_restarts counts its failed restarts.
    converged: bool | None
    em_iters: int | None
    e_step_sweeps: int | None
    sweep_cap_hits: int | None
    failed_restarts: int | None
    status: str
    wall_time_s: float


# results.csv holds every field of the record but the wall-clock time, which
# differs between reruns and goes to timings.csv.
RESULTS_COLUMNS = tuple(field.name for field in fields(ExperimentRecord)
                        if field.name != "wall_time_s")


def worker_count() -> int:
    """Parallelism cap from the environment; 1 means run serially.

    Unset or empty means 1. Any other value must be an integer of at least
    1, or ``ValueError`` names the variable and the value.
    """
    raw = os.environ.get(THREADS_ENV, "")
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(
            f"{THREADS_ENV} must be an integer of at least 1, got {raw!r}")
    return count


def _run_replicate(task) -> ExperimentRecord:
    setting, spec_index, spec, replicate, seed, cfg, scan_range = task
    started = time.perf_counter()
    sim_seed = child_seed(seed, spec_index, replicate, 0)
    fit_seed = child_seed(seed, spec_index, replicate, 1)
    fitted_q = final_bound = icl = ari = None
    converged = em_iters = sweeps = cap_hits = failed_restarts = None
    status = "ok"
    try:
        graph, features, truth = generate(replace(spec, seed=sim_seed))
        rep_cfg = replace(cfg, rng_seed=fit_seed)
        if scan_range is not None:
            scan = select_q(graph, features, scan_range[0], scan_range[1], rep_cfg)
            result = scan.best
        else:
            result = fit_multi_restart(graph, features, spec.n_classes, rep_cfg)
            result.icl = icl_score(result, graph, features)
        fitted_q = result.params.n_classes
        final_bound = result.final_bound
        icl = result.icl
        ari = adjusted_rand_index(truth, result.partition)
        converged = result.converged
        em_iters = result.em_iters
        sweeps, cap_hits = result.e_step_sweeps, result.sweep_cap_hits
        failed_restarts = len(result.failed_restarts)
        diffs = np.diff(result.bound_trace)
        if diffs.size and diffs.min() < -1e-8:
            status = "trace-violation"
    except Exception as err:  # recorded, never aborts the grid
        status = f"error:{type(err).__name__}:{err}"
    return ExperimentRecord(
        setting=setting, spec_index=spec_index, replicate=replicate,
        n=spec.n, n_classes_true=spec.n_classes, n_features=spec.n_features,
        within_prob=spec.within_prob, between_prob=spec.between_prob,
        mean_gap=spec.mean_gap, fitted_q=fitted_q, final_bound=final_bound,
        icl=icl, ari=ari, converged=converged, em_iters=em_iters,
        e_step_sweeps=sweeps, sweep_cap_hits=cap_hits,
        failed_restarts=failed_restarts, status=status,
        wall_time_s=time.perf_counter() - started,
    )


def run_grid(setting: str, replicates: int = 20, cfg: EMConfig | None = None,
             out_dir=None, seed: int = 0,
             specs: list[AffiliationSpec] | None = None,
             scan_range: tuple[int, int] | None = None) -> list[ExperimentRecord]:
    """Run one benchmark family and optionally write the CSV outputs.

    Replicate ``r`` of ``specs[i]`` is simulated and fitted from the seeds
    ``child_seed(seed, i, r, k)``, k = 0 and 1. Per-replicate failures are
    recorded in the status column. When
    ``scan_range`` is given, each replicate picks its class count by the
    selection criterion instead of fitting at the generating one.
    """
    check_count("replicates", replicates, 1)
    check_count("seed", seed, 0)
    if scan_range is not None:
        try:
            q_min, q_max = scan_range
        except (TypeError, ValueError):
            raise ValueError("scan_range must be a (q_min, q_max) pair, "
                             f"got {scan_range!r}") from None
        scan_range = q_min, q_max
        # Integer bounds out of order are named by their order; any other
        # bad bound by its own rule.
        if all(isinstance(bound, (int, np.integer)) for bound in scan_range) \
                and not 1 <= q_min <= q_max:
            raise ValueError("scan_range must satisfy 1 <= q_min <= q_max, "
                             f"got {q_min}..{q_max}")
        for name, bound in zip(("q_min", "q_max"), scan_range):
            check_count(f"scan_range {name}", bound, 1)
    cfg = cfg or EMConfig()
    if specs is None:
        specs = grid_specs(setting)
    tasks = [
        (setting, spec_index, spec, replicate, seed, cfg, scan_range)
        for spec_index, spec in enumerate(specs)
        for replicate in range(replicates)
    ]
    # The pool starts every worker at the first task, so it gets no more
    # workers than there are tasks; a single task runs in this process.
    workers = min(worker_count(), len(tasks))
    if workers > 1:
        # Imported here: the pool pulls multiprocessing, subprocess, socket
        # and pickle into the process, which a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_replicate, tasks, chunksize=1))
    else:
        records = [_run_replicate(task) for task in tasks]

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_results_csv(records, out / "results.csv")
        write_aggregate_csv(records, specs, setting, out / "aggregate.csv")
        write_timings_csv(records, out / "timings.csv")
    return records


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(records, path) -> Path:
    return write_csv(path, [
        RESULTS_COLUMNS,
        *([_format(getattr(record, column)) for column in RESULTS_COLUMNS]
          for record in records),
    ])


def write_aggregate_csv(records, specs, setting: str, path) -> Path:
    rows = [AGGREGATE_COLUMNS]
    for spec_index, spec in enumerate(specs):
        scores = [
            r.ari for r in records
            if r.spec_index == spec_index and r.status == "ok"
        ]
        name, value = varied_parameter(setting, spec)
        rows.append([
            setting, str(spec_index), name, repr(float(value)),
            str(len(scores)),
            repr(float(np.mean(scores))) if scores else "",
            repr(float(np.median(scores))) if scores else "",
        ])
    return write_csv(path, rows)


def write_timings_csv(records, path) -> Path:
    return write_csv(path, [
        ("setting", "spec_index", "replicate", "wall_time_s"),
        *((r.setting, r.spec_index, r.replicate, repr(r.wall_time_s))
          for r in records),
    ])
