"""The benchmark's workloads: one op each, with its correctness check.

Every workload calls the program through module attributes
(``em.fit_multi_restart`` rather than a name imported once), so the traced
run's wrappers see every call. An op is split into ``execute`` (timed) and
``check`` (untimed), which returns an ``Outcome``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as _io
import math
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import cohsmix.cli as cli
import cohsmix.em as em
import cohsmix.harness as harness
import cohsmix.io as cio
import cohsmix.metrics as metrics
import cohsmix.selection as selection
import cohsmix.simulate as simulate

# Non-decrease tolerance on a bound trace; the same one the harness uses to
# flag a trace violation.
TRACE_TOL = 1e-8
# Rows of tau.csv are written with repr() of a row-normalised matrix.
ROW_SUM_TOL = 1e-9


@dataclass
class Outcome:
    """What an op produced and whether its outputs passed the checks."""

    problems: list[str] = field(default_factory=list)
    ari: float | None = None
    q_hit: float | None = None
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def op_seeds(seed: int, index: int) -> tuple[int, int]:
    """Data and fit seeds of op ``index``, derived from the workload seed."""
    data, fit = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(2)
    return int(data), int(fit)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _trace_problems(trace, label: str) -> list[str]:
    problems = []
    diffs = np.diff(np.asarray(trace, dtype=float))
    if diffs.size and diffs.min() < -TRACE_TOL:
        problems.append(f"{label} decreases by {-diffs.min():.3g}")
    if not trace or not math.isfinite(trace[-1]):
        problems.append(f"{label} final bound is not finite")
    return problems


class PaperFit:
    """README-spec dataset, 10-restart fit, ICL and ARI: the paper's scale."""

    name = "paper_fit"
    trace_ops = 30
    # Kernel repetitions between two ops: under a tenth of an op.
    calibration_reps = 12

    def __init__(self, work_dir: Path, tiny: bool = False):
        self.spec = simulate.AffiliationSpec(
            n_classes=3, n=40 if tiny else 150, n_features=3,
            within_prob=0.5, between_prob=0.1, mean_gap=4.0)
        self.restarts = 2 if tiny else 10

    def execute(self, index: int, seed: int):
        data_seed, fit_seed = op_seeds(seed, index)
        graph, features, labels = simulate.generate(
            replace(self.spec, seed=data_seed))
        result = em.fit_multi_restart(
            graph, features, self.spec.n_classes,
            em.EMConfig(rng_seed=fit_seed, n_restarts=self.restarts))
        result.icl = selection.icl_score(result, graph, features)
        ari = metrics.adjusted_rand_index(labels, result.partition)
        return result, ari

    def check(self, raw) -> Outcome:
        result, ari = raw
        out = Outcome(ari=ari)
        out.problems = _trace_problems(result.bound_trace, "bound trace")
        out.fingerprint = _digest(ari, result.bound_trace, result.icl,
                                  result.converged)
        return out


# EM iteration cap of each icl_scan fit. Uncapped, fits at over-specified Q
# take 2 to about 70 iterations, so a few long fits set an op's cost; capped
# at 25, about 40% of fits stop at the cap and an op's cost follows the data
# draw much less.
SCAN_EM_ITERS = 25


class IclScan:
    """``run_grid`` ICL scan 2..6 of one benchmark family c model per op."""

    name = "icl_scan"
    # One pass over the family's 11 models.
    trace_ops = 11
    calibration_reps = 15

    def __init__(self, work_dir: Path, tiny: bool = False):
        self.work_dir = work_dir
        self.specs = simulate.grid_specs("c", n=40 if tiny else 150)
        if tiny:
            self.specs = self.specs[:2]
        self.scan_range = (2, 3) if tiny else (2, 6)
        self.cfg = em.EMConfig(n_restarts=1, max_em_iters=SCAN_EM_ITERS)

    def execute(self, index: int, seed: int):
        """Scan the models in order, op ``index`` taking model ``index % 11``."""
        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        records = harness.run_grid(
            "c", replicates=1, cfg=self.cfg, out_dir=out_dir,
            seed=op_seeds(seed, index)[0],
            specs=[self.specs[index % len(self.specs)]],
            scan_range=self.scan_range)
        return records, out_dir

    def check(self, raw) -> Outcome:
        records, out_dir = raw
        try:
            out = Outcome()
            for record in records:
                if record.status != "ok":
                    out.problems.append(f"model {record.spec_index}: status "
                                        f"{record.status!r}")
            tables = []
            for name in ("results.csv", "aggregate.csv"):
                text = (out_dir / name).read_bytes()
                tables.append(text)
                rows = list(csv.reader(_io.StringIO(text.decode("utf-8"))))
                for line_no, row in enumerate(rows[1:], start=2):
                    if len(row) != len(rows[0]):
                        out.problems.append(
                            f"{name}:{line_no} has {len(row)} fields "
                            f"under a {len(rows[0])}-column header")
            if len(records) != 1:
                out.problems.append(f"{len(records)} records for one model")
            ok = [r for r in records if r.status == "ok"]
            if ok:
                out.ari = float(np.mean([r.ari for r in ok]))
                out.q_hit = float(np.mean([r.fitted_q == r.n_classes_true
                                           for r in ok]))
            out.fingerprint = _digest(*tables)
            return out
        finally:
            shutil.rmtree(out_dir)


# Vertices of the large_cli graph. The best of four restarts takes either
# about 4 or about 12 EM iterations depending on the data draw, so a fit's
# cost varies by the draw and a run needs many ops: at 2000 vertices an op
# took 6-11 s and a run held four or five; at 700 it takes about 1.8 s.
CLI_VERTICES = 700


class LargeCli:
    """``cohsmix simulate`` then ``cohsmix fit`` on 700 vertices, in-process."""

    name = "large_cli"
    trace_ops = 5
    calibration_reps = 40

    def __init__(self, work_dir: Path, tiny: bool = False):
        self.work_dir = work_dir
        self.n = 60 if tiny else CLI_VERTICES
        self.restarts = 1 if tiny else 4

    def execute(self, index: int, seed: int):
        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        data, fitted = out_dir / "data", out_dir / "fit"
        log = _io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            codes = [cli.main([
                "simulate", "--n", str(self.n), "--q", "3", "--lambda", "0.35",
                "--epsilon", "0.25", "--gap", "1", "--p", "3",
                "--seed", str(op_seeds(seed, index)[0]), "--out", str(data)])]
            if codes[0] == 0:
                codes.append(cli.main([
                    "fit", "--graph", str(data / "graph.tsv"),
                    "--features", str(data / "features.csv"), "--q", "3",
                    "--restarts", str(self.restarts), "--out", str(fitted)]))
        return codes, log.getvalue(), data, fitted, out_dir

    def check(self, raw) -> Outcome:
        codes, log, data, fitted, out_dir = raw
        try:
            out = Outcome()
            if codes != [0, 0]:
                out.problems.append(f"exit codes {codes}: {log.strip()[-200:]}")
                return out
            labels = _labels(data / "labels.csv")
            partition = _labels(fitted / "partition.csv")
            if len(partition) != self.n:
                out.problems.append(
                    f"partition.csv has {len(partition)} rows, expected {self.n}")
            _, j_trace, _ = cio.read_params(fitted / "params.json")
            out.problems += _trace_problems(j_trace, "params.json j_trace")
            tau = np.loadtxt(fitted / "tau.csv", delimiter=",", skiprows=1,
                             ndmin=2)
            worst = float(np.abs(tau.sum(axis=1) - 1.0).max())
            if worst > ROW_SUM_TOL:
                out.problems.append(f"a tau.csv row sum is {worst:.3g} off 1")
            if len(partition) == len(labels):
                out.ari = metrics.adjusted_rand_index(labels, partition)
            out.fingerprint = _digest(
                *((fitted / name).read_bytes()
                  for name in ("partition.csv", "tau.csv", "params.json")))
            return out
        finally:
            shutil.rmtree(out_dir)


def _labels(path: Path) -> np.ndarray:
    """Second column of a ``vertex,label`` CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64,
                      ndmin=2)[:, 1]


WORKLOADS = {w.name: w for w in (PaperFit, IclScan, LargeCli)}
