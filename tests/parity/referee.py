"""Parity referee: rounded outcomes of a few fixed fits, kept in golden.json.

Each entry records, for one fit (or one candidate of a scan): the partition
up to relabelling, the trace length, ``converged``, the sweep counters, the
final bound and the ICL rounded to 1e-9 relative, the failed restarts, and
an exact digest of the full-precision outcome. ``tests/parity/
test_parity.py`` recomputes every entry and compares all but the digests
exactly; the digests are reported, not asserted.

    PYTHONPATH=src python tests/parity/referee.py check   # list what moved
    PYTHONPATH=src python tests/parity/referee.py write   # rewrite the file

``check`` prints the entries whose rounded fields moved, each moved field
with its golden and its new value, and the entries whose exact digest
moved; it exits with 1 when a rounded field moved, else 0. A
change that keeps every output bit moves no digest. Rewriting the file
changes what the referee accepts, so a change that does it names the
entries that moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from cohsmix.em import EMConfig, fit_multi_restart
from cohsmix.model import MODES
from cohsmix.selection import icl_score, select_q
from cohsmix.simulate import AffiliationSpec, generate, grid_specs

GOLDEN = Path(__file__).with_name("golden.json")

# The README's example dataset and fit.
README_SPEC = AffiliationSpec(n_classes=3, n=150, n_features=3,
                              within_prob=0.5, between_prob=0.1,
                              mean_gap=4.0, seed=7)
README_CFG = EMConfig(rng_seed=0, n_restarts=10)
# The icl_scan benchmark's fit: one restart per candidate, capped at 25
# EM iterations, on a family-c model.
SCAN_SPEC = replace(grid_specs("c", n=150)[5], seed=7)
SCAN_CFG = EMConfig(rng_seed=7, n_restarts=1, max_em_iters=25)
# A graph-only fit, whose k-means starts cluster the adjacency rows.
GRAPH_ONLY_SPEC = replace(README_SPEC, n=60, seed=3)
# The acceptance suite's fit of the benchmark families, on one model of each
# family the scan does not cover, fitted at its true class count.
FAMILY_CFG = EMConfig(rng_seed=5, n_restarts=2, max_em_iters=50)
FAMILY_MODELS = (("a", 2), ("b", 3), ("d", 2))
# Tiny graphs: fewer than ten vertices, no feature columns, one class.
TINY_FITS = (
    ("n=8", replace(README_SPEC, n=8, n_classes=2, seed=5), 2),
    ("p=0", replace(README_SPEC, n=40, n_features=0, seed=5), 3),
    ("one class", replace(README_SPEC, n=30, seed=5), 1),
)


def rounded(value: float) -> str:
    """``value`` to ten significant digits: a step of at most 1e-9 of it."""
    return f"{value:.9e}"


def partition_key(partition) -> str:
    """A hash of the partition with its classes numbered by first vertex."""
    _, first, inverse = np.unique(partition, return_index=True,
                                  return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return hashlib.sha256(rank[inverse].astype(np.int64).tobytes()) \
        .hexdigest()[:16]


def fit_record(result, icl: float) -> dict:
    params = result.params
    digest = hashlib.sha256()
    for part in (repr(result.bound_trace), repr(icl), repr(params.sigma2)):
        digest.update(part.encode())
    for array in (result.responsibilities, params.alpha, params.pi,
                  params.mu):
        digest.update(np.ascontiguousarray(array).tobytes())
    return {
        "partition": partition_key(result.partition),
        "trace_length": len(result.bound_trace),
        "converged": bool(result.converged),
        "e_step_sweeps": result.e_step_sweeps,
        "sweep_cap_hits": result.sweep_cap_hits,
        "final_bound": rounded(result.final_bound),
        "icl": rounded(icl),
        "failed_restarts": list(result.failed_restarts),
        "digest": digest.hexdigest()[:16],
    }


def compute() -> dict:
    """Every entry of the golden file, recomputed."""
    entries = {}
    graph, features, _ = generate(README_SPEC)
    for mode in MODES:
        result = fit_multi_restart(graph, features, 3, README_CFG, mode)
        entries[f"fit_multi_restart readme {mode}"] = fit_record(
            result, icl_score(result, graph, features))

    graph, features, _ = generate(SCAN_SPEC)
    scan = select_q(graph, features, 2, 6, SCAN_CFG)
    entries["select_q family-c[5] 2..6"] = {
        "selected_q": scan.selected_q,
        "failures": {str(q): msg for q, msg in sorted(scan.failures.items())},
    }
    for q, result in sorted(scan.results.items()):
        entries[f"select_q family-c[5] q={q}"] = fit_record(result,
                                                            scan.scores[q])

    graph, features, _ = generate(GRAPH_ONLY_SPEC)
    result = fit_multi_restart(graph, features, 3, README_CFG, "graph-only")
    entries["fit_multi_restart n=60 graph-only"] = fit_record(
        result, icl_score(result, graph, features))

    for family, index in FAMILY_MODELS:
        spec = replace(grid_specs(family)[index], seed=11)
        graph, features, _ = generate(spec)
        result = fit_multi_restart(graph, features, spec.n_classes, FAMILY_CFG)
        entries[f"fit_multi_restart family-{family}[{index}]"] = fit_record(
            result, icl_score(result, graph, features))

    for name, spec, n_classes in TINY_FITS:
        graph, features, _ = generate(spec)
        result = fit_multi_restart(graph, features, n_classes, README_CFG)
        entries[f"fit_multi_restart tiny {name}"] = fit_record(
            result, icl_score(result, graph, features))
    return entries


def without_digests(entries: dict) -> dict:
    return {name: {key: value for key, value in entry.items()
                   if key != "digest"}
            for name, entry in entries.items()}


def main(argv) -> int:
    if argv not in (["check"], ["write"]):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    entries = compute()
    if argv == ["write"]:
        GOLDEN.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {len(entries)} entries to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    kept, now = without_digests(golden), without_digests(entries)
    rounded_moved = sorted(name for name in golden.keys() | entries.keys()
                           if kept.get(name) != now.get(name))
    digest_moved = sorted(
        name for name in golden.keys() & entries.keys()
        if golden[name].get("digest") != entries[name].get("digest"))
    for name in rounded_moved:
        print(f"rounded fields moved: {name}")
        was, new = kept.get(name, {}), now.get(name, {})
        for key in sorted(was.keys() | new.keys()):
            if was.get(key) != new.get(key):
                print(f"  {key}: golden {was.get(key, '(none)')!r}, "
                      f"now {new.get(key, '(none)')!r}")
    for name in digest_moved:
        print(f"exact digest moved: {name}")
    print(f"{len(entries)} entries: {len(rounded_moved)} rounded moved, "
          f"{len(digest_moved)} digests moved")
    return 1 if rounded_moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
