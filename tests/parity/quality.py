"""Quality report: how often the restart search misses an optimum it can reach.

Every model of the benchmark families a-d (``grid_specs``, n = 150) is drawn
twice, replicate ``rep`` of model ``i`` of family ``letter`` from data seed
``1000 * i + rep + ord(letter)``, and fitted at its true class count by
``fit_multi_restart`` with fit seed ``7 + rep``. Each fit is compared with a
truth start: ``fit`` from ``0.9 * one_hot(truth) + 0.1 / Q``, an oracle that
only simulated data has. A search miss is a fit whose final bound the truth
start's beats by more than ``BOUND_REL_TOL`` of it, the relative change at
which a fit stops. Per mode, restart count and family
the report prints the fits, the search misses, the largest bound gap in
nats, the mean ARI of the searched fits and that of the truth starts. A
second table gives, per mode and restart count, how many fits each restart
index won (``FitResult.best_restart``). The graph-only mode skips family
d, whose graphs carry no class structure.

    PYTHONPATH=src python tests/parity/quality.py

It reports and does not gate: it exits 0 whatever the counts are.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

import numpy as np

from cohsmix.em import BOUND_REL_TOL, EMConfig, fit, fit_multi_restart
from cohsmix.metrics import adjusted_rand_index
from cohsmix.simulate import SETTINGS, generate, grid_specs

MODES = ("joint", "features-only", "graph-only")
RESTARTS = (10, 3, 1)
REPLICATES = 2


def truth_start(truth, n_classes: int) -> np.ndarray:
    """The smoothed one-hot responsibilities of the true labels."""
    return 0.9 * np.eye(n_classes)[truth] + 0.1 / n_classes


def cases(family: str):
    """(graph, features, truth, n_classes, fit seed) of every replicate of
    every model of ``family``."""
    for index, spec in enumerate(grid_specs(family)):
        for rep in range(REPLICATES):
            graph, features, truth = generate(
                replace(spec, seed=1000 * index + rep + ord(family)))
            yield graph, features, truth, spec.n_classes, 7 + rep


def family_fits(family: str, mode: str) -> dict:
    """By restart count, a (bound gap, ARI, truth-start ARI, truth-start
    bound, winning restart) for every fit of ``family`` in ``mode``."""
    fits = {restarts: [] for restarts in RESTARTS}
    for graph, features, truth, n_classes, seed in cases(family):
        oracle = fit(graph, features, n_classes,
                     resp_init=truth_start(truth, n_classes), mode=mode)
        oracle_ari = adjusted_rand_index(truth, oracle.partition)
        for restarts in RESTARTS:
            found = fit_multi_restart(
                graph, features, n_classes,
                EMConfig(rng_seed=seed, n_restarts=restarts), mode)
            fits[restarts].append((
                oracle.final_bound - found.final_bound,
                adjusted_rand_index(truth, found.partition), oracle_ari,
                oracle.final_bound, found.best_restart))
    return fits


def summary(fits) -> str:
    """The table cells of a list of fits of :func:`family_fits`."""
    gaps, aris, truth_aris, bounds, _ = np.array(fits).T
    misses = np.count_nonzero(
        gaps > BOUND_REL_TOL * np.maximum(1.0, np.abs(bounds)))
    return f"{len(fits)} | {misses} | {max(0.0, gaps.max()):.1f} | " \
        f"{aris.mean():.3f} | {truth_aris.mean():.3f}"


def wins(fits, restarts: int) -> str:
    """How many of ``fits`` each restart index won, restart 0 first."""
    won = np.bincount([int(fit[-1]) for fit in fits], minlength=restarts)
    return " / ".join(map(str, won.tolist()))


def main() -> int:
    began = time.perf_counter()
    winners = []
    print("| mode | restarts | family | fits | search misses "
          "| largest gap (nats) | mean ARI | truth-start ARI |")
    print("|---|---|---|---|---|---|---|---|")
    for mode in MODES:
        families = [letter for letter in SETTINGS
                    if mode != "graph-only" or letter != "d"]
        by_family = {letter: family_fits(letter, mode) for letter in families}
        for restarts in RESTARTS:
            for letter in families:
                print(f"| {mode} | {restarts} | {letter} | "
                      f"{summary(by_family[letter][restarts])} |")
            every = [one for letter in families
                     for one in by_family[letter][restarts]]
            print(f"| {mode} | {restarts} | all | {summary(every)} |")
            winners.append(
                f"| {mode} | {restarts} | {wins(every, restarts)} |")
    print()
    print("| mode | restarts | fits won by restart 0 / 1 / ... |")
    print("|---|---|---|")
    print("\n".join(winners))
    print(f"report took {time.perf_counter() - began:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
