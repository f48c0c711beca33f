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

    PYTHONPATH=src python tests/parity/quality.py check   # list what moved
    PYTHONPATH=src python tests/parity/quality.py write   # rewrite the file

Both print the two tables. The cells of both, and no wall time, are kept in
``quality.json``: ``write`` rewrites it, and ``check`` prints every cell
that moved with its kept and its new value. It reports and does not gate:
``check`` exits 0 whatever moved. Rewriting the file changes the baseline,
so a change that does it names the cells that moved.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from cohsmix.em import BOUND_REL_TOL, EMConfig, fit, fit_multi_restart
from cohsmix.metrics import adjusted_rand_index
from cohsmix.simulate import SETTINGS, generate, grid_specs

BASELINE = Path(__file__).with_name("quality.json")
MODES = ("joint", "features-only", "graph-only")
RESTARTS = (10, 3, 1)
REPLICATES = 2
# The cells of a row of the first table, after its mode, restarts and
# family.
COLUMNS = ("fits", "search misses", "largest gap (nats)", "mean ARI",
           "truth-start ARI")


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


def report() -> tuple[list[str], dict]:
    """The lines of both tables, and their cells by row: ``"<mode> |
    <restarts> | <family>"`` to the :data:`COLUMNS` of the first table,
    ``"<mode> | <restarts> | wins"`` to the fits won by each restart
    index."""
    lines = ["| mode | restarts | family | fits | search misses "
             "| largest gap (nats) | mean ARI | truth-start ARI |",
             "|---|---|---|---|---|---|---|---|"]
    winners = ["| mode | restarts | fits won by restart 0 / 1 / ... |",
               "|---|---|---|"]
    cells = {}
    for mode in MODES:
        families = [letter for letter in SETTINGS
                    if mode != "graph-only" or letter != "d"]
        by_family = {letter: family_fits(letter, mode) for letter in families}
        for restarts in RESTARTS:
            rows = [(letter, by_family[letter][restarts])
                    for letter in families]
            rows.append(("all", [one for _, fits in rows for one in fits]))
            for letter, fits in rows:
                row = f"{mode} | {restarts} | {letter}"
                line = summary(fits)
                lines.append(f"| {row} | {line} |")
                cells[row] = dict(zip(COLUMNS, line.split(" | ")))
            won = wins(rows[-1][1], restarts)
            winners.append(f"| {mode} | {restarts} | {won} |")
            cells[f"{mode} | {restarts} | wins"] = {
                f"restart {r}": count
                for r, count in enumerate(won.split(" / "))}
    return lines + [""] + winners, cells


def moved(kept: dict, now: dict) -> list[str]:
    """A line for each cell of ``kept`` or ``now`` that differs, with its
    kept and its new value, and a count of them."""
    lines = []
    for row in sorted(kept.keys() | now.keys()):
        was, new = kept.get(row, {}), now.get(row, {})
        for column in sorted(was.keys() | new.keys()):
            if was.get(column) != new.get(column):
                lines.append(f"{row} | {column}: {was.get(column, '(none)')}"
                             f" -> {new.get(column, '(none)')}")
    return lines + [f"{len(now)} rows: {len(lines)} cells moved"]


def main(argv) -> int:
    if argv not in (["check"], ["write"]):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    began = time.perf_counter()
    lines, cells = report()
    print("\n".join(lines))
    print(f"report took {time.perf_counter() - began:.1f} s")
    if argv == ["write"]:
        BASELINE.write_text(json.dumps(cells, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
        print(f"wrote {len(cells)} rows to {BASELINE}")
    else:
        kept = json.loads(BASELINE.read_text(encoding="utf-8"))
        print("\n".join(moved(kept, cells)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
