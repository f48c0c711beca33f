"""Run one benchmark family end to end and read off the difficulty trend.

Family "c" keeps three classes and three features and sweeps the gap
between within- and between-class edge probabilities from 0 (no graph
structure) to 0.5 (strong structure). Agreement grows with the gap; the
floor is set by the feature signal, which does not change across the sweep.

A fast profile is used here (3 replicates, 2 restarts); the full protocol
defaults are 20 replicates and 10 restarts.
"""

import tempfile
from pathlib import Path

from cohsmix import EMConfig, run_grid

with tempfile.TemporaryDirectory(prefix="cohsmix-grid-") as tmp:
    out_dir = Path(tmp)
    records = run_grid(
        "c",
        replicates=3,
        cfg=EMConfig(n_restarts=2, max_em_iters=50),
        out_dir=out_dir,
        seed=42,
    )
    failures = [r for r in records if r.status != "ok"]
    print(f"{len(records)} replicates finished, {len(failures)} failures\n")
    # The grid also wrote results.csv and timings.csv; the directory goes
    # when this block ends, so the table is read here.
    print((out_dir / "aggregate.csv").read_text())

print("columns: swept parameter value, replicates used, mean and median")
print("adjusted Rand index; rerunning with the same seed reproduces")
print("results.csv byte for byte.")
