"""The package runs on numpy alone.

A fresh interpreter, with every warning an error and ``scipy`` made
unimportable, drives each entry point once: if anything under ``src/``
imports scipy, or a serial run imports the process pool's machinery, the
child fails loudly. This file imports neither scipy nor hypothesis, so it
runs where only the package and pytest are installed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError

import math
import tempfile
from pathlib import Path

import numpy as np

import cohsmix
from cohsmix import (AffiliationSpec, EMConfig, FeatureMatrix, Graph,
                     ModelParams, complete_log_likelihood,
                     exact_log_marginal, fit_multi_restart, generate,
                     run_grid, select_q, variational_lower_bound)
from cohsmix.cli import main

cfg = EMConfig(max_em_iters=20, n_restarts=2, rng_seed=3)
spec = AffiliationSpec(n_classes=2, n=30, n_features=2, within_prob=0.5,
                       between_prob=0.1, mean_gap=2.0, seed=4)
graph, features, truth = generate(spec)

result = fit_multi_restart(graph, features, 2, cfg)
assert math.isfinite(result.final_bound)
scan = select_q(graph, features, 1, 3, cfg)
assert scan.selected_q in (1, 2, 3)
records = run_grid("a", replicates=1, cfg=cfg, seed=5, specs=[spec])
assert [record.status for record in records] == ["ok"]

params = result.params
resp = np.full((graph.n, 2), 0.5)
bound = variational_lower_bound(graph, features, resp, params)
assert math.isfinite(bound)
assert math.isfinite(complete_log_likelihood(graph, features, truth, params))
tiny = ModelParams(alpha=[0.5, 0.5], pi=[[0.6, 0.2], [0.2, 0.6]],
                   mu=np.zeros((2, 1)), sigma2=1.0)
tiny_graph = Graph(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                             [0.0, 1.0, 0.0]]))
tiny_features = FeatureMatrix(np.array([[0.1], [-0.3], [0.7]]))
assert math.isfinite(exact_log_marginal(tiny_graph, tiny_features, tiny))

with tempfile.TemporaryDirectory() as tmp:
    data, out = Path(tmp) / "data", Path(tmp) / "out"
    assert main(["simulate", "--q", "2", "--n", "30", "--lambda", "0.5",
                 "--epsilon", "0.1", "--gap", "2", "--p", "2", "--seed", "6",
                 "--out", str(data)]) == 0
    assert main(["fit", "--graph", str(data / "graph.tsv"),
                 "--features", str(data / "features.csv"), "--q", "2",
                 "--restarts", "2", "--out", str(out)]) == 0
    assert (out / "summary.txt").is_file()

loaded = sorted(name for name, module in sys.modules.items()
                if module is not None and name.split(".")[0] == "scipy")
assert not loaded, loaded
assert "multiprocessing" not in sys.modules
print("numpy-only ok")
"""


def test_package_runs_without_scipy():
    env = {key: value for key, value in os.environ.items()
           if key != "COHSMIX_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("numpy-only ok")
