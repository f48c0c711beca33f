"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they appear; without ``-s`` pytest shows them for failing criteria only.
"""

import numpy as np
import pytest

from cohsmix.em import EMConfig, fit, fit_multi_restart, m_step
from cohsmix.harness import run_grid
from cohsmix.metrics import adjusted_rand_index
from cohsmix.model import (
    FeatureMatrix,
    exact_log_marginal,
    variational_lower_bound,
)
from cohsmix.selection import select_q
from cohsmix.simulate import AffiliationSpec, generate, grid_specs

from conftest import random_instance, random_responsibilities
from oracles import ari_pair_counting, maximize_bound_numerically

CI_CFG = EMConfig(n_restarts=2, max_em_iters=50)


def report(number: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {verdict} - {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_bound_below_exact_marginal():
    worst = -np.inf
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 9))
        graph, features, params = random_instance(rng, n=n, n_classes=2, p=2)
        ceiling = exact_log_marginal(graph, features, params)
        for _ in range(20):
            resp = random_responsibilities(n, 2, rng)
            bound = variational_lower_bound(graph, features, resp, params)
            worst = max(worst, bound - ceiling)
    report(1, worst <= 1e-9,
           f"bound minus exact marginal at most {worst:.3e} "
           "over 50 instances x 20 responsibility matrices (limit 1e-9)")


def test_criterion_2_m_step_matches_numerical_maximizer():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        graph, features, _ = random_instance(rng, n=10, n_classes=2, p=2)
        resp = random_responsibilities(10, 2, rng)
        params = m_step(graph, features, resp)
        closed = variational_lower_bound(graph, features, resp, params)

        numeric = maximize_bound_numerically(
            graph, features, resp,
            lambda cand: variational_lower_bound(graph, features, resp, cand),
            n_classes=2, start_params=params, seed=seed,
        )
        worst = max(worst, numeric - closed)
    report(2, worst <= 1e-6,
           f"numerical maximizer over closed form by at most {worst:.3e} "
           "on 20 instances (limit 1e-6)")


def test_criterion_3_em_monotone_on_grid_replicates():
    records = run_grid("c", replicates=3, cfg=CI_CFG, seed=11)
    bad = [r.status for r in records if r.status != "ok"]
    report(3, not bad,
           f"{len(records)} grid replicates, statuses clean "
           f"(violations/errors: {bad if bad else 'none'})")


def test_criterion_4_recovery_and_selection():
    spec = AffiliationSpec(n_classes=3, n=150, n_features=3,
                           within_prob=0.5, between_prob=0.1,
                           mean_gap=4.0, noise_std=1.0)
    scores = []
    hits = 0
    replicates = 20
    for replicate in range(replicates):
        sim_seed = int(np.random.SeedSequence(
            40, spawn_key=(replicate, 0)).generate_state(1)[0])
        fit_seed = int(np.random.SeedSequence(
            40, spawn_key=(replicate, 1)).generate_state(1)[0])
        graph, features, truth = generate(
            AffiliationSpec(**{**spec.__dict__, "seed": sim_seed}))
        scan = select_q(graph, features, 2, 6,
                        EMConfig(rng_seed=fit_seed, n_restarts=10))
        hits += scan.selected_q == 3
        scores.append(adjusted_rand_index(truth,
                                          scan.results[3].partition))
    median = float(np.median(scores))
    rate = hits / replicates
    report(4, median >= 0.9 and rate >= 0.6,
           f"median agreement {median:.3f} (need >= 0.9), true class count "
           f"selected in {rate:.0%} of {replicates} replicates (need >= 60%)")


def test_criterion_5_qualitative_trends():
    cfg = EMConfig(n_restarts=10)
    setting_a = grid_specs("a")
    endpoints_a = [setting_a[0], setting_a[-1]]  # 2 and 12 classes
    records_a = run_grid("a", replicates=5, cfg=cfg, seed=51,
                         specs=endpoints_a)
    med_a = [
        float(np.median([r.ari for r in records_a
                         if r.spec_index == i and r.status == "ok"]))
        for i in range(2)
    ]

    setting_d = grid_specs("d")
    endpoints_d = [setting_d[0], setting_d[-1]]  # mean gaps 4 and 8.5
    records_d = run_grid("d", replicates=5, cfg=cfg, seed=52,
                         specs=endpoints_d)
    med_d = [
        float(np.median([r.ari for r in records_d
                         if r.spec_index == i and r.status == "ok"]))
        for i in range(2)
    ]

    ok = med_a[0] >= med_a[1] and med_d[1] >= med_d[0]
    report(5, ok,
           f"median agreement {med_a[0]:.3f} at 2 classes >= {med_a[1]:.3f} "
           f"at 12; {med_d[1]:.3f} at gap 8.5 >= {med_d[0]:.3f} at gap 4")


def test_criterion_6_ari_oracle_equivalence():
    rng = np.random.default_rng(66)
    worst = 0.0
    exact_ones = True
    for _ in range(100):
        n = int(rng.integers(2, 31))
        a = rng.integers(0, int(rng.integers(1, 6)), size=n)
        b = rng.integers(0, int(rng.integers(1, 6)), size=n)
        worst = max(worst, abs(adjusted_rand_index(a, b)
                               - ari_pair_counting(a, b)))
        exact_ones &= adjusted_rand_index(a, a) == 1.0
    report(6, worst <= 1e-12 and exact_ones,
           f"100 pairs match the pair-counting oracle to {worst:.3e} "
           f"(limit 1e-12); self-agreement exactly 1: {exact_ones}")


def test_criterion_7_grid_cli_byte_identical(tmp_path):
    from cohsmix.cli import main

    argv = ["grid", "--setting", "c", "--seed", "7", "--replicates", "3",
            "--restarts", "2"]
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    assert main(argv + ["--out", str(tmp_path / "two")]) == 0
    first = (tmp_path / "one" / "results.csv").read_bytes()
    second = (tmp_path / "two" / "results.csv").read_bytes()
    report(7, first == second,
           f"two CLI grid runs wrote identical results.csv "
           f"({len(first)} bytes)")


def test_criterion_8_degenerate_inputs():
    picked_min = 0
    runs = 20
    for seed in range(runs):
        spec = AffiliationSpec(n_classes=3, n=100, n_features=3,
                               within_prob=0.3, between_prob=0.3,
                               mean_gap=0.0, seed=seed)
        graph, features, _ = generate(spec)
        scan = select_q(graph, features, 2, 4,
                        EMConfig(rng_seed=seed, n_restarts=3))
        picked_min += scan.selected_q == 2
    rate = picked_min / runs

    spec = AffiliationSpec(n_classes=2, n=40, n_features=3,
                           within_prob=0.6, between_prob=0.1,
                           mean_gap=2.0, seed=3)
    graph, features, _ = generate(spec)
    cfg = EMConfig(rng_seed=9)
    no_features = fit(graph, FeatureMatrix.empty(40), 2, cfg)
    graph_only = fit(graph, features, 2, cfg, mode="graph-only")
    identical = (
        np.array_equal(no_features.responsibilities,
                       graph_only.responsibilities)
        and no_features.bound_trace == graph_only.bound_trace
        and np.array_equal(no_features.partition, graph_only.partition)
    )
    report(8, rate >= 0.8 and identical,
           f"smallest class count picked on noise in {rate:.0%} of {runs} "
           f"runs (need >= 80%); featureless fit equals graph-only mode "
           f"exactly: {identical}")
