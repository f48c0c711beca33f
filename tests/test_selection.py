import math
from dataclasses import replace

import numpy as np
import pytest

import cohsmix.em as em
from cohsmix.em import EMConfig, EmptyClassError, fit_multi_restart
from cohsmix.model import MODES, FeatureMatrix, ModelParams, ParamStack
from cohsmix.selection import icl_penalty, icl_score, select_q
from cohsmix.simulate import AffiliationSpec, generate, grid_specs

from conftest import random_graph, random_instance


def penalty_by_hand(q, n, p):
    pair_log = math.log(n * (n - 1) / 2)
    connectivity = 0.5 * q * (q - 1) * pair_log
    proportions = (q - 1) / 2 * math.log(n)
    covariates = p * (p - 1) * pair_log + p * q * pair_log
    return connectivity + proportions + covariates


@pytest.mark.parametrize("q,n,p", [
    (1, 10, 0), (2, 10, 1), (2, 150, 3), (3, 150, 3), (4, 150, 3),
    (5, 150, 15), (2, 50, 0), (6, 200, 2), (12, 150, 3), (3, 1000, 100),
])
def test_penalty_closed_form(q, n, p):
    assert icl_penalty(q, n, p) == pytest.approx(penalty_by_hand(q, n, p),
                                                 rel=1e-12)


def test_penalty_difference_between_two_and_three_classes():
    # With equal likelihood terms the criterion difference is purely the
    # penalty difference: [ (6-2)/2 + 3 ] * log(150*149/2) + log(150)/2.
    n, p = 150, 3
    expected = (0.5 * (6 - 2) + 3) * math.log(150 * 149 / 2) \
        + 0.5 * math.log(150)
    assert icl_penalty(3, n, p) - icl_penalty(2, n, p) == pytest.approx(
        expected, rel=1e-12
    )


def test_penalty_without_features_is_graph_only():
    q, n = 3, 120
    expected = 0.5 * q * (q - 1) * math.log(n * (n - 1) / 2) \
        + 0.5 * (q - 1) * math.log(n)
    assert icl_penalty(q, n, 0) == pytest.approx(expected, rel=1e-12)


def test_penalty_decreases_criterion_in_q():
    values = [icl_penalty(q, 150, 3) for q in range(1, 8)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_penalty_needs_two_vertices():
    with pytest.raises(ValueError):
        icl_penalty(2, 1, 0)


def test_icl_score_relabel_invariance(rng):
    from cohsmix.em import fit

    graph, features, _ = random_instance(rng, n=12, n_classes=2, p=2)
    result = fit(graph, features, 2, EMConfig(rng_seed=0))
    base = icl_score(result, graph, features)

    perm = np.array([1, 0])
    relabeled = result
    relabeled.params = ModelParams(alpha=result.params.alpha[perm],
                                   pi=result.params.pi[np.ix_(perm, perm)],
                                   mu=result.params.mu[perm],
                                   sigma2=result.params.sigma2)
    relabeled.responsibilities = result.responsibilities[:, perm]
    relabeled.partition = np.argmax(relabeled.responsibilities, axis=1)
    assert icl_score(relabeled, graph, features) == pytest.approx(base,
                                                                  abs=1e-9)


def test_graph_only_icl_ignores_feature_values():
    from cohsmix.em import fit_multi_restart

    spec = AffiliationSpec(n_classes=2, n=30, n_features=3,
                           within_prob=0.6, between_prob=0.1,
                           mean_gap=2.0, seed=0)
    graph, features, _ = generate(spec)
    other = FeatureMatrix(np.random.default_rng(1).normal(
        50.0, 9.0, size=features.values.shape))
    cfg = EMConfig(rng_seed=2, n_restarts=2)
    scores = [
        icl_score(fit_multi_restart(graph, data, 2, cfg, mode="graph-only"),
                  graph, data)
        for data in (features, other)
    ]
    fit = fit_multi_restart(graph, FeatureMatrix.empty(30), 2, cfg)
    assert scores[0] == scores[1]
    assert scores[0] == icl_score(fit, graph, FeatureMatrix.empty(30))


def test_features_only_icl_drops_connectivity_penalty(rng):
    from cohsmix.em import fit_multi_restart
    from cohsmix.model import complete_log_likelihood

    spec = AffiliationSpec(n_classes=3, n=30, n_features=2,
                           within_prob=0.6, between_prob=0.1,
                           mean_gap=2.0, seed=0)
    graph, features, _ = generate(spec)
    cfg = EMConfig(rng_seed=2, n_restarts=2)
    fit = fit_multi_restart(graph, features, 3, cfg, mode="features-only")
    log_lik = complete_log_likelihood(graph, features, fit.responsibilities,
                                      fit.params, "features-only")
    q, n, p = 3, 30, 2
    pair_log = math.log(n * (n - 1) / 2)
    remaining = (q - 1) / 2 * math.log(n) + p * (p - 1) * pair_log \
        + p * q * pair_log
    score = icl_score(fit, graph, features)
    assert score == pytest.approx(log_lik - remaining, rel=1e-12)
    assert score == icl_score(fit, random_graph(n, rng), features)


def test_select_single_candidate_returns_it():
    spec = AffiliationSpec(n_classes=2, n=30, n_features=2,
                           within_prob=0.5, between_prob=0.2,
                           mean_gap=1.5, seed=0)
    graph, features, _ = generate(spec)
    scan = select_q(graph, features, 2, 2,
                    EMConfig(rng_seed=0, n_restarts=2))
    assert scan.selected_q == 2
    assert scan.best.icl == scan.scores[2]


def test_select_range_validation(rng):
    graph = random_graph(5, rng)
    with pytest.raises(ValueError):
        select_q(graph, FeatureMatrix.empty(5), 3, 2)


@pytest.mark.parametrize("q_min,q_max,field", [
    (True, 2, "q_min"), (1.0, 2, "q_min"), (0, 2, "q_min"),
    (1, 2.0, "q_max"), (1, True, "q_max"), (3, 2, "q_max"),
])
def test_select_rejects_bounds_that_are_not_counts(rng, q_min, q_max, field):
    # True would scan from 1 and a float fail inside range(); each is named.
    graph = random_graph(5, rng)
    with pytest.raises(ValueError,
                       match=rf"^{field} must be an integer of at least"):
        select_q(graph, FeatureMatrix.empty(5), q_min, q_max)


def test_select_accepts_numpy_integer_bounds(rng):
    graph = random_graph(20, rng)
    cfg = EMConfig(rng_seed=2, n_restarts=1, max_em_iters=10)
    ours = select_q(graph, FeatureMatrix.empty(20), np.int64(1), np.int64(3),
                    cfg)
    plain = select_q(graph, FeatureMatrix.empty(20), 1, 3, cfg)
    assert ours.scores == plain.scores
    assert ours.selected_q == plain.selected_q


def test_select_rejects_q_max_above_vertex_count(rng):
    graph = random_graph(5, rng)
    with pytest.raises(ValueError, match=r"q_max=6 with n=5"):
        select_q(graph, FeatureMatrix.empty(5), 2, 6)


def test_select_rejects_all_constant_features(rng):
    graph = random_graph(30, rng)
    features = FeatureMatrix(np.full((30, 3), 2.5))
    with pytest.raises(ValueError, match=r"constant.*graph-only"):
        select_q(graph, features, 1, 4, EMConfig(rng_seed=0))
    scan = select_q(graph, features, 1, 2, EMConfig(rng_seed=0, n_restarts=2),
                    mode="graph-only")
    assert scan.selected_q in (1, 2)


def test_select_rejects_a_features_only_scan_of_no_columns(rng):
    graph = random_graph(30, rng)
    with pytest.raises(ValueError, match=r"features: the table has 0 "
                       r"columns.*features-only"):
        select_q(graph, FeatureMatrix.empty(30), 1, 3,
                 EMConfig(rng_seed=0, n_restarts=2), mode="features-only")


def test_select_noise_prefers_smallest(rng):
    picked_smallest = 0
    runs = 10
    for seed in range(runs):
        spec = AffiliationSpec(n_classes=3, n=100, n_features=3,
                               within_prob=0.3, between_prob=0.3,
                               mean_gap=0.0, seed=seed)
        graph, features, _ = generate(spec)
        scan = select_q(graph, features, 2, 4,
                        EMConfig(rng_seed=seed, n_restarts=3))
        picked_smallest += scan.selected_q == 2
    assert picked_smallest >= 0.8 * runs


def test_scan_replays_bit_for_bit():
    spec = AffiliationSpec(n_classes=2, n=40, n_features=2,
                           within_prob=0.5, between_prob=0.15,
                           mean_gap=2.0, seed=4)
    graph, features, _ = generate(spec)
    cfg = EMConfig(rng_seed=77, n_restarts=3)
    first = select_q(graph, features, 1, 3, cfg)
    second = select_q(graph, features, 1, 3, cfg)
    assert first.selected_q == second.selected_q
    assert first.scores == second.scores
    for q in first.results:
        assert np.array_equal(first.results[q].responsibilities,
                              second.results[q].responsibilities)


# ---------------------------------------------------------------------------
# The scan runs every candidate's restarts in one lockstep driver; each
# candidate must give what fit_multi_restart gives it alone.


def _candidate_cfg(cfg, q):
    """The config ``select_q`` derives for candidate ``q``."""
    seed = np.random.SeedSequence(cfg.rng_seed, spawn_key=(q,))
    return replace(cfg, rng_seed=int(seed.generate_state(1)[0]))


def _assert_scan_matches_candidates(graph, features, q_min, q_max, cfg,
                                    mode="joint"):
    scan = select_q(graph, features, q_min, q_max, cfg, mode)
    alone, failures = {}, {}
    for q in range(q_min, q_max + 1):
        try:
            alone[q] = fit_multi_restart(graph, features, q,
                                         _candidate_cfg(cfg, q), mode)
        except RuntimeError as err:
            failures[q] = str(err)
    assert scan.failures == failures
    assert sorted(scan.results) == sorted(alone)
    for q, one in alone.items():
        run = scan.results[q]
        assert run.params.n_classes == q
        assert run.responsibilities.shape == (graph.n, q)
        assert np.array_equal(run.partition, one.partition)
        assert len(run.bound_trace) == len(one.bound_trace)
        assert run.bound_trace == pytest.approx(one.bound_trace, rel=1e-9)
        assert (run.e_step_sweeps, run.sweep_cap_hits, run.failed_restarts) \
            == (one.e_step_sweeps, one.sweep_cap_hits, one.failed_restarts)
        one.icl = icl_score(one, graph, features)
    # The stacked scorer gives each candidate the score icl_score gives it
    # alone, bit for bit.
    for q, run in scan.results.items():
        assert scan.scores[q] == run.icl == icl_score(run, graph, features)
    # The best score wins, ties to the smaller class count.
    assert scan.selected_q == max(sorted(alone), key=lambda q: alone[q].icl)
    return scan


def _scan_case(seed=4, n=60):
    spec = AffiliationSpec(n_classes=3, n=n, n_features=2,
                           within_prob=0.5, between_prob=0.15,
                           mean_gap=2.0, seed=seed)
    graph, features, _ = generate(spec)
    return graph, features


@pytest.mark.parametrize("mode", MODES)
def test_scan_matches_candidates_fitted_alone(mode):
    graph, features = _scan_case()
    scan = _assert_scan_matches_candidates(
        graph, features, 1, 5, EMConfig(rng_seed=8, n_restarts=3), mode)
    # A one-class candidate sweeps nothing, padded or not.
    assert scan.results[1].e_step_sweeps == 0


@pytest.mark.parametrize("spec_index", [0, 4, 10])
def test_scan_matches_candidates_on_benchmark_models(spec_index):
    spec = grid_specs("c", n=150)[spec_index]
    graph, features, _ = generate(replace(spec, seed=spec_index))
    _assert_scan_matches_candidates(
        graph, features, 2, 6,
        EMConfig(rng_seed=spec_index, n_restarts=1, max_em_iters=25))


def test_scan_matches_candidates_with_a_reseeded_restart(monkeypatch):
    # The start of restart 1 (known by its seed's spawn key) of the
    # 3-class candidate gives class 1 no mass, so the rescue re-seeds it,
    # in the scan and alone.
    original = em._smooth

    def smooth(plans, labels):
        resps = original(plans, labels)
        for (n_classes, seed), resp in zip(plans, resps):
            if n_classes == 3 and seed.spawn_key == (1,):
                resp[:, 1] = 0.0
                resp /= resp.sum(axis=1, keepdims=True)
        return resps

    reseeds = []
    reseed = em._reseed_empty_classes

    def recorded(resp, empty_classes):
        reseeds.append((resp.shape[1], list(empty_classes)))
        return reseed(resp, empty_classes)

    monkeypatch.setattr(em, "_smooth", smooth)
    monkeypatch.setattr(em, "_reseed_empty_classes", recorded)
    # On this data restart 1 of the 3-class candidate is no twin of
    # restart 0, so it runs from its own start.
    graph, features = _scan_case(seed=5)
    _assert_scan_matches_candidates(graph, features, 2, 5,
                                    EMConfig(rng_seed=3, n_restarts=3))
    # Once in the scan and once alone, each on the candidate's own classes.
    assert reseeds == [(3, [1]), (3, [1])]


def test_scan_candidate_whose_restarts_all_fail(monkeypatch):
    # Every restart of the 3-class candidate fails its first rescue; the
    # scan records the message fit_multi_restart raises for it alone.
    original = em._rescue

    def rescue(stats):
        stats, errors = original(stats)
        for row in np.flatnonzero(stats.n_classes == 3).tolist():
            errors.setdefault(row, EmptyClassError([2]))
        return stats, errors

    monkeypatch.setattr(em, "_rescue", rescue)
    graph, features = _scan_case()
    scan = _assert_scan_matches_candidates(graph, features, 2, 4,
                                           EMConfig(rng_seed=5, n_restarts=2))
    assert scan.failures == {3: "all 2 restarts failed: ["
                                "'restart 0: classes [2] have no mass', "
                                "'restart 1: classes [2] have no mass']"}
    assert sorted(scan.results) == [2, 4]


def test_scan_whose_every_candidate_fails_raises(monkeypatch):
    # Every restart of every candidate fails its first rescue; the scan
    # names the range and each candidate's failure.
    original = em._rescue

    def rescue(stats):
        stats, errors = original(stats)
        for row in range(len(stats.n_classes)):
            errors.setdefault(row, EmptyClassError([0]))
        return stats, errors

    monkeypatch.setattr(em, "_rescue", rescue)
    graph, features = _scan_case()
    with pytest.raises(RuntimeError, match=r"^every candidate in 2\.\.3 "
                       r"failed: \{2: \"all 2 restarts failed: .*"
                       r"3: \"all 2 restarts failed: "):
        select_q(graph, features, 2, 3, EMConfig(rng_seed=5, n_restarts=2))


def test_select_q_builds_one_model_params_per_candidate(monkeypatch):
    # Only each candidate's best restart becomes a FitResult.
    spec = AffiliationSpec(n_classes=3, n=60, n_features=2,
                           within_prob=0.5, between_prob=0.1,
                           mean_gap=3.0, seed=4)
    graph, features, _ = generate(spec)
    calls = []
    original = ParamStack.unstack

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(ParamStack, "unstack", counted)
    scan = select_q(graph, features, 1, 4, EMConfig(rng_seed=2, n_restarts=3))
    assert len(calls) == 4
    assert sorted(scan.results) == [1, 2, 3, 4]
