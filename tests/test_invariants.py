"""Invariants of the bound, ICL, ARI and whole fits over generated inputs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohsmix.em import EMConfig, FitResult, fit_multi_restart, mode_lower_bound
from cohsmix.metrics import adjusted_rand_index
from cohsmix.model import (
    MODES,
    ModelParams,
    exact_log_marginal,
    one_hot,
    partition_from_responsibilities,
    variational_lower_bound,
)
from cohsmix.selection import icl_score, select_q

from conftest import (
    random_features,
    random_graph,
    random_instance,
    random_responsibilities,
)

GENERATED = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@GENERATED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
       n_classes=st.integers(1, 3), p=st.integers(0, 2),
       hard=st.booleans())
def test_bound_below_exact_marginal(seed, n, n_classes, p, hard):
    rng = np.random.default_rng(seed)
    graph, features, params = random_instance(rng, n=n, n_classes=n_classes,
                                              p=p)
    if hard:
        resp = one_hot(rng.integers(0, n_classes, size=n), n_classes)
    else:
        resp = random_responsibilities(n, n_classes, rng)
    bound = variational_lower_bound(graph, features, resp, params)
    # Criterion 1's limit.
    assert bound <= exact_log_marginal(graph, features, params) + 1e-9


def _relabelled(params: ModelParams, perm) -> ModelParams:
    return ModelParams(alpha=params.alpha[perm],
                       pi=params.pi[np.ix_(perm, perm)],
                       mu=params.mu[perm], sigma2=params.sigma2)


def _close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-9)


@GENERATED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 15),
       n_classes=st.integers(2, 4), p=st.integers(0, 2),
       mode=st.sampled_from(MODES))
def test_bound_and_icl_invariant_under_relabelling(seed, n, n_classes, p,
                                                   mode):
    rng = np.random.default_rng(seed)
    graph, features, params = random_instance(rng, n=n, n_classes=n_classes,
                                              p=p)
    resp = random_responsibilities(n, n_classes, rng)
    perm = rng.permutation(n_classes)
    other_params, other_resp = _relabelled(params, perm), resp[:, perm]
    assert _close(mode_lower_bound(graph, features, other_resp, other_params,
                                   mode),
                  mode_lower_bound(graph, features, resp, params, mode))

    def fitted(prm, rsp):
        return FitResult(params=prm, responsibilities=rsp,
                         partition=partition_from_responsibilities(rsp),
                         bound_trace=[0.0], converged=True, mode=mode)

    base, other = fitted(params, resp), fitted(other_params, other_resp)
    # The permuted partition names the same classes by other labels.
    assert np.array_equal(perm[other.partition], base.partition)
    assert _close(icl_score(other, graph, features),
                  icl_score(base, graph, features))


@GENERATED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       k_a=st.integers(1, 6), k_b=st.integers(1, 6))
def test_ari_invariant_under_relabelling(seed, n, k_a, k_b):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, k_a, size=n)
    b = rng.integers(0, k_b, size=n)
    value = adjusted_rand_index(a, b)
    assert _close(adjusted_rand_index(rng.permutation(k_a)[a],
                                      rng.permutation(k_b)[b]), value)
    assert _close(adjusted_rand_index(b, a), value)


@st.composite
def _fit_inputs(draw):
    n = draw(st.integers(1, 10))
    return dict(seed=draw(st.integers(0, 2**32 - 1)), n=n,
                density=draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])),
                p=draw(st.sampled_from([0, 2])),
                n_classes=draw(st.integers(1, n + 1)),
                mode=draw(st.sampled_from(MODES)),
                n_restarts=draw(st.integers(1, 3)),
                max_em_iters=draw(st.sampled_from([1, 5, 100])))


@settings(GENERATED, max_examples=250)
@given(case=_fit_inputs())
def test_a_fit_keeps_its_guarantees_or_names_the_bad_input(case):
    # The two outcomes of every input: a fit with a finite, non-decreasing
    # trace, row-stochastic responsibilities, an identical rerun and (joint,
    # n <= 7) a final bound at or below the exact marginal at its params;
    # or a ValueError naming the class count or the features.
    rng = np.random.default_rng(case["seed"])
    n, n_classes, mode = case["n"], case["n_classes"], case["mode"]
    graph = random_graph(n, rng, density=case["density"])
    features = random_features(n, case["p"], rng)
    cfg = EMConfig(max_em_iters=case["max_em_iters"],
                   n_restarts=case["n_restarts"], rng_seed=case["seed"])
    try:
        result = fit_multi_restart(graph, features, n_classes, cfg, mode)
    except ValueError as err:
        assert "n_classes" in str(err) or "features" in str(err), err
        return
    trace = np.array(result.bound_trace)
    assert np.isfinite(trace).all()
    assert (np.diff(trace) >= 0).all()
    resp = result.responsibilities
    assert resp.shape == (n, n_classes) and (resp >= 0).all()
    assert np.allclose(resp.sum(axis=1), 1.0)
    again = fit_multi_restart(graph, features, n_classes, cfg, mode)
    assert again.bound_trace == result.bound_trace
    assert np.array_equal(again.responsibilities, resp)
    for name in ("alpha", "pi", "mu", "sigma2"):
        assert np.array_equal(getattr(again.params, name),
                              getattr(result.params, name))
    if mode == "joint" and n <= 7:
        exact = exact_log_marginal(graph, features, result.params)
        assert result.final_bound <= exact + 1e-9 * max(1.0, abs(exact))


@st.composite
def _scan_inputs(draw):
    case = draw(_fit_inputs())
    q_min = draw(st.integers(1, case["n"] + 1))
    return dict(case, q_min=q_min, q_max=draw(st.integers(q_min,
                                                          case["n"] + 1)))


@settings(GENERATED, max_examples=250)
@given(case=_scan_inputs())
def test_a_scan_keeps_its_guarantees_or_names_the_bad_input(case):
    # The two outcomes of every scan: each candidate a fit with the
    # guarantees of fit_multi_restart's test above, an identical rerun of
    # the whole scan; or a ValueError naming the class range, the features
    # or the vertex count (the criterion needs two vertices), or a
    # RuntimeError naming the range whose candidates all failed.
    rng = np.random.default_rng(case["seed"])
    n, mode = case["n"], case["mode"]
    q_min, q_max = case["q_min"], case["q_max"]
    graph = random_graph(n, rng, density=case["density"])
    features = random_features(n, case["p"], rng)
    cfg = EMConfig(max_em_iters=case["max_em_iters"],
                   n_restarts=case["n_restarts"], rng_seed=case["seed"])
    try:
        scan = select_q(graph, features, q_min, q_max, cfg, mode)
    except ValueError as err:
        assert any(name in str(err)
                   for name in ("q_max", "features", "vertices")), err
        return
    except RuntimeError as err:
        assert f"{q_min}..{q_max}" in str(err), err
        return
    assert sorted(list(scan.results) + list(scan.failures)) \
        == list(range(q_min, q_max + 1))
    assert scan.selected_q in scan.results
    again = select_q(graph, features, q_min, q_max, cfg, mode)
    assert (again.scores, again.failures, again.selected_q) \
        == (scan.scores, scan.failures, scan.selected_q)
    for q, result in scan.results.items():
        trace = np.array(result.bound_trace)
        assert np.isfinite(trace).all() and np.isfinite(result.icl)
        assert (np.diff(trace) >= 0).all()
        resp = result.responsibilities
        assert resp.shape == (n, q) and (resp >= 0).all()
        assert np.allclose(resp.sum(axis=1), 1.0)
        other = again.results[q]
        assert other.bound_trace == result.bound_trace
        assert np.array_equal(other.responsibilities, resp)
        for name in ("alpha", "pi", "mu", "sigma2"):
            assert np.array_equal(getattr(other.params, name),
                                  getattr(result.params, name))
        if mode == "joint" and n <= 7:
            exact = exact_log_marginal(graph, features, result.params)
            assert result.final_bound <= exact + 1e-9 * max(1.0, abs(exact))
