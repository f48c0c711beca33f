"""Invariants of the bound, ICL and ARI over generated inputs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohsmix.em import FitResult, mode_lower_bound
from cohsmix.metrics import adjusted_rand_index
from cohsmix.model import (
    MODES,
    ModelParams,
    exact_log_marginal,
    one_hot,
    partition_from_responsibilities,
    variational_lower_bound,
)
from cohsmix.selection import icl_score

from conftest import random_instance, random_responsibilities

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
