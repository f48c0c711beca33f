"""Class-count selection by the integrated classification likelihood.

The criterion is the fitted complete-data log-likelihood minus closed-form
penalties for the connectivity, proportion, and feature parameters; the
candidate count with the highest score wins, ties going to the smaller one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import EMConfig, FitResult, _fit_candidates, child_seed
from .model import (
    ClassStats,
    FeatureMatrix,
    Graph,
    ParamStack,
    _soft_assignment,
    check_features_vary,
    check_rows,
    mode_terms,
)


def icl_penalty(n_classes: int, n_vertices: int, n_features: int,
                use_edges: bool = True) -> float:
    """Closed-form complexity penalty of the selection criterion.

    ICL (Biernacki, Celeux & Govaert, 2000) is the complete-data
    log-likelihood at the fitted parameters minus a BIC-type penalty: per
    block of parameters, a multiple of the log of the number of
    observations that inform it. Here the connectivity block costs
    ``Q(Q-1)/2`` times the log of the n(n-1)/2 vertex pairs ("log-pairs"),
    and the proportions ``(Q-1)/2`` times log n.

    The feature block costs ``p(p-1) + pQ`` log-pairs, with no factor of one
    half.
    ``p(p-1)`` is the number of off-diagonal entries of a full p x p
    covariance matrix and ``pQ`` the number of class means, so the count
    describes a Gaussian with a full shared covariance. The fitted model is
    spherical: it has Qp means and one variance. The count is kept as the
    criterion defines it, and ``tests/test_selection.py`` pins its values;
    the source paper's derivation is not at hand (only its abstract is),
    so no number has been changed to match the fitted model.

    With no features the feature block vanishes and the criterion reduces
    to the graph-only form; ``use_edges=False`` drops the connectivity
    block for a fit that estimates no connectivity parameters.
    """
    if n_vertices < 2:
        raise ValueError("the criterion needs at least 2 vertices")
    q, n, p = n_classes, n_vertices, n_features
    pair_log = math.log(n * (n - 1) / 2.0)
    connectivity = 0.5 * q * (q - 1) * pair_log if use_edges else 0.0
    return (
        connectivity
        + 0.5 * (q - 1) * math.log(n)
        + p * (p - 1) * pair_log
        + p * q * pair_log
    )


def icl_score(fit: FitResult, graph: Graph, features: FeatureMatrix,
              hard_assignment: bool = False) -> float:
    """Criterion value of a fitted model on its data.

    The likelihood term uses the fitted soft responsibilities by default;
    ``hard_assignment=True`` switches to the argmax partition. Both the
    likelihood and the penalty keep only the terms of ``fit.mode``: a
    graph-only fit is scored as if there were no features, a features-only
    fit as if there were no edges. This is the scan's stacked scorer on one
    fit.
    """
    assignment = fit.partition if hard_assignment else fit.responsibilities
    resp = _soft_assignment(assignment, graph.n, fit.params.n_classes)
    score, = _icl_scores(graph, features, [fit], [resp], fit.mode)
    return score


def _icl_scores(graph: Graph, features: FeatureMatrix, fits, resps,
                mode: str) -> list[float]:
    """The criterion of each fit of ``fits``, all fitted in ``mode``, at
    its (n, Q) responsibility matrix in ``resps``, from one padded
    :class:`ClassStats`.

    Each matrix is padded with empty classes, and its parameters with
    proportion 0, connection probability 0.5 and mean 0, up to the widest
    fit; each gets the adjacency product it gets alone, one
    :meth:`Graph.neighbour_mass` of its own classes, so every statistic and
    every score equals, bit for bit, what the fit gets on a stack of one
    (see :class:`ClassStats`).
    """
    use_edges, use_features = mode_terms(mode)
    n = graph.n
    widths = [fit.params.n_classes for fit in fits]
    shape = (len(fits), max(widths))
    resp_t = np.zeros(shape + (n,))
    mass = np.zeros_like(resp_t) if use_edges else None
    alpha = np.zeros(shape)
    pi = np.full(shape + shape[1:], 0.5)
    mu = np.zeros(shape + (fits[0].params.n_features,))
    for row, (fit, resp, q) in enumerate(zip(fits, resps, widths)):
        own = np.ascontiguousarray(resp.T)
        resp_t[row, :q] = own
        if use_edges:
            mass[row, :q] = graph.neighbour_mass(own)
        params = fit.params
        alpha[row, :q], pi[row, :q, :q], mu[row, :q] = \
            params.alpha, params.pi, params.mu
    sigma2 = np.array([fit.params.sigma2 for fit in fits])
    log_lik = ClassStats(graph, features, resp_t, mass, np.array(widths)) \
        .log_likelihood(ParamStack(alpha, pi, mu, sigma2), mode)
    n_features = features.p if use_features else 0
    return [value - icl_penalty(q, n, n_features, use_edges)
            for value, q in zip(log_lik.tolist(), widths)]


@dataclass
class ICLScan:
    """Outcome of scanning a range of class counts."""

    q_min: int
    q_max: int
    results: dict[int, FitResult]
    scores: dict[int, float]
    failures: dict[int, str]
    selected_q: int

    @property
    def best(self) -> FitResult:
        return self.results[self.selected_q]


def select_q(graph: Graph, features: FeatureMatrix, q_min: int, q_max: int,
             cfg: EMConfig | None = None, mode: str = "joint") -> ICLScan:
    """Fit every candidate class count and keep the best-scoring one.

    Candidate ``q`` is seeded by ``child_seed(cfg.rng_seed, q)``, so the
    whole scan replays bit-for-bit, and is scored on its soft
    responsibilities: the surviving candidates in one padded
    stack, each exactly as :func:`icl_score` scores it alone. The restarts
    of every candidate run in one lockstep EM driver, each candidate giving
    what :func:`~cohsmix.em.fit_multi_restart` gives it alone, to rounding.
    Candidates whose every restart fails are recorded and excluded; if all
    candidates fail the scan raises.
    """
    if not 1 <= q_min <= q_max:
        raise ValueError(f"need 1 <= q_min <= q_max, got {q_min}..{q_max}")
    if q_max > graph.n:
        raise ValueError(f"need q_max <= n, got q_max={q_max} "
                         f"with n={graph.n} vertices")
    check_rows(graph, features)
    check_features_vary(features, mode)
    cfg = cfg or EMConfig()
    candidates = [(q, child_seed(cfg.rng_seed, q))
                  for q in range(q_min, q_max + 1)]
    results: dict[int, FitResult] = {}
    failures: dict[int, str] = {}
    for (q, _), result in zip(candidates, _fit_candidates(
            graph, features, candidates, cfg, mode)):
        if isinstance(result, RuntimeError):
            failures[q] = str(result)
        else:
            results[q] = result
    if not results:
        raise RuntimeError(f"every candidate in {q_min}..{q_max} failed: {failures}")
    fits = list(results.values())
    scores = dict(zip(results, _icl_scores(
        graph, features, fits, [fit.responsibilities for fit in fits], mode)))
    for q, result in results.items():
        result.icl = scores[q]
    selected = min(scores)
    for q in sorted(scores):
        if scores[q] > scores[selected]:
            selected = q
    return ICLScan(q_min=q_min, q_max=q_max, results=results, scores=scores,
                   failures=failures, selected_q=selected)
