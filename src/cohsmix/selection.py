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
    check_count,
    check_features_vary,
    check_responsibilities,
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


def icl_score(fit: FitResult, graph: Graph, features: FeatureMatrix) -> float:
    """Criterion value of a fitted model on its data.

    The likelihood term uses the fitted soft responsibilities, whose shape
    is checked against the graph. Both the likelihood and the penalty keep
    only the terms of ``fit.mode``: a graph-only fit is scored as if there
    were no features, a features-only fit as if there were no edges. This
    is the scan's stacked scorer on one fit.
    """
    check_responsibilities(fit.responsibilities, graph.n,
                           fit.params.n_classes)
    score, = _icl_scores(graph, features, [fit], fit.mode)
    return score


def _icl_scores(graph: Graph, features: FeatureMatrix, fits,
                mode: str) -> list[float]:
    """The criterion of each fit of ``fits``, all fitted in ``mode``, at
    its own (n, Q) responsibilities, from one padded :class:`ClassStats`.

    The matrices and the parameters are padded to the widest fit by
    :meth:`ClassStats.of` and :meth:`ParamStack.of`. Each matrix gets the
    adjacency product it gets alone, one :meth:`Graph.neighbour_mass` of
    its own contiguous transpose, so every statistic and every score
    equals, bit for bit, what the fit gets on a stack of one (see
    :class:`ClassStats`).
    """
    use_edges, use_features = mode_terms(mode)
    resps = [fit.responsibilities for fit in fits]
    masses = [graph.neighbour_mass(np.ascontiguousarray(resp.T))
              for resp in resps] if use_edges else None
    stats = ClassStats.of(graph, features, *resps, masses=masses)
    log_lik = stats.log_likelihood(
        ParamStack.of(*(fit.params for fit in fits)), mode)
    n_features = features.p if use_features else 0
    return [value - icl_penalty(q, graph.n, n_features, use_edges)
            for value, q in zip(log_lik.tolist(), stats.n_classes.tolist())]


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
    check_count("q_min", q_min, 1)
    check_count("q_max", q_max, q_min)
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
    scores = dict(zip(results, _icl_scores(graph, features, results.values(),
                                           mode)))
    for q, result in results.items():
        result.icl = scores[q]
    selected = min(scores)
    for q in sorted(scores):
        if scores[q] > scores[selected]:
            selected = q
    return ICLScan(q_min=q_min, q_max=q_max, results=results, scores=scores,
                   failures=failures, selected_q=selected)
