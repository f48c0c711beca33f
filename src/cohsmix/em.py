"""Variational EM: fixed-point E-step, closed-form M-step, fit drivers.

The E-step iterates a damped Jacobi fixed-point update of the vertex
responsibilities in the log domain; the M-step maximises the lower bound in
closed form. ``fit`` alternates the two until the bound stalls, and
``fit_multi_restart`` keeps the best of several independently initialised
runs. Ablation modes drop the edge or feature terms from both steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    PI_EPS,
    SIGMA2_FLOOR,
    ClassStats,
    FeatureMatrix,
    Graph,
    ModelParams,
    check_responsibilities,
    check_rows,
    mode_terms,
    one_hot,
    partition_from_responsibilities,
    squared_distances,
)

INIT_STRATEGIES = ("random-dirichlet", "feature-kmeans", "graph-degree-quantile")

EMPTY_CLASS_MASS = 1e-10
_RESCUE_ATTEMPTS = 3


class EmptyClassError(RuntimeError):
    """Raised when one or more classes lose all responsibility mass."""

    def __init__(self, empty_classes):
        self.empty_classes = list(empty_classes)
        super().__init__(f"classes {self.empty_classes} have no mass")


@dataclass(frozen=True)
class EMConfig:
    """Knobs of the EM driver; defaults follow the study protocol."""

    max_em_iters: int = 100
    max_fixedpoint_sweeps: int = 50
    fixedpoint_tol: float = 1e-4
    bound_rel_tol: float = 1e-6
    damping: float = 0.5
    n_restarts: int = 10
    rng_seed: int | None = None
    init_strategy: str = "random-dirichlet"

    def __post_init__(self):
        if self.max_em_iters < 1 or self.max_fixedpoint_sweeps < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.fixedpoint_tol <= 0 or self.bound_rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be at least 1")
        if self.init_strategy not in INIT_STRATEGIES:
            raise ValueError(f"unknown init strategy {self.init_strategy!r}")


@dataclass
class FitResult:
    """Converged parameters and responsibilities of one EM run."""

    params: ModelParams
    responsibilities: np.ndarray
    partition: np.ndarray
    bound_trace: list[float]
    converged: bool
    mode: str = "joint"
    icl: float | None = None

    @property
    def final_bound(self) -> float:
        return self.bound_trace[-1]


def mode_lower_bound(graph: Graph, features: FeatureMatrix, resp,
                     params: ModelParams, mode: str = "joint") -> float:
    """Lower bound with the edge or feature term dropped per ablation mode.

    ``resp`` is a responsibility matrix or the :class:`ClassStats` of one.
    """
    stats = resp if isinstance(resp, ClassStats) \
        else ClassStats(graph, features, resp)
    return stats.bound(params, mode)


# ---------------------------------------------------------------------------
# Initialisation


def init_responsibilities(graph: Graph, features: FeatureMatrix, n_classes: int,
                          strategy: str = "random-dirichlet",
                          rng: np.random.Generator | None = None) -> np.ndarray:
    """Build a row-stochastic starting point.

    ``random-dirichlet`` draws each row from a flat Dirichlet;
    ``feature-kmeans`` one-hot encodes a short k-means run on the feature
    rows, falling back to the adjacency rows (each vertex's connectivity
    profile) when there are no feature columns; ``graph-degree-quantile``
    bins vertices into degree quantiles. The two hard strategies are
    smoothed towards uniform with weight 0.1, so every entry is at least
    0.1 / n_classes.
    """
    if n_classes < 1:
        raise ValueError("n_classes must be at least 1")
    if strategy not in INIT_STRATEGIES:
        raise ValueError(f"unknown init strategy {strategy!r}")
    rng = np.random.default_rng(rng)
    n = graph.n
    if n_classes == 1:
        return np.ones((n, 1))
    if strategy == "random-dirichlet":
        return rng.dirichlet(np.ones(n_classes), size=n)
    if strategy == "feature-kmeans":
        points = features.values if features.p else graph.adjacency
        labels = _kmeans_labels(points, n_classes, rng)
    else:
        labels = _degree_quantile_labels(graph, n_classes)
    return 0.9 * one_hot(labels, n_classes) + 0.1 / n_classes


def _kmeans_labels(points: np.ndarray, k: int, rng: np.random.Generator,
                   n_iters: int = 20) -> np.ndarray:
    n = points.shape[0]
    if points.shape[1] == 0:
        # Nothing to cluster; a balanced random hard partition at least
        # breaks label symmetry.
        return rng.permutation(np.arange(n, dtype=np.int64) % k)
    idx = rng.choice(n, size=k, replace=n < k)
    centers = points[idx].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(n_iters):
        labels = np.argmin(squared_distances(points, centers), axis=1)
        for q in range(k):
            members = labels == q
            if members.any():
                centers[q] = points[members].mean(axis=0)
    return labels


def _degree_quantile_labels(graph: Graph, k: int) -> np.ndarray:
    n = graph.n
    order = np.argsort(graph.adjacency.sum(axis=1), kind="stable")
    labels = np.zeros(n, dtype=np.int64)
    labels[order] = np.arange(n) * k // max(n, 1)
    return labels


# ---------------------------------------------------------------------------
# E-step


def e_step(graph: Graph, features: FeatureMatrix, params: ModelParams,
           resp, cfg: EMConfig | None = None, mode: str = "joint"):
    """Damped Jacobi iteration of the responsibility fixed point.

    Every sweep recomputes all rows from the previous sweep's values, then
    blends with the old values using ``cfg.damping``. Iteration stops once
    the sup-norm residual of the undamped update drops below
    ``cfg.fixedpoint_tol`` (so the damped per-sweep change is below it too)
    or after ``cfg.max_fixedpoint_sweeps`` sweeps; a sweep that changes
    nothing ends it on the iterate it started from. The returned matrix
    never lowers the bound relative to the start: if the final sweep does,
    the best iterate seen (start included, ties to the earliest) is returned
    instead. Only the start and final bounds are computed unless that
    fallback fires.

    The sweeps run on the (Q, n) transpose of the responsibilities, so each
    one's n^2 work is one :meth:`Graph.neighbour_mass`, and the logits of
    the vertex terms (proportions and features) are computed once.

    ``resp`` is a responsibility matrix or the :class:`ClassStats` of one,
    and the result is of the same kind. Given a ``ClassStats``, the first
    sweep reuses its ``adjacency @ resp`` product, and the returned one
    holds the product its bound read, so the M-step need not compute it
    again.
    """
    cfg = cfg or EMConfig()
    use_edges, use_features = mode_terms(mode)
    given = resp if isinstance(resp, ClassStats) else None
    resp = check_responsibilities(resp if given is None else given.resp,
                                  graph.n, params.n_classes)
    n, n_classes = resp.shape
    if n_classes == 1:
        ones = np.ones((n, 1))
        return ones if given is None else ClassStats(graph, features, ones)

    with np.errstate(divide="ignore"):
        log_alpha = np.log(params.alpha)
        log_pi = np.log(params.pi)
        log_not = np.log1p(-params.pi)
    d2 = squared_distances(features.values, params.mu)
    # (Q, n) logits of the terms no sweep changes. A neighbour of class l
    # adds log pi, any other vertex of class l log(1 - pi): the sweep applies
    # their difference to the neighbour mass and log(1 - pi) to the mass of
    # the other vertices.
    base = np.repeat(log_alpha[:, None], n, axis=1)
    if use_features and features.p:
        base -= d2.T / (2.0 * params.sigma2)
    log_ratio = log_pi - log_not

    start = given if given is not None else ClassStats(graph, features, resp)
    # The start bound shares the first sweep's adjacency product.
    start_bound = start.bound(params, mode, d2)
    first = cur = np.ascontiguousarray(start.resp.T)
    # The product of ``cur`` once computed; C-contiguous, as adj_resp is its
    # transposed view.
    mass = start.adj_resp.T if use_edges else None
    # Iterates after the start with their products, compared only if the
    # fallback fires; without the edge term it compares the start alone.
    kept = []
    for _ in range(cfg.max_fixedpoint_sweeps):
        if use_edges:
            if mass is None:
                mass = graph.neighbour_mass(cur)
                kept.append((cur, mass))
            logits = log_ratio @ mass
            logits += base
            logits += log_not @ (cur.sum(axis=1)[:, None] - cur)
        else:
            logits = base.copy()
        # Softmax over the classes shifted by the class maximum: exp can
        # neither overflow nor underflow a whole column to zero.
        logits -= logits.max(axis=0)
        update = np.exp(logits, out=logits)
        update /= update.sum(axis=0)
        residual = np.abs(update - cur).max()
        if residual == 0.0:
            break
        cur = (1.0 - cfg.damping) * update + cfg.damping * cur
        mass = None
        if residual <= cfg.fixedpoint_tol:
            break

    if cur is first:
        stats = start
    else:
        stats = ClassStats(graph, features, np.ascontiguousarray(cur.T),
                           None if mass is None else mass.T)
    final_bound = stats.bound(params, mode, d2)
    if final_bound < start_bound - 1e-9:
        best_bound, best = start_bound, start
        for iterate, product in kept:
            candidate = ClassStats(graph, features,
                                   np.ascontiguousarray(iterate.T), product.T)
            value = candidate.bound(params, mode, d2)
            if value > best_bound:
                best_bound, best = value, candidate
        if best_bound > final_bound:
            stats = best
    return stats if given is not None else stats.resp


# ---------------------------------------------------------------------------
# M-step


def m_step(graph: Graph, features: FeatureMatrix, resp: np.ndarray,
           mode: str = "joint", pi_eps: float = PI_EPS,
           sigma2_floor: float = SIGMA2_FLOOR) -> ModelParams:
    """Closed-form bound maximiser at fixed responsibilities.

    Raises
    ------
    EmptyClassError
        If any class has total mass below 1e-10; the fit driver reacts by
        re-seeding that class.
    """
    use_edges, use_features = mode_terms(mode)
    stats = resp if isinstance(resp, ClassStats) else ClassStats(
        graph, features, check_responsibilities(resp, graph.n))
    n, n_classes = stats.resp.shape
    col = stats.col
    empty = np.nonzero(col < EMPTY_CLASS_MASS)[0]
    if empty.size:
        raise EmptyClassError(empty.tolist())

    alpha = col / n

    if use_edges:
        on, den = stats.on, stats.pairs
        with np.errstate(invalid="ignore", divide="ignore"):
            pi = np.where(den > 0, on / np.where(den > 0, den, 1.0), 0.5)
        pi = (pi + pi.T) / 2.0
        pi = np.clip(pi, pi_eps, 1.0 - pi_eps)
    else:
        pi = np.full((n_classes, n_classes), 0.5)

    p = features.p
    if use_features and p:
        mu = (stats.resp.T @ features.values) / col[:, None]
        sigma2 = max(stats.scatter(mu) / (p * n), sigma2_floor)
    else:
        mu = np.zeros((n_classes, p))
        sigma2 = sigma2_floor

    return ModelParams(alpha=alpha, pi=pi, mu=mu, sigma2=sigma2)


def _reseed_empty_classes(resp: np.ndarray, empty_classes) -> np.ndarray:
    """Give each empty class one vertex: the least confidently assigned."""
    resp = resp.copy()
    confidence = resp.max(axis=1)
    candidates = iter(np.argsort(confidence, kind="stable"))
    for q in empty_classes:
        i = next(candidates)
        row = resp[i].copy()
        row[q] = 0.0
        total = row.sum()
        if total > 0:
            row *= 0.1 / total
        else:
            row[:] = 0.1 / (resp.shape[1] - 1)
        row[q] = 0.9
        resp[i] = row / row.sum()
    return resp


def _m_step_with_rescue(graph, features, stats, mode, attempts=_RESCUE_ATTEMPTS):
    """M-step on a ``ClassStats``, re-seeding empty classes up to ``attempts``
    times; returns the parameters and the statistics they were fitted to."""
    for attempt in range(attempts + 1):
        try:
            return m_step(graph, features, stats, mode=mode), stats
        except EmptyClassError as err:
            if attempt == attempts:
                raise
            stats = ClassStats(graph, features, _reseed_empty_classes(
                stats.resp, err.empty_classes))


# ---------------------------------------------------------------------------
# Drivers


def fit(graph: Graph, features: FeatureMatrix, n_classes: int,
        cfg: EMConfig | None = None, resp_init: np.ndarray | None = None,
        mode: str = "joint") -> FitResult:
    """Run EM from one starting point.

    Records the lower bound after every M-step; stops when the relative
    bound change drops below ``cfg.bound_rel_tol`` (converged) or the
    iteration cap is hit. The recorded trace is non-decreasing: an
    iteration that would lower the bound (possible only after an
    empty-class re-seed) is rolled back and the run stops there. Raises
    ``ValueError`` unless ``1 <= n_classes <= graph.n``.
    """
    cfg = cfg or EMConfig()
    check_rows(graph, features)
    if not 1 <= n_classes <= graph.n:
        raise ValueError(f"need 1 <= n_classes <= n, got n_classes={n_classes} "
                         f"with n={graph.n} vertices")
    _, use_features = mode_terms(mode)
    if resp_init is None:
        rng = np.random.default_rng(cfg.rng_seed)
        # The graph-only mode must not see the features anywhere, the
        # initialisation included.
        init_features = features if use_features \
            else FeatureMatrix.empty(graph.n)
        resp = init_responsibilities(graph, init_features, n_classes,
                                     cfg.init_strategy, rng)
    else:
        resp = check_responsibilities(resp_init, graph.n, n_classes)

    params, stats = _m_step_with_rescue(
        graph, features, ClassStats(graph, features, resp), mode)
    trace = [mode_lower_bound(graph, features, stats, params, mode)]
    converged = False
    for _ in range(cfg.max_em_iters):
        new_params, new_stats = _m_step_with_rescue(
            graph, features, e_step(graph, features, params, stats, cfg, mode),
            mode)
        value = mode_lower_bound(graph, features, new_stats, new_params, mode)
        if value < trace[-1] - 1e-9:
            break
        stats, params = new_stats, new_params
        previous = trace[-1]
        trace.append(value)
        if abs(value - previous) <= cfg.bound_rel_tol * max(1.0, abs(previous)):
            converged = True
            break

    return FitResult(
        params=params,
        responsibilities=stats.resp,
        partition=partition_from_responsibilities(stats.resp),
        bound_trace=trace,
        converged=converged,
        mode=mode,
    )


def _restart_strategy(index: int, cfg: EMConfig, has_features: bool,
                      has_edges: bool) -> str:
    if has_features:
        if index == 0:
            return "feature-kmeans"
        if index == 1 and has_edges:
            return "graph-degree-quantile"
        return cfg.init_strategy
    if not has_edges:
        return cfg.init_strategy
    # Without usable features, k-means falls back to the adjacency rows;
    # those hard starts escape the symmetric fixed point that traps soft
    # random rows.
    return "graph-degree-quantile" if index == 0 else "feature-kmeans"


def restart_configs(cfg: EMConfig, has_features: bool,
                    has_edges: bool = True) -> list[EMConfig]:
    """Per-restart configs: distinct derived seeds, varied init strategies."""
    children = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.n_restarts)
    return [
        replace(
            cfg,
            rng_seed=int(child.generate_state(1)[0]),
            init_strategy=_restart_strategy(r, cfg, has_features, has_edges),
        )
        for r, child in enumerate(children)
    ]


def fit_multi_restart(graph: Graph, features: FeatureMatrix, n_classes: int,
                      cfg: EMConfig | None = None, mode: str = "joint",
                      return_all: bool = False):
    """Best-of-``cfg.n_restarts`` EM runs, selected by final bound.

    Restart seeds derive from ``cfg.rng_seed``; the first two restarts use
    the structured initialisers the mode can read, the rest
    ``cfg.init_strategy`` (k-means on the adjacency rows when there are no
    usable features). Ties keep the earliest restart. Raises if every
    restart fails.
    """
    cfg = cfg or EMConfig()
    results: list[FitResult | None] = []
    errors: list[str] = []
    use_edges, use_features = mode_terms(mode)
    for restart_cfg in restart_configs(cfg, features.p > 0 and use_features,
                                       use_edges):
        try:
            results.append(fit(graph, features, n_classes, restart_cfg, mode=mode))
        except EmptyClassError as err:
            results.append(None)
            errors.append(str(err))
    best = None
    for result in results:
        if result is not None and (best is None
                                   or result.final_bound > best.final_bound):
            best = result
    if best is None:
        raise RuntimeError(
            f"all {cfg.n_restarts} restarts failed: {errors}"
        )
    if return_all:
        return best, [r for r in results if r is not None]
    return best

