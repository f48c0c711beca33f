"""Variational EM: fixed-point E-step, closed-form M-step, fit drivers.

The E-step iterates a Jacobi fixed-point update of the vertex
responsibilities in the log domain, undamped while it contracts and blended
with the previous iterate once it stops contracting; the M-step maximises
the lower bound in closed form. One driver alternates the two until the
bound stalls, for every start of a scan at once: the starts advance in
lockstep on an (R, Q, n) stack of transposed responsibilities, those of
fewer classes padded with empty ones, so each E-step sweep and each M-step
is one stacked computation, and a start that stops leaves the stack.
``fit`` runs it from one start, ``fit_multi_restart`` from several,
keeping the best, and ``selection.select_q`` from the restarts of every
candidate class count. Ablation modes drop the edge or feature terms from
both steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    PI_EPS,
    SIGMA2_FLOOR,
    ClassStats,
    FeatureMatrix,
    Graph,
    ModelParams,
    ParamStack,
    check_features_vary,
    check_params,
    check_responsibilities,
    check_rows,
    mode_terms,
    one_hot,
    partition_from_responsibilities,
    squared_distances,
    variational_lower_bound,
)

INIT_STRATEGIES = ("random-dirichlet", "feature-kmeans", "graph-degree-quantile")

EMPTY_CLASS_MASS = 1e-10
_RESCUE_ATTEMPTS = 3

# Stop rules of the study protocol: an E-step stops once the sup-norm
# residual of its undamped update is at most FIXEDPOINT_TOL, and a fit once
# its relative bound change is at most BOUND_REL_TOL.
FIXEDPOINT_TOL = 1e-4
BOUND_REL_TOL = 1e-6
# Final bounds within this relative distance of the best count as tied when
# the best restart is chosen; ties go to the earliest restart.
TIE_REL_TOL = 1e-12


class EmptyClassError(RuntimeError):
    """Raised when one or more classes lose all responsibility mass."""

    def __init__(self, empty_classes):
        self.empty_classes = list(empty_classes)
        super().__init__(f"classes {self.empty_classes} have no mass")


@dataclass(frozen=True)
class EMConfig:
    """Knobs of the EM driver; defaults follow the study protocol.

    ``damping`` is the weight of the previous iterate in the blend that an
    E-step sweep gets once it stops contracting (see :func:`e_step`); 0.0
    selects plain Jacobi sweeps.
    """

    max_em_iters: int = 100
    max_fixedpoint_sweeps: int = 50
    damping: float = 0.5
    n_restarts: int = 10
    rng_seed: int | None = None
    init_strategy: str = "random-dirichlet"

    def __post_init__(self):
        if self.max_em_iters < 1 or self.max_fixedpoint_sweeps < 1:
            raise ValueError("iteration caps must be at least 1")
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
    # "restart <r>: <message>" for each restart of the fit that failed.
    failed_restarts: list[str] = field(default_factory=list)
    # The E-step sweeps this run made, fallback replays not counted, and the
    # E-steps of it that ended at the sweep cap.
    e_step_sweeps: int = 0
    sweep_cap_hits: int = 0

    @property
    def final_bound(self) -> float:
        return self.bound_trace[-1]


# The former name of the mode-aware bound. It stays because the benchmark's
# tracer (bench/tracer.py) wraps ``em.mode_lower_bound``, which
# test_traced_names_resolve requires to exist.
mode_lower_bound = variational_lower_bound


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
    n, p = points.shape
    if p == 0:
        # Nothing to cluster; a balanced random hard partition at least
        # breaks label symmetry.
        return rng.permutation(np.arange(n, dtype=np.int64) % k)
    idx = rng.choice(n, size=k, replace=n < k)
    centers = points[idx].copy()
    labels = None
    for _ in range(n_iters):
        new = np.argmin(squared_distances(points, centers), axis=1)
        # Labels that repeat give the centres they were computed from, so
        # every later iteration would repeat them too.
        if labels is not None and np.array_equal(new, labels):
            break
        labels = new
        # Each class's coordinate sums in one bincount, the members added in
        # row order as the mean over them adds them (for p >= 2; numpy sums
        # a single column pairwise).
        counts = np.bincount(labels, minlength=k)
        sums = np.bincount((labels[:, None] * p + np.arange(p)).ravel(),
                           weights=points.ravel(), minlength=k * p)
        full = counts > 0
        centers[full] = sums.reshape(k, p)[full] / counts[full, None]
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
           resp: np.ndarray, cfg: EMConfig | None = None,
           mode: str = "joint") -> np.ndarray:
    """Jacobi iteration of the responsibility fixed point, residual-guarded.

    Every sweep recomputes all rows from the previous sweep's values. The
    first sweep takes this update as it is, and so does every later sweep
    whose sup-norm residual (the largest change of the update) is below the
    previous sweep's; a sweep that has stopped contracting is instead
    blended with the old values using ``cfg.damping``. Iteration stops at
    the first sweep whose residual is at most ``FIXEDPOINT_TOL`` and ends on
    the iterate that sweep started from, so the update of the returned
    matrix lies within ``FIXEDPOINT_TOL`` of it; a sweep that changes
    nothing thus returns its start. After ``cfg.max_fixedpoint_sweeps``
    sweeps without that, iteration ends on the last update. Params
    with a class proportion of 0 raise ``ValueError``: every bound is then
    ``-inf``, so no two iterates compare. The returned matrix
    never lowers the bound relative to the start: if the final sweep does,
    the best iterate seen (start included, ties to the earliest) is returned
    instead. Only the start and final bounds are computed unless that
    fallback fires.

    ``resp`` is an (n, Q) responsibility matrix, and so is the result. The
    sweeps and bounds run under ``params.clamped()``, the clamps every
    M-step applies, so connection probabilities of exactly 0 or 1 and a
    vanishing variance give finite rows. This is the fit's stacked E-step on
    a stack of one.
    """
    cfg = cfg or EMConfig()
    check_params(features, params)
    empty = np.flatnonzero(params.alpha == 0)
    if empty.size:
        raise ValueError(f"class {empty[0]} has proportion 0")
    start = ClassStats.of(graph, features, check_responsibilities(
        resp, graph.n, params.n_classes))
    stack = ParamStack.of(params.clamped())
    d2 = features.squared_distances(stack.mu) \
        if mode_terms(mode)[1] and features.p else None
    stats, _, _ = _e_step(start, stack, d2, start.bound(stack, mode, d2), cfg,
                          mode)
    return np.ascontiguousarray(stats.resp[0])


def _e_step(stats: ClassStats, params: ParamStack, d2, start_bounds,
            cfg: EMConfig, mode: str, track: bool = False):
    """The E-step of every matrix of a stack, swept in lockstep.

    Row r of the stack is swept under row r of ``params``; a padded class
    of a row (see :class:`ClassStats`) has proportion 0 there, so its logits
    are ``-inf`` and it stays empty, and a padded one-class row ends at its
    first sweep, which changes nothing. ``d2`` is the
    (R, Q, n) ``squared_distances(params.mu, features.values)``, or None when
    the mode reads no features, and ``start_bounds`` the bounds of the
    start, which the fit driver already has. Each sweep is one
    stacked computation, its only n^2 work one :meth:`Graph.neighbour_mass`
    of the rows still sweeping; the logits of the vertex terms (proportions
    and features) are computed once. Each row keeps the stop rules of
    :func:`e_step`, and a row that stops leaves the stack. A row that meets
    the tolerance ends on an iterate whose product its last sweep computed,
    so only the rows at the sweep cap are multiplied after the loop. Returns
    the statistics of the result (``stats`` itself when no row moved) and,
    by row, the sweeps it ran and whether it ended at the sweep cap.

    The best-iterate fallback keeps no iterate: a row whose final bound
    falls below its start's is swept again alone from its start with
    ``track`` set, which evaluates the bound of every iterate the sweeps
    multiply and ends on the best one seen (start included, ties to the
    earliest) if it beats the final one. Without the edge term no iterate
    is multiplied, so the start alone is compared.
    """
    graph, features = stats.graph, stats.features
    use_edges, _ = mode_terms(mode)
    n_rows, n_classes, n = stats.resp_t.shape
    sweeps = np.zeros(n_rows, dtype=np.int64)
    capped = np.zeros(n_rows, dtype=bool)
    if n_classes == 1:
        return stats, sweeps, capped

    with np.errstate(divide="ignore"):
        log_alpha = np.log(params.alpha)
        log_pi = np.log(params.pi)
        log_not = np.log1p(-params.pi)
    # (R, Q, n) logits of the terms no sweep changes. A neighbour of class l
    # adds log pi, any other vertex of class l log(1 - pi): the sweep applies
    # their difference to the neighbour mass and log(1 - pi) to the mass of
    # the other vertices.
    base = np.repeat(log_alpha[:, :, None], n, axis=2)
    if d2 is not None:
        base -= d2 / (2.0 * params.sigma2[:, None, None])
    log_ratio = log_pi - log_not

    # The rows still sweeping, their iterates, the product of those iterates
    # once computed (the start's product is the start bound's), and the
    # residual of their previous sweep (none before the first).
    live = np.arange(n_rows)
    cur = stats.resp_t
    mass = stats.mass if use_edges else None
    previous = np.full(n_rows, np.inf)
    # Per row: the final iterate, its product when known, and whether it
    # left the start; with ``track``, the best iterate after the start, with
    # its product and bound.
    finals = list(cur)
    products = list(mass) if use_edges else [None] * n_rows
    moved = np.ones(n_rows, dtype=bool)
    best, best_bounds = {}, np.array(start_bounds, dtype=np.float64)
    for sweep in range(cfg.max_fixedpoint_sweeps):
        if use_edges:
            if mass is None:
                mass = graph.neighbour_mass(cur)
                if track:
                    values = ClassStats(graph, features, cur, mass).bound(
                        params.take(live), mode, None if d2 is None
                        else d2[live])
                    for row in np.nonzero(values > best_bounds[live])[0]:
                        best_bounds[live[row]] = values[row]
                        best[live[row]] = (cur[row], mass[row])
            logits = log_ratio @ mass
            logits += base
            logits += log_not @ (cur.sum(axis=2)[:, :, None] - cur)
        else:
            logits = base.copy()
        # Softmax over the classes shifted by the class maximum: exp can
        # neither overflow nor underflow a whole column to zero.
        logits -= logits.max(axis=1, keepdims=True)
        update = np.exp(logits, out=logits)
        update /= update.sum(axis=1, keepdims=True)
        residuals = np.abs(update - cur).max(axis=(1, 2))
        # A row within the tolerance ends on the iterate whose residual this
        # sweep measured, with the product the sweep already computed.
        stopped = residuals <= FIXEDPOINT_TOL
        if stopped.any():
            for row in np.nonzero(stopped)[0].tolist():
                k = live[row]
                sweeps[k] = sweep + 1
                finals[k] = cur[row]
                products[k] = None if mass is None else mass[row]
                moved[k] = sweep > 0
            if stopped.all():
                break
            keep = ~stopped
            live, update, cur = live[keep], update[keep], cur[keep]
            residuals, previous = residuals[keep], previous[keep]
            base, log_ratio = base[keep], log_ratio[keep]
            log_not = log_not[keep]
        # A row whose residual is not below its previous sweep's has stopped
        # contracting; only such rows are blended with their old values.
        blend = residuals >= previous
        if blend.any():
            weight = np.where(blend, cfg.damping, 0.0)[:, None, None]
            update = (1.0 - weight) * update + weight * cur
        previous = residuals
        cur, mass = update, None
    else:
        # The sweep cap: the rows still sweeping end on their last iterate.
        sweeps[live] = cfg.max_fixedpoint_sweeps
        capped[live] = True
        for row, k in enumerate(live):
            finals[k], products[k] = cur[row], None

    if not moved.any():
        return stats, sweeps, capped
    resp_t = np.stack(finals)
    if use_edges:
        unknown = [k for k, product in enumerate(products) if product is None]
        if unknown:
            for k, product in zip(unknown,
                                  graph.neighbour_mass(resp_t[unknown])):
                products[k] = product
        out = ClassStats(graph, features, resp_t, np.stack(products),
                         stats.n_classes)
    else:
        out = ClassStats(graph, features, resp_t, n_classes=stats.n_classes)

    final_bounds = out.bound(params, mode, d2)
    rows = np.nonzero(final_bounds < start_bounds - 1e-9)[0]
    if rows.size and not track:
        again, _, _ = _e_step(stats.take(rows), params.take(rows),
                              None if d2 is None else d2[rows],
                              start_bounds[rows], cfg, mode, track=True)
        return out.with_rows(rows, again.resp_t,
                             again.mass if use_edges else None), sweeps, capped
    rows = [k for k in rows if best_bounds[k] > final_bounds[k]]
    if not rows:
        return out, sweeps, capped
    choices = [best.get(k) or (stats.resp_t[k], stats.mass[k] if use_edges
                               else None) for k in rows]
    return out.with_rows(rows, np.stack([it for it, _ in choices]),
                         np.stack([m for _, m in choices]) if use_edges
                         else None), sweeps, capped


# ---------------------------------------------------------------------------
# M-step


def m_step(graph: Graph, features: FeatureMatrix, resp: np.ndarray,
           mode: str = "joint") -> ModelParams:
    """Closed-form bound maximiser at fixed responsibilities.

    ``resp`` is an (n, Q) responsibility matrix. This is the fit's stacked
    M-step on a stack of one.

    Raises
    ------
    EmptyClassError
        If any class has total mass below 1e-10; the fit driver reacts by
        re-seeding that class.
    """
    stats = ClassStats.of(graph, features,
                          check_responsibilities(resp, graph.n))
    empty = np.nonzero(stats.col[0] < EMPTY_CLASS_MASS)[0]
    if empty.size:
        raise EmptyClassError(empty.tolist())
    return _m_step(stats, mode)[0].unstack(0)


def _m_step(stats: ClassStats, mode: str):
    """Closed forms of every matrix of a stack, whose classes all have mass.

    A padded class gets proportion 0, connection probabilities 0.5 and mean
    0. Returns the :class:`ParamStack` and, when the mode reads features, the
    squared distances of the feature rows to its means.
    """
    use_edges, use_features = mode_terms(mode)
    n_rows, n_classes, n = stats.resp_t.shape
    col = stats.col
    alpha = col / n

    if use_edges:
        on, den = stats.on, stats.pairs
        with np.errstate(invalid="ignore", divide="ignore"):
            pi = np.where(den > 0, on / np.where(den > 0, den, 1.0), 0.5)
        pi = (pi + pi.transpose(0, 2, 1)) / 2.0
        pi = np.clip(pi, PI_EPS, 1.0 - PI_EPS)
    else:
        pi = np.full((n_rows, n_classes, n_classes), 0.5)

    features = stats.features
    p = features.p
    d2 = None
    if use_features and p:
        # A padded class has no mass: its mean is 0 rather than 0 / 0. Every
        # other class has at least EMPTY_CLASS_MASS after the rescue.
        mu = np.einsum("rkn,pn->rkp", stats.resp_t, features.values_t) \
            / np.maximum(col, EMPTY_CLASS_MASS)[:, :, None]
        d2 = features.squared_distances(mu)
        sigma2 = np.maximum(stats.scatter(mu, d2) / (p * n), SIGMA2_FLOOR)
    else:
        mu = np.zeros((n_rows, n_classes, p))
        sigma2 = np.full(n_rows, SIGMA2_FLOOR)

    return ParamStack(alpha=alpha, pi=pi, mu=mu, sigma2=sigma2), d2


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


def _rescue(stats: ClassStats, attempts: int = _RESCUE_ATTEMPTS):
    """Re-seed the empty classes of each matrix of a stack, up to
    ``attempts`` times; padded classes are not classes of their matrix.

    Returns the statistics after the last re-seed and, by row, the
    :class:`EmptyClassError` of each matrix whose classes are still empty.
    """
    real = np.arange(stats.col.shape[1]) < stats.n_classes[:, None]
    for attempt in range(attempts + 1):
        empty = (stats.col < EMPTY_CLASS_MASS) & real
        rows = np.nonzero(empty.any(axis=1))[0]
        if attempt == attempts or not rows.size:
            return stats, {int(row): EmptyClassError(
                np.nonzero(empty[row])[0].tolist()) for row in rows}
        resp_t = stats.resp_t[rows]
        for resp, row in zip(resp_t, rows):
            width = stats.n_classes[row]
            resp[:width] = _reseed_empty_classes(
                resp[:width].T, np.nonzero(empty[row])[0]).T
        stats = stats.with_rows(rows, resp_t)


# ---------------------------------------------------------------------------
# Drivers


def _check_fit(graph: Graph, features: FeatureMatrix, n_classes: int,
               mode: str):
    check_rows(graph, features)
    if not 1 <= n_classes <= graph.n:
        raise ValueError(f"need 1 <= n_classes <= n, got n_classes={n_classes} "
                         f"with n={graph.n} vertices")
    check_features_vary(features, mode)


def _init(graph: Graph, features: FeatureMatrix, n_classes: int,
          cfg: EMConfig, mode: str) -> np.ndarray:
    """The start that ``cfg``'s seed and strategy give."""
    rng = np.random.default_rng(cfg.rng_seed)
    # The graph-only mode must not see the features anywhere, the
    # initialisation included.
    init_features = features if mode_terms(mode)[1] \
        else FeatureMatrix.empty(graph.n)
    return init_responsibilities(graph, init_features, n_classes,
                                 cfg.init_strategy, rng)


def _em(graph: Graph, features: FeatureMatrix, starts, cfg: EMConfig,
        mode: str) -> list:
    """EM from each (n, Q) start, all advancing in lockstep.

    Starts of different class counts share the stack: each is padded with
    empty classes up to the largest count. A padded class gets proportion
    0 from the M-step, so the E-step never gives it mass, and the rescue
    passes it over (see :class:`ClassStats`); each :class:`FitResult` is
    sliced back to its start's own classes, and a start gives what it gives
    in a stack of its own width.

    Every start records the lower bound after each M-step and stops on its
    own: when the relative bound change drops below ``BOUND_REL_TOL``
    (converged), at the iteration cap, or when an iteration would lower its
    bound (possible only after an empty-class re-seed), which is rolled
    back. A start whose classes stay empty after the re-seeds fails. A start
    that stops or fails leaves the stack. Each start counts its E-step sweeps
    and sweep-cap hits (a one-class start none). Returns, by start, its
    :class:`FitResult` or its :class:`EmptyClassError`.
    """
    outcomes: list = [None] * len(starts)
    traces: list[list[float]] = [[] for _ in starts]
    sweeps = np.zeros(len(starts), dtype=np.int64)
    cap_hits = np.zeros(len(starts), dtype=np.int64)

    def m_step_and_bound(stats):
        """The M-step after the rescue, the rows that survived it, and the
        bounds."""
        stats, errors = _rescue(stats)
        rows = [row for row in range(stats.resp_t.shape[0])
                if row not in errors]
        for row, err in errors.items():
            outcomes[idx[row]] = err
        if errors:
            stats = stats.take(rows)
        params, d2 = _m_step(stats, mode)
        return stats, params, d2, rows, stats.bound(params, mode, d2)

    def finish(stats, params, row, start, converged):
        width = stats.n_classes[row]
        resp = np.ascontiguousarray(stats.resp_t[row, :width].T)
        outcomes[start] = FitResult(
            params=params.unstack(row, width),
            responsibilities=resp,
            partition=partition_from_responsibilities(resp),
            bound_trace=traces[start],
            converged=converged,
            mode=mode,
            e_step_sweeps=int(sweeps[start]),
            sweep_cap_hits=int(cap_hits[start]),
        )

    # The start of each stack row.
    idx = np.arange(len(starts))
    widths = np.array([start.shape[1] for start in starts])
    resp_t = np.zeros((len(starts), widths.max(), graph.n))
    for row, start in enumerate(starts):
        resp_t[row, :widths[row]] = start.T
    stats = ClassStats(graph, features, resp_t, n_classes=widths)
    stats, params, d2, rows, bounds = m_step_and_bound(stats)
    idx = idx[rows]
    for start, value in zip(idx, bounds.tolist()):
        traces[start].append(value)
    for _ in range(cfg.max_em_iters):
        if not idx.size:
            break
        stepped, row_sweeps, capped = _e_step(stats, params, d2, bounds, cfg,
                                              mode)
        # A one-class start needs no sweep; padded, it runs one that
        # changes nothing, which is not counted.
        sweeps[idx] += np.where(stats.n_classes > 1, row_sweeps, 0)
        cap_hits[idx] += capped
        new_stats, new_params, new_d2, rows, values = m_step_and_bound(stepped)
        previous = bounds.tolist()
        going = []
        for new_row, (row, value) in enumerate(zip(rows, values.tolist())):
            start = idx[row]
            if value < previous[row] - 1e-9:
                finish(stats, params, row, start, False)
                continue
            traces[start].append(value)
            if abs(value - previous[row]) \
                    <= BOUND_REL_TOL * max(1.0, abs(previous[row])):
                finish(new_stats, new_params, new_row, start, True)
            else:
                going.append(new_row)
        stats, params, d2, idx, bounds = new_stats, new_params, new_d2, \
            idx[rows], values
        if len(going) < len(rows):
            stats, params, idx, bounds = stats.take(going), \
                params.take(going), idx[going], bounds[going]
            d2 = None if d2 is None else d2[going]
    for row, start in enumerate(idx):
        finish(stats, params, row, start, False)
    return outcomes


def fit(graph: Graph, features: FeatureMatrix, n_classes: int,
        cfg: EMConfig | None = None, resp_init: np.ndarray | None = None,
        mode: str = "joint") -> FitResult:
    """Run EM from one starting point: the lockstep driver on one start.

    Records the lower bound after every M-step; stops when the relative
    bound change drops below ``BOUND_REL_TOL`` (converged) or the
    iteration cap is hit. The recorded trace is non-decreasing: an
    iteration that would lower the bound (possible only after an
    empty-class re-seed) is rolled back and the run stops there. Raises
    ``ValueError`` unless ``1 <= n_classes <= graph.n``, and
    :class:`EmptyClassError` if a class stays empty after the re-seeds.
    """
    cfg = cfg or EMConfig()
    _check_fit(graph, features, n_classes, mode)
    start = _init(graph, features, n_classes, cfg, mode) if resp_init is None \
        else check_responsibilities(resp_init, graph.n, n_classes)
    outcome, = _em(graph, features, [start], cfg, mode)
    if isinstance(outcome, EmptyClassError):
        raise outcome
    return outcome


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


def _best_restart(outcomes) -> FitResult:
    """The earliest restart whose final bound is within ``TIE_REL_TOL`` of
    the best, with the messages of the failed ones; raises if every restart
    failed.

    Restarts that reach one optimum relabelled end on bounds a few ulps
    apart, so a strict maximum would pick among them by rounding.
    """
    results = [r for r in outcomes if isinstance(r, FitResult)]
    failed = [f"restart {r}: {err}" for r, err in enumerate(outcomes)
              if isinstance(err, EmptyClassError)]
    if not results:
        raise RuntimeError(f"all {len(outcomes)} restarts failed: {failed}")
    top = max(result.final_bound for result in results)
    floor = top - TIE_REL_TOL * max(1.0, abs(top))
    best = next(result for result in results if result.final_bound >= floor)
    best.failed_restarts = failed
    return best


def _fit_candidates(graph: Graph, features: FeatureMatrix, candidates,
                    cfg: EMConfig, mode: str) -> list:
    """The restarts of every candidate class count in one lockstep driver.

    ``candidates`` holds ``(n_classes, candidate_cfg)`` pairs, the config
    giving the candidate's restart seeds and strategies; ``cfg`` gives the
    driver's caps, which every candidate shares. Returns, by candidate, the
    best restart or the ``RuntimeError`` of every restart failing.
    """
    use_edges, use_features = mode_terms(mode)
    groups = [
        [_init(graph, features, n_classes, restart_cfg, mode)
         for restart_cfg in restart_configs(
             candidate_cfg, features.p > 0 and use_features, use_edges)]
        for n_classes, candidate_cfg in candidates]
    outcomes = iter(_em(graph, features,
                        [start for group in groups for start in group],
                        cfg, mode))
    best = []
    for group in groups:
        try:
            best.append(_best_restart([next(outcomes) for _ in group]))
        except RuntimeError as err:
            best.append(err)
    return best


def fit_multi_restart(graph: Graph, features: FeatureMatrix, n_classes: int,
                      cfg: EMConfig | None = None,
                      mode: str = "joint") -> FitResult:
    """Best-of-``cfg.n_restarts`` EM runs, selected by final bound.

    Restart seeds derive from ``cfg.rng_seed``; the first two restarts use
    the structured initialisers the mode can read, the rest
    ``cfg.init_strategy`` (k-means on the adjacency rows when there are no
    usable features). The restarts run in lockstep, each as :func:`fit`
    would run it alone. Final bounds within ``TIE_REL_TOL`` (relative) of
    the best tie, and ties keep the earliest restart. A restart whose
    classes stay empty fails while the others go on; the returned result
    lists the failures in ``failed_restarts``. Raises if every restart
    fails.
    """
    cfg = cfg or EMConfig()
    _check_fit(graph, features, n_classes, mode)
    best, = _fit_candidates(graph, features, [(n_classes, cfg)], cfg, mode)
    if isinstance(best, RuntimeError):
        raise best
    return best
