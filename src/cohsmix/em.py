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

from dataclasses import dataclass, field

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
_KMEANS_ITERS = 20

# Solver settings and stop rules of the study protocol. An E-step runs at
# most MAX_FIXEDPOINT_SWEEPS sweeps, blends a sweep that has stopped
# contracting with weight DAMPING on the previous iterate (0.0 would give
# plain Jacobi sweeps), and stops once the sup-norm residual of its undamped
# update is at most FIXEDPOINT_TOL; a fit stops once its relative bound
# change is at most BOUND_REL_TOL.
MAX_FIXEDPOINT_SWEEPS = 50
DAMPING = 0.5
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
    """What a caller chooses of a fit: the EM iteration cap, the number of
    restarts and the seed they derive from; defaults follow the study
    protocol. Each is an integer (a numpy one too, ``bool`` not); the seed
    may also be None, for fresh entropy.
    """

    max_em_iters: int = 100
    n_restarts: int = 10
    rng_seed: int | None = None

    def __post_init__(self):
        for name, low in (("max_em_iters", 1), ("n_restarts", 1),
                          ("rng_seed", 0)):
            value = getattr(self, name)
            if name == "rng_seed" and value is None:
                continue
            if isinstance(value, bool) \
                    or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer of at least "
                                 f"{low}, got {value!r}")


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
    # The E-step sweeps this run made and the E-steps of it that ended at the
    # sweep cap.
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


def _kmeans_labels(points: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    n, p = points.shape
    if p == 0:
        # Nothing to cluster; a balanced random hard partition at least
        # breaks label symmetry.
        return rng.permutation(np.arange(n, dtype=np.int64) % k)
    idx = rng.choice(n, size=k, replace=n < k)
    centers = points[idx].copy()
    labels = None
    for _ in range(_KMEANS_ITERS):
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
           resp: np.ndarray, mode: str = "joint") -> np.ndarray:
    """Jacobi iteration of the responsibility fixed point, residual-guarded.

    Every sweep recomputes all rows from the previous sweep's values. The
    first sweep takes this update as it is, and so does every later sweep
    whose sup-norm residual (the largest change of the update) is below the
    previous sweep's; a sweep that has stopped contracting is instead
    blended with the old values using ``DAMPING``. Iteration stops at
    the first sweep whose residual is at most ``FIXEDPOINT_TOL`` and ends on
    the iterate that sweep started from, so the update of the returned
    matrix lies within ``FIXEDPOINT_TOL`` of it; a sweep that changes
    nothing thus returns its start. After ``MAX_FIXEDPOINT_SWEEPS`` sweeps
    without that, iteration ends on the last update. Params
    with a class proportion of 0 raise ``ValueError``: every bound is then
    ``-inf``, so no two iterates compare. The returned matrix never lowers
    the bound relative to the start, which the sweeps alone do not promise:
    if the final iterate's bound is more than 1e-9 below the start's, the
    start is returned instead. Only those two bounds are computed.

    ``resp`` is an (n, Q) responsibility matrix, and so is the result. The
    sweeps and bounds run under ``params.clamped()``, the clamps every
    M-step applies, so connection probabilities of exactly 0 or 1 and a
    vanishing variance give finite rows. This is the fit's stacked E-step on
    a stack of one.
    """
    check_params(features, params)
    empty = np.flatnonzero(params.alpha == 0)
    if empty.size:
        raise ValueError(f"class {empty[0]} has proportion 0")
    start = ClassStats.of(graph, features, check_responsibilities(
        resp, graph.n, params.n_classes))
    stack = ParamStack.of(params.clamped())
    d2 = features.squared_distances(stack.mu) \
        if mode_terms(mode)[1] and features.p else None
    stats, _, _, moved = _e_step(start, stack, d2,
                                 start.bound(stack, mode, d2), mode)
    return np.ascontiguousarray((stats if moved[0] else start).resp[0])


def _e_step(stats: ClassStats, params: ParamStack, d2, start_bounds,
            mode: str):
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
    and features) are computed once, and the edge term's mass of the other
    vertices and the residual are written into two buffers allocated once
    per call, the rows still sweeping in their leading rows. Each row keeps
    the stop rules of :func:`e_step`, and a row that stops leaves the stack,
    recorded by the sweeps it ran. A row that meets the tolerance ends on an
    iterate whose product its last sweep computed, so only the rows at the
    sweep cap are multiplied after the loop. Returns the statistics of the
    final iterates (``stats`` itself when no row moved) and, by row, the
    sweeps it ran, whether it ended at the sweep cap and whether it moved.
    A row that did not move returns its start, and the caller takes its
    result from ``stats``: either its first sweep is within the tolerance,
    or its final bound is more than 1e-9 below ``start_bounds``.
    """
    graph, features = stats.graph, stats.features
    use_edges, _ = mode_terms(mode)
    n_rows, n_classes, n = stats.resp_t.shape
    capped = np.zeros(n_rows, dtype=bool)
    if n_classes == 1:
        return stats, np.zeros(n_rows, dtype=np.int64), capped, capped.copy()

    with np.errstate(divide="ignore"):
        log_alpha = np.log(params.alpha)
        log_pi = np.log(params.pi)
        log_not = np.log1p(-params.pi)
    # (R, Q, 1) logits of the terms no sweep changes, (R, Q, n) with the
    # features. A neighbour of class l adds log pi, any other vertex of class
    # l log(1 - pi): the sweep applies their difference to the neighbour mass
    # and log(1 - pi) to the mass of the other vertices.
    base = log_alpha[:, :, None]
    if d2 is not None:
        base = base - d2 / (2.0 * params.sigma2[:, None, None])
    log_ratio = log_pi - log_not

    # The rows still sweeping, their iterates, the product of those iterates
    # once computed (the start's product is the start bound's), and the
    # residual of their previous sweep (none before the first).
    live = np.arange(n_rows)
    cur = stats.resp_t
    mass = stats.mass if use_edges else None
    previous = np.full(n_rows, np.inf)
    # Per row: the sweeps it ran (the cap until it stops sooner), the final
    # iterate and its product, unknown for the rows at the sweep cap.
    sweeps = np.full(n_rows, MAX_FIXEDPOINT_SWEEPS)
    finals = np.empty_like(cur)
    products = np.empty_like(cur) if use_edges else None
    others, change = np.empty_like(cur), np.empty_like(cur)
    for sweep in range(MAX_FIXEDPOINT_SWEEPS):
        rows = len(cur)
        if use_edges:
            if mass is None:
                mass = graph.neighbour_mass(cur)
            logits = log_ratio @ mass
            logits += base
            logits += log_not @ np.subtract(
                np.add.reduce(cur, axis=2, keepdims=True), cur,
                out=others[:rows])
        else:
            logits = np.array(np.broadcast_to(base, cur.shape))
        # Softmax over the classes shifted by the class maximum: exp can
        # neither overflow nor underflow a whole column to zero.
        logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
        update = np.exp(logits, out=logits)
        update /= np.add.reduce(update, axis=1, keepdims=True)
        diff = np.subtract(update, cur, out=change[:rows])
        residuals = np.maximum.reduce(np.abs(diff, out=diff), axis=(1, 2))
        # A row within the tolerance ends on the iterate whose residual this
        # sweep measured, with the product the sweep already computed.
        if np.minimum.reduce(residuals) <= FIXEDPOINT_TOL:
            stopped = residuals <= FIXEDPOINT_TOL
            done = live[stopped]
            sweeps[done] = sweep + 1
            finals[done] = cur[stopped]
            if use_edges:
                products[done] = mass[stopped]
            if stopped.all():
                break
            keep = ~stopped
            live, update, cur = live[keep], update[keep], cur[keep]
            residuals, previous = residuals[keep], previous[keep]
            base, log_ratio = base[keep], log_ratio[keep]
            log_not = log_not[keep]
        # A row whose residual is not below its previous sweep's has stopped
        # contracting; only such rows are blended with their old values. The
        # first sweep has no previous residual.
        if sweep:
            blend = residuals >= previous
            if blend.any():
                weight = np.where(blend, DAMPING, 0.0)[:, None, None]
                update = (1.0 - weight) * update + weight * cur
        previous = residuals
        cur, mass = update, None
    else:
        # The sweep cap: the rows still sweeping end on their last iterate.
        capped[live] = True
        finals[live] = cur
        if use_edges:
            products[live] = graph.neighbour_mass(cur)

    # A row moved unless its first sweep met the tolerance.
    moved = (sweeps > 1) | capped
    if not moved.any():
        return stats, sweeps, capped, moved
    out = ClassStats(graph, features, finals, products, stats.n_classes)
    moved[out.bound(params, mode, d2) < start_bounds - 1e-9] = False
    return out, sweeps, capped, moved


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
    squared distances of the feature rows to its means. The scatter that
    gives the variance stays on ``stats`` with the means, so the bound that
    follows reads it rather than forming it again (see
    :meth:`ClassStats.scatter`).
    """
    use_edges, use_features = mode_terms(mode)
    n_rows, n_classes, n = stats.resp_t.shape
    col = stats.col
    alpha = col / n

    if use_edges:
        on, den = stats.on, stats.pairs
        # A pair count of 0 is divided by 1 instead, so no division warns.
        positive = den > 0
        pi = np.where(positive, on / np.where(positive, den, 1.0), 0.5)
        pi = (pi + pi.transpose(0, 2, 1)) / 2.0
        pi = np.minimum(np.maximum(pi, PI_EPS, out=pi), 1.0 - PI_EPS, out=pi)
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


def _rescue(stats: ClassStats):
    """Re-seed the empty classes of each matrix of a stack, up to
    ``_RESCUE_ATTEMPTS`` times; padded classes are not classes of their
    matrix.

    Returns the statistics after the last re-seed and, by row, the
    :class:`EmptyClassError` of each matrix whose classes are still empty.
    A padded class has no mass, so it is below ``EMPTY_CLASS_MASS``; when
    the padding is all that is below, no matrix has an empty class and the
    stack is returned after that one count.
    """
    padding = stats.col.size - np.add.reduce(stats.n_classes)
    for attempt in range(_RESCUE_ATTEMPTS + 1):
        below = stats.col < EMPTY_CLASS_MASS
        if np.count_nonzero(below) == padding:
            return stats, {}
        empty = below & (np.arange(below.shape[1]) < stats.n_classes[:, None])
        rows = np.nonzero(empty.any(axis=1))[0]
        if attempt == _RESCUE_ATTEMPTS:
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
          seed: int | None, strategy: str, mode: str) -> np.ndarray:
    """The start that ``seed`` and ``strategy`` give."""
    # The graph-only mode must not see the features anywhere, the
    # initialisation included.
    init_features = features if mode_terms(mode)[1] \
        else FeatureMatrix.empty(graph.n)
    return init_responsibilities(graph, init_features, n_classes, strategy,
                                 np.random.default_rng(seed))


@dataclass
class _Run:
    """How one start of :func:`_em` ended, before it is a
    :class:`FitResult`: its (padded) row of the final stack, the parameter
    stack and row it ended with, its class count, trace and counters.
    Only the runs a caller returns are turned into results."""

    resp_t: np.ndarray
    params: ParamStack
    row: int
    n_classes: int
    bound_trace: list[float]
    converged: bool
    e_step_sweeps: int
    sweep_cap_hits: int
    mode: str

    @property
    def final_bound(self) -> float:
        return self.bound_trace[-1]

    def result(self, failed_restarts=()) -> FitResult:
        resp = np.ascontiguousarray(self.resp_t[:self.n_classes].T)
        return FitResult(
            params=self.params.unstack(self.row, self.n_classes),
            responsibilities=resp,
            partition=partition_from_responsibilities(resp),
            bound_trace=self.bound_trace,
            converged=self.converged,
            mode=self.mode,
            failed_restarts=list(failed_restarts),
            e_step_sweeps=self.e_step_sweeps,
            sweep_cap_hits=self.sweep_cap_hits,
        )


def _em(graph: Graph, features: FeatureMatrix, starts, max_em_iters: int,
        mode: str) -> list:
    """EM from each (n, Q) start, all advancing in lockstep.

    Starts of different class counts share the stack: each is padded with
    empty classes up to the largest count. A padded class gets proportion
    0 from the M-step, so the E-step never gives it mass, and the rescue
    passes it over (see :class:`ClassStats`); each run's result is sliced
    back to its start's own classes, and a start gives what it gives in a
    stack of its own width.

    Every start records the lower bound after each M-step and stops on its
    own: when the relative bound change drops below ``BOUND_REL_TOL``
    (converged), when its E-step returns its start (converged: the M-step
    would give back the params and the bound it has), after
    ``max_em_iters`` iterations, or when an iteration would lower its bound
    (possible only after an empty-class re-seed), which is rolled back. A
    start whose classes stay empty after the re-seeds fails. A start that
    stops or fails leaves the stack. Each start counts its E-step sweeps and
    sweep-cap hits (a one-class start none). Returns, by start, its
    :class:`_Run` or its :class:`EmptyClassError`.
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
        outcomes[start] = _Run(
            resp_t=stats.resp_t[row], params=params, row=row,
            n_classes=int(stats.n_classes[row]), bound_trace=traces[start],
            converged=converged, e_step_sweeps=int(sweeps[start]),
            sweep_cap_hits=int(cap_hits[start]), mode=mode)

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
    for _ in range(max_em_iters):
        if not idx.size:
            break
        stepped, row_sweeps, capped, moved = _e_step(stats, params, d2, bounds,
                                                     mode)
        # A one-class start needs no sweep; padded, it runs one that
        # changes nothing, which is not counted.
        sweeps[idx] += np.where(stats.n_classes > 1, row_sweeps, 0)
        cap_hits[idx] += capped
        # The row of stats and params that each row of stepped came from.
        origin = range(len(idx))
        if not moved.all():
            # A row whose E-step returned its start has converged: the rest
            # of the iteration would rebuild its params and bound.
            for row in np.flatnonzero(~moved).tolist():
                finish(stats, params, row, idx[row], True)
            origin = np.flatnonzero(moved)
            idx, bounds = idx[origin], bounds[origin]
            if not idx.size:
                break
            stepped = stepped.take(origin)
        new_stats, new_params, new_d2, rows, values = m_step_and_bound(stepped)
        previous = bounds.tolist()
        going = []
        for new_row, (row, value) in enumerate(zip(rows, values.tolist())):
            start = idx[row]
            if value < previous[row] - 1e-9:
                # Rolled back: the row finishes on the iterate it had.
                finish(stats, params, origin[row], start, False)
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

    The start is ``resp_init`` when given, else flat Dirichlet rows drawn
    from ``cfg.rng_seed``. Records the lower bound after every M-step;
    stops when the relative bound change drops below ``BOUND_REL_TOL``
    (converged) or the iteration cap is hit. The recorded trace is
    non-decreasing: an iteration that would lower the bound (possible only
    after an empty-class re-seed) is rolled back and the run stops there.
    Raises
    ``ValueError`` unless ``1 <= n_classes <= graph.n``, and
    :class:`EmptyClassError` if a class stays empty after the re-seeds.
    """
    cfg = cfg or EMConfig()
    _check_fit(graph, features, n_classes, mode)
    if resp_init is None:
        start = _init(graph, features, n_classes, cfg.rng_seed,
                      "random-dirichlet", mode)
    else:
        start = check_responsibilities(resp_init, graph.n, n_classes)
    outcome, = _em(graph, features, [start], cfg.max_em_iters, mode)
    if isinstance(outcome, EmptyClassError):
        raise outcome
    return outcome.result()


def _restart_plan(seed: int | None, n_restarts: int, has_features: bool,
                  has_edges: bool) -> list[tuple[int, str]]:
    """The (seed, init strategy) of each restart.

    The seeds are distinct, derived from ``seed``. The first restarts use
    the structured initialisers the data can feed, the rest flat Dirichlet
    rows.
    """
    if has_features:
        head = ("feature-kmeans", "graph-degree-quantile")[:1 + has_edges]
        rest = "random-dirichlet"
    elif has_edges:
        # Without usable features, k-means falls back to the adjacency rows;
        # those hard starts escape the symmetric fixed point that traps soft
        # random rows.
        head, rest = ("graph-degree-quantile",), "feature-kmeans"
    else:
        head, rest = (), "random-dirichlet"
    children = np.random.SeedSequence(seed).spawn(n_restarts)
    return [(int(child.generate_state(1)[0]),
             head[r] if r < len(head) else rest)
            for r, child in enumerate(children)]


def _best_restart(outcomes) -> FitResult:
    """The result of the earliest restart whose final bound is within
    ``TIE_REL_TOL`` of the best, with the messages of the failed ones;
    raises if every restart failed. ``outcomes`` holds, by restart, its
    :class:`_Run` or its :class:`EmptyClassError`.

    Restarts that reach one optimum relabelled end on bounds a few ulps
    apart, so a strict maximum would pick among them by rounding.
    """
    runs = [run for run in outcomes if isinstance(run, _Run)]
    failed = [f"restart {r}: {err}" for r, err in enumerate(outcomes)
              if isinstance(err, EmptyClassError)]
    if not runs:
        raise RuntimeError(f"all {len(outcomes)} restarts failed: {failed}")
    top = max(run.final_bound for run in runs)
    floor = top - TIE_REL_TOL * max(1.0, abs(top))
    return next(run for run in runs if run.final_bound >= floor).result(failed)


def _fit_candidates(graph: Graph, features: FeatureMatrix, candidates,
                    cfg: EMConfig, mode: str) -> list:
    """The restarts of every candidate class count in one lockstep driver.

    ``candidates`` holds ``(n_classes, seed)`` pairs, the seed giving the
    candidate's restart plan (see :func:`_restart_plan`); ``cfg`` gives the
    restart count and the iteration cap, which every candidate shares.
    Returns, by candidate, the best restart or the ``RuntimeError`` of every
    restart failing.
    """
    use_edges, use_features = mode_terms(mode)
    has_features = features.p > 0 and use_features
    groups = [
        [_init(graph, features, n_classes, restart_seed, strategy, mode)
         for restart_seed, strategy in _restart_plan(
             seed, cfg.n_restarts, has_features, use_edges)]
        for n_classes, seed in candidates]
    outcomes = iter(_em(graph, features,
                        [start for group in groups for start in group],
                        cfg.max_em_iters, mode))
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
    the structured initialisers the mode can read, the rest flat Dirichlet
    rows (k-means on the adjacency rows when there are no usable features).
    The restarts run in lockstep, each as :func:`fit` would run it alone
    from its planned start. Final bounds within ``TIE_REL_TOL`` (relative) of
    the best tie, and ties keep the earliest restart. A restart whose
    classes stay empty fails while the others go on; the returned result
    lists the failures in ``failed_restarts``. Raises if every restart
    fails.
    """
    cfg = cfg or EMConfig()
    _check_fit(graph, features, n_classes, mode)
    best, = _fit_candidates(graph, features, [(n_classes, cfg.rng_seed)], cfg,
                            mode)
    if isinstance(best, RuntimeError):
        raise best
    return best
