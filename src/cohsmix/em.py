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
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    PI_EPS,
    SIGMA2_FLOOR,
    ClassStats,
    FeatureMatrix,
    Graph,
    ModelParams,
    ParamStack,
    _class_sum,
    check_count,
    check_features_vary,
    check_params,
    check_responsibilities,
    check_rows,
    mode_terms,
    one_hot,
    partition_from_responsibilities,
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
# change is at most BOUND_REL_TOL, and rolls back a fall over BOUND_DROP_TOL.
MAX_FIXEDPOINT_SWEEPS = 50
DAMPING = 0.5
FIXEDPOINT_TOL = 1e-4
BOUND_REL_TOL = 1e-6
BOUND_DROP_TOL = 1e-9
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
        check_count("max_em_iters", self.max_em_iters, 1)
        check_count("n_restarts", self.n_restarts, 1)
        if self.rng_seed is not None:
            check_count("rng_seed", self.rng_seed, 0)


def child_seed(seed: int | None, *key: int) -> int:
    """The first 32-bit word of ``SeedSequence(seed, spawn_key=key)``: the
    one rule by which the package derives an integer seed (of a scan's
    candidate, a grid replicate or a simulated family's model) from another.
    A restart needs no integer: its generator is built from that child
    itself (see :func:`_restart_plan`). A None seed draws fresh entropy per
    call."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


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
    # Which restart of its fit this result is (see fit_multi_restart); 0 for
    # a fit from one start.
    best_restart: int = 0

    @property
    def final_bound(self) -> float:
        return self.bound_trace[-1]

    @property
    def em_iters(self) -> int:
        return len(self.bound_trace) - 1


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

    ``random-dirichlet``, the default, draws each row from a flat
    Dirichlet; no fit starts from it unless handed it as ``resp_init``.
    ``feature-kmeans`` one-hot encodes a short k-means run from
    D^2-sampled centres (k-means++) on the feature rows, falling back to
    the adjacency rows (each vertex's connectivity profile) when there are
    no feature columns; ``graph-degree-quantile`` bins vertices into degree
    quantiles. The two hard strategies are smoothed towards uniform with
    weight 0.1, so every entry is at least 0.1 / n_classes. This is the
    restart scan's start builder, :func:`_starts`, on a stack of one.
    """
    check_count("n_classes", n_classes, 1)
    return _starts(graph, features, [(n_classes, rng, strategy)], "joint")[0]


class _Points(NamedTuple):
    """What the Lloyd loop of :func:`_kmeans_labels` reads of the n rows it
    clusters. Each centre is kept as the coordinate sums of its members and
    their count.

    ``norms`` are the (n,) squared norms of the rows. ``rows`` takes an
    integer index array to those rows, which are the sums of one-member
    classes. ``sums`` takes an (S, k, n) stack of 0/1 member rows to the
    coordinate sums of each class. ``cross`` takes the sums and the (S, k)
    counts to the (S * k, n) dot products of each centre with every row
    and the (S * k,) squared norms of the centres.
    """

    norms: np.ndarray
    rows: Callable[[np.ndarray], np.ndarray]
    sums: Callable[[np.ndarray], np.ndarray]
    cross: Callable[[np.ndarray, np.ndarray], tuple]


def _feature_points(features: FeatureMatrix) -> _Points:
    """The feature rows as k-means points. A centre is its sums over its
    count, and its dot products with the rows are one ``np.einsum`` in the
    (row, centre) orientation of :func:`~cohsmix.model.squared_distances`,
    whose sum for a pair does not depend on the other centres."""
    values, p = features.values, features.p

    def sums(members):
        return np.einsum("skn,np->skp", members, values)

    def cross(sums, counts):
        flat = (sums / counts[:, :, None]).reshape(-1, p)
        return np.einsum("ip,pj->ij", values,
                         np.ascontiguousarray(flat.T)).T, \
            np.add.reduce(flat * flat, axis=1)

    return _Points(features._row_norms, values.__getitem__, sums, cross)


def _graph_points(graph: Graph) -> _Points:
    """The adjacency rows as k-means points, read through
    :meth:`Graph.rows` and :meth:`Graph.neighbour_mass`. A 0/1 row's
    squared norm is its degree. The sums of a class are the integer
    ``members @ adjacency``, so a centre's dot products are the integer
    ``sums @ adjacency`` over the count and its squared norm the integer
    ``sums . sums`` over the count squared: one rounding each, and products
    of integers are exact in any summation order."""

    def cross(sums, counts):
        dots = graph.neighbour_mass(sums) / counts[:, :, None]
        norms = np.add.reduce(sums * sums, axis=2) / (counts * counts)
        return dots.reshape(-1, graph.n), norms.ravel()

    return _Points(graph.degrees, graph.rows, graph.neighbour_mass, cross)


def _distances(points: _Points, sums: np.ndarray, counts: np.ndarray,
               padding: np.ndarray | None = None) -> np.ndarray:
    """The (S * k, n) squared distances of the centres of ``sums`` and
    ``counts`` (see :class:`_Points`) to the rows: ``(centre norm + row
    norm) - 2 * dot``, clipped at 0. ``padding``, (S, k) or None, is added
    to the centre norms first."""
    cross, centre_norms = points.cross(sums, counts)
    if padding is not None:
        centre_norms += padding.ravel()
    dist = centre_norms[:, None] + points.norms
    cross *= 2.0
    dist -= cross
    return np.maximum(dist, 0.0, out=dist)


def _d2_seeds(points: _Points, starts) -> np.ndarray:
    """The first centres of each ``(k, rng)`` of ``starts`` by D^2 sampling
    (k-means++, Arthur & Vassilvitskii 2007), all starts in one stack: an
    (S, widest k) array of rows, each start's past its k left at row 0.

    Each start draws its k uniforms ``u`` from its own generator in one
    call, in the order of ``starts``. Its first centre is row
    ``floor(u_0 n)``. Centre j is the inverse CDF at ``u_j`` of D, the
    running minimum of the squared distances of the rows to the centres
    before it: the first row whose cumulative sum of D exceeds ``u_j``
    times the total (kept below the total), so a row at distance 0 is never
    drawn. When every D is 0 (fewer distinct rows than centres), centre j
    is row ``floor(u_j n)``. The distances are those of the Lloyd loop, to
    one-member centres, whose sums are the rows read as they are; a
    start's distances, and so its draws, do not depend on the other starts
    in any bit (see :func:`_kmeans_labels`).
    """
    n = points.norms.shape[0]
    widths = np.array([k for k, _ in starts])
    uniforms = np.zeros((len(starts), widths.max()))
    for row, (k, rng) in enumerate(starts):
        uniforms[row, :k] = rng.random(k)
    # floor(u n): the first centre, and the fallback of every later one.
    seeds = np.minimum((uniforms * n).astype(np.intp), n - 1)
    nearest = np.full((len(starts), n), np.inf)
    for j in range(1, widths.max()):
        live = (widths > j).nonzero()[0]
        near = np.minimum(nearest[live], _distances(
            points, points.rows(seeds[live, j - 1])[:, None],
            np.ones((live.size, 1))))
        nearest[live] = near
        cumulative = np.cumsum(near, axis=1)
        total = cumulative[:, -1]
        drawn = np.count_nonzero(cumulative <= np.minimum(
            uniforms[live, j] * total, np.nextafter(total, 0.0))[:, None],
            axis=1)
        seeds[live, j] = np.where(total > 0.0, drawn, seeds[live, j])
    return seeds


def _kmeans_labels(points: _Points, starts) -> list:
    """The labels of a short Lloyd's k-means run from each ``(k, rng)`` of
    ``starts``, all runs in one stack, on the rows of ``points``.

    Each start's first centres are rows drawn by D^2 sampling from its own
    generator (see :func:`_d2_seeds`). Each iteration then labels the rows
    for every start still running at once, from the squared distances
    ``(centre norm + row norm) - 2 * dot`` clipped at 0; the centres that
    pad a start up to the widest are at +inf, so its argmin never picks
    them. A centre is kept as the sums and the count of its members; a
    class without members keeps both. The sums of a start and its
    distances do not depend on the other classes or starts in the stack in
    any bit (see :func:`_feature_points` and :func:`_graph_points`; with
    one feature column numpy reads the contiguous rows of the einsum in
    SIMD partial sums, which can differ from the sequential sum in the last
    bit, but the grouping depends only on n). A start leaves the stack when
    its labels repeat, since labels that repeat give the centres they were
    computed from, or after ``_KMEANS_ITERS`` labellings; so each start
    ends on the labels it gets alone, bit for bit.
    """
    n = points.norms.shape[0]
    widths = np.array([k for k, _ in starts])
    width = int(widths.max())
    seeds = _d2_seeds(points, starts)
    # The classes of each start, not those that pad it to the widest.
    own = np.arange(width) < widths[:, None]
    sums = np.where(own[:, :, None], points.rows(seeds), 0.0)
    counts = np.ones((len(starts), width))
    padding = np.where(own, 0.0, np.inf) if (widths < width).any() else None
    classes = np.arange(width)[:, None]
    # The start of each stack row, and the labels each start ends on.
    live = np.arange(len(starts))
    labels = [None] * len(starts)
    for step in range(_KMEANS_ITERS):
        # The (stack rows, n) labels.
        new = _distances(points, sums, counts, padding).reshape(
            len(live), width, n).argmin(axis=1)
        if step:
            repeated = np.logical_and.reduce(new == current, axis=1)
            if np.count_nonzero(repeated):
                for row in repeated.nonzero()[0].tolist():
                    labels[live[row]] = new[row]
                going = (~repeated).nonzero()[0]
                if not going.size:
                    return labels
                live, new, sums, counts = live[going], new[going], \
                    sums[going], counts[going]
                if padding is not None:
                    padding = padding[going]
        current = new
        if step + 1 == _KMEANS_ITERS:
            break
        members = (current[:, None, :] == classes).astype(np.float64)
        # Sums of ones, so exact.
        found = np.add.reduce(members, axis=2)
        full = found > 0
        sums = np.where(full[:, :, None], points.sums(members), sums)
        counts = np.where(full, found, counts)
    for row, start in enumerate(live.tolist()):
        labels[start] = current[row]
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
    blended with the old values using ``DAMPING``. Iteration stops at the
    first sweep whose residual is at most ``FIXEDPOINT_TOL`` and ends on the
    iterate that sweep started from, so the update of the returned matrix
    lies within ``FIXEDPOINT_TOL`` of it; a sweep that changes nothing thus
    returns its start. After ``MAX_FIXEDPOINT_SWEEPS`` sweeps without that,
    iteration ends on the last update. Without the edge term
    (``mode="features-only"``) the update does not read the iterate, so the
    E-step is its first sweep. Params with a class proportion of 0 raise
    ``ValueError``: every bound is then ``-inf``, so no two iterates
    compare. The returned matrix never lowers the bound relative to the
    start, which the sweeps alone do not promise: if the final iterate's
    bound is more than ``BOUND_DROP_TOL`` below the start's, the start is
    returned instead. Only those two bounds are computed. A fit's guard is
    its rollback, which waits for the M-step after the E-step; this function
    has no M-step to wait for, so it keeps its own guard.

    ``resp`` is an (n, Q) responsibility matrix, and so is the result. The
    sweeps and bounds run under ``params.clamped()``, the clamps every
    M-step applies, so connection probabilities of exactly 0 or 1 and a
    vanishing variance give finite rows. This is the fit's stacked E-step on
    a stack of one, its feature distances formed once for the sweeps and
    both bounds.
    """
    check_params(features, params)
    empty = (params.alpha == 0).nonzero()[0]
    if empty.size:
        raise ValueError(f"class {empty[0]} has proportion 0")
    start = ClassStats.of(graph, features, check_responsibilities(
        resp, graph.n, params.n_classes))
    stack = ParamStack.of(params.clamped())
    if mode_terms(mode)[1] and features.p:
        stack = stack._replace(d2=features.squared_distances(stack.mu))
    stats, _, _, moved = _e_step(start, stack, mode)
    if moved[0] and stats.bound(stack, mode)[0] \
            < start.bound(stack, mode)[0] - BOUND_DROP_TOL:
        stats = start
    return np.ascontiguousarray(stats.resp[0])


def _e_step(stats: ClassStats, params: ParamStack, mode: str):
    """The E-step of every matrix of a stack, swept in lockstep.

    Row r of the stack is swept under row r of ``params``; a padded class
    of a row (see :class:`ClassStats`) has proportion 0 there, so its logits
    are ``-inf`` and it stays empty, and a padded one-class row ends at its
    first sweep, which changes nothing. The caller ignores numpy's divide
    warnings, which the log of such a proportion raises. The feature logits
    read the distances ``params.d2``, None when the mode reads no features.
    Each sweep is one stacked computation, its only n^2 work one
    :meth:`Graph.neighbour_mass` of the rows still sweeping; the logits of
    the vertex terms (proportions and features) are computed once, and the
    edge term's mass of the other vertices and then the residual are
    written into one buffer allocated once per call, the rows still
    sweeping in its leading rows. Each row keeps the stop rules of
    :func:`e_step`, and a row that stops leaves the stack, recorded by the
    sweeps it ran. A row that meets the tolerance ends on an iterate whose
    product its last sweep computed, so only the rows at the sweep cap are
    multiplied after the loop. Without the edge term the update does not
    read the iterate, so a second sweep would repeat the first bit for bit:
    that E-step is one sweep, the softmax of the vertex terms. Returns the
    statistics of the final iterates (``stats`` itself when no row moved)
    and, by row, the sweeps it ran, whether it ended at the sweep cap and
    whether it moved: a row moved unless its first sweep was within the
    tolerance, and one that did not returns its start. No bound is computed
    here, and no row is held back for lowering its bound: the sweeps need
    not raise it, and :func:`e_step` returns the start in that case, while
    the fit rolls back an iteration that ends below its previous bound (see
    :func:`_em`).
    """
    graph, features = stats.graph, stats.features
    n_rows, n_classes, n = stats.resp_t.shape
    capped = np.zeros(n_rows, dtype=bool)
    if n_classes == 1:
        return stats, np.zeros(n_rows, dtype=np.int64), capped, capped.copy()
    scratch = np.empty_like(stats.resp_t)

    # (R, Q, 1) logits of the terms no sweep changes, (R, Q, n) with the
    # features.
    base = np.log(params.alpha)[:, :, None]
    if params.d2 is not None:
        base = base - params.d2 / (2.0 * params.sigma2[:, None, None])
    cur = stats.resp_t
    if not mode_terms(mode)[0]:
        update = _softmax(np.array(np.broadcast_to(base, cur.shape)))
        diff = np.subtract(update, cur, out=scratch)
        moved = np.maximum.reduce(np.abs(diff, out=diff), axis=(1, 2)) \
            > FIXEDPOINT_TOL
        sweeps = np.ones(n_rows, dtype=np.int64)
        if not np.count_nonzero(moved):
            return stats, sweeps, capped, moved
        return ClassStats(graph, features,
                          np.where(moved[:, None, None], update, cur), None,
                          stats.n_classes), sweeps, capped, moved

    # A neighbour of class l adds log pi, any other vertex of class l
    # log(1 - pi): the sweep applies their difference to the neighbour mass
    # and log(1 - pi) to the mass of the other vertices. The two (R, Q, Q)
    # stacks share one array, so a stop event takes them at once.
    log_pair = np.empty((2,) + params.pi.shape)
    log_ratio, log_not = log_pair
    np.log1p(np.negative(params.pi), out=log_not)
    np.subtract(np.log(params.pi), log_not, out=log_ratio)

    # The rows still sweeping, their iterates, the product of those iterates
    # once computed (the start's product is the start statistics'), and the
    # residual of their previous sweep (none before the first).
    live = np.arange(n_rows)
    mass = stats.mass
    previous = None
    # Per row: the sweeps it ran (the cap until it stops sooner), the final
    # iterate and its product, unknown for the rows at the sweep cap.
    sweeps = np.full(n_rows, MAX_FIXEDPOINT_SWEEPS)
    finals = np.empty_like(cur)
    products = np.empty_like(cur)
    for sweep in range(MAX_FIXEDPOINT_SWEEPS):
        rows = len(cur)
        if mass is None:
            mass = graph.neighbour_mass(cur)
        logits = log_ratio @ mass
        logits += base
        logits += log_not @ np.subtract(
            np.add.reduce(cur, axis=2, keepdims=True), cur,
            out=scratch[:rows])
        update = _softmax(logits)
        diff = np.subtract(update, cur, out=scratch[:rows])
        residuals = np.maximum.reduce(np.abs(diff, out=diff), axis=(1, 2))
        # A row whose residual is not below its previous sweep's has stopped
        # contracting; only such rows are blended with their old values. The
        # first sweep has no previous residual. A row that stops at this
        # sweep has a residual below its previous one, so it is not blended.
        if sweep:
            blend = residuals >= previous
            if np.count_nonzero(blend):
                weight = np.where(blend, DAMPING, 0.0)[:, None, None]
                update = (1.0 - weight) * update + weight * cur
        # A row within the tolerance ends on the iterate whose residual this
        # sweep measured, with the product the sweep already computed.
        stopped = residuals <= FIXEDPOINT_TOL
        if np.count_nonzero(stopped):
            halt = stopped.nonzero()[0]
            done = live.take(halt)
            sweeps[done] = sweep + 1
            finals[done] = cur.take(halt, axis=0)
            products[done] = mass.take(halt, axis=0)
            if halt.size == rows:
                break
            keep = (~stopped).nonzero()[0]
            live, residuals = live.take(keep), residuals.take(keep)
            update, base = update.take(keep, axis=0), base.take(keep, axis=0)
            log_pair = log_pair.take(keep, axis=1)
            log_ratio, log_not = log_pair
        previous = residuals
        cur, mass = update, None
    else:
        # The sweep cap: the rows still sweeping end on their last iterate.
        capped[live] = True
        finals[live] = cur
        products[live] = graph.neighbour_mass(cur)

    # A row moved unless its first sweep met the tolerance.
    moved = (sweeps > 1) | capped
    if not np.count_nonzero(moved):
        return stats, sweeps, capped, moved
    return ClassStats(graph, features, finals, products, stats.n_classes), \
        sweeps, capped, moved


def _softmax(logits: np.ndarray) -> np.ndarray:
    """The softmax over the classes (axis 1) of an (R, Q, n) stack of
    logits, in place. The logits are shifted by the class maximum, so exp
    can neither overflow nor underflow a whole column to zero."""
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    update = np.exp(logits, out=logits)
    update /= np.add.reduce(update, axis=1, keepdims=True)
    return update


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
    return _m_step(stats, mode).unstack(0)


def _m_step(stats: ClassStats, mode: str) -> ParamStack:
    """Closed forms of every matrix of a stack.

    A padded class gets proportion 0, connection probabilities 0.5 and mean
    0. A class the rescue left empty divides its mean by
    ``EMPTY_CLASS_MASS`` rather than its own mass, so its matrix goes
    through with the others, to finite params, and the fit then drops it.
    Returns the :class:`ParamStack`, with the squared distances ``d2`` of
    the feature rows to its means when the mode reads features.
    """
    use_edges, use_features = mode_terms(mode)
    n_rows, n_classes, n = stats.resp_t.shape
    col = stats.col
    alpha = col / n

    if use_edges:
        on, den = stats.on, stats.pairs
        # Only positive pair counts divide, so no division warns.
        pi = np.divide(on, den, out=np.full_like(on, 0.5), where=den > 0)
        pi = (pi + pi.transpose(0, 2, 1)) / 2.0
        pi = np.minimum(np.maximum(pi, PI_EPS, out=pi), 1.0 - PI_EPS, out=pi)
    else:
        pi = np.full((n_rows, n_classes, n_classes), 0.5)

    features = stats.features
    p = features.p
    d2 = None
    if use_features and p:
        # A padded class has no mass: its mean is 0 rather than 0 / 0, and
        # an empty one's is finite.
        mu = np.einsum("rkn,pn->rkp", stats.resp_t, features.values_t) \
            / np.maximum(col, EMPTY_CLASS_MASS)[:, :, None]
        d2 = features.squared_distances(mu)
        sigma2 = np.maximum(_class_sum(stats.scatter(mu, d2)) / (p * n),
                            SIGMA2_FLOOR)
    else:
        mu = np.zeros((n_rows, n_classes, p))
        sigma2 = np.full(n_rows, SIGMA2_FLOOR)

    return ParamStack(alpha=alpha, pi=pi, mu=mu, sigma2=sigma2, d2=d2)


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
    check_count("n_classes", n_classes, 1)
    if n_classes > graph.n:
        raise ValueError(f"need 1 <= n_classes <= n, got n_classes={n_classes} "
                         f"with n={graph.n} vertices")
    check_features_vary(features, mode)


def _starts(graph: Graph, features: FeatureMatrix, plans, mode: str) -> list:
    """The start of each ``(n_classes, seed, strategy)`` of ``plans``, the
    seed a generator or anything ``np.random.default_rng`` takes (a
    restart's is its child ``SeedSequence``): the one
    code that turns a plan into a start (the strategies are described at
    :func:`init_responsibilities`).

    One class or no vertex gives the uniform start. The k-means runs of all
    plans share one stack (see :func:`_kmeans_labels`), each ending on the
    labels it gets alone, and every hard labelling is smoothed the same way,
    so each plan gets the start it gets in a list of its own.
    """
    # The graph-only mode must not see the features anywhere, the
    # initialisation included.
    if not mode_terms(mode)[1]:
        features = FeatureMatrix.empty(graph.n)
    n = graph.n
    starts: list = [None] * len(plans)
    # (plan index, labels) of each hard start, and (plan index, (k, rng)) of
    # each k-means run.
    hard, kmeans = [], []
    for index, (n_classes, seed, strategy) in enumerate(plans):
        if strategy not in INIT_STRATEGIES:
            raise ValueError(f"unknown init strategy {strategy!r}")
        rng = np.random.default_rng(seed)
        if n_classes == 1 or n == 0:
            # Nothing to choose: one class, or no vertex to place.
            starts[index] = np.full((n, n_classes), 1.0 / n_classes)
        elif strategy == "random-dirichlet":
            starts[index] = rng.dirichlet(np.ones(n_classes), size=n)
        elif strategy == "feature-kmeans":
            kmeans.append((index, (n_classes, rng)))
        else:
            labels = np.empty(n, dtype=np.int64)
            labels[np.argsort(graph.degrees, kind="stable")] = \
                np.arange(n) * n_classes // n
            hard.append((index, labels))
    if kmeans:
        indices, runs = zip(*kmeans)
        points = _feature_points(features) if features.p \
            else _graph_points(graph)
        hard += zip(indices, _kmeans_labels(points, runs))
    for index, labels in hard:
        n_classes = plans[index][0]
        starts[index] = 0.9 * one_hot(labels, n_classes) + 0.1 / n_classes
    return starts


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

    def result(self, failed_restarts=(), best_restart: int = 0) -> FitResult:
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
            best_restart=best_restart,
        )


def _em(graph: Graph, features: FeatureMatrix, starts, max_em_iters: int,
        mode: str) -> list:
    """EM from each (n, Q) start, all advancing in lockstep.

    Starts of different class counts share the stack: each is padded with
    empty classes up to the largest count (see :meth:`ClassStats.of`). A
    padded class gets proportion 0 from the M-step, so the E-step never
    gives it mass, and the rescue passes it over (see :class:`ClassStats`);
    each run's result is sliced back to its start's own classes, and a
    start gives what it gives in a stack of its own width.

    Iteration 0 is the empty-class rescue, the M-step and the lower bound of
    the starts; every later one is an E-step followed by those three, its
    bound the one bound an iteration computes. A start whose E-step returns
    its start stops there, converged: the M-step would give back the params
    and the bound it has. After the bound, one pass over the stack decides
    every other start's fate. It fails when its classes stay empty after the
    re-seeds. It is rolled back when its bound falls by more than
    ``BOUND_DROP_TOL``, and ends, not converged, on the iterate, params and
    bound it had before the iteration. Otherwise it records the bound, and
    converges when the relative change is at most ``BOUND_REL_TOL``, ends
    not converged at iteration ``max_em_iters``, or goes on. The sweeps need
    not raise the bound, and a re-seed may lower it; an E-step that lowered
    it goes on if the M-step wins it back. So the recorded trace never
    falls. A start that stops or fails leaves the stack. Each start counts
    its E-step sweeps and sweep-cap hits (a one-class start none). Returns,
    by start, its :class:`_Run` or its :class:`EmptyClassError`.
    """
    outcomes: list = [None] * len(starts)
    traces: list[list[float]] = [[] for _ in starts]
    sweeps = np.zeros(len(starts), dtype=np.int64)
    cap_hits = np.zeros(len(starts), dtype=np.int64)

    def finish(stats, params, row, start, converged):
        n_classes = int(stats.n_classes[row])
        # A one-class start needs no sweep; padded, it runs one that
        # changes nothing, which is not counted.
        outcomes[start] = _Run(
            resp_t=stats.resp_t[row], params=params, row=row,
            n_classes=n_classes, bound_trace=traces[start],
            converged=converged,
            e_step_sweeps=int(sweeps[start]) if n_classes > 1 else 0,
            sweep_cap_hits=int(cap_hits[start]), mode=mode)

    # The start of each stack row, and its last bound: NaN before the first,
    # which no comparison passes, so iteration 0 neither rolls back nor
    # converges a row.
    idx = np.arange(len(starts))
    bounds = np.full(len(starts), np.nan)
    stats = ClassStats.of(graph, features, *starts)
    params = None
    # A padded class's proportion is 0, whose log the E-step takes.
    with np.errstate(divide="ignore"):
        for iteration in range(max_em_iters + 1):
            # The row of stats and params that each row of stepped came
            # from.
            stepped, origin = stats, range(len(idx))
            if iteration:
                stepped, row_sweeps, capped, moved = _e_step(stats, params,
                                                             mode)
                sweeps[idx] += row_sweeps
                if np.count_nonzero(capped):
                    cap_hits[idx] += capped
                returned = (~moved).nonzero()[0]
                if returned.size:
                    # A row whose E-step returned its start has converged:
                    # the rest of the iteration would rebuild its params
                    # and bound.
                    for row in returned.tolist():
                        finish(stats, params, row, idx[row], True)
                    origin = moved.nonzero()[0]
                    idx, bounds = idx.take(origin), bounds.take(origin)
                    if not idx.size:
                        break
                    stepped = stepped.take(origin)
            stepped, errors = _rescue(stepped)
            new_params = _m_step(stepped, mode)
            values = stepped.bound(new_params, mode)
            going = []
            for row, (start, value, last) in enumerate(zip(
                    idx.tolist(), values.tolist(), bounds.tolist())):
                if row in errors:
                    outcomes[start] = errors[row]
                elif value < last - BOUND_DROP_TOL:
                    # Rolled back: the row finishes on the iterate it had.
                    finish(stats, params, origin[row], start, False)
                else:
                    traces[start].append(value)
                    if abs(value - last) \
                            <= BOUND_REL_TOL * max(1.0, abs(last)):
                        finish(stepped, new_params, row, start, True)
                    elif iteration == max_em_iters:
                        finish(stepped, new_params, row, start, False)
                    else:
                        going.append(row)
            if not going:
                break
            stats, params, bounds = stepped, new_params, values
            if len(going) < len(idx):
                going = np.array(going, dtype=np.intp)
                stats, params, idx, bounds = stats.take(going), \
                    params.take(going), idx.take(going), bounds.take(going)
    return outcomes


def fit(graph: Graph, features: FeatureMatrix, n_classes: int,
        cfg: EMConfig | None = None, resp_init: np.ndarray | None = None,
        mode: str = "joint") -> FitResult:
    """Run EM from one starting point: the lockstep driver on one start.

    The start is ``resp_init`` when given, else restart 0 of the restart
    plan of ``cfg.rng_seed`` (see :func:`_restart_plan`), so ``fit(cfg)``
    gives what :func:`fit_multi_restart` gives with one restart, bit for
    bit. Records the lower bound after every M-step;
    stops when the relative bound change drops below ``BOUND_REL_TOL``
    (converged) or the iteration cap is hit. The recorded trace is
    non-decreasing: an iteration that would lower the bound (after an
    E-step or an empty-class re-seed that lowered it) is rolled back and the
    run stops there, not converged.
    Raises
    ``ValueError`` unless ``1 <= n_classes <= graph.n``, and
    :class:`EmptyClassError` if a class stays empty after the re-seeds.
    """
    cfg = cfg or EMConfig()
    _check_fit(graph, features, n_classes, mode)
    if resp_init is None:
        (seed, strategy), = _restart_plan(cfg.rng_seed, 1,
                                          _has_features(features, mode))
        start, = _starts(graph, features, [(n_classes, seed, strategy)], mode)
    else:
        start = check_responsibilities(resp_init, graph.n, n_classes)
    outcome, = _em(graph, features, [start], cfg.max_em_iters, mode)
    if isinstance(outcome, EmptyClassError):
        raise outcome
    return outcome.result()


def _has_features(features: FeatureMatrix, mode: str) -> bool:
    """Whether a fit in ``mode`` has feature columns to read."""
    return features.p > 0 and mode_terms(mode)[1]


def _restart_plan(seed: int | None, n_restarts: int,
                  has_features: bool) -> list[tuple[np.random.SeedSequence,
                                                    str]]:
    """The (seed, init strategy) of each restart.

    Restart ``r`` is seeded by its child ``SeedSequence(seed,
    spawn_key=(r,))``, from which :func:`_starts` builds its generator.
    With usable features every restart runs k-means from D^2-sampled
    centres (see :func:`_kmeans_labels`) on the feature rows. Without them
    restart 0 bins the degree quantiles and every later restart runs that
    k-means on the adjacency rows; such a fit reads the edges, since
    :func:`~cohsmix.model.check_features_vary` rejects one that reads
    neither.
    """
    return [(np.random.SeedSequence(seed, spawn_key=(r,)),
             "graph-degree-quantile" if r == 0 and not has_features
             else "feature-kmeans")
            for r in range(n_restarts)]


def _best_restart(outcomes) -> FitResult:
    """The result of the earliest restart whose final bound is within
    ``TIE_REL_TOL`` of the best, with its index and the messages of the
    failed ones; raises if every restart failed. ``outcomes`` holds, by
    restart, its :class:`_Run` or its :class:`EmptyClassError`.

    Restarts that reach one optimum relabelled end on bounds a few ulps
    apart, so a strict maximum would pick among them by rounding.
    """
    runs = [(r, run) for r, run in enumerate(outcomes)
            if isinstance(run, _Run)]
    failed = [f"restart {r}: {err}" for r, err in enumerate(outcomes)
              if isinstance(err, EmptyClassError)]
    if not runs:
        raise RuntimeError(f"all {len(outcomes)} restarts failed: {failed}")
    top = max(run.final_bound for _, run in runs)
    floor = top - TIE_REL_TOL * max(1.0, abs(top))
    r, best = next((r, run) for r, run in runs if run.final_bound >= floor)
    return best.result(failed, r)


def _fit_candidates(graph: Graph, features: FeatureMatrix, candidates,
                    cfg: EMConfig, mode: str) -> list:
    """The restarts of every candidate class count in one lockstep driver.

    ``candidates`` holds ``(n_classes, seed)`` pairs, the seed giving the
    candidate's restart plan (see :func:`_restart_plan`); ``cfg`` gives the
    restart count and the iteration cap, which every candidate shares. The
    starts of all restarts are built by one :func:`_starts`, their k-means
    runs in one stack.
    Returns, by candidate, the best restart or the ``RuntimeError`` of every
    restart failing.
    """
    has_features = _has_features(features, mode)
    plans = [(n_classes, restart_seed, strategy)
             for n_classes, seed in candidates
             for restart_seed, strategy in _restart_plan(
                 seed, cfg.n_restarts, has_features)]
    outcomes = iter(_em(graph, features, _starts(graph, features, plans, mode),
                        cfg.max_em_iters, mode))
    best = []
    for _ in candidates:
        try:
            best.append(_best_restart(
                [next(outcomes) for _ in range(cfg.n_restarts)]))
        except RuntimeError as err:
            best.append(err)
    return best


def fit_multi_restart(graph: Graph, features: FeatureMatrix, n_classes: int,
                      cfg: EMConfig | None = None,
                      mode: str = "joint") -> FitResult:
    """Best-of-``cfg.n_restarts`` EM runs, selected by final bound.

    Restart ``r`` is seeded by the child ``SeedSequence(cfg.rng_seed,
    spawn_key=(r,))``. Every restart runs k-means from D^2-sampled centres
    on the feature rows; without usable features restart 0 bins the
    degree quantiles and every later one runs k-means on the adjacency
    rows (see :func:`_restart_plan`). The restarts run in lockstep, each as
    :func:`fit` would run it alone from its planned start; restart 0 is
    :func:`fit`'s own start. Final bounds within ``TIE_REL_TOL`` (relative)
    of the best tie, and ties keep the earliest restart, whose index the
    result holds as ``best_restart``. A restart whose classes stay empty
    fails while the others go on; the returned result lists the failures
    in ``failed_restarts``. Raises if every restart fails.
    """
    cfg = cfg or EMConfig()
    _check_fit(graph, features, n_classes, mode)
    best, = _fit_candidates(graph, features, [(n_classes, cfg.rng_seed)], cfg,
                            mode)
    if isinstance(best, RuntimeError):
        raise best
    return best
