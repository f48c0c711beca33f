"""Data containers and exact objective evaluation for the latent-class model.

The model places each vertex in one of Q hidden classes. Edges of an
undirected binary graph are Bernoulli with a probability that depends only
on the two endpoint classes, and each vertex carries a feature vector drawn
from a spherical Gaussian centred on its class mean. Everything here is a
pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp, xlogy

# Clamps keeping log terms finite on degenerate data.
PI_EPS = 1e-6
SIGMA2_FLOOR = 1e-8

MODES = ("joint", "graph-only", "features-only")

# Enumeration guard for the exact marginal.
MAX_ENUM_TERMS = 1_000_000


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Graph:
    """Undirected binary graph without self-loops.

    Parameters
    ----------
    adjacency : ndarray of shape (n, n)
        Symmetric 0/1 matrix with a zero diagonal. The matrix is copied and
        frozen; the sorted edge-pair view is derived from it on demand.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=np.float64, copy=True)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if np.any((adj != 0.0) & (adj != 1.0)):
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(adj != adj.T):
            raise ValueError("adjacency must be symmetric (undirected graph)")
        if np.any(np.diag(adj) != 0.0):
            raise ValueError("self-loops are not allowed (diagonal must be zero)")
        object.__setattr__(self, "adjacency", _freeze(adj))

    @classmethod
    def _built(cls, adjacency: np.ndarray) -> "Graph":
        """A graph whose builder made its float64 adjacency valid by
        construction and hands it over: frozen as it is, with no copy and no
        check."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "adjacency", _freeze(adjacency))
        return graph

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return int(round(self.adjacency.sum())) // 2

    def edge_pairs(self) -> np.ndarray:
        """Sorted (i, j) pairs with i < j, one row per edge."""
        i, j = np.nonzero(np.triu(self.adjacency, k=1))
        return np.column_stack([i, j])

    @classmethod
    def from_edge_pairs(cls, n: int, pairs) -> "Graph":
        """Build a graph from vertex-index pairs; order within a pair is free.

        Raises on the first pair, in input order, that is out of range or a
        self-loop.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        i, j = pairs[:, 0], pairs[:, 1]
        in_range = (i >= 0) & (i < n) & (j >= 0) & (j < n)
        bad = np.nonzero(~in_range | (i == j))[0]
        if bad.size:
            a, b = pairs[bad[0]]
            if not in_range[bad[0]]:
                raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
            raise ValueError(f"self-loop ({a}, {a}) is not allowed")
        adj = np.zeros(n * n)
        adj[i * n + j] = 1.0
        adj[j * n + i] = 1.0
        return cls._built(adj.reshape(n, n))

    def neighbour_mass(self, resp_t: np.ndarray) -> np.ndarray:
        """(..., Q, n) expected number of neighbours of each vertex per class.

        ``resp_t`` is the (Q, n) transpose of a responsibility matrix, or an
        (R, Q, n) stack of them; the result is ``resp_t @ adjacency``, which
        equals ``(adjacency @ resp).T`` because the adjacency is symmetric,
        and streams the matrix by rows. A stack is multiplied as one
        (R*Q, n) matrix, so the adjacency is read once for all of it. This
        is the fit's only n^2 product.
        """
        rows = math.prod(resp_t.shape[:-1])
        return (resp_t.reshape(rows, self.n) @ self.adjacency).reshape(
            resp_t.shape)


class _lazy:
    """An attribute computed on first access and then stored on the
    instance. ``functools.cached_property`` does the same, but before Python
    3.12 it takes a lock on every first access, which cost a third of a
    one-matrix bound evaluation; statistics are never shared between
    threads."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-vertex real feature rows; p = 0 (no features) is allowed."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.ndim != 2:
            raise ValueError(f"features must be 2-d (n, p), got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("features must be finite")
        # Distances to the class means square the rows; a row whose squared
        # norm overflows would turn the fit's variance into inf.
        with np.errstate(over="ignore"):
            overflow = np.nonzero(~np.isfinite((vals * vals).sum(axis=1)))[0]
        if overflow.size:
            raise ValueError(
                f"feature row {overflow[0]} is too large: its squared norm "
                "overflows float64; rescale the features"
            )
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @classmethod
    def empty(cls, n: int) -> "FeatureMatrix":
        return cls(np.zeros((n, 0)))

    @_lazy
    def values_t(self) -> np.ndarray:
        """The (p, n) transpose of the table, contiguous."""
        return np.ascontiguousarray(self.values.T)

    @_lazy
    def _row_norms(self) -> np.ndarray:
        """The squared norm of each row."""
        return (self.values * self.values).sum(axis=1)

    def squared_distances(self, mu) -> np.ndarray:
        """(..., Q, n) squared distances of the rows to each mean of ``mu``,
        an (..., Q, p) stack: ``squared_distances(mu, self.values)`` in every
        bit, from the cached transpose and row norms of the table."""
        return _squared_distances(mu, self.values_t, self._row_norms)


@dataclass(frozen=True)
class ModelParams:
    """Class proportions, connectivity matrix, class means, shared variance.

    ``sigma2`` is the per-coordinate variance of the spherical Gaussian
    attached to each class. ``pi`` must be symmetric because the graph is
    undirected. Every entry must be finite.
    """

    alpha: np.ndarray
    pi: np.ndarray
    mu: np.ndarray
    sigma2: float

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=np.float64, copy=True)
        pi = np.array(self.pi, dtype=np.float64, copy=True)
        mu = np.atleast_2d(np.array(self.mu, dtype=np.float64, copy=True))
        if alpha.ndim != 1 or alpha.shape[0] < 1:
            raise ValueError("alpha must be a non-empty vector")
        q = alpha.shape[0]
        for name, value in (("alpha", alpha), ("pi", pi), ("mu", mu)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > 1e-8:
            raise ValueError("alpha must be a probability vector")
        if pi.shape != (q, q):
            raise ValueError(f"pi must have shape ({q}, {q}), got {pi.shape}")
        if np.any(pi < 0) or np.any(pi > 1):
            raise ValueError("pi entries must lie in [0, 1]")
        if not _allclose(pi, pi.T):
            raise ValueError("pi must be symmetric (undirected graph)")
        if mu.shape[0] != q:
            raise ValueError(f"mu must have {q} rows, got {mu.shape[0]}")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError("sigma2 must be a positive finite scalar")
        self._store(alpha, pi, mu, self.sigma2)

    def _store(self, alpha, pi, mu, sigma2):
        """Set the fields from float64 copies the instance may keep."""
        object.__setattr__(self, "alpha", _freeze(alpha))
        object.__setattr__(self, "pi", _freeze((pi + pi.T) / 2.0))
        object.__setattr__(self, "mu", _freeze(mu))
        object.__setattr__(self, "sigma2", float(sigma2))

    @property
    def n_classes(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_features(self) -> int:
        return self.mu.shape[1]

    def clamped(self) -> "ModelParams":
        """Copy with connection probabilities and variance pushed off 0/1/0
        by the M-step's clamps, ``PI_EPS`` and ``SIGMA2_FLOOR``."""
        return ModelParams(
            alpha=self.alpha,
            pi=np.clip(self.pi, PI_EPS, 1.0 - PI_EPS),
            mu=self.mu,
            sigma2=max(self.sigma2, SIGMA2_FLOOR),
        )


def _allclose(a, b) -> bool:
    """``np.allclose(a, b, atol=1e-8)`` for finite ``b``, without the
    ``isclose`` machinery: ``rtol`` is numpy's default 1e-5, and NaN is never
    close."""
    return bool(np.all(np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)))


def check_responsibilities(resp, n: int,
                           n_classes: int | None = None) -> np.ndarray:
    """Validate an (n, Q) row-stochastic matrix and return it as float64.

    ``n_classes=None`` accepts any class count.
    """
    resp = np.asarray(resp, dtype=np.float64)
    if resp.ndim != 2 or resp.shape[0] != n \
            or n_classes not in (None, resp.shape[1]):
        raise ValueError(
            f"responsibilities must have shape ({n}, {n_classes or 'Q'}), "
            f"got {resp.shape}"
        )
    if np.any(resp < -1e-12):
        raise ValueError("responsibilities must be non-negative")
    if not _allclose(resp.sum(axis=1), 1.0):
        raise ValueError("responsibility rows must each sum to 1")
    return resp


def partition_from_responsibilities(resp) -> np.ndarray:
    """Hard labels by row-wise argmax; ties go to the lowest class index."""
    return np.argmax(np.asarray(resp), axis=1)


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a vector")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    hot = np.zeros((labels.shape[0], n_classes))
    hot[np.arange(labels.shape[0]), labels] = 1.0
    return hot


def responsibility_entropy(resp, axis=None):
    """-sum resp * log resp with the 0*log 0 = 0 convention, over ``axis``
    (every entry by default). The log is taken of the positive entries
    only; on the fit's small stacks that takes about half the time of
    ``scipy.special.xlogy``."""
    resp = np.asarray(resp, dtype=np.float64)
    terms = np.log(resp, out=np.zeros_like(resp), where=resp > 0)
    terms *= resp
    return -terms.sum(axis=axis)


def mode_terms(mode: str) -> tuple[bool, bool]:
    """Whether an ablation mode uses the (edge, feature) terms of the model."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode != "features-only", mode != "graph-only"


def check_rows(graph: Graph, features: FeatureMatrix):
    """Raise unless the feature table has one row per graph vertex."""
    if features.n != graph.n:
        raise ValueError(
            f"row-count mismatch: features have {features.n} rows, "
            f"graph has {graph.n} vertices"
        )


def check_features_vary(features: FeatureMatrix, mode: str):
    """Raise when ``mode`` reads the features and every column is constant.

    Constant features put the fitted variance on its floor, where the bound
    and the ICL turn large, positive and meaningless. One constant column
    among varying ones is fine.
    """
    if mode_terms(mode)[1] and features.p \
            and (features.values == features.values[0]).all():
        raise ValueError(
            f"features: all {features.p} columns are constant over the "
            f"{features.n} vertices, so their variance has no estimate; "
            "fit the graph alone with mode=\"graph-only\"")


def check_params(features: FeatureMatrix, params):
    n_features = params.mu.shape[-1]
    if n_features != features.p:
        raise ValueError(
            f"params expect {n_features} features, data has {features.p}"
        )


def _soft_assignment(assignment, n: int, n_classes: int) -> np.ndarray:
    arr = np.asarray(assignment)
    if arr.ndim == 1:
        return one_hot(arr, n_classes)
    return check_responsibilities(arr, n, n_classes)


class ParamStack(NamedTuple):
    """The parameters of R fits at once, each with a leading restart axis.

    ``alpha`` is (R, Q), ``pi`` (R, Q, Q), ``mu`` (R, Q, p) and ``sigma2``
    (R,). A stack is not validated: the M-step builds valid parameters, and
    the fit unstacks the row of each fit it returns.
    """

    alpha: np.ndarray
    pi: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray

    @classmethod
    def of(cls, params: ModelParams) -> "ParamStack":
        """A stack of one."""
        return cls(params.alpha[None], params.pi[None], params.mu[None],
                   np.array([params.sigma2]))

    def take(self, rows) -> "ParamStack":
        return ParamStack(*(field[rows] for field in self))

    def unstack(self, row: int, n_classes: int | None = None) -> ModelParams:
        """The parameters of one row, with its first ``n_classes`` classes
        only (all by default), which drops a padded row's padding.

        The row is the M-step's output, valid by construction, so the
        :class:`ModelParams` is built without the constructor's checks; it
        gets the same copies, symmetrised ``pi`` and frozen fields.
        """
        q = slice(n_classes)
        params = object.__new__(ModelParams)
        params._store(self.alpha[row, q].copy(), self.pi[row, q, q],
                      self.mu[row, q].copy(), self.sigma2[row])
        return params


class ClassStats:
    """Class-level sufficient statistics of a stack of responsibility matrices.

    ``resp_t`` is an (R, Q, n) stack of transposed responsibility matrices,
    one per restart of a fit; :meth:`of` wraps a single (n, Q) matrix as a
    stack of one. Every statistic carries the leading restart axis, and the
    bound, the complete log-likelihood, the M-step and the selection
    criterion all read from here. Each is computed at most once.

    ``mass`` is the (R, Q, n) product ``resp_t @ adjacency``, computed for the
    whole stack by one :meth:`Graph.neighbour_mass` and only if an edge term
    asks for it; the caller passes it in when it already has it. ``col`` is
    the class mass; ``on`` the expected edge counts between classes, each
    edge counted from both ends; ``pairs`` the expected counts of ordered
    pairs of distinct vertices. ``resp_t`` is taken as given: callers
    validate it.

    Matrices of different class counts share a stack by padding: matrix r
    has ``n_classes[r]`` classes (every class of the stack by default), and
    its classes past that are zero rows of ``resp_t``. A zero row adds
    nothing to any statistic, and given the adjacency product no statistic
    of a matrix depends on the width of its stack in any bit: the products
    over vertices are ``np.einsum`` contractions, which sum each entry in
    the same order whatever the other rows (the BLAS product's rounding
    changes with the matrix shape), and sums over classes add the classes
    in order (see :func:`_class_sum`). Only the adjacency product is BLAS.
    """

    # The last scatter and the means it was formed for (see :meth:`scatter`).
    _scatter = (None, None)

    def __init__(self, graph: Graph, features: FeatureMatrix,
                 resp_t: np.ndarray, mass: np.ndarray | None = None,
                 n_classes: np.ndarray | None = None):
        check_rows(graph, features)
        if resp_t.ndim != 3 or resp_t.shape[2] != graph.n:
            raise ValueError(f"resp_t must be an (R, Q, {graph.n}) stack, got "
                             f"shape {resp_t.shape}; ClassStats.of takes "
                             "one (n, Q) matrix")
        self.graph = graph
        self.features = features
        self.resp_t = resp_t
        self.col = resp_t.sum(axis=2)
        self._mass = mass
        self.n_classes = np.full(resp_t.shape[0], resp_t.shape[1]) \
            if n_classes is None else n_classes

    @classmethod
    def of(cls, graph: Graph, features: FeatureMatrix, resp) -> "ClassStats":
        """Statistics of one (n, Q) responsibility matrix."""
        resp_t = np.asarray(resp, dtype=np.float64).T
        return cls(graph, features, np.ascontiguousarray(resp_t)[None])

    @property
    def resp(self) -> np.ndarray:
        """(R, n, Q) view of the responsibility matrices."""
        return self.resp_t.transpose(0, 2, 1)

    @property
    def mass(self) -> np.ndarray:
        """(R, Q, n) expected number of neighbours of each vertex per class."""
        if self._mass is None:
            self._mass = self.graph.neighbour_mass(self.resp_t)
        return self._mass

    @_lazy
    def on(self) -> np.ndarray:
        return np.einsum("rkn,rln->rkl", self.resp_t, self.mass)

    @_lazy
    def pairs(self) -> np.ndarray:
        return (self.col[:, :, None] * self.col[:, None, :]
                - np.einsum("rkn,rln->rkl", self.resp_t, self.resp_t))

    @_lazy
    def entropy(self) -> np.ndarray:
        return _class_sum(responsibility_entropy(self.resp_t, axis=2))

    def take(self, rows) -> "ClassStats":
        """The statistics of the matrices at ``rows``, with their products,
        class masses and whichever of ``on``, ``pairs`` and the entropy are
        computed. The rows come from checked statistics and every statistic
        is a row's own, so the taken rows are neither checked nor summed
        again."""
        taken = object.__new__(ClassStats)
        taken.graph, taken.features = self.graph, self.features
        taken.resp_t, taken.col = self.resp_t[rows], self.col[rows]
        taken._mass = None if self._mass is None else self._mass[rows]
        taken.n_classes = self.n_classes[rows]
        for name in ("on", "pairs", "entropy"):
            if name in self.__dict__:
                taken.__dict__[name] = self.__dict__[name][rows]
        return taken

    def with_rows(self, rows, resp_t: np.ndarray) -> "ClassStats":
        """The statistics with the matrices at ``rows`` replaced by
        ``resp_t``. The other rows keep their products; the new rows get
        theirs in one product when the stack's are known."""
        new_resp = self.resp_t.copy()
        new_resp[rows] = resp_t
        new_mass = self._mass
        if new_mass is not None:
            new_mass = new_mass.copy()
            new_mass[rows] = self.graph.neighbour_mass(resp_t)
        return ClassStats(self.graph, self.features, new_resp, new_mass,
                          self.n_classes)

    def scatter(self, mu, d2: np.ndarray | None = None) -> np.ndarray:
        """Responsibility-weighted squared distance of the rows to ``mu``.

        ``mu`` is an (R, Q, p) stack of means; ``d2`` is
        ``squared_distances(mu, features.values)`` when the caller already
        has it. The last scatter is kept with the ``mu`` it was formed for
        and returned again for that same array: the M-step forms it for the
        variance, and the bound that follows needs it for the same means.
        Means are never changed in place.
        """
        if self._scatter[0] is mu:
            return self._scatter[1]
        if d2 is None:
            d2 = self.features.squared_distances(mu)
        value = _class_sum((self.resp_t * d2).sum(axis=2))
        self._scatter = (mu, value)
        return value

    def log_likelihood(self, params: ParamStack, mode: str = "joint",
                       d2: np.ndarray | None = None) -> np.ndarray:
        """Expected complete log-likelihood of each matrix, with the terms
        ``mode`` drops.

        ``params`` is a :class:`ParamStack` with one row per matrix.
        Proportions, then Bernoulli edges over unordered pairs of distinct
        vertices, then the spherical Gaussian with its full normalising
        constant. ``d2`` is as in :meth:`scatter`.
        """
        check_params(self.features, params)
        use_edges, use_features = mode_terms(mode)
        total = _class_sum(xlogy(self.col, params.alpha))
        if use_edges:
            on = self.on
            off = self.pairs - on
            total += 0.5 * _class_sum(
                (xlogy(on, params.pi) + xlogy(off, 1.0 - params.pi))
                .sum(axis=1))
        p = self.features.p
        if use_features and p:
            const = -0.5 * p * np.log(2.0 * np.pi * params.sigma2)
            total += (const * _class_sum(self.col)
                      - self.scatter(params.mu, d2) / (2.0 * params.sigma2))
        return total

    def bound(self, params: ParamStack, mode: str = "joint",
              d2: np.ndarray | None = None) -> np.ndarray:
        """Variational lower bound of each matrix: log-likelihood plus
        entropy."""
        return self.log_likelihood(params, mode, d2) + self.entropy


def _class_sum(x: np.ndarray) -> np.ndarray:
    """The sum of each row of an (R, Q) stack, adding the classes in order.

    numpy sums a row of eight or more values pairwise, so zeros appended by
    padding would regroup the others; a running sum adds them in order, and
    trailing zeros leave it unchanged in every bit.
    """
    return x.cumsum(axis=1)[:, -1]


def squared_distances(points, centers) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (..., n_points,
    n_centers); ``points`` may carry leading stack axes.

    The cross term is an ``np.einsum`` contraction, so a point's distances
    do not depend on the other points in any bit (see :class:`ClassStats`).
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    return _squared_distances(points, np.ascontiguousarray(centers.T),
                              (centers * centers).sum(axis=1))


def _squared_distances(points, centers_t, center_norms) -> np.ndarray:
    """:func:`squared_distances` from the (p, n_centers) transpose of the
    centres and their squared norms. The terms are combined in place, in
    the order ``(point norms + centre norms) - 2 * cross``."""
    points = np.asarray(points, dtype=np.float64)
    out = (points * points).sum(axis=-1)[..., None] + center_norms
    cross = np.einsum("...ip,pj->...ij", points, centers_t)
    cross *= 2.0
    out -= cross
    return np.maximum(out, 0.0, out=out)


def complete_log_likelihood(graph: Graph, features: FeatureMatrix,
                            assignment, params: ModelParams,
                            mode: str = "joint") -> float:
    """Joint log-probability of graph, features, and a class assignment.

    Parameters
    ----------
    assignment : ndarray
        Either a length-n integer label vector (hard assignment) or an
        (n, Q) row-stochastic responsibility matrix, in which case the
        expectation of the hard-assignment expression is returned with
        indicator products replaced by responsibility products.
    mode : str
        Ablation mode; ``graph-only`` drops the feature term and
        ``features-only`` the edge term.
    """
    resp = _soft_assignment(assignment, graph.n, params.n_classes)
    return float(ClassStats.of(graph, features, resp)
                 .log_likelihood(ParamStack.of(params), mode)[0])


def variational_lower_bound(graph: Graph, features: FeatureMatrix,
                            resp, params: ModelParams,
                            mode: str = "joint") -> float:
    """Evidence lower bound: expected complete log-likelihood plus entropy.

    Equals the log-marginal likelihood minus the KL divergence between the
    factorised assignment distribution and the true posterior, hence never
    exceeds :func:`exact_log_marginal` for any responsibility matrix. An
    ablation ``mode`` drops the edge or the feature term.
    """
    resp = check_responsibilities(resp, graph.n, params.n_classes)
    return float(ClassStats.of(graph, features, resp)
                 .bound(ParamStack.of(params), mode)[0])


def exact_log_marginal(graph: Graph, features: FeatureMatrix,
                       params: ModelParams) -> float:
    """Log-marginal likelihood by exhaustive enumeration of assignments.

    Only feasible for tiny instances (guarded at Q**n <= MAX_ENUM_TERMS);
    used as an independent ceiling for the variational bound.
    """
    check_rows(graph, features)
    check_params(features, params)
    n, q = graph.n, params.n_classes
    if n == 0:
        return 0.0
    n_terms = q ** n
    if n_terms > MAX_ENUM_TERMS:
        raise ValueError(f"enumeration of {q}**{n} assignments exceeds the "
                         f"{MAX_ENUM_TERMS} guard")

    # Per-vertex term: log alpha_q plus the full Gaussian log-density.
    with np.errstate(divide="ignore"):
        vertex = np.tile(np.log(params.alpha), (n, 1))
        log_pi = np.log(params.pi)
        log_not = np.log1p(-params.pi)
    if features.p:
        d2 = squared_distances(features.values, params.mu)
        vertex = vertex - 0.5 * features.p * np.log(2.0 * np.pi * params.sigma2) \
            - d2 / (2.0 * params.sigma2)

    labels = np.array(
        np.unravel_index(np.arange(n_terms), (q,) * n), dtype=np.int32
    )  # (n, q**n)
    totals = np.zeros(n_terms)
    for i in range(n):
        totals += vertex[i, labels[i]]
    adj = graph.adjacency
    for i in range(n):
        for j in range(i + 1, n):
            table = log_pi if adj[i, j] else log_not
            totals += table[labels[i], labels[j]]
    return float(logsumexp(totals))
