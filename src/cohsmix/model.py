"""Data containers and exact objective evaluation for the latent-class model.

The model places each vertex in one of Q hidden classes. Edges of an
undirected binary graph are Bernoulli with a probability that depends only
on the two endpoint classes, and each vertex carries a feature vector drawn
from a spherical Gaussian centred on its class mean. Everything here is a
pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        adj = np.zeros((n, n))
        adj[i, j] = 1.0
        adj[j, i] = 1.0
        return cls(adj)

    def neighbour_mass(self, resp_t: np.ndarray) -> np.ndarray:
        """(Q, n) expected number of neighbours of each vertex per class.

        ``resp_t`` is the (Q, n) transpose of a responsibility matrix; the
        result is ``resp_t @ adjacency``, which equals ``(adjacency @
        resp).T`` because the adjacency is symmetric, and streams the matrix
        by rows. This is the fit's only n^2 product.
        """
        return resp_t @ self.adjacency


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


@dataclass(frozen=True)
class ModelParams:
    """Class proportions, connectivity matrix, class means, shared variance.

    ``sigma2`` is the per-coordinate variance of the spherical Gaussian
    attached to each class. ``pi`` must be symmetric because the graph is
    undirected.
    """

    alpha: np.ndarray
    pi: np.ndarray
    mu: np.ndarray
    sigma2: float

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=np.float64, copy=True)
        pi = np.array(self.pi, dtype=np.float64, copy=True)
        mu = np.atleast_2d(np.array(self.mu, dtype=np.float64, copy=True))
        q = alpha.shape[0]
        if alpha.ndim != 1 or q < 1:
            raise ValueError("alpha must be a non-empty vector")
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
        object.__setattr__(self, "alpha", _freeze(alpha))
        object.__setattr__(self, "pi", _freeze((pi + pi.T) / 2.0))
        object.__setattr__(self, "mu", _freeze(mu))
        object.__setattr__(self, "sigma2", float(self.sigma2))

    @property
    def n_classes(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_features(self) -> int:
        return self.mu.shape[1]

    def clamped(self, pi_eps: float = PI_EPS,
                sigma2_floor: float = SIGMA2_FLOOR) -> "ModelParams":
        """Copy with connection probabilities and variance pushed off 0/1/0."""
        return ModelParams(
            alpha=self.alpha,
            pi=np.clip(self.pi, pi_eps, 1.0 - pi_eps),
            mu=self.mu,
            sigma2=max(self.sigma2, sigma2_floor),
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


def responsibility_entropy(resp) -> float:
    """-sum resp * log resp with the 0*log 0 = 0 convention."""
    resp = np.asarray(resp, dtype=np.float64)
    return float(-xlogy(resp, resp).sum())


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


def _check_params(features: FeatureMatrix, params: ModelParams):
    if params.n_features != features.p:
        raise ValueError(
            f"params expect {params.n_features} features, data has {features.p}"
        )


def _soft_assignment(assignment, n: int, n_classes: int) -> np.ndarray:
    arr = np.asarray(assignment)
    if arr.ndim == 1:
        return one_hot(arr, n_classes)
    return check_responsibilities(arr, n, n_classes)


class ClassStats:
    """Class-level sufficient statistics of one responsibility matrix.

    The bound, the complete log-likelihood, the M-step and the selection
    criterion all read from here. The n^2 product ``adjacency @ resp`` is
    computed by :meth:`Graph.neighbour_mass`, at most once and only if an
    edge term asks for it; ``adj_resp`` passes it in when the caller already
    has it. ``resp`` is taken as given: callers validate it.

    ``col`` is the class mass; ``on`` the expected edge counts between
    classes, each edge counted from both ends; ``pairs`` the expected counts
    of ordered pairs of distinct vertices.
    """

    def __init__(self, graph: Graph, features: FeatureMatrix, resp,
                 adj_resp: np.ndarray | None = None):
        check_rows(graph, features)
        self.graph = graph
        self.features = features
        self.resp = resp
        self.col = resp.sum(axis=0)
        self._adj_resp = adj_resp

    @property
    def adj_resp(self) -> np.ndarray:
        """(n, Q) expected number of neighbours of each vertex per class.

        A transposed view of the (Q, n) :meth:`Graph.neighbour_mass`.
        """
        if self._adj_resp is None:
            self._adj_resp = self.graph.neighbour_mass(
                np.ascontiguousarray(self.resp.T)).T
        return self._adj_resp

    @property
    def on(self) -> np.ndarray:
        return self.resp.T @ self.adj_resp

    @property
    def pairs(self) -> np.ndarray:
        return np.outer(self.col, self.col) - self.resp.T @ self.resp

    @property
    def entropy(self) -> float:
        return responsibility_entropy(self.resp)

    def scatter(self, mu, d2: np.ndarray | None = None) -> float:
        """Responsibility-weighted squared distance of the rows to ``mu``.

        ``d2`` is ``squared_distances(features.values, mu)`` when the caller
        already has it.
        """
        if d2 is None:
            d2 = squared_distances(self.features.values, mu)
        return float((self.resp * d2).sum())

    def log_likelihood(self, params: ModelParams, mode: str = "joint",
                       d2: np.ndarray | None = None) -> float:
        """Expected complete log-likelihood, with the terms ``mode`` drops.

        Proportions, then Bernoulli edges over unordered pairs of distinct
        vertices, then the spherical Gaussian with its full normalising
        constant. ``d2`` is as in :meth:`scatter`.
        """
        _check_params(self.features, params)
        use_edges, use_features = mode_terms(mode)
        total = float(xlogy(self.col, params.alpha).sum())
        if use_edges:
            on = self.on
            off = self.pairs - on
            total += float(0.5 * (xlogy(on, params.pi).sum()
                                  + xlogy(off, 1.0 - params.pi).sum()))
        p = self.features.p
        if use_features and p:
            const = -0.5 * p * np.log(2.0 * np.pi * params.sigma2)
            total += float(const * self.resp.sum()
                           - self.scatter(params.mu, d2) / (2.0 * params.sigma2))
        return total

    def bound(self, params: ModelParams, mode: str = "joint",
              d2: np.ndarray | None = None) -> float:
        """Variational lower bound: log-likelihood plus entropy."""
        return self.log_likelihood(params, mode, d2) + self.entropy


def squared_distances(points, centers) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (n_points, n_centers)."""
    points = np.asarray(points, dtype=np.float64)
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    pp = (points * points).sum(axis=1)[:, None]
    cc = (centers * centers).sum(axis=1)[None, :]
    d2 = pp + cc - 2.0 * points @ centers.T
    return np.maximum(d2, 0.0)


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
    return ClassStats(graph, features, resp).log_likelihood(params, mode)


def variational_lower_bound(graph: Graph, features: FeatureMatrix,
                            resp, params: ModelParams) -> float:
    """Evidence lower bound: expected complete log-likelihood plus entropy.

    Equals the log-marginal likelihood minus the KL divergence between the
    factorised assignment distribution and the true posterior, hence never
    exceeds :func:`exact_log_marginal` for any responsibility matrix.
    """
    resp = check_responsibilities(resp, graph.n, params.n_classes)
    return ClassStats(graph, features, resp).bound(params)


def exact_log_marginal(graph: Graph, features: FeatureMatrix,
                       params: ModelParams,
                       max_terms: int = MAX_ENUM_TERMS) -> float:
    """Log-marginal likelihood by exhaustive enumeration of assignments.

    Only feasible for tiny instances (guarded at Q**n <= max_terms); used
    as an independent ceiling for the variational bound.
    """
    check_rows(graph, features)
    _check_params(features, params)
    n, q = graph.n, params.n_classes
    if n == 0:
        return 0.0
    n_terms = q ** n
    if n_terms > max_terms:
        raise ValueError(
            f"enumeration of {q}**{n} assignments exceeds the {max_terms} guard"
        )

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
