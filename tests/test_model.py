import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohsmix.model as model
from cohsmix.em import _m_step
from cohsmix.model import (
    ClassStats,
    FeatureMatrix,
    Graph,
    ModelParams,
    ParamStack,
    check_responsibilities,
    complete_log_likelihood,
    exact_log_marginal,
    one_hot,
    partition_from_responsibilities,
    responsibility_entropy,
    squared_distances,
    variational_lower_bound,
)
from cohsmix.simulate import AffiliationSpec, generate

from conftest import (
    random_features,
    random_graph,
    random_instance,
    random_params,
    random_responsibilities,
    row_by_row_mass,
)
from oracles import complete_ll_bruteforce, log_marginal_bruteforce


# ---------------------------------------------------------------------------
# Containers


def test_graph_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        Graph(np.array([[0, 1], [0, 0]]))


def test_graph_rejects_self_loops():
    with pytest.raises(ValueError, match="diagonal"):
        Graph(np.array([[1, 0], [0, 0]]))


def test_graph_rejects_non_binary():
    with pytest.raises(ValueError, match="0 or 1"):
        Graph(np.array([[0, 2], [2, 0]]))


def test_graph_views_agree(rng):
    graph = random_graph(7, rng)
    rebuilt = Graph.from_edge_pairs(7, graph.edge_pairs())
    assert np.array_equal(rebuilt.adjacency, graph.adjacency)
    pairs = graph.edge_pairs()
    assert np.all(pairs[:, 0] < pairs[:, 1])
    assert len(pairs) == graph.n_edges


def test_from_edge_pairs_names_first_bad_pair():
    with pytest.raises(ValueError, match=r"self-loop \(1, 1\)"):
        Graph.from_edge_pairs(3, [(0, 1), (1, 1), (0, 9)])
    with pytest.raises(ValueError, match=r"edge \(0, 9\) out of range for n=3"):
        Graph.from_edge_pairs(3, [(0, 1), (0, 9), (1, 1)])
    with pytest.raises(ValueError, match=r"edge \(-1, 2\) out of range"):
        Graph.from_edge_pairs(3, [(-1, 2)])


def from_edge_pairs_reference(n, pairs):
    """``Graph.from_edge_pairs`` as it scattered through two index arrays."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    adj = np.zeros((n, n))
    adj[pairs[:, 0], pairs[:, 1]] = 1.0
    adj[pairs[:, 1], pairs[:, 0]] = 1.0
    return adj


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 40), data=st.data())
def test_from_edge_pairs_matches_the_index_array_scatter(n, data):
    # Flat indices, repeated and reversed pairs included.
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda pair: pair[0] != pair[1]), max_size=3 * n))
    graph = Graph.from_edge_pairs(n, pairs)
    assert np.array_equal(graph.adjacency, from_edge_pairs_reference(n, pairs))


def test_features_reject_non_finite():
    with pytest.raises(ValueError, match="finite"):
        FeatureMatrix(np.array([[1.0, np.inf]]))


def test_features_reject_overflowing_squared_norm():
    # Each entry is finite, but 1e200 squared is not.
    values = np.array([[1.0, 2.0], [3.0, 1e150], [1e200, 0.0]])
    with pytest.raises(ValueError, match="feature row 2 is too large"):
        FeatureMatrix(values)


def test_params_validation():
    with pytest.raises(ValueError, match="probability vector"):
        ModelParams(alpha=[0.5, 0.6], pi=np.full((2, 2), 0.5),
                    mu=np.zeros((2, 1)), sigma2=1.0)
    with pytest.raises(ValueError, match="symmetric"):
        ModelParams(alpha=[0.5, 0.5], pi=np.array([[0.5, 0.1], [0.9, 0.5]]),
                    mu=np.zeros((2, 1)), sigma2=1.0)
    with pytest.raises(ValueError, match="positive"):
        ModelParams(alpha=[1.0], pi=np.eye(1) * 0.5, mu=np.zeros((1, 1)),
                    sigma2=0.0)


@pytest.mark.parametrize("field", ["alpha", "pi", "mu"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_params_reject_a_non_finite_entry(field, value):
    # NaN passes every comparison the other checks make, so each field is
    # checked for finite entries, and the message names it.
    fields = {"alpha": np.array([0.5, 0.5]),
              "pi": np.array([[0.5, 0.1], [0.1, 0.5]]),
              "mu": np.array([[0.0], [1.0]])}
    fields[field][0] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        ModelParams(**fields, sigma2=1.0)


@pytest.mark.parametrize("alpha", [1.0, [], [[0.5, 0.5]]])
def test_params_reject_an_alpha_that_is_not_a_vector(alpha):
    # A 0-d alpha is named like any other, not an IndexError.
    with pytest.raises(ValueError, match="alpha must be a non-empty vector"):
        ModelParams(alpha=alpha, pi=[[0.5]], mu=[[0.0]], sigma2=1.0)


def test_unstack_builds_what_the_constructor_builds(rng, monkeypatch):
    # The M-step's rows are unstacked without the constructor's checks, but
    # into the same frozen float64 copies, padding dropped.
    graph, features = random_graph(12, rng), random_features(12, 2, rng)
    resp_t = np.stack([random_responsibilities(12, 3, rng).T
                       for _ in range(2)])
    resp_t[1, 2] = 0.0
    resp_t[1] /= resp_t[1].sum(axis=0)
    stack, _ = _m_step(ClassStats(graph, features, resp_t,
                                  n_classes=np.array([3, 2])), "joint")
    checked = [ModelParams(alpha=stack.alpha[row, :q], pi=stack.pi[row, :q, :q],
                           mu=stack.mu[row, :q], sigma2=stack.sigma2[row])
               for row, q in ((0, 3), (1, 2))]
    calls = []
    monkeypatch.setattr(ModelParams, "__post_init__",
                        lambda self: calls.append(self))
    trusted = [stack.unstack(0), stack.unstack(1, 2)]
    assert not calls
    for one, other in zip(trusted, checked):
        for name in ("alpha", "pi", "mu"):
            mine, theirs = getattr(one, name), getattr(other, name)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert np.array_equal(mine, theirs)
            assert not mine.flags.writeable and mine.flags.c_contiguous
            assert not np.shares_memory(mine, getattr(stack, name))
        assert type(one.sigma2) is float and one.sigma2 == other.sigma2


def test_take_keeps_the_computed_statistics(rng, monkeypatch):
    graph, features = random_graph(10, rng), random_features(10, 2, rng)
    # The products of the stack and of the taken rows alone, summed alike.
    monkeypatch.setattr(Graph, "neighbour_mass", row_by_row_mass)
    stats = ClassStats(graph, features, np.stack(
        [random_responsibilities(10, 3, rng).T for _ in range(3)]))
    on, pairs, entropy = stats.on, stats.pairs, stats.entropy
    rows = [2, 0]
    calls, checks = [], []
    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", lambda *args: calls.append(args))
        patch.setattr(model, "check_rows", lambda *args: checks.append(args))
        taken = stats.take(rows)
    assert np.array_equal(taken.on, on[rows])
    assert np.array_equal(taken.pairs, pairs[rows])
    assert np.array_equal(taken.entropy, entropy[rows])
    assert not calls and not checks
    fresh = ClassStats(graph, features, stats.resp_t[rows])
    assert np.array_equal(taken.resp_t, fresh.resp_t)
    assert np.array_equal(taken.col, fresh.col)
    assert np.array_equal(taken.mass, fresh.mass)
    assert np.array_equal(taken.n_classes, fresh.n_classes)
    assert np.array_equal(taken.on, fresh.on)
    assert np.array_equal(taken.pairs, fresh.pairs)
    assert np.array_equal(taken.entropy, fresh.entropy)
    # What was never computed is not carried.
    bare = ClassStats(graph, features, stats.resp_t).take(rows)
    assert "on" not in bare.__dict__ and "entropy" not in bare.__dict__


def test_built_graphs_freeze_what_the_checked_path_freezes(rng):
    # from_edge_pairs and generate hand over matrices valid by
    # construction, frozen without a copy or the checks; Graph(adj) still
    # copies and checks.
    spec = AffiliationSpec(n_classes=3, n=40, within_prob=0.5,
                           between_prob=0.1, seed=3)
    generated = generate(spec)[0]
    pairs = random_graph(9, rng).edge_pairs()
    for built in (generated, Graph.from_edge_pairs(9, pairs)):
        checked = Graph(built.adjacency)
        assert checked.adjacency is not built.adjacency
        assert built.adjacency.dtype == np.float64
        assert built.adjacency.flags.c_contiguous
        assert not built.adjacency.flags.writeable
        assert np.array_equal(built.adjacency, checked.adjacency)
    bad = generated.adjacency.copy()
    bad[0, 1] = 1.0 - bad[1, 0]
    with pytest.raises(ValueError, match="symmetric"):
        Graph(bad)


@pytest.mark.parametrize("excess, accepted", [
    (0.0, True), (1.0e-5, True), (-1.0e-5, True), (1.1e-5, False),
    (-1.1e-5, False), (np.nan, False), (np.inf, False)])
def test_responsibility_row_sum_tolerance(excess, accepted):
    # numpy's allclose rule, atol=1e-8 and rtol=1e-5 against the target 1.
    resp = np.array([[0.25, 0.75], [0.5, 0.5 + excess], [1.0, 0.0]])
    if accepted:
        assert check_responsibilities(resp, 3, 2) is not None
    else:
        with pytest.raises(ValueError, match="sum to 1"):
            check_responsibilities(resp, 3, 2)


def test_responsibilities_without_vertices_accepted():
    assert check_responsibilities(np.zeros((0, 3)), 0, 3).shape == (0, 3)


near_one = st.one_of(st.floats(0.99998, 1.00002), st.just(np.nan),
                     st.sampled_from([1 + 1.0e-5, 1 + 1.001e-5, 1 - 1.001e-5]))


@settings(max_examples=300, deadline=None)
@given(sums=st.lists(near_one, min_size=0, max_size=4),
       off=st.floats(0.0, 2e-5), entry=st.floats(0.0, 1.0))
def test_validity_checks_accept_what_allclose_accepts(sums, off, entry):
    resp = np.column_stack([np.zeros(len(sums)), np.array(sums)])
    try:
        check_responsibilities(resp, len(sums), 2)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == np.allclose(resp.sum(axis=1), 1.0, atol=1e-8)

    lower = min(entry + off, 1.0)
    pi = np.array([[0.5, entry], [lower, 0.5]])
    try:
        ModelParams(alpha=[0.5, 0.5], pi=pi, mu=np.zeros((2, 1)), sigma2=1.0)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == np.allclose(pi, pi.T, atol=1e-8)


def test_params_clamped():
    params = ModelParams(alpha=[0.5, 0.5], pi=np.array([[1.0, 0.0], [0.0, 1.0]]),
                         mu=np.zeros((2, 1)), sigma2=1e-12)
    clamped = params.clamped()
    assert clamped.pi.max() == 1 - 1e-6
    assert clamped.pi.min() == 1e-6
    assert clamped.sigma2 == 1e-8


def test_partition_argmax_breaks_ties_low():
    resp = np.array([[0.5, 0.5], [0.2, 0.8]])
    assert partition_from_responsibilities(resp).tolist() == [0, 1]


# ---------------------------------------------------------------------------
# Complete log-likelihood


def test_edge_term_with_half_probability_counts_pairs():
    # A single class with edge probability 1/2 makes every graph equally
    # likely: the whole likelihood is just one log(1/2) per vertex pair.
    n = 5
    rng = np.random.default_rng(3)
    graph = random_graph(n, rng)
    params = ModelParams(alpha=[1.0], pi=np.array([[0.5]]),
                         mu=np.zeros((1, 0)), sigma2=1.0)
    value = complete_log_likelihood(graph, FeatureMatrix.empty(n),
                                    np.zeros(n, dtype=int), params)
    assert value == pytest.approx(n * (n - 1) / 2 * np.log(0.5), abs=1e-12)


def test_single_pair_terms():
    graph = Graph(np.array([[0, 1], [1, 0]]))
    params = ModelParams(alpha=[0.3, 0.7],
                         pi=np.array([[0.2, 0.6], [0.6, 0.4]]),
                         mu=np.zeros((2, 0)), sigma2=1.0)
    value = complete_log_likelihood(graph, FeatureMatrix.empty(2),
                                    np.array([0, 1]), params)
    expected = np.log(0.3) + np.log(0.7) + np.log(0.6)
    assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_complete_ll_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    graph, features, params = random_instance(rng, n=6, n_classes=2, p=2)
    labels = rng.integers(0, 2, size=6)
    resp = random_responsibilities(6, 2, rng)
    for assignment in (labels, resp):
        fast = complete_log_likelihood(graph, features, assignment, params)
        slow = complete_ll_bruteforce(graph, features, assignment, params)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_label_switching_invariance(rng):
    graph, features, params = random_instance(rng, n=6, n_classes=3, p=2)
    labels = rng.integers(0, 3, size=6)
    perm = np.array([2, 0, 1])
    inverse = np.argsort(perm)
    permuted = ModelParams(alpha=params.alpha[inverse],
                           pi=params.pi[np.ix_(inverse, inverse)],
                           mu=params.mu[inverse], sigma2=params.sigma2)
    before = complete_log_likelihood(graph, features, labels, params)
    after = complete_log_likelihood(graph, features, perm[labels], permuted)
    assert after == pytest.approx(before, abs=1e-10)


def test_vertex_permutation_invariance(rng):
    graph, features, params = random_instance(rng, n=7, n_classes=2, p=2)
    labels = rng.integers(0, 2, size=7)
    order = rng.permutation(7)
    shuffled_graph = Graph(graph.adjacency[np.ix_(order, order)])
    shuffled_features = FeatureMatrix(features.values[order])
    before = complete_log_likelihood(graph, features, labels, params)
    after = complete_log_likelihood(shuffled_graph, shuffled_features,
                                    labels[order], params)
    assert after == pytest.approx(before, abs=1e-10)


def test_dimension_mismatch_raises(rng):
    graph, features, params = random_instance(rng, n=5, n_classes=2, p=2)
    with pytest.raises(ValueError, match="rows"):
        complete_log_likelihood(Graph(np.zeros((4, 4))), features,
                                np.zeros(4, dtype=int), params)
    with pytest.raises(ValueError, match="features"):
        complete_log_likelihood(graph, FeatureMatrix(rng.normal(size=(5, 3))),
                                np.zeros(5, dtype=int), params)


# ---------------------------------------------------------------------------
# Variational lower bound


def test_bound_at_one_hot_equals_complete_ll(rng):
    graph, features, params = random_instance(rng, n=6, n_classes=3, p=2)
    labels = rng.integers(0, 3, size=6)
    resp = one_hot(labels, 3)
    assert responsibility_entropy(resp) == 0.0
    bound = variational_lower_bound(graph, features, resp, params)
    hard = complete_log_likelihood(graph, features, labels, params)
    assert bound == pytest.approx(hard, abs=1e-12)


def test_bound_q1_equals_complete_ll(rng):
    graph, features, params = random_instance(rng, n=5, n_classes=1, p=2)
    resp = np.ones((5, 1))
    bound = variational_lower_bound(graph, features, resp, params)
    hard = complete_log_likelihood(graph, features, np.zeros(5, dtype=int),
                                   params)
    assert bound == pytest.approx(hard, abs=1e-12)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_bound_never_exceeds_exact_marginal(seed):
    rng = np.random.default_rng(seed)
    graph, features, params = random_instance(rng, n=8, n_classes=2, p=2)
    ceiling = exact_log_marginal(graph, features, params)
    for _ in range(20):
        resp = random_responsibilities(8, 2, rng)
        bound = variational_lower_bound(graph, features, resp, params)
        assert bound <= ceiling + 1e-9


# ---------------------------------------------------------------------------
# Exact marginal


def test_exact_marginal_single_vertex(rng):
    from scipy.special import logsumexp
    from scipy.stats import norm

    features = random_features(1, 2, rng)
    params = random_params(2, 2, rng)
    value = exact_log_marginal(Graph(np.zeros((1, 1))), features, params)
    terms = [
        np.log(params.alpha[q])
        + norm.logpdf(features.values[0], params.mu[q],
                      np.sqrt(params.sigma2)).sum()
        for q in range(2)
    ]
    assert value == pytest.approx(logsumexp(terms), abs=1e-12)


def test_exact_marginal_q1_equals_complete_ll(rng):
    graph, features, params = random_instance(rng, n=5, n_classes=1, p=2)
    marginal = exact_log_marginal(graph, features, params)
    hard = complete_log_likelihood(graph, features, np.zeros(5, dtype=int),
                                   params)
    assert marginal == pytest.approx(hard, abs=1e-12)


def test_exact_marginal_matches_bruteforce(rng):
    graph, features, params = random_instance(rng, n=5, n_classes=2, p=2)
    fast = exact_log_marginal(graph, features, params)
    slow = log_marginal_bruteforce(graph, features, params)
    assert fast == pytest.approx(slow, abs=1e-10)


def test_exact_marginal_enumeration_guard(rng):
    graph = random_graph(30, rng)
    features = FeatureMatrix.empty(30)
    params = random_params(3, 0, rng)
    with pytest.raises(ValueError, match="guard"):
        exact_log_marginal(graph, features, params)


# ---------------------------------------------------------------------------
# Distances


def squared_distances_reference(points, centers):
    """The distance expression before the terms were combined in place."""
    pp = (points * points).sum(axis=-1)[..., None]
    cc = (centers * centers).sum(axis=1)[None, :]
    cross = np.einsum("...ip,pj->...ij", points,
                      np.ascontiguousarray(centers.T))
    return np.maximum(pp + cc - 2.0 * cross, 0.0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stack=st.integers(0, 3),
       q=st.integers(1, 6), n=st.integers(1, 40), p=st.integers(0, 5))
def test_squared_distances_match_the_old_expression(seed, stack, q, n, p):
    # Bit for bit, from arrays and from the feature table's cached transpose
    # and row norms, whose second use reads the cache.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    mu = rng.normal(size=(stack, q, p) if stack else (q, p)) * scale
    features = FeatureMatrix(rng.normal(size=(n, p)) * scale)
    expected = squared_distances_reference(mu, features.values)
    assert np.array_equal(squared_distances(mu, features.values), expected)
    assert np.array_equal(features.squared_distances(mu), expected)
    assert np.array_equal(features.squared_distances(mu), expected)
    # The orientation of k-means: the table's rows to a few centres.
    centers = rng.normal(size=(q, p)) * scale
    assert np.array_equal(squared_distances(features.values, centers),
                          squared_distances_reference(features.values,
                                                      centers))
