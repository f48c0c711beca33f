import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohsmix.model as model
from cohsmix.em import _m_step
from cohsmix.io import read_graph
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


def test_graph_rejects_a_non_square_adjacency():
    with pytest.raises(ValueError, match=re.escape(
            "adjacency must be square, got shape (2, 3)")):
        Graph(np.zeros((2, 3)))


def test_features_reject_a_table_that_is_not_two_dimensional():
    with pytest.raises(ValueError, match=re.escape(
            "features must be 2-d (n, p), got shape (3,)")):
        FeatureMatrix(np.zeros(3))


@pytest.mark.parametrize("entry", [1.5, -0.1])
def test_params_reject_a_pi_outside_the_unit_interval(entry):
    with pytest.raises(ValueError, match=re.escape(
            "pi entries must lie in [0, 1]")):
        ModelParams(alpha=[0.5, 0.5], pi=[[entry, 0.1], [0.1, 0.5]],
                    mu=np.zeros((2, 1)), sigma2=1.0)


def test_params_reject_means_of_the_wrong_row_count():
    with pytest.raises(ValueError, match="^mu must have 2 rows, got 3$"):
        ModelParams(alpha=[0.5, 0.5], pi=np.full((2, 2), 0.5),
                    mu=np.zeros((3, 1)), sigma2=1.0)


@pytest.mark.parametrize("resp,n_classes,shape", [
    (np.full((3, 3), 1 / 3), 2, "(3, 2), got (3, 3)"),
    (np.full((2, 2), 0.5), 2, "(3, 2), got (2, 2)"),
    (np.ones(3), None, "(3, Q), got (3,)"),
])
def test_responsibilities_reject_a_wrong_shape(resp, n_classes, shape):
    with pytest.raises(ValueError, match=re.escape(
            f"responsibilities must have shape {shape}")):
        check_responsibilities(resp, 3, n_classes)


def test_responsibilities_reject_a_negative_entry():
    with pytest.raises(ValueError,
                       match="^responsibilities must be non-negative$"):
        check_responsibilities([[1.5, -0.5], [0.5, 0.5]], 2)


def test_one_hot_rejects_labels_that_are_not_a_vector():
    with pytest.raises(ValueError, match="^labels must be a vector$"):
        one_hot([[0, 1]], 2)


@pytest.mark.parametrize("labels", [[0, 2], [-1, 0]])
def test_one_hot_rejects_labels_out_of_range(labels):
    with pytest.raises(ValueError, match=re.escape(
            "labels must lie in [0, 2)")):
        one_hot(labels, 2)


def test_graph_views_agree(rng):
    graph = random_graph(7, rng)
    rebuilt = Graph.from_edge_pairs(7, graph.edge_pairs())
    assert np.array_equal(rebuilt.adjacency, graph.adjacency)
    pairs = graph.edge_pairs()
    assert np.all(pairs[:, 0] < pairs[:, 1])
    assert len(pairs) == graph.n_edges


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40),
       density=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
       built=st.booleans())
def test_degrees_are_the_cached_row_sums(seed, n, density, built):
    graph = random_graph(n, np.random.default_rng(seed), density)
    if built:
        graph = Graph.from_edge_pairs(n, graph.edge_pairs())
    degrees = graph.degrees
    assert np.array_equal(degrees, graph.adjacency.sum(axis=1))
    assert graph.degrees is degrees
    assert not degrees.flags.writeable
    assert graph.n_edges == len(graph.edge_pairs())
    expected = np.column_stack(np.nonzero(np.triu(graph.adjacency, 1)))
    pairs = graph.edge_pairs()
    assert pairs.dtype == expected.dtype and np.array_equal(pairs, expected)


SOURCES = Path(model.__file__).parent


def test_only_the_graph_reads_the_adjacency():
    # Graph is the one class that knows how the graph is stored; every
    # other module reads it through Graph's methods.
    readers = {}
    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text())
        readers[path.name] = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "adjacency"]
    assert readers["model.py"], "model.py reads no adjacency; the scan broke"
    assert {name: lines for name, lines in readers.items()
            if lines and name != "model.py"} == {}


def _names_graph(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "Graph"
            or isinstance(node, ast.Attribute) and node.attr == "Graph")


def test_only_the_model_builds_a_graph_by_hand():
    # Outside model.py the package builds every graph from its edge pairs:
    # no module calls Graph(...) or names a private attribute of Graph.
    builders, bypasses = [], {}
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and _names_graph(node.value):
                if node.attr == "from_edge_pairs":
                    builders.append(path.name)
                if node.attr.startswith("_"):
                    bypasses.setdefault(path.name, []).append(node.lineno)
            if isinstance(node, ast.Call) and _names_graph(node.func):
                bypasses.setdefault(path.name, []).append(node.lineno)
    assert sorted(set(builders)) == ["io.py", "simulate.py"], \
        "the readers and the simulator no longer build graphs; the scan broke"
    assert bypasses == {}


def test_from_edge_pairs_names_first_bad_pair():
    with pytest.raises(ValueError, match=r"self-loop \(1, 1\)"):
        Graph.from_edge_pairs(3, [(0, 1), (1, 1), (0, 9)])
    with pytest.raises(ValueError, match=r"edge \(0, 9\) out of range for n=3"):
        Graph.from_edge_pairs(3, [(0, 1), (0, 9), (1, 1)])
    with pytest.raises(ValueError, match=r"edge \(-1, 2\) out of range"):
        Graph.from_edge_pairs(3, [(-1, 2)])


@pytest.mark.parametrize("pairs, message", [
    ([(0.7, 1.9)], "edge (0.7, 1.9) holds a non-integer vertex index"),
    ([(0, 1), (0.5, 2)], "edge (0.5, 2.0) holds a non-integer vertex index"),
    ([(0, 1), (np.nan, 2)], "edge (nan, 2.0) holds a non-integer vertex index"),
    ([("0", "1")], "edge ('0', '1') holds a non-integer vertex index"),
    ([(0, 1, 2, 3)], "edge pairs must form an (m, 2) table, got shape (1, 4)"),
    ([[0], [1]], "edge pairs must form an (m, 2) table, got shape (2, 1)"),
    ([(0, 1, 2)], "edge pairs must form an (m, 2) table, got shape (1, 3)"),
])
def test_from_edge_pairs_rejects_what_is_not_a_table_of_indices(pairs,
                                                                message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph.from_edge_pairs(3, pairs)


@pytest.mark.parametrize("n", [-1, 2.5, True])
def test_from_edge_pairs_rejects_a_vertex_count_that_is_not_a_count(n):
    with pytest.raises(ValueError, match=re.escape(
            f"n must be an integer of at least 0, got {n!r}")):
        Graph.from_edge_pairs(n, [])


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
def test_from_edge_pairs_takes_integer_tables_of_any_dtype(dtype):
    pairs = [(3, 2), (0, 1), (2, 3)]
    expected = Graph.from_edge_pairs(4, pairs).adjacency
    graph = Graph.from_edge_pairs(np.int64(4), np.array(pairs, dtype=dtype))
    assert np.array_equal(graph.adjacency, expected)
    assert expected.sum() == 4


@pytest.mark.parametrize("pairs", [[], (), np.empty((0, 2), dtype=np.int64)])
@pytest.mark.parametrize("n", [0, 3])
def test_from_edge_pairs_of_no_pairs_is_edgeless(n, pairs):
    graph = Graph.from_edge_pairs(n, pairs)
    assert graph.adjacency.shape == (n, n) and graph.n_edges == 0


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
    stack = _m_step(ClassStats(graph, features, resp_t,
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
    on, pairs, entropy = stats.on, stats.pairs, stats.class_entropy
    rows = [2, 0]
    calls, checks = [], []
    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", lambda *args: calls.append(args))
        patch.setattr(model, "check_rows", lambda *args: checks.append(args))
        taken = stats.take(rows)
    assert np.array_equal(taken.on, on[rows])
    assert np.array_equal(taken.pairs, pairs[rows])
    assert np.array_equal(taken.class_entropy, entropy[rows])
    assert not calls and not checks
    fresh = ClassStats(graph, features, stats.resp_t[rows])
    assert np.array_equal(taken.resp_t, fresh.resp_t)
    assert np.array_equal(taken.col, fresh.col)
    assert np.array_equal(taken.mass, fresh.mass)
    assert np.array_equal(taken.n_classes, fresh.n_classes)
    assert np.array_equal(taken.on, fresh.on)
    assert np.array_equal(taken.pairs, fresh.pairs)
    assert np.array_equal(taken.class_entropy, fresh.class_entropy)
    # What was never computed is not carried.
    bare = ClassStats(graph, features, stats.resp_t).take(rows)
    assert "on" not in bare.__dict__ \
        and "class_entropy" not in bare.__dict__


def test_statistics_do_not_depend_on_the_stack_layout():
    # np.stack of transposes is strided, and numpy groups the terms of a sum
    # over vertices by the memory layout: the statistics read the stack in
    # C order, so they and the bound equal those of a C-order copy, bit for
    # bit.
    rng = np.random.default_rng(1)
    graph, features = random_graph(30, rng), random_features(30, 2, rng)
    strided = np.stack([random_responsibilities(30, 3, rng).T
                        for _ in range(4)])
    assert not strided.flags.c_contiguous
    params = ParamStack.of(*(random_params(3, 2, rng) for _ in range(4)))
    ours = ClassStats(graph, features, strided)
    copy = ClassStats(graph, features, np.ascontiguousarray(strided))
    assert ours.resp_t.flags.c_contiguous
    for name in ("col", "mass", "on", "pairs", "class_entropy"):
        assert np.array_equal(getattr(ours, name), getattr(copy, name))
    assert np.array_equal(ours.bound(params), copy.bound(params))
    # A C-order stack is taken as it is, not copied.
    contiguous = np.ascontiguousarray(strided)
    assert ClassStats(graph, features, contiguous).resp_t is contiguous


def test_built_graphs_freeze_what_the_checked_path_freezes(rng, tmp_path):
    # from_edge_pairs, and generate and the dense-CSV reader through it,
    # hand over matrices valid by construction, frozen without a copy or
    # the checks; Graph(adj) still copies and checks.
    spec = AffiliationSpec(n_classes=3, n=40, within_prob=0.5,
                           between_prob=0.1, seed=3)
    generated = generate(spec)[0]
    pairs = random_graph(9, rng).edge_pairs()
    dense = tmp_path / "g.csv"
    np.savetxt(dense, random_graph(9, rng).adjacency, fmt="%d", delimiter=",")
    for built in (generated, Graph.from_edge_pairs(9, pairs),
                  read_graph(dense)):
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
    assert not ClassStats.of(graph, features, resp).class_entropy.any()
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
# Conventions of x log y and of the log-sum-exp, against scipy's


@pytest.mark.parametrize("ys, zero_x_under_zero_y", [
    ([5e-324, 1e-300, 0.3, 1.0 - 1e-16, 1.0], False),  # no zero
    ([0.0, 0.3, 1.0], True),  # zeros only where x is 0
    ([0.0, 5e-324, 0.3, 1.0], False),  # zeros where x is not 0 too
], ids=["no-zero", "zero-where-x-is-zero", "zero-where-x-is-not"])
def test_xlogy_keeps_scipys_conventions(ys, zero_x_under_zero_y):
    from scipy.special import xlogy

    x, y = np.meshgrid([0.0, -1e-17, 5e-324, 3e-300, 0.5, 2.0, 40.0], ys)
    if zero_x_under_zero_y:
        x[y == 0.0] = 0.0
    # A zero expected value must come out exactly zero.
    np.testing.assert_allclose(model._xlogy(x, y), xlogy(x, y), rtol=1e-15,
                               atol=0.0)


def _scipy_value(monkeypatch, func, *args, **kwargs):
    """``func`` evaluated with the bound's x log y terms from scipy."""
    from scipy.special import xlogy

    with monkeypatch.context() as patched:
        patched.setattr(model, "_xlogy", xlogy)
        return func(*args, **kwargs)


def _assert_scipy_values(monkeypatch, graph, features, params, labels):
    """The complete log-likelihood of ``labels``, hard and as a soft
    matrix, and the bound of that matrix, in every mode, each equal to its
    value with scipy's ``xlogy``; returns them by mode."""
    resp = one_hot(labels, params.n_classes)
    values = {}
    for mode in model.MODES:
        calls = [(complete_log_likelihood, labels),
                 (complete_log_likelihood, resp),
                 (variational_lower_bound, resp)]
        got = [func(graph, features, arg, params, mode) for func, arg in calls]
        expected = [_scipy_value(monkeypatch, func, graph, features, arg,
                                 params, mode) for func, arg in calls]
        assert got == pytest.approx(expected, rel=1e-14)
        assert len(set(got)) == 1
        values[mode] = got[0]
    return values


def test_a_zero_proportion_on_an_empty_class_adds_nothing(rng, monkeypatch):
    graph = random_graph(6, rng)
    features = random_features(6, 2, rng)
    params = ModelParams(alpha=[0.6, 0.4, 0.0], pi=np.full((3, 3), 0.3),
                         mu=rng.normal(size=(3, 2)), sigma2=1.5)
    labels = np.array([0, 1, 1, 0, 1, 0])
    values = _assert_scipy_values(monkeypatch, graph, features, params,
                                  labels)
    assert all(np.isfinite(value) for value in values.values())
    # Soft responsibilities that leave the class empty, too.
    resp = np.column_stack([np.full(6, 0.3), np.full(6, 0.7), np.zeros(6)])
    for mode in model.MODES:
        bound = variational_lower_bound(graph, features, resp, params, mode)
        assert np.isfinite(bound)
        assert bound == pytest.approx(_scipy_value(
            monkeypatch, variational_lower_bound, graph, features, resp,
            params, mode), rel=1e-14)


def test_a_hard_label_on_a_zero_proportion_is_impossible(rng, monkeypatch):
    graph = random_graph(6, rng)
    features = random_features(6, 2, rng)
    params = ModelParams(alpha=[0.6, 0.4, 0.0], pi=np.full((3, 3), 0.3),
                         mu=rng.normal(size=(3, 2)), sigma2=1.5)
    labels = np.array([0, 1, 2, 0, 1, 0])
    values = _assert_scipy_values(monkeypatch, graph, features, params,
                                  labels)
    assert values == {mode: -np.inf for mode in model.MODES}


def test_certain_connections_with_zero_and_nonzero_counts(rng, monkeypatch):
    # Two triangles with no edge between them, pi = identity: within a
    # class every pair is an edge, between classes none is.
    triangle = np.ones((3, 3)) - np.eye(3)
    graph = Graph(np.kron(np.eye(2), triangle))
    features = random_features(6, 1, rng)
    params = ModelParams(alpha=[0.5, 0.5], pi=np.eye(2),
                         mu=[[0.0], [1.0]], sigma2=1.0)
    # Edges only where pi is 1, non-edges only where it is 0: every
    # zero count meets a zero probability.
    fits = _assert_scipy_values(monkeypatch, graph, features, params,
                                np.array([0, 0, 0, 1, 1, 1]))
    assert all(np.isfinite(value) for value in fits.values())
    # Every edge term is 0: what is left are the proportions.
    assert fits["joint"] == fits["features-only"]
    assert fits["graph-only"] == pytest.approx(6 * np.log(0.5), rel=1e-15)
    # Non-edges inside class 1 (pi = 1) and edges between the classes
    # (pi = 0): impossible unless the edges are ignored.
    breaks = _assert_scipy_values(monkeypatch, graph, features, params,
                                  np.array([0, 0, 1, 1, 1, 1]))
    assert breaks["joint"] == breaks["graph-only"] == -np.inf
    assert np.isfinite(breaks["features-only"])


def test_exact_marginal_of_an_impossible_graph_is_silent_minus_inf():
    from scipy.special import logsumexp

    # No edges, one class that connects every pair: every labelling has
    # probability 0.
    params = ModelParams(alpha=[1.0], pi=[[1.0]], mu=np.zeros((1, 0)),
                         sigma2=1.0)
    value = exact_log_marginal(Graph(np.zeros((3, 3))), FeatureMatrix.empty(3),
                               params)
    assert value == logsumexp(np.full(1, -np.inf)) == -np.inf


@pytest.mark.parametrize("values", [
    [-np.inf, -np.inf, -np.inf],
    [-np.inf, -3.5, -np.inf, -2.0],
    [800.0, 799.0, -1e4],  # exp overflows unshifted
    [-800.0, -801.5],  # exp underflows unshifted
    [12.25],
])
def test_log_sum_exp_matches_scipy(values):
    from scipy.special import logsumexp

    values = np.array(values)
    assert model._log_sum_exp(values) == pytest.approx(logsumexp(values),
                                                       rel=1e-14)


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
