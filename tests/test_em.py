import contextlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import cohsmix.em as em
from cohsmix.em import (
    EMConfig,
    EmptyClassError,
    FitResult,
    e_step,
    fit,
    fit_multi_restart,
    init_responsibilities,
    m_step,
    mode_lower_bound,
    _reseed_empty_classes,
)
from cohsmix.metrics import adjusted_rand_index
from cohsmix.model import (
    MODES,
    ClassStats,
    FeatureMatrix,
    Graph,
    ModelParams,
    ParamStack,
    mode_terms,
    one_hot,
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
from oracles import maximize_bound_numerically, responsibility_update_oracle


def test_config_validation():
    with pytest.raises(ValueError):
        EMConfig(max_em_iters=0)


@pytest.mark.parametrize("field,value", [
    ("max_em_iters", 2.5), ("max_em_iters", "5"), ("max_em_iters", True),
    ("max_em_iters", 0), ("n_restarts", 2.0), ("n_restarts", True),
    ("n_restarts", np.int64(0)), ("n_restarts", None), ("rng_seed", -1),
    ("rng_seed", 1.5), ("rng_seed", False), ("rng_seed", "7"),
])
def test_config_rejects_settings_that_are_not_counts(field, value):
    # Caught where the config is built, each message naming the field,
    # rather than inside range() or numpy's SeedSequence at fit time.
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        EMConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = EMConfig(max_em_iters=np.int32(3), n_restarts=np.uint8(2),
                   rng_seed=np.uint32(2**32 - 1))
    assert (cfg.max_em_iters, cfg.n_restarts, cfg.rng_seed) \
        == (3, 2, 2**32 - 1)
    assert EMConfig(rng_seed=0).rng_seed == 0
    assert EMConfig().rng_seed is None


@contextlib.contextmanager
def e_step_protocol(damping, cap):
    """Run the E-step with blend weight ``damping`` and sweep cap ``cap``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(em, "DAMPING", damping)
        patch.setattr(em, "MAX_FIXEDPOINT_SWEEPS", cap)
        yield


# ---------------------------------------------------------------------------
# Initialisation


@pytest.mark.parametrize("strategy", ["random-dirichlet", "feature-kmeans",
                                      "graph-degree-quantile"])
def test_init_single_class_is_all_ones(rng, strategy):
    graph = random_graph(6, rng)
    features = random_features(6, 2, rng)
    resp = init_responsibilities(graph, features, 1, strategy, rng)
    assert np.array_equal(resp, np.ones((6, 1)))


@pytest.mark.parametrize("strategy", ["feature-kmeans", "graph-degree-quantile"])
def test_init_smoothing_floor(rng, strategy):
    graph = random_graph(12, rng)
    features = random_features(12, 3, rng)
    resp = init_responsibilities(graph, features, 3, strategy, rng)
    assert resp.min() >= 0.1 / 3 - 1e-12
    assert np.allclose(resp.sum(axis=1), 1.0)


@pytest.mark.parametrize("strategy", ["random-dirichlet", "feature-kmeans",
                                      "graph-degree-quantile"])
def test_init_deterministic_replay(strategy):
    rng = np.random.default_rng(7)
    graph = random_graph(10, rng)
    features = random_features(10, 2, rng)
    first = init_responsibilities(graph, features, 3, strategy,
                                  np.random.default_rng(42))
    second = init_responsibilities(graph, features, 3, strategy,
                                   np.random.default_rng(42))
    assert np.array_equal(first, second)


def test_init_unknown_strategy(rng):
    graph = random_graph(4, rng)
    with pytest.raises(ValueError, match="strategy"):
        init_responsibilities(graph, FeatureMatrix.empty(4), 2, "bogus", rng)


def kmeans_reference(points, k, rng, n_iters=20):
    """``em._kmeans_labels`` without its early stop: every iteration runs."""
    n = points.shape[0]
    if points.shape[1] == 0:
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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       p=st.integers(0, 3), k=st.integers(1, 8),
       levels=st.integers(1, 4))
def test_kmeans_stopping_on_repeated_labels_changes_nothing(seed, n, p, k,
                                                            levels):
    # Few distinct values: duplicated points, k above the number of
    # distinct points (or of points) and clusters left empty.
    rng = np.random.default_rng(seed)
    points = rng.integers(0, levels, size=(n, p)).astype(float)
    ours, theirs = np.random.default_rng(seed + 1), \
        np.random.default_rng(seed + 1)
    labels = em._kmeans_labels(points, k, ours)
    assert np.array_equal(labels, kmeans_reference(points, k, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       p=st.integers(1, 4), k=st.integers(1, 8))
def test_kmeans_labels_match_the_per_class_loop(seed, n, p, k):
    # Continuous points, whose class sums round: the bincount update must
    # give the labels of the per-class mean, bit for bit.
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-3, 3)
    ours, theirs = np.random.default_rng(seed + 1), \
        np.random.default_rng(seed + 1)
    assert np.array_equal(em._kmeans_labels(points, k, ours),
                          kmeans_reference(points, k, theirs))


# ---------------------------------------------------------------------------
# E-step


def test_e_step_single_class_one_sweep(rng):
    graph, features, params = random_instance(rng, n=6, n_classes=1, p=2)
    resp = e_step(graph, features, params, np.ones((6, 1)))
    assert np.array_equal(resp, np.ones((6, 1)))


def test_e_step_total_symmetry_keeps_uniform():
    graph = Graph(np.array([[0, 1], [1, 0]]))
    features = FeatureMatrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
    params = ModelParams(alpha=[0.5, 0.5],
                         pi=np.array([[0.7, 0.2], [0.2, 0.7]]),
                         mu=np.array([[0.5, 0.5], [0.5, 0.5]]), sigma2=1.0)
    resp = e_step(graph, features, params, np.full((2, 2), 0.5))
    assert np.allclose(resp, 0.5, atol=1e-12)


def test_e_step_at_fixed_point_multiplies_once(monkeypatch):
    # The symmetric instance of test_e_step_total_symmetry_keeps_uniform:
    # the first sweep changes nothing, so the start is returned and its
    # product is the only one.
    graph = Graph(np.array([[0, 1], [1, 0]]))
    features = FeatureMatrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
    params = ModelParams(alpha=[0.5, 0.5],
                         pi=np.array([[0.7, 0.2], [0.2, 0.7]]),
                         mu=np.array([[0.5, 0.5], [0.5, 0.5]]), sigma2=1.0)
    products = []
    compute = Graph.neighbour_mass

    def counted(self, resp_t):
        products.append(resp_t.tobytes())
        return compute(self, resp_t)

    monkeypatch.setattr(Graph, "neighbour_mass", counted)
    start = np.full((2, 2), 0.5)
    assert np.array_equal(e_step(graph, features, params, start), start)
    assert len(products) == 1


def test_stacked_e_step_leaves_a_row_at_its_fixed_point(monkeypatch):
    # Row 0 is the fixed point of test_e_step_at_fixed_point_multiplies_once;
    # row 1 starts away from it. Row 0 leaves the stack after the first
    # sweep, keeps its start and is multiplied once, with the start bound.
    graph = Graph(np.array([[0, 1], [1, 0]]))
    features = FeatureMatrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
    params = ModelParams(alpha=[0.5, 0.5],
                         pi=np.array([[0.7, 0.2], [0.2, 0.7]]),
                         mu=np.array([[0.5, 0.5], [0.5, 0.5]]), sigma2=1.0)
    other = np.array([[0.9, 0.1], [0.2, 0.8]])
    expected = e_step(graph, features, params, other)
    products = []
    compute = Graph.neighbour_mass

    def counted(self, resp_t):
        products.append(resp_t.copy())
        return compute(self, resp_t)

    monkeypatch.setattr(Graph, "neighbour_mass", counted)
    start = ClassStats(graph, features,
                       np.stack([np.full((2, 2), 0.5), other.T]))
    stack = ParamStack(*(np.concatenate([field, field])
                         for field in ParamStack.of(params)))
    d2 = squared_distances(stack.mu, features.values)
    out, sweeps, capped, moved = em._e_step(
        start, stack, d2, start.bound(stack, "joint", d2), "joint")
    assert sweeps[0] == 1 and sweeps[1] > 1 and not capped.any()
    assert moved.tolist() == [False, True]
    assert np.array_equal(out.resp_t[0], start.resp_t[0])
    assert np.array_equal(out.mass[0], products[0][0])
    assert products[0].shape[0] == 2
    assert all(product.shape[0] == 1 for product in products[1:])
    assert len(products) > 1
    assert np.abs(out.resp[1] - expected).max() <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_e_step_multiplies_once_per_sweep_after_the_first(monkeypatch, seed):
    # The start's product comes with its bound. Each later sweep multiplies
    # the rows still sweeping once, and a row that meets the tolerance ends
    # on an iterate its last sweep multiplied, so without a cap hit nothing
    # is multiplied after the loop.
    rng = np.random.default_rng(seed)
    graph, features, params = random_instance(rng, n=30, n_classes=3, p=2)
    stats = ClassStats(graph, features, np.stack(
        [random_responsibilities(30, 3, rng).T for _ in range(3)]))
    stack = ParamStack(*(np.concatenate([field] * 3)
                         for field in ParamStack.of(params.clamped())))
    d2 = features.squared_distances(stack.mu)
    bounds = stats.bound(stack, "joint", d2)
    compute = Graph.neighbour_mass
    products = []

    def counted(self, resp_t):
        products.append(resp_t.shape[0])
        return compute(self, resp_t)

    monkeypatch.setattr(Graph, "neighbour_mass", counted)
    out, sweeps, capped, _ = em._e_step(stats, stack, d2, bounds, "joint")
    assert not capped.any() and sweeps.max() > 1
    assert len(products) == sweeps.max() - 1
    # Row r is in the product of sweep s (counted from 0) while s < sweeps[r].
    assert products == [int((sweeps > s).sum())
                        for s in range(1, sweeps.max())]
    assert np.abs(out.mass - compute(graph, out.resp_t)).max() <= 1e-12


@pytest.mark.parametrize("cap", [15, 50])
@pytest.mark.parametrize("mode", ["joint", "graph-only"])
def test_stacked_rows_stopping_at_different_sweeps_end_as_alone(
        monkeypatch, mode, cap):
    # The sweeps write the mass of the other vertices and the residual into
    # two buffers that the rows still sweeping share. Rows that stop at
    # different sweeps, or at the cap, must still end on the iterate and the
    # product of their E-step alone, bit for bit (the product summed row by
    # row, as BLAS rounding may change with the stack's shape).
    monkeypatch.setattr(Graph, "neighbour_mass", row_by_row_mass)
    monkeypatch.setattr(em, "MAX_FIXEDPOINT_SWEEPS", cap)
    rng = np.random.default_rng(1)
    graph, features = random_graph(30, rng), random_features(30, 2, rng)
    rows = [(ParamStack.of(random_params(3, 2, rng).clamped()),
             random_responsibilities(30, 3, rng)) for _ in range(5)]
    stack = ParamStack(*(np.concatenate(field)
                         for field in zip(*(one for one, _ in rows))))
    d2 = features.squared_distances(stack.mu) if mode == "joint" else None
    stats = ClassStats(graph, features, np.ascontiguousarray(
        np.stack([start.T for _, start in rows])))
    out, sweeps, capped, moved = em._e_step(
        stats, stack, d2, stats.bound(stack, mode, d2), mode)
    assert len(set(sweeps.tolist())) > 1
    assert moved.all()
    if cap == 15:
        assert 0 < capped.sum() < len(rows)
    for row, (one, start) in enumerate(rows):
        alone = ClassStats.of(graph, features, start)
        one_d2 = None if d2 is None else d2[row:row + 1]
        ended, *flags = em._e_step(alone, one, one_d2,
                                   alone.bound(one, mode, one_d2), mode)
        assert [flag[0] for flag in flags] \
            == [sweeps[row], capped[row], moved[row]]
        assert np.array_equal(out.resp_t[row], ended.resp_t[0])
        assert np.array_equal(out.mass[row], ended.mass[0])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
       n_classes=st.integers(2, 4), p=st.sampled_from([0, 2]),
       mode=st.sampled_from(MODES), damping=st.sampled_from([0.0, 0.5]),
       cap=st.integers(2, 50))
def test_e_step_stopped_below_the_cap_is_within_tolerance_of_its_update(
        seed, n, n_classes, p, mode, damping, cap):
    # A row that meets the tolerance ends on the iterate whose residual it
    # measured, so the oracle update of the result lies within
    # FIXEDPOINT_TOL of it, unless the guard against lowering the bound
    # returned the start instead.
    rng = np.random.default_rng(seed)
    graph, features, params = random_instance(rng, n=n, n_classes=n_classes,
                                              p=p)
    start = random_responsibilities(n, n_classes, rng)
    stats = ClassStats.of(graph, features, start)
    stack = ParamStack.of(params.clamped())
    d2 = features.squared_distances(stack.mu) \
        if mode_terms(mode)[1] and p else None
    with e_step_protocol(damping, cap):
        out, _, capped, _ = em._e_step(stats, stack, d2,
                                       stats.bound(stack, mode, d2), mode)
    _, fell_back = reference_e_step(graph, features, params, start, damping,
                                    cap, mode)
    assume(not capped[0] and not fell_back)
    refreshed = responsibility_update_oracle(graph, features, params,
                                             out.resp[0], mode)
    assert np.abs(refreshed - out.resp[0]).max() <= em.FIXEDPOINT_TOL


@pytest.mark.parametrize("seed", range(5))
def test_e_step_residual_and_bound_improvement(seed):
    rng = np.random.default_rng(seed)
    graph, features, params = random_instance(rng, n=8, n_classes=2, p=2)
    start = random_responsibilities(8, 2, rng)
    out = e_step(graph, features, params, start)

    before = variational_lower_bound(graph, features, start, params)
    after = variational_lower_bound(graph, features, out, params)
    assert after >= before - 1e-8

    refreshed = responsibility_update_oracle(graph, features, params, out)
    assert np.abs(out - refreshed).max() <= em.FIXEDPOINT_TOL


def test_e_step_rows_stay_stochastic(rng):
    graph, features, params = random_instance(rng, n=10, n_classes=3, p=2)
    out = e_step(graph, features, params,
                 random_responsibilities(10, 3, rng))
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert out.min() >= 0


def test_e_step_falls_back_to_its_start(monkeypatch):
    # Undamped sweeps on this instance oscillate: the fifth iterate's bound
    # (-117.02) is below the start's (-113.98), so e_step must return the
    # start, although the first iterate's bound is higher.
    rng = np.random.default_rng(56)
    graph, features, params = random_instance(rng, n=12, n_classes=3, p=2)
    start = random_responsibilities(12, 3, rng)
    monkeypatch.setattr(em, "DAMPING", 0.0)
    monkeypatch.setattr(em, "MAX_FIXEDPOINT_SWEEPS", 5)
    iterates = [start]
    for _ in range(5):
        iterates.append(responsibility_update_oracle(graph, features, params,
                                                     iterates[-1]))
    bounds = [variational_lower_bound(graph, features, r, params)
              for r in iterates]
    assert bounds[-1] < bounds[0]
    assert int(np.argmax(bounds)) == 1

    out = e_step(graph, features, params, start)
    assert np.abs(out - start).max() <= 1e-12
    assert variational_lower_bound(graph, features, out, params) \
        == pytest.approx(bounds[0], abs=1e-9)


def _stacked_e_step(graph, features, params, start):
    """``e_step``'s result with the sweeps it ran and whether it capped."""
    stats = ClassStats.of(graph, features, start)
    stack = ParamStack.of(params.clamped())
    d2 = squared_distances(stack.mu, features.values)
    out, sweeps, capped, moved = em._e_step(
        stats, stack, d2, stats.bound(stack, "joint", d2), "joint")
    return (out if moved[0] else stats).resp[0], int(sweeps[0]), \
        bool(capped[0])


def test_guarded_e_step_settles_where_plain_jacobi_oscillates():
    # The instance of test_e_step_falls_back_to_its_start. Plain Jacobi
    # sweeps oscillate up to the cap and end below the start's bound, so
    # they return the start; the residual guard blends the sweeps that stop
    # contracting, and they settle.
    rng = np.random.default_rng(56)
    graph, features, params = random_instance(rng, n=12, n_classes=3, p=2)
    start = random_responsibilities(12, 3, rng)
    bound = lambda r: variational_lower_bound(graph, features, r, params)
    with e_step_protocol(0.0, 50):
        plain, plain_sweeps, plain_capped = _stacked_e_step(
            graph, features, params, start)
    guarded, sweeps, capped = _stacked_e_step(graph, features, params, start)
    assert plain_capped and plain_sweeps == 50
    assert not capped and sweeps < 50
    assert np.array_equal(guarded, e_step(graph, features, params, start))
    assert np.array_equal(plain, start)
    assert bound(guarded) > bound(start)
    refreshed = responsibility_update_oracle(graph, features, params, guarded)
    assert np.abs(guarded - refreshed).max() <= em.FIXEDPOINT_TOL


def test_e_step_rejects_a_class_of_proportion_zero(rng):
    # Every bound is -inf then, so the guard against lowering it cannot act.
    graph, features, params = random_instance(rng, n=8, n_classes=3, p=2)
    params = replace(params, alpha=np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError, match="class 0 has proportion 0"):
        e_step(graph, features, params, random_responsibilities(8, 3, rng))


def test_e_step_rejects_params_of_another_feature_width(rng):
    graph, features, _ = random_instance(rng, n=6, n_classes=2, p=2)
    params = random_params(2, 3, rng)
    with pytest.raises(ValueError,
                       match="params expect 3 features, data has 2"):
        e_step(graph, features, params, random_responsibilities(6, 2, rng))


def test_e_step_sweeps_under_clamped_params(rng):
    # Connection probabilities of exactly 0 and 1 and a vanishing variance
    # are valid parameters; unclamped, their logs turn the rows into NaN.
    graph, features, _ = random_instance(rng, n=10, n_classes=3, p=2)
    pi = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.0], [0.3, 0.0, 0.5]])
    params = ModelParams(alpha=[0.2, 0.3, 0.5], pi=pi,
                         mu=rng.normal(size=(3, 2)), sigma2=1e-300)
    start = random_responsibilities(10, 3, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = e_step(graph, features, params, start)
    assert np.all(np.isfinite(out))
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert out.min() >= 0
    assert np.array_equal(out,
                          e_step(graph, features, params.clamped(), start))


@pytest.mark.parametrize("cap", [1, 50])
def test_fit_counts_sweeps_and_cap_hits(monkeypatch, cap):
    spec = AffiliationSpec(n_classes=3, n=60, n_features=2, within_prob=0.4,
                           between_prob=0.1, mean_gap=1.5, seed=2)
    graph, features, _ = generate(spec)
    calls = []
    stacked = em._e_step

    def recorded(*args, **kwargs):
        out = stacked(*args, **kwargs)
        calls.append((int(out[1][0]), bool(out[2][0])))
        return out

    monkeypatch.setattr(em, "_e_step", recorded)
    monkeypatch.setattr(em, "MAX_FIXEDPOINT_SWEEPS", cap)
    result = fit(graph, features, 3, EMConfig(rng_seed=0))
    assert len(calls) >= len(result.bound_trace) - 1
    assert all(1 <= sweeps <= cap for sweeps, _ in calls)
    assert result.e_step_sweeps == sum(sweeps for sweeps, _ in calls)
    assert result.sweep_cap_hits == sum(capped for _, capped in calls)
    assert result.sweep_cap_hits <= len(calls)
    if cap == 1:
        assert result.e_step_sweeps == len(calls)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       p=st.integers(0, 4), widths=st.lists(st.integers(1, 10), min_size=1,
                                            max_size=5),
       mode=st.sampled_from(MODES))
def test_padded_rows_get_the_statistics_they_get_alone(seed, n, p, widths,
                                                       mode):
    # Each matrix padded with empty classes to the widest of the stack
    # gets, bit for bit, the statistics, M-step and bound of a stack of
    # itself. The adjacency product is a BLAS call whose rounding may
    # change with the stack's shape, so each row is given its own.
    rng = np.random.default_rng(seed)
    graph, features = random_graph(n, rng), random_features(n, p, rng)
    starts = [random_responsibilities(n, q, rng) for q in widths]
    alone = [ClassStats.of(graph, features, start) for start in starts]
    resp_t = np.zeros((len(starts), max(widths), n))
    mass = np.zeros_like(resp_t)
    for row, (start, one) in enumerate(zip(starts, alone)):
        resp_t[row, :start.shape[1]] = start.T
        mass[row, :start.shape[1]] = one.mass[0]
    padded = ClassStats(graph, features, resp_t, mass, np.array(widths))
    params, d2 = em._m_step(padded, mode)
    bounds = padded.bound(params, mode, d2)
    for row, (q, one) in enumerate(zip(widths, alone)):
        one_params, one_d2 = em._m_step(one, mode)
        assert np.array_equal(padded.on[row, :q, :q], one.on[0])
        assert np.array_equal(padded.pairs[row, :q, :q], one.pairs[0])
        assert padded.entropy[row] == one.entropy[0]
        assert np.array_equal(params.alpha[row, :q], one_params.alpha[0])
        assert np.array_equal(params.pi[row, :q, :q], one_params.pi[0])
        assert np.array_equal(params.mu[row, :q], one_params.mu[0])
        assert params.sigma2[row] == one_params.sigma2[0]
        # A padded class: proportion 0, connection probability 0.5, mean 0.
        assert not params.alpha[row, q:].any()
        assert (params.pi[row, q:] == 0.5).all()
        assert (params.pi[row, :, q:] == 0.5).all()
        assert not params.mu[row, q:].any()
        if d2 is not None:
            assert np.array_equal(d2[row, :q], one_d2[0])
        assert bounds[row] == one.bound(one_params, mode, one_d2)[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 30),
       p=st.sampled_from([0, 2]),
       widths=st.lists(st.integers(1, 9), min_size=2, max_size=4),
       mode=st.sampled_from(MODES))
def test_padded_starts_fit_as_they_fit_alone(seed, n, p, widths, mode):
    # With an adjacency product whose rounding does not depend on the
    # stack's shape, a start padded into a stack of wider ones gives, bit
    # for bit, the fit it gives alone. A one-class start is all ones, as
    # init_responsibilities makes it: padded, its one sweep changes nothing.
    rng = np.random.default_rng(seed)
    graph, features = random_graph(n, rng), random_features(n, p, rng)
    starts = [random_responsibilities(n, q, rng) if q > 1 else np.ones((n, 1))
              for q in widths]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Graph, "neighbour_mass", row_by_row_mass)
        padded = _results(em._em(graph, features, starts, 15, mode))
        alone = [_results(em._em(graph, features, [start], 15, mode))[0]
                 for start in starts]
    for run, one in zip(padded, alone):
        assert type(run) is type(one)
        if isinstance(one, EmptyClassError):
            assert str(run) == str(one)
            continue
        assert np.array_equal(run.responsibilities, one.responsibilities)
        assert run.bound_trace == one.bound_trace
        assert (run.converged, run.e_step_sweeps, run.sweep_cap_hits) \
            == (one.converged, one.e_step_sweeps, one.sweep_cap_hits)
        for field in ("alpha", "pi", "mu", "sigma2"):
            assert np.array_equal(getattr(run.params, field),
                                  getattr(one.params, field))


def _two_bipartite_components():
    """A complete bipartite graph on 16 vertices beside one on 6, and a
    start that leans to each vertex's side on the first and to class 0
    over the whole second."""
    adjacency = np.zeros((22, 22))
    for first, half in ((0, 8), (16, 3)):
        left = slice(first, first + half)
        right = slice(first + half, first + 2 * half)
        adjacency[left, right] = adjacency[right, left] = 1.0
    start = np.tile([0.6, 0.4], (22, 1))
    start[:8] = [0.7, 0.3]
    start[8:16] = [0.3, 0.7]
    return Graph(adjacency), FeatureMatrix.empty(22), start


def test_guarded_start_of_a_stack_ends_on_its_previous_iterate(monkeypatch):
    # Undamped and capped at 5 sweeps, the E-step flips the whole second
    # component from one class to the other at every sweep. Once the first
    # component has settled, such an E-step ends below its start's bound:
    # the guard returns the start, and its fit ends there, converged.
    graph, features, guarded = _two_bipartite_components()
    rng = np.random.default_rng(0)
    starts = [random_responsibilities(22, 2, rng), guarded,
              random_responsibilities(22, 3, rng)]
    calls = []
    stacked = em._e_step

    def recorded(stats, params, d2, start_bounds, mode):
        out = stacked(stats, params, d2, start_bounds, mode)
        calls.append((stats.resp_t, start_bounds, *out[1:]))
        return out

    monkeypatch.setattr(em, "_e_step", recorded)
    monkeypatch.setattr(em, "DAMPING", 0.0)
    monkeypatch.setattr(em, "MAX_FIXEDPOINT_SWEEPS", 5)
    monkeypatch.setattr(Graph, "neighbour_mass", row_by_row_mass)
    alone = []
    for start in starts:
        calls.clear()
        alone.append(_results(em._em(graph, features, [start], 30,
                                     "graph-only"))[0])
        if start is guarded:
            guarded_calls = list(calls)
    calls.clear()
    padded = _results(em._em(graph, features, starts, 30, "graph-only"))
    fired = sum(int((~moved & (sweeps > 1)).sum())
                for _, _, sweeps, _, moved in calls)
    assert fired == 1

    ended = alone[1]
    resp_t, start_bounds, sweeps, _, moved = guarded_calls[-1]
    assert not moved[0] and sweeps[0] > 1
    assert all(call[4][0] for call in guarded_calls[:-1])
    assert ended.converged
    assert np.array_equal(ended.responsibilities, resp_t[0].T)
    assert ended.final_bound == start_bounds[0]
    trace = ended.bound_trace
    assert len(trace) == len(guarded_calls) >= 2
    assert all(b > a for a, b in zip(trace, trace[1:]))
    assert ended.e_step_sweeps \
        == sum(int(call[2][0]) for call in guarded_calls)
    for run, one in zip(padded, alone):
        assert np.array_equal(run.responsibilities, one.responsibilities)
        assert run.bound_trace == one.bound_trace
        assert (run.converged, run.e_step_sweeps, run.sweep_cap_hits) \
            == (one.converged, one.e_step_sweeps, one.sweep_cap_hits)


def test_fit_computes_one_adjacency_product_per_iterate(monkeypatch):
    spec = AffiliationSpec(n_classes=3, n=60, n_features=2, within_prob=0.4,
                           between_prob=0.1, mean_gap=1.5, seed=2)
    graph, features, _ = generate(spec)
    products = []
    compute = Graph.neighbour_mass

    def counted(self, resp_t):
        products.append(resp_t.tobytes())
        return compute(self, resp_t)

    # Every product, the E-step's sweeps included, goes through this helper.
    monkeypatch.setattr(Graph, "neighbour_mass", counted)
    result = fit(graph, features, 3, EMConfig(rng_seed=0))
    assert len(result.bound_trace) > 2
    assert len(products) == len(set(products))


def test_class_stats_edge_counts_once_per_stats(monkeypatch, rng):
    # An M-step followed by a bound reads on and pairs twice each; the
    # products behind them are computed once.
    graph, features, _ = random_instance(rng, n=10, n_classes=3, p=2)
    counts = {"on": 0, "pairs": 0}
    for name in counts:
        prop = ClassStats.__dict__[name]

        def counted(self, compute=prop.func, name=name):
            counts[name] += 1
            return compute(self)

        monkeypatch.setattr(prop, "func", counted)
    stats = ClassStats.of(graph, features, random_responsibilities(10, 3, rng))
    params, d2 = em._m_step(stats, "joint")
    stats.bound(params, "joint", d2)
    stats.bound(params)
    assert counts == {"on": 1, "pairs": 1}


@pytest.mark.parametrize("n", [12, 150, 700])
def test_neighbour_mass_is_the_adjacency_product(n):
    rng = np.random.default_rng(n)
    graph = random_graph(n, rng, density=0.3)
    resp = random_responsibilities(n, 3, rng)
    mass = graph.neighbour_mass(np.ascontiguousarray(resp.T))
    assert mass.shape == (3, n)
    assert np.abs(mass.T - graph.adjacency @ resp).max() <= 1e-12
    stats = ClassStats.of(graph, FeatureMatrix.empty(n), resp)
    assert np.array_equal(stats.mass[0], mass)


def reference_e_step(graph, features, params, start, damping, cap, mode,
                     update_of=responsibility_update_oracle):
    """The documented E-step: at most ``cap`` sweeps of one ``update_of``,
    blended with weight ``damping`` on the old iterate only when its
    residual is not below the previous sweep's. A sweep whose residual is
    within the tolerance ends it on the iterate it measured: its update is
    never appended. A final iterate whose bound is more than 1e-9 below the
    start's gives way to the start. Returns the result and whether that
    guard fired."""
    bound = lambda r: mode_lower_bound(graph, features, r, params, mode)
    iterates = [start]
    previous = np.inf
    for _ in range(cap):
        update = update_of(graph, features, params, iterates[-1], mode)
        residual = np.abs(update - iterates[-1]).max()
        if residual <= em.FIXEDPOINT_TOL:
            break
        if residual >= previous:
            update = (1.0 - damping) * update + damping * iterates[-1]
        iterates.append(update)
        previous = residual
    final = iterates[-1]
    if bound(final) >= bound(start) - 1e-9:
        return final, False
    return start, True


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
       n_classes=st.integers(2, 4), p=st.sampled_from([0, 2]),
       mode=st.sampled_from(["joint", "graph-only", "features-only"]),
       damping=st.sampled_from([0.0, 0.5]), cap=st.integers(3, 50))
def test_e_step_matches_reference_loop(seed, n, n_classes, p, mode, damping,
                                       cap):
    rng = np.random.default_rng(seed)
    graph, features, params = random_instance(rng, n=n, n_classes=n_classes,
                                              p=p)
    start = random_responsibilities(n, n_classes, rng)
    expected, _ = reference_e_step(graph, features, params, start, damping,
                                   cap, mode)
    with e_step_protocol(damping, cap):
        out = e_step(graph, features, params, start, mode)
    assert out.shape == expected.shape
    assert np.abs(out - expected).max() <= 1e-12
    bound = lambda r: mode_lower_bound(graph, features, r, params, mode)
    assert bound(out) >= bound(start) - 1e-9


def sweep_update(graph, features, params, resp, mode):
    """One undamped update in the E-step's own arithmetic on the (Q, n)
    transpose, so that a loop of them is plain Jacobi bit for bit."""
    use_edges, use_features = mode_terms(mode)
    stack = ParamStack.of(params.clamped())
    cur = np.ascontiguousarray(resp.T)[None]
    logits = np.repeat(np.log(stack.alpha)[:, :, None], graph.n, axis=2)
    if use_features and features.p:
        logits -= squared_distances(stack.mu, features.values) \
            / (2.0 * stack.sigma2[:, None, None])
    if use_edges:
        log_not = np.log1p(-stack.pi)
        edges = (np.log(stack.pi) - log_not) @ graph.neighbour_mass(cur)
        edges += logits
        edges += log_not @ (cur.sum(axis=2)[:, :, None] - cur)
        logits = edges
    logits -= logits.max(axis=1, keepdims=True)
    update = np.exp(logits)
    update /= update.sum(axis=1, keepdims=True)
    return update[0].T


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
       n_classes=st.integers(2, 4), p=st.sampled_from([0, 2]),
       mode=st.sampled_from(["joint", "graph-only", "features-only"]),
       cap=st.integers(1, 50))
def test_e_step_without_damping_is_plain_jacobi(seed, n, n_classes, p, mode,
                                                cap):
    # DAMPING = 0.0 blends no sweep, so the E-step is undamped Jacobi with
    # the stop rules and the guard, to the last bit.
    rng = np.random.default_rng(seed)
    graph, features, params = random_instance(rng, n=n, n_classes=n_classes,
                                              p=p)
    start = random_responsibilities(n, n_classes, rng)
    expected, _ = reference_e_step(graph, features, params, start, 0.0, cap,
                                   mode, update_of=sweep_update)
    with e_step_protocol(0.0, cap):
        out = e_step(graph, features, params, start, mode)
    assert np.array_equal(out, expected)


def test_e_step_softmax_on_extreme_logits(monkeypatch):
    # With a tiny variance every class logit lies far below -745, where exp
    # underflows to 0; only the row-max shift keeps the rows finite.
    rng = np.random.default_rng(3)
    labels = np.arange(10) % 2
    means = np.array([[0.0, 0.0], [1000.0, 1000.0]])
    features = FeatureMatrix(means[labels] + rng.normal(0.0, 0.1, (10, 2)))
    graph = random_graph(10, rng)
    params = ModelParams(alpha=[0.4, 0.6],
                         pi=np.array([[0.6, 0.2], [0.2, 0.5]]),
                         mu=means, sigma2=1e-6)
    start = random_responsibilities(10, 2, rng)
    monkeypatch.setattr(em, "DAMPING", 0.0)
    out = e_step(graph, features, params, start)
    assert np.all(np.isfinite(out))
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    expected = responsibility_update_oracle(graph, features, params, start)
    assert np.abs(out - expected).max() <= 1e-12
    assert np.array_equal(np.argmax(out, axis=1), labels)


# ---------------------------------------------------------------------------
# M-step


def test_m_step_perfect_two_blocks():
    # 4 + 2 vertices, all within-block edges present, none between.
    adjacency = np.zeros((6, 6))
    adjacency[:4, :4] = 1 - np.eye(4)
    adjacency[4:, 4:] = 1 - np.eye(2)
    graph = Graph(adjacency)
    labels = np.array([0, 0, 0, 0, 1, 1])
    params = m_step(graph, FeatureMatrix.empty(6), one_hot(labels, 2))
    assert np.allclose(params.alpha, [4 / 6, 2 / 6])
    assert params.pi[0, 0] == pytest.approx(1 - 1e-6)
    assert params.pi[1, 1] == pytest.approx(1 - 1e-6)
    assert params.pi[0, 1] == pytest.approx(1e-6)


def test_m_step_identical_features_floors_variance(rng):
    graph = random_graph(6, rng)
    features = FeatureMatrix(np.tile([2.0, -1.0], (6, 1)))
    resp = random_responsibilities(6, 2, rng)
    params = m_step(graph, features, resp)
    assert np.allclose(params.mu, [[2.0, -1.0], [2.0, -1.0]])
    assert params.sigma2 == 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_m_step_matches_numerical_maximizer(seed):
    rng = np.random.default_rng(seed)
    graph, features, _ = random_instance(rng, n=10, n_classes=2, p=2)
    resp = random_responsibilities(10, 2, rng)
    params = m_step(graph, features, resp)
    closed = variational_lower_bound(graph, features, resp, params)

    def bound_fn(candidate):
        return variational_lower_bound(graph, features, resp, candidate)

    numeric = maximize_bound_numerically(graph, features, resp, bound_fn,
                                         n_classes=2, start_params=params,
                                         seed=seed)
    assert closed >= numeric - 1e-6
    assert numeric <= closed + 1e-6


def test_m_step_scale_equivariance(rng):
    graph = random_graph(8, rng)
    features = random_features(8, 3, rng)
    resp = random_responsibilities(8, 2, rng)
    base = m_step(graph, features, resp)
    scaled = m_step(graph, FeatureMatrix(5.0 * features.values), resp)
    assert np.allclose(scaled.mu, 5.0 * base.mu, rtol=1e-12)
    assert scaled.sigma2 == pytest.approx(25.0 * base.sigma2, rel=1e-12)
    assert np.allclose(scaled.pi, base.pi)


def test_m_step_raises_on_empty_class(rng):
    graph = random_graph(5, rng)
    resp = np.zeros((5, 2))
    resp[:, 0] = 1.0
    with pytest.raises(EmptyClassError) as info:
        m_step(graph, FeatureMatrix.empty(5), resp)
    assert info.value.empty_classes == [1]


def _padded_stack(graph, features, widths, rng):
    resp_t = np.zeros((len(widths), max(widths), graph.n))
    for row, q in enumerate(widths):
        resp_t[row, :q] = random_responsibilities(graph.n, q, rng).T
    return ClassStats(graph, features, resp_t, n_classes=np.array(widths))


@pytest.mark.parametrize("mode", MODES)
def test_bound_after_the_m_step_is_the_bound_of_fresh_statistics(rng, mode):
    # The M-step keeps the scatter it forms for the variance, and the bound
    # that follows reads it: that bound is, bit for bit, the bound of fresh
    # statistics of the same matrices, which form the scatter again.
    graph, features = random_graph(20, rng), random_features(20, 2, rng)
    stats = _padded_stack(graph, features, [3, 2, 3], rng)
    params, d2 = em._m_step(stats, mode)
    bounds = stats.bound(params, mode, d2)

    def fresh():
        return ClassStats(graph, features, stats.resp_t.copy(), stats.mass,
                          stats.n_classes)

    assert np.array_equal(bounds, fresh().bound(params, mode, d2))
    assert np.array_equal(bounds, fresh().bound(params, mode))
    if d2 is not None:
        assert stats._scatter[0] is params.mu
    # Other means get their own scatter.
    moved = params._replace(mu=params.mu + 1.0)
    assert np.array_equal(stats.bound(moved, mode), fresh().bound(moved, mode))
    assert np.array_equal(stats.bound(params, mode),
                          fresh().bound(params, mode))


def test_rescue_passes_a_padded_stack_without_empty_classes(monkeypatch,
                                                            rng):
    # Padded classes have no mass; when nothing else is below
    # EMPTY_CLASS_MASS, the rescue returns its input as it is.
    graph, features = random_graph(12, rng), random_features(12, 2, rng)
    stats = _padded_stack(graph, features, [3, 1, 2], rng)
    with monkeypatch.context() as patch:
        patch.setattr(em, "_reseed_empty_classes", None)
        out, errors = em._rescue(stats)
    assert out is stats and errors == {}
    # An empty class of a matrix's own is still re-seeded, in its own row.
    resp_t = stats.resp_t.copy()
    resp_t[2, 0], resp_t[2, 1] = 1.0, 0.0
    empty = ClassStats(graph, features, resp_t, n_classes=stats.n_classes)
    out, errors = em._rescue(empty)
    assert errors == {}
    assert (out.col[2, :2] >= em.EMPTY_CLASS_MASS).all()
    assert np.array_equal(out.resp_t[:2], resp_t[:2])


def test_reseed_assigns_least_confident_vertex():
    resp = np.array([[1.0, 0.0], [1.0, 0.0], [0.6, 0.4]])
    fixed = _reseed_empty_classes(resp, [1])
    assert fixed[2, 1] == pytest.approx(0.9)  # 0.6 is the lowest confidence
    assert np.allclose(fixed.sum(axis=1), 1.0)
    assert np.array_equal(fixed[:2], resp[:2])


def test_m_step_rejects_bad_rows(rng):
    graph = random_graph(4, rng)
    with pytest.raises(ValueError, match="sum to 1"):
        m_step(graph, FeatureMatrix.empty(4), np.full((4, 2), 0.7))


# ---------------------------------------------------------------------------
# fit


def test_fit_single_class_closed_form(rng):
    graph = random_graph(10, rng)
    features = random_features(10, 2, rng)
    result = fit(graph, features, 1, EMConfig(rng_seed=0))
    assert result.converged
    assert len(result.bound_trace) - 1 <= 2
    density = graph.adjacency.sum() / (10 * 9)
    assert result.params.alpha[0] == pytest.approx(1.0)
    assert result.params.pi[0, 0] == pytest.approx(density, abs=1e-10)
    assert np.allclose(result.params.mu[0], features.values.mean(axis=0))
    expected_var = ((features.values - features.values.mean(axis=0)) ** 2
                    ).sum() / (2 * 10)
    assert result.params.sigma2 == pytest.approx(expected_var, rel=1e-10)


def test_fit_inputs_reject_overflowing_features(rng):
    graph = random_graph(5, rng)
    values = rng.normal(size=(5, 2))
    values[3, 1] = 1e200
    with pytest.raises(ValueError, match="feature row 3 is too large"):
        fit(graph, FeatureMatrix(values), 2, EMConfig(rng_seed=0))


def test_fit_rejects_more_classes_than_vertices(rng):
    graph = random_graph(6, rng)
    features = random_features(6, 2, rng)
    with pytest.raises(ValueError, match=r"n_classes=8 with n=6"):
        fit(graph, features, 8, EMConfig(rng_seed=0))
    with pytest.raises(ValueError, match=r"n_classes=8 with n=6"):
        fit_multi_restart(graph, features, 8, EMConfig(rng_seed=0))
    empty = Graph(np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"n_classes=2 with n=0"):
        fit(empty, FeatureMatrix.empty(0), 2)


@pytest.mark.parametrize("entry", [fit, fit_multi_restart])
def test_fit_rejects_all_constant_features(entry):
    # Their variance would sit on its floor and the bound turn positive.
    rng = np.random.default_rng(0)
    graph = random_graph(60, rng)
    features = FeatureMatrix(np.ones((60, 2)))
    cfg = EMConfig(rng_seed=0, n_restarts=2)
    for mode in ("joint", "features-only"):
        with pytest.raises(ValueError, match=r"features: all 2 columns are "
                           r"constant.*mode=\"graph-only\""):
            entry(graph, features, 2, cfg, mode=mode)
    entry(graph, features, 2, cfg, mode="graph-only")
    # One constant column among varying ones is a valid input.
    values = np.column_stack([np.ones(60), rng.normal(size=60)])
    entry(graph, FeatureMatrix(values), 2, cfg)


@pytest.mark.parametrize("seed", range(6))
def test_fit_trace_monotone_on_random_data(seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(15, rng, density=0.3)
    features = random_features(15, 2, rng)
    result = fit(graph, features, 3, EMConfig(rng_seed=seed))
    diffs = np.diff(result.bound_trace)
    assert diffs.size == 0 or diffs.min() >= -1e-8


def test_fit_recovers_separated_classes():
    scores = []
    for seed in range(5):
        spec = AffiliationSpec(n_classes=3, n=150, n_features=3,
                               within_prob=0.5, between_prob=0.1,
                               mean_gap=4.0, seed=seed)
        graph, features, truth = generate(spec)
        result = fit_multi_restart(graph, features, 3,
                                   EMConfig(rng_seed=seed, n_restarts=2))
        scores.append(adjusted_rand_index(truth, result.partition))
    assert np.median(scores) >= 0.9


def test_fit_label_permutation_equivariance():
    spec = AffiliationSpec(n_classes=3, n=30, n_features=2,
                           within_prob=0.6, between_prob=0.15,
                           mean_gap=2.0, seed=5)
    graph, features, _ = generate(spec)
    start = np.random.default_rng(3).dirichlet(np.ones(3), size=30)
    perm = np.array([2, 0, 1])

    base = fit(graph, features, 3, EMConfig(rng_seed=0), resp_init=start)
    other = fit(graph, features, 3, EMConfig(rng_seed=0),
                resp_init=start[:, perm])

    assert np.allclose(other.responsibilities,
                       base.responsibilities[:, perm], atol=1e-8)
    assert np.allclose(other.params.alpha, base.params.alpha[perm], atol=1e-8)
    assert np.allclose(other.params.mu, base.params.mu[perm], atol=1e-7)
    assert np.allclose(other.params.pi, base.params.pi[np.ix_(perm, perm)],
                       atol=1e-7)
    assert other.params.sigma2 == pytest.approx(base.params.sigma2, rel=1e-8)
    assert adjusted_rand_index(base.partition, other.partition) == 1.0
    assert np.allclose(base.bound_trace, other.bound_trace, atol=1e-9)


def test_fit_survives_empty_class_start(rng):
    graph = random_graph(8, rng)
    features = random_features(8, 2, rng)
    start = np.zeros((8, 2))
    start[:, 0] = 1.0  # class 1 starts empty and must be re-seeded
    result = fit(graph, features, 2, EMConfig(rng_seed=1), resp_init=start)
    diffs = np.diff(result.bound_trace)
    assert diffs.size == 0 or diffs.min() >= -1e-8


# ---------------------------------------------------------------------------
# Multi-restart


def test_multi_restart_single_equals_fit():
    spec = AffiliationSpec(n_classes=2, n=25, n_features=2,
                           within_prob=0.5, between_prob=0.2,
                           mean_gap=1.0, seed=0)
    graph, features, _ = generate(spec)
    cfg = EMConfig(rng_seed=9, n_restarts=1)
    best = fit_multi_restart(graph, features, 2, cfg)
    (seed, strategy), = em._restart_plan(cfg.rng_seed, 1, True, True)
    again = fit(graph, features, 2, cfg, resp_init=em._init(
        graph, features, 2, seed, strategy, "joint"))
    assert best.final_bound == again.final_bound
    assert np.array_equal(best.partition, again.partition)


def _results(outcomes):
    """The outcomes of ``em._em`` with each run turned into its result."""
    return [one.result() if isinstance(one, em._Run) else one
            for one in outcomes]


def _fit_with_runs(monkeypatch, *args, **kwargs):
    """``fit_multi_restart``'s result and the fit of each restart that did
    not fail, in restart order, read from the lockstep driver it calls. A
    run's result shares its ``bound_trace`` list with the run, so the
    returned fit is the run whose trace it holds."""
    outcomes = []
    driver = em._em

    def recorded(*driver_args, **driver_kwargs):
        out = driver(*driver_args, **driver_kwargs)
        outcomes.extend(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(em, "_em", recorded)
        best = fit_multi_restart(*args, **kwargs)
    return best, [one.result() for one in outcomes
                  if isinstance(one, em._Run)]


def test_multi_restart_returns_best_bound(monkeypatch):
    spec = AffiliationSpec(n_classes=3, n=40, n_features=2,
                           within_prob=0.5, between_prob=0.2,
                           mean_gap=1.5, seed=2)
    graph, features, _ = generate(spec)
    best, runs = _fit_with_runs(monkeypatch, graph, features, 3,
                               EMConfig(rng_seed=4, n_restarts=5))
    assert len(runs) == 5
    assert best.bound_trace is _first_best(runs).bound_trace


def _first_best(runs):
    """The earliest run whose final bound ties the best within
    ``TIE_REL_TOL``, relative."""
    top = max(run.final_bound for run in runs)
    return next(run for run in runs if run.final_bound
                >= top - em.TIE_REL_TOL * max(1.0, abs(top)))


def _outcome(bound):
    return em._Run(resp_t=np.ones((1, 2)), params=ParamStack.of(ModelParams(
        alpha=[1.0], pi=[[0.5]], mu=[[0.0]], sigma2=1.0)), row=0,
        n_classes=1, bound_trace=[bound], converged=True, e_step_sweeps=0,
        sweep_cap_hits=0, mode="joint")


def test_best_restart_keeps_the_earliest_of_a_rounding_tie():
    # Relabelled twins of one optimum end a few ulps apart; the earliest
    # is kept. A clearly better bound still wins.
    bound = -123.456
    first, twin = _outcome(bound), _outcome(bound + 1e-15 * abs(bound))
    assert twin.final_bound > first.final_bound
    err = EmptyClassError([1])
    best = em._best_restart([err, first, twin])
    assert best.bound_trace is first.bound_trace
    assert best.failed_restarts == ["restart 0: classes [1] have no mass"]
    better = _outcome(bound + 1e-9 * abs(bound))
    assert em._best_restart([first, twin, better]).bound_trace \
        is better.bound_trace


def test_multi_restart_beats_single_on_structured_data():
    wins = 0
    trials = 20
    for seed in range(trials):
        spec = AffiliationSpec(n_classes=2, n=150, n_features=3,
                               within_prob=0.5, between_prob=0.1,
                               mean_gap=4.0, seed=seed)
        graph, features, truth = generate(spec)
        multi = fit_multi_restart(graph, features, 2,
                                  EMConfig(rng_seed=seed, n_restarts=10))
        single = fit(graph, features, 2, EMConfig(rng_seed=seed))
        multi_score = adjusted_rand_index(truth, multi.partition)
        single_score = adjusted_rand_index(truth, single.partition)
        wins += multi_score >= single_score
    assert wins >= 0.7 * trials


def _sequential_fits(graph, features, n_classes, cfg, mode):
    """What each restart of fit_multi_restart gives when fitted alone."""
    use_edges, use_features = mode_terms(mode)
    outcomes = []
    for seed, strategy in em._restart_plan(
            cfg.rng_seed, cfg.n_restarts, features.p > 0 and use_features,
            use_edges):
        start = em._init(graph, features, n_classes, seed, strategy, mode)
        try:
            outcomes.append(fit(graph, features, n_classes, cfg,
                                resp_init=start, mode=mode))
        except EmptyClassError as err:
            outcomes.append(err)
    return outcomes


def _assert_lockstep_matches_sequential(monkeypatch, graph, features,
                                        n_classes, cfg, mode="joint"):
    best, runs = _fit_with_runs(monkeypatch, graph, features, n_classes, cfg,
                               mode=mode)
    alone = _sequential_fits(graph, features, n_classes, cfg, mode)
    fitted = [one for one in alone if isinstance(one, FitResult)]
    assert len(runs) == len(fitted)
    for run, one in zip(runs, fitted):
        assert np.array_equal(run.partition, one.partition)
        assert len(run.bound_trace) == len(one.bound_trace)
        assert run.final_bound == pytest.approx(one.final_bound, rel=1e-9)
        assert (run.e_step_sweeps, run.sweep_cap_hits) \
            == (one.e_step_sweeps, one.sweep_cap_hits)
    return best, runs, alone


@pytest.mark.parametrize("mode", MODES)
def test_lockstep_restarts_match_sequential_fits(monkeypatch, mode):
    spec = AffiliationSpec(n_classes=3, n=90, n_features=3,
                           within_prob=0.5, between_prob=0.15,
                           mean_gap=1.5, seed=4)
    graph, features, _ = generate(spec)
    best, runs, _ = _assert_lockstep_matches_sequential(
        monkeypatch, graph, features, 3, EMConfig(rng_seed=6, n_restarts=6),
        mode)
    assert len(runs) == 6
    assert best.failed_restarts == []
    # The trace lengths differ, so restarts left the stack at different
    # iterations.
    assert len({len(run.bound_trace) for run in runs}) > 1


def _empty_class_one_start(monkeypatch):
    """Make the degree-quantile start (restart 1 of a fit with features)
    give class 1 no mass."""
    original = em.init_responsibilities

    def init(graph, features, n_classes, strategy, rng):
        resp = original(graph, features, n_classes, strategy, rng)
        if strategy == "graph-degree-quantile":
            resp[:, 1] = 0.0
            resp /= resp.sum(axis=1, keepdims=True)
        return resp

    monkeypatch.setattr(em, "init_responsibilities", init)


def _lockstep_case():
    spec = AffiliationSpec(n_classes=3, n=60, n_features=2,
                           within_prob=0.5, between_prob=0.1,
                           mean_gap=2.0, seed=3)
    graph, features, _ = generate(spec)
    return graph, features, EMConfig(rng_seed=2, n_restarts=4)


def test_lockstep_matches_sequential_with_a_reseeded_restart(monkeypatch):
    _empty_class_one_start(monkeypatch)
    reseeds = []
    original = em._reseed_empty_classes

    def reseed(resp, empty_classes):
        reseeds.append(list(empty_classes))
        return original(resp, empty_classes)

    monkeypatch.setattr(em, "_reseed_empty_classes", reseed)
    graph, features, cfg = _lockstep_case()
    best, runs, _ = _assert_lockstep_matches_sequential(monkeypatch, graph,
                                                        features, 3, cfg)
    # Once in the lockstep fit and once in restart 1 fitted alone.
    assert reseeds == [[1], [1]]
    assert len(runs) == 4
    assert best.failed_restarts == []


def test_lockstep_matches_sequential_with_a_failed_restart(monkeypatch):
    # Without a working re-seed, restart 1 fails; the others go on.
    _empty_class_one_start(monkeypatch)
    monkeypatch.setattr(em, "_reseed_empty_classes",
                        lambda resp, empty_classes: resp)
    graph, features, cfg = _lockstep_case()
    best, runs, alone = _assert_lockstep_matches_sequential(
        monkeypatch, graph, features, 3, cfg)
    assert isinstance(alone[1], EmptyClassError)
    assert len(runs) == 3
    assert best.bound_trace is _first_best(runs).bound_trace
    assert best.failed_restarts == ["restart 1: classes [1] have no mass"]


def test_restart_failing_mid_fit_leaves_the_others(monkeypatch):
    # Restart 2 fails at the M-step where restart 3, below it in the stack,
    # converges; the others still give their own fits.
    graph, features, _ = _lockstep_case()
    cfg = EMConfig(rng_seed=0, n_restarts=4)
    alone = _sequential_fits(graph, features, 3, cfg, "joint")
    lengths = [len(one.bound_trace) for one in alone]
    assert lengths[0] < lengths[1] < lengths[3] < lengths[2]
    stack_sizes = []
    original = em._rescue

    def rescue(stats):
        stats, errors = original(stats)
        stack_sizes.append(stats.resp_t.shape[0])
        if len(stack_sizes) == lengths[3]:
            # Restarts 0 and 1 have stopped: row 0 is restart 2.
            assert stats.resp_t.shape[0] == 2
            errors[0] = EmptyClassError([0])
        return stats, errors

    monkeypatch.setattr(em, "_rescue", rescue)
    best, runs = _fit_with_runs(monkeypatch, graph, features, 3, cfg)
    assert best.failed_restarts == ["restart 2: classes [0] have no mass"]
    assert len(runs) == 3
    for run, one in zip(runs, [alone[0], alone[1], alone[3]]):
        assert np.array_equal(run.partition, one.partition)
        assert run.bound_trace == pytest.approx(one.bound_trace, rel=1e-9)


def test_iteration_lowering_the_bound_is_rolled_back(monkeypatch):
    # A flat re-seed of restart 0 at its second M-step lowers its bound, so
    # that iteration is rolled back and restart 0 stops after one; the
    # other restarts are not touched.
    graph, features, cfg = _lockstep_case()
    (seed, strategy), *_ = em._restart_plan(cfg.rng_seed, cfg.n_restarts,
                                            True, True)
    alone = _sequential_fits(graph, features, 3, cfg, "joint")
    one_iteration = fit(graph, features, 3, replace(cfg, max_em_iters=1),
                        resp_init=em._init(graph, features, 3, seed,
                                           strategy, "joint"))
    calls = []
    original = em._rescue

    def rescue(stats):
        calls.append(stats.resp_t.shape[0])
        if len(calls) == 3:
            flat = np.full(stats.resp_t[:1].shape, 1 / 3)
            stats = stats.with_rows([0], flat)
        return original(stats)

    monkeypatch.setattr(em, "_rescue", rescue)
    _, runs = _fit_with_runs(monkeypatch, graph, features, 3, cfg)
    assert not runs[0].converged
    assert runs[0].bound_trace == pytest.approx(one_iteration.bound_trace,
                                                rel=1e-9)
    assert np.array_equal(runs[0].partition, one_iteration.partition)
    for run, one in zip(runs[1:], alone[1:]):
        assert np.array_equal(run.partition, one.partition)
        assert run.bound_trace == pytest.approx(one.bound_trace, rel=1e-9)


def test_fit_reports_no_failed_restarts(rng):
    graph = random_graph(12, rng)
    features = random_features(12, 2, rng)
    assert fit(graph, features, 2, EMConfig(rng_seed=0)).failed_restarts == []


def test_all_restarts_failing_names_each(monkeypatch):
    monkeypatch.setattr(em, "_reseed_empty_classes",
                        lambda resp, empty_classes: resp)
    original = em.init_responsibilities

    def init(graph, features, n_classes, strategy, rng):
        resp = original(graph, features, n_classes, strategy, rng)
        resp[:, 0] = 0.0
        return resp / resp.sum(axis=1, keepdims=True)

    monkeypatch.setattr(em, "init_responsibilities", init)
    graph, features, _ = _lockstep_case()
    with pytest.raises(RuntimeError, match=r"all 2 restarts failed: "
                       r"\['restart 0: classes \[0\] have no mass', "
                       r"'restart 1: classes \[0\] have no mass'\]"):
        fit_multi_restart(graph, features, 3, EMConfig(n_restarts=2))


# ---------------------------------------------------------------------------
# Ablation modes


def test_graph_only_ignores_features():
    spec = AffiliationSpec(n_classes=2, n=30, n_features=3,
                           within_prob=0.6, between_prob=0.1,
                           mean_gap=2.0, seed=0)
    graph, features, _ = generate(spec)
    shuffled = FeatureMatrix(features.values[::-1].copy())
    cfg = EMConfig(rng_seed=5)
    first = fit(graph, features, 2, cfg, mode="graph-only")
    second = fit(graph, shuffled, 2, cfg, mode="graph-only")
    assert np.array_equal(first.partition, second.partition)
    assert first.bound_trace == second.bound_trace


def test_features_only_ignores_graph(rng):
    spec = AffiliationSpec(n_classes=2, n=30, n_features=3,
                           within_prob=0.6, between_prob=0.1,
                           mean_gap=2.0, seed=1)
    graph, features, _ = generate(spec)
    other_graph = random_graph(30, rng)
    cfg = EMConfig(rng_seed=5)
    first = fit(graph, features, 2, cfg, mode="features-only")
    second = fit(other_graph, features, 2, cfg, mode="features-only")
    assert np.array_equal(first.partition, second.partition)
    assert first.bound_trace == second.bound_trace


def test_features_only_restarts_ignore_graph(monkeypatch):
    spec = AffiliationSpec(n_classes=2, n=30, n_features=3,
                           within_prob=0.6, between_prob=0.1,
                           mean_gap=2.0, seed=0)
    graph, features, _ = generate(spec)
    cfg = EMConfig(rng_seed=5, n_restarts=3)
    _, first = _fit_with_runs(monkeypatch, graph, features, 2, cfg,
                             mode="features-only")
    _, second = _fit_with_runs(monkeypatch, Graph(np.zeros((30, 30))),
                              features, 2, cfg, mode="features-only")
    assert len(first) == len(second) == 3
    for one, other in zip(first, second):
        assert np.array_equal(one.responsibilities, other.responsibilities)
        assert one.bound_trace == other.bound_trace


def test_joint_with_no_features_equals_graph_only():
    spec = AffiliationSpec(n_classes=2, n=30, n_features=3,
                           within_prob=0.6, between_prob=0.1,
                           mean_gap=2.0, seed=2)
    graph, features, _ = generate(spec)
    cfg = EMConfig(rng_seed=8)
    empty = fit(graph, FeatureMatrix.empty(30), 2, cfg)
    graph_only = fit(graph, features, 2, cfg, mode="graph-only")
    assert np.array_equal(empty.responsibilities, graph_only.responsibilities)
    assert np.array_equal(empty.partition, graph_only.partition)
    assert empty.bound_trace == graph_only.bound_trace
    assert np.array_equal(empty.params.alpha, graph_only.params.alpha)
    assert np.array_equal(empty.params.pi, graph_only.params.pi)
    assert empty.params.sigma2 == graph_only.params.sigma2


def test_features_only_matches_joint_when_graph_uninformative():
    joint_scores, feature_scores = [], []
    for seed in range(20):
        spec = AffiliationSpec(n_classes=3, n=90, n_features=3,
                               within_prob=0.3, between_prob=0.3,
                               mean_gap=2.5, seed=seed)
        graph, features, truth = generate(spec)
        cfg = EMConfig(rng_seed=seed, n_restarts=2)
        joint = fit_multi_restart(graph, features, 3, cfg)
        feats = fit_multi_restart(graph, features, 3, cfg, mode="features-only")
        joint_scores.append(adjusted_rand_index(truth, joint.partition))
        feature_scores.append(adjusted_rand_index(truth, feats.partition))
    assert abs(np.median(joint_scores) - np.median(feature_scores)) <= 0.05


def test_mode_bound_drops_terms(rng):
    graph, features, params = random_instance(rng, n=8, n_classes=2, p=2)
    resp = random_responsibilities(8, 2, rng)
    full = mode_lower_bound(graph, features, resp, params, "joint")
    no_edges = mode_lower_bound(graph, features, resp, params, "features-only")
    no_feats = mode_lower_bound(graph, features, resp, params, "graph-only")
    assert full != no_edges and full != no_feats
    assert full == pytest.approx(
        variational_lower_bound(graph, features, resp, params), abs=1e-12
    )
    with pytest.raises(ValueError, match="mode"):
        mode_lower_bound(graph, features, resp, params, "nope")


def test_mode_bound_rejects_rows_that_do_not_sum_to_one(rng):
    graph, features, params = random_instance(rng, n=8, n_classes=2, p=2)
    resp = random_responsibilities(8, 2, rng) * 1.8
    with pytest.raises(ValueError, match="responsibility rows must each sum"):
        mode_lower_bound(graph, features, resp, params, "graph-only")


# ---------------------------------------------------------------------------
# Unmoved E-steps end a fit; results are built for returned fits only


def _readme_case(seed):
    spec = AffiliationSpec(n_classes=3, n=150, n_features=3,
                           within_prob=0.5, between_prob=0.1,
                           mean_gap=4.0, seed=seed)
    return generate(spec)[:2]


@pytest.mark.parametrize("mode", MODES)
def test_converged_trace_never_ends_on_a_repeated_bound(monkeypatch, mode):
    # An E-step that returns its start ends the fit before an M-step could
    # rebuild the params and bound it already has.
    converged = 0
    for seed in range(3):
        graph, features = _readme_case(1000 + seed)
        _, runs = _fit_with_runs(monkeypatch, graph, features, 3,
                                 EMConfig(rng_seed=seed), mode=mode)
        for run in runs:
            converged += run.converged
            trace = run.bound_trace
            assert len(trace) < 2 or trace[-1] != trace[-2]
    assert converged >= 25
    graph, features = _readme_case(1000)
    one_class = fit(graph, features, 1, EMConfig(rng_seed=0), mode=mode)
    assert one_class.converged and len(one_class.bound_trace) == 1


def _count_unstacks(monkeypatch):
    calls = []
    original = ParamStack.unstack

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(ParamStack, "unstack", counted)
    return calls


def test_multi_restart_builds_one_model_params(monkeypatch):
    graph, features = _readme_case(7)
    calls = _count_unstacks(monkeypatch)
    built = []
    monkeypatch.setattr(ModelParams, "__post_init__",
                        lambda self: built.append(self))
    best = fit_multi_restart(graph, features, 3, EMConfig(rng_seed=7))
    assert len(calls) == 1
    assert not built
    assert best.params.n_classes == 3


def _em_always_stepping(graph, features, start, max_em_iters, mode):
    """One start fitted by the rule before an unmoved E-step ended a fit:
    every E-step is followed by the rescue, the M-step and the bound, and
    the fit stops once the bound changes by at most BOUND_REL_TOL (or when
    the bound falls, rolled back). Returns the responsibilities, params,
    trace and convergence."""
    stats, errors = em._rescue(ClassStats.of(graph, features, start))
    assert not errors
    params, d2 = em._m_step(stats, mode)
    bounds = stats.bound(params, mode, d2)
    trace, converged = [float(bounds[0])], False
    for _ in range(max_em_iters):
        stepped, _, _, _ = em._e_step(stats, params, d2, bounds, mode)
        new_stats, errors = em._rescue(stepped)
        assert not errors
        new_params, new_d2 = em._m_step(new_stats, mode)
        values = new_stats.bound(new_params, mode, new_d2)
        if values[0] < bounds[0] - 1e-9:
            break
        trace.append(float(values[0]))
        stats, params, d2 = new_stats, new_params, new_d2
        if abs(values[0] - bounds[0]) \
                <= em.BOUND_REL_TOL * max(1.0, abs(bounds[0])):
            converged = True
            break
        bounds = values
    return stats.resp[0], params.unstack(0), trace, converged


@pytest.mark.parametrize("mode", MODES)
def test_unmoved_row_finishes_as_the_full_iteration_did(monkeypatch, mode):
    # A row whose E-step returns its start finishes on the responsibilities
    # and params that the full iteration (rescue, M-step, bound) gave it,
    # bit for bit, with that iteration's repeated bound left off its trace.
    # The rows share one stack, so some stop while others go on.
    graph, features = _readme_case(1001)
    use_edges, use_features = mode_terms(mode)
    starts = [em._init(graph, features, 3, seed, strategy, mode)
              for seed, strategy in em._restart_plan(5, 6, use_features,
                                                     use_edges)]
    monkeypatch.setattr(Graph, "neighbour_mass", row_by_row_mass)
    runs = em._em(graph, features, starts, 100, mode)
    repeats = 0
    for start, run in zip(starts, runs):
        resp, params, trace, converged = _em_always_stepping(
            graph, features, start, 100, mode)
        result = run.result()
        assert np.array_equal(result.responsibilities, resp)
        for name in ("alpha", "pi", "mu", "sigma2"):
            assert np.array_equal(getattr(result.params, name),
                                  getattr(params, name))
        assert result.converged == converged
        if trace[-1] == trace[-2]:
            repeats += 1
            trace = trace[:-1]
        assert result.bound_trace == trace
    assert repeats >= 3


def test_rollback_beside_an_unmoved_row_keeps_its_own_iterate(monkeypatch):
    # A padded one-class start returns its start at the first E-step and
    # leaves the stack; the other start's first iteration is flattened, so
    # its bound falls and the iteration is rolled back. That start must
    # finish on its own first M-step, not on the row that left.
    graph, features = _readme_case(1002)
    (seed, strategy), *_ = em._restart_plan(3, 1, True, True)
    start = em._init(graph, features, 3, seed, strategy, "joint")
    before = em._em(graph, features, [start], 0, "joint")[0].result()
    calls = []
    original = em._rescue

    def rescue(stats):
        calls.append(stats.resp_t.shape[0])
        if len(calls) == 2:
            stats = stats.with_rows([0], np.full(stats.resp_t[:1].shape,
                                                 1 / 3))
        return original(stats)

    monkeypatch.setattr(em, "_rescue", rescue)
    one_class, rolled_back = _results(em._em(
        graph, features, [np.ones((graph.n, 1)), start], 5, "joint"))
    assert calls == [2, 1]
    assert one_class.converged and len(one_class.bound_trace) == 1
    assert not rolled_back.converged
    assert rolled_back.bound_trace == before.bound_trace
    assert np.array_equal(rolled_back.responsibilities,
                          before.responsibilities)
    for name in ("alpha", "pi", "mu", "sigma2"):
        assert np.array_equal(getattr(rolled_back.params, name),
                              getattr(before.params, name))
