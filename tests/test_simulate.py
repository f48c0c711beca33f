import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from cohsmix.em import EMConfig, fit_multi_restart
from cohsmix.metrics import adjusted_rand_index
from cohsmix.simulate import (
    AffiliationSpec,
    generate,
    grid_specs,
    varied_parameter,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        AffiliationSpec(n_classes=0)
    with pytest.raises(ValueError):
        AffiliationSpec(n_classes=5, n=3)
    with pytest.raises(ValueError):
        AffiliationSpec(n_classes=2, within_prob=0.2, between_prob=0.4)
    with pytest.raises(ValueError):
        AffiliationSpec(n_classes=2, noise_std=0.0)
    for name in ("mean_gap", "noise_std"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be .* and "
                               "finite"):
                AffiliationSpec(n_classes=2, **{name: value})


@pytest.mark.parametrize("field,value", [
    ("n_classes", 2.5), ("n_classes", True), ("n", 10.0), ("n", 0),
    ("n_features", 1.5), ("n_features", -1), ("seed", -1), ("seed", 1.5),
    ("seed", True),
])
def test_spec_rejects_counts_that_are_not_integers(field, value):
    # Caught where the spec is built, each message naming the field, rather
    # than simulating labels of fewer classes than the spec has means, or
    # failing inside numpy.
    fields = dict(n_classes=2, n=10, n_features=1, seed=1)
    fields[field] = value
    with pytest.raises(ValueError,
                       match=rf"^{field} must be an integer of at least"):
        AffiliationSpec(**fields)


def test_spec_accepts_numpy_integer_counts():
    spec = AffiliationSpec(n_classes=np.int64(2), n=np.int64(10),
                           n_features=np.int64(1), seed=np.int64(3))
    graph, features, labels = generate(spec)
    plain = generate(AffiliationSpec(n_classes=2, n=10, n_features=1,
                                     seed=3))
    assert np.array_equal(graph.adjacency, plain[0].adjacency)
    assert np.array_equal(features.values, plain[1].values)
    assert np.array_equal(labels, plain[2])
    assert spec.class_means().shape == (2, 1)


def test_generate_deterministic_replay():
    spec = AffiliationSpec(n_classes=3, n=50, n_features=2,
                           within_prob=0.5, between_prob=0.1,
                           mean_gap=2.0, seed=123)
    g1, f1, z1 = generate(spec)
    g2, f2, z2 = generate(spec)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    assert np.array_equal(f1.values, f2.values)
    assert np.array_equal(z1, z2)


def generate_reference(spec):
    """``generate`` as it drew the edge coins over ``np.triu_indices``."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    labels = rng.integers(0, spec.n_classes, size=n)
    rows, cols = np.triu_indices(n, k=1)
    probs = np.where(labels[rows] == labels[cols], spec.within_prob,
                     spec.between_prob)
    flips = rng.random(rows.size) < probs
    adjacency = np.zeros((n, n))
    adjacency[rows[flips], cols[flips]] = 1.0
    adjacency += adjacency.T
    noise = rng.normal(0.0, spec.noise_std, size=(n, spec.n_features))
    return adjacency, spec.class_means()[labels] + noise, labels


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 4),
       extra=st.integers(0, 60), p=st.integers(0, 3),
       probs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_generate_matches_the_index_array_draw(seed, n_classes, extra, p,
                                               probs):
    # The mask draws the same stream, so graph, features and labels are
    # unchanged in every bit.
    spec = AffiliationSpec(n_classes=n_classes, n=n_classes + extra,
                           n_features=p, within_prob=max(probs),
                           between_prob=min(probs), mean_gap=1.5, seed=seed)
    graph, features, labels = generate(spec)
    adjacency, values, expected_labels = generate_reference(spec)
    assert np.array_equal(graph.adjacency, adjacency)
    assert np.array_equal(features.values, values)
    assert np.array_equal(labels, expected_labels)


def test_generate_shapes_and_labels():
    spec = AffiliationSpec(n_classes=4, n=40, n_features=5, seed=0)
    graph, features, labels = generate(spec)
    assert graph.n == 40
    assert features.values.shape == (40, 5)
    assert labels.min() >= 0 and labels.max() < 4


def test_flat_model_edge_density():
    # Identical within/between probabilities: density ignores the labels.
    lam = 0.3
    densities = []
    for seed in range(20):
        spec = AffiliationSpec(n_classes=3, n=60, n_features=0,
                               within_prob=lam, between_prob=lam, seed=seed)
        graph, _, _ = generate(spec)
        n_pairs = 60 * 59 / 2
        densities.append(graph.n_edges / n_pairs)
    stderr = np.sqrt(lam * (1 - lam) / (20 * 60 * 59 / 2))
    assert abs(np.mean(densities) - lam) <= 3 * stderr


@pytest.mark.parametrize("seed", range(3))
def test_within_block_edge_frequency(seed):
    spec = AffiliationSpec(n_classes=3, n=150, n_features=0,
                           within_prob=0.5, between_prob=0.1, seed=seed)
    graph, _, labels = generate(spec)
    same = labels[:, None] == labels[None, :]
    upper = np.triu(np.ones((150, 150), dtype=bool), k=1)
    n_within = int(np.count_nonzero(same & upper))
    hits = graph.adjacency[same & upper].sum()
    freq = hits / n_within
    stderr = np.sqrt(0.5 * 0.5 / n_within)
    assert abs(freq - 0.5) <= 3 * stderr


def test_class_sizes_uniform_chisquare():
    counts = np.zeros(3)
    for seed in range(100):
        spec = AffiliationSpec(n_classes=3, n=60, n_features=0, seed=seed)
        _, _, labels = generate(spec)
        counts += np.bincount(labels, minlength=3)
    result = chisquare(counts)
    assert result.pvalue >= 0.01


@pytest.mark.parametrize("seed", range(3))
def test_class_means_near_layout(seed):
    spec = AffiliationSpec(n_classes=3, n=150, n_features=3,
                           within_prob=0.3, between_prob=0.3,
                           mean_gap=4.0, noise_std=1.0, seed=seed)
    _, features, labels = generate(spec)
    for q in range(3):
        members = labels == q
        size = int(members.sum())
        sample_mean = features.values[members].mean(axis=0)
        assert np.all(np.abs(sample_mean - q * 4.0) <= 4.0 / np.sqrt(size))


def test_uninformative_features_give_no_signal():
    scores = []
    for seed in range(20):
        spec = AffiliationSpec(n_classes=3, n=90, n_features=3,
                               within_prob=0.4, between_prob=0.2,
                               mean_gap=0.0, noise_std=1.0, seed=seed)
        graph, features, truth = generate(spec)
        result = fit_multi_restart(graph, features, 3,
                                   EMConfig(rng_seed=seed, n_restarts=1),
                                   mode="features-only")
        scores.append(adjusted_rand_index(truth, result.partition))
    assert abs(np.median(scores)) <= 0.1


# ---------------------------------------------------------------------------
# Benchmark grid


def test_grid_spec_counts():
    sizes = {"a": 11, "b": 14, "c": 11, "d": 7}
    for setting, expected in sizes.items():
        assert len(grid_specs(setting)) == expected
    assert sum(len(grid_specs(s)) for s in "abcd") == 43


def test_grid_setting_a_sweeps_classes():
    specs = grid_specs("a")
    assert [s.n_classes for s in specs] == list(range(2, 13))
    assert all(s.n_features == 3 for s in specs)
    assert all(abs(s.prob_gap - 0.4) < 1e-12 for s in specs)
    assert all(s.mean_gap == 4.0 for s in specs)


def test_grid_setting_b_sweeps_features():
    specs = grid_specs("b")
    assert [s.n_features for s in specs] == list(range(2, 16))
    assert all(s.n_classes == 5 for s in specs)


def test_grid_setting_c_sweeps_prob_gap():
    specs = grid_specs("c")
    gaps = [s.prob_gap for s in specs]
    assert np.allclose(gaps, np.arange(11) * 0.05, atol=1e-9)


def test_grid_setting_d_has_no_graph_structure():
    specs = grid_specs("d")
    assert all(s.within_prob == s.between_prob for s in specs)
    assert np.allclose([s.mean_gap for s in specs], 4.0 + 0.75 * np.arange(7))


def test_grid_default_sizes():
    assert all(s.n == 150 for s in grid_specs("a"))


def test_grid_unknown_setting():
    with pytest.raises(ValueError, match="setting"):
        grid_specs("z")


def test_varied_parameter_names():
    assert varied_parameter("a", grid_specs("a")[0]) == ("n_classes", 2.0)
    assert varied_parameter("b", grid_specs("b")[0]) == ("n_features", 2.0)
    name, value = varied_parameter("c", grid_specs("c")[3])
    assert name == "prob_gap" and value == pytest.approx(0.15, abs=1e-9)
    assert varied_parameter("d", grid_specs("d")[6]) == ("mean_gap", 8.5)
