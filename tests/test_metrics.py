import numpy as np
import pytest

from cohsmix.metrics import adjusted_rand_index, contingency_table

from oracles import ari_pair_counting


def test_identical_partitions_give_exactly_one(rng):
    for _ in range(5):
        labels = rng.integers(0, 4, size=20)
        assert adjusted_rand_index(labels, labels) == 1.0


def test_one_class_versus_singletons_is_zero():
    assert adjusted_rand_index([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0


def test_frozen_six_item_example():
    # Contingency [[2, 1, 0], [0, 1, 2]]: joint pairs 2, marginal pairs 6
    # and 3, expectation 6*3/15 = 1.2 -> (2 - 1.2) / (4.5 - 1.2) = 8/33.
    a = [0, 0, 0, 1, 1, 1]
    b = [0, 0, 1, 1, 2, 2]
    value = adjusted_rand_index(a, b)
    assert value == pytest.approx(8 / 33, abs=1e-15)
    assert value == pytest.approx(ari_pair_counting(a, b), abs=1e-15)


def test_symmetry_and_relabel_invariance(rng):
    a = rng.integers(0, 3, size=25)
    b = rng.integers(0, 4, size=25)
    assert adjusted_rand_index(a, b) == pytest.approx(
        adjusted_rand_index(b, a), abs=1e-15
    )
    relabeled = (a + 7) % 11
    assert adjusted_rand_index(relabeled, b) == pytest.approx(
        adjusted_rand_index(a, b), abs=1e-15
    )


def test_matches_pair_counting_oracle():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        a = rng.integers(0, int(rng.integers(1, 6)), size=n)
        b = rng.integers(0, int(rng.integers(1, 6)), size=n)
        assert adjusted_rand_index(a, b) == pytest.approx(
            ari_pair_counting(a, b), abs=1e-12
        )


def test_never_exceeds_one_and_one_implies_relabeling(rng):
    for _ in range(50):
        a = rng.integers(0, 3, size=15)
        b = rng.integers(0, 3, size=15)
        value = adjusted_rand_index(a, b)
        assert value <= 1.0
        if value == 1.0:
            assert contingency_table(a, b).is_relabeling()


def test_degenerate_denominator_cases():
    # Both all-singletons and both one-class are relabelings: exactly 1.
    assert adjusted_rand_index([0, 1, 2], [5, 6, 7]) == 1.0
    assert adjusted_rand_index([1, 1, 1], [4, 4, 4]) == 1.0


def test_negative_values_possible():
    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_errors():
    with pytest.raises(ValueError, match="length"):
        adjusted_rand_index([0, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="2 items"):
        adjusted_rand_index([0], [0])


def test_contingency_table_contents():
    table = contingency_table([0, 0, 1, 1], [3, 3, 3, 9])
    assert table.counts.tolist() == [[2, 0], [1, 1]]
    assert table.row_totals.tolist() == [2, 2]
    assert table.col_totals.tolist() == [3, 1]
    assert table.n == 4


def test_empty_partitions_give_an_empty_table():
    # The ARI's own check names the problem, not a numpy reduction.
    table = contingency_table([], [])
    assert table.counts.shape == (0, 0)
    assert table.n == 0
    with pytest.raises(ValueError, match="need at least 2 items"):
        adjusted_rand_index([], [])
