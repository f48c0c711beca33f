"""The quality report's truth start and its table cells."""

import numpy as np

import quality


def test_truth_start_is_the_smoothed_one_hot():
    start = quality.truth_start(np.array([1, 0, 2, 1]), 3)
    assert np.array_equal(start, 0.9 * np.eye(3)[[1, 0, 2, 1]] + 0.1 / 3)
    assert np.allclose(start.sum(axis=1), 1.0)


def test_a_search_miss_is_a_gap_beyond_the_stop_rule():
    # At a bound of -1000 a fit stops within 1e-3 nats, so a gap of 1e-4
    # is the same optimum and a gap of 5 is a miss; a negative gap (the
    # search beat the truth start) is none.
    fits = [(0.0, 1.0, 1.0, -1000.0, 0), (1e-4, 1.0, 1.0, -1000.0, 2),
            (5.0, 0.5, 1.0, -1000.0, 0), (-2.0, 0.8, 0.9, -1000.0, 1)]
    assert quality.summary(fits) == "4 | 1 | 5.0 | 0.825 | 0.975"
    # The winning restart of each fit, counted by index, restart 0 first.
    assert quality.wins(fits, 3) == "2 / 1 / 1"
    assert quality.wins(fits, 4) == "2 / 1 / 1 / 0"
