"""Chance-corrected agreement between two partitions of the same items."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ContingencyTable:
    """Co-assignment counts between two partitions, with marginals."""

    counts: np.ndarray
    row_totals: np.ndarray
    col_totals: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def is_relabeling(self) -> bool:
        """True when the partitions are equal up to renaming the classes."""
        nonzero = self.counts > 0
        return bool(np.all(nonzero.sum(axis=0) == 1)
                    and np.all(nonzero.sum(axis=1) == 1))


def contingency_table(a, b) -> ContingencyTable:
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"partitions differ in length: {a.size} vs {b.size}")
    # Empty partitions give a 0 x 0 table.
    rows, ai = np.unique(a, return_inverse=True)
    cols, bi = np.unique(b, return_inverse=True)
    counts = np.zeros((rows.size, cols.size), dtype=np.int64)
    np.add.at(counts, (ai, bi), 1)
    return ContingencyTable(counts=counts,
                            row_totals=counts.sum(axis=1),
                            col_totals=counts.sum(axis=0))


def _pairs(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def adjusted_rand_index(a, b) -> float:
    """Hubert-Arabie adjusted Rand index.

    1 exactly when the partitions agree up to relabeling; 0 in expectation
    for independent partitions; can be negative. When the normaliser
    degenerates to zero, returns 1.0 if the partitions are relabelings of
    each other and 0.0 otherwise.
    """
    table = contingency_table(a, b)
    if table.n < 2:
        raise ValueError("need at least 2 items to compare partitions")
    joint = _pairs(table.counts).sum()
    row = _pairs(table.row_totals).sum()
    col = _pairs(table.col_totals).sum()
    expected = row * col / _pairs(table.n)
    denom = 0.5 * (row + col) - expected
    if denom == 0.0:
        return 1.0 if table.is_relabeling() else 0.0
    return float((joint - expected) / denom)
