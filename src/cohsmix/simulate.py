"""Synthetic attributed graphs from the equal-proportion affiliation model.

Vertices get uniform class labels; an edge appears with one probability
inside a class and another between classes; features are spherical Gaussians
whose class means sit on a line, adjacent classes one gap apart on every
coordinate. ``grid_specs`` enumerates the four benchmark families (43 models
in total) used by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FeatureMatrix, Graph

SETTINGS = ("a", "b", "c", "d")

# Midpoint of the within/between edge probabilities; the benchmark families
# specify only their separation, so the pair is centred here.
PROB_CENTER = 0.3


@dataclass(frozen=True)
class AffiliationSpec:
    """Parameters of one synthetic model."""

    n_classes: int
    n: int = 150
    n_features: int = 3
    within_prob: float = 0.3
    between_prob: float = 0.3
    mean_gap: float = 0.0
    noise_std: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError("n_classes must be at least 1")
        if self.n < self.n_classes:
            raise ValueError("need at least one vertex per class")
        if self.n_features < 0:
            raise ValueError("n_features must be non-negative")
        if not 0.0 <= self.between_prob <= self.within_prob <= 1.0:
            raise ValueError(
                "need 0 <= between_prob <= within_prob <= 1, got "
                f"{self.between_prob}, {self.within_prob}"
            )
        if not (np.isfinite(self.noise_std) and self.noise_std > 0):
            raise ValueError("noise_std must be positive and finite, got "
                             f"{self.noise_std!r}")
        if not (np.isfinite(self.mean_gap) and self.mean_gap >= 0):
            raise ValueError("mean_gap must be non-negative and finite, got "
                             f"{self.mean_gap!r}")

    @property
    def prob_gap(self) -> float:
        return self.within_prob - self.between_prob

    def class_means(self) -> np.ndarray:
        """(Q, p) means: class q sits at q * mean_gap on every coordinate."""
        return (np.arange(self.n_classes)[:, None] * self.mean_gap
                * np.ones((1, self.n_features)))


def generate(spec: AffiliationSpec):
    """Draw one attributed graph; returns (graph, features, labels).

    Deterministic given ``spec.seed``: labels, then the edge coin flips for
    each unordered pair, then the feature noise, always in that order.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    labels = rng.integers(0, spec.n_classes, size=n)

    # A boolean mask selects the pairs i < j in row-major order, the order
    # of the coin flips.
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    same = (labels[:, None] == labels)[upper]
    flips = rng.random(same.size) \
        < np.where(same, spec.within_prob, spec.between_prob)
    adjacency = np.zeros((n, n))
    adjacency[upper] = flips
    adjacency += adjacency.T

    means = spec.class_means()
    noise = rng.normal(0.0, spec.noise_std, size=(n, spec.n_features))
    features = FeatureMatrix(means[labels] + noise)
    return Graph._built(adjacency), features, labels


def grid_specs(setting: str, n: int = 150) -> list[AffiliationSpec]:
    """Benchmark family for one setting letter.

    a: class count 2..12 (11 models); b: feature count 2..15 (14 models);
    c: edge-probability gap 0..0.5 in steps of 0.05 (11 models);
    d: no graph structure, feature mean gap 4..8.5 in steps of 0.75
    (7 models). 43 models altogether.
    """
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; expected one of {SETTINGS}")

    def spec(n_classes, n_features, prob_gap, mean_gap):
        return AffiliationSpec(
            n_classes=n_classes, n=n, n_features=n_features,
            within_prob=PROB_CENTER + prob_gap / 2.0,
            between_prob=PROB_CENTER - prob_gap / 2.0, mean_gap=mean_gap,
        )

    if setting == "a":
        return [spec(q, 3, 0.4, 4.0) for q in range(2, 13)]
    if setting == "b":
        return [spec(5, p, 0.2, 4.0) for p in range(2, 16)]
    if setting == "c":
        return [spec(3, 3, round(0.05 * k, 2), 4.0) for k in range(11)]
    return [spec(3, 3, 0.0, 4.0 + 0.75 * k) for k in range(7)]


def varied_parameter(setting: str, spec: AffiliationSpec) -> tuple[str, float]:
    """Name and value of the quantity a setting's family sweeps over."""
    if setting == "a":
        return "n_classes", float(spec.n_classes)
    if setting == "b":
        return "n_features", float(spec.n_features)
    if setting == "c":
        return "prob_gap", float(spec.prob_gap)
    if setting == "d":
        return "mean_gap", float(spec.mean_gap)
    raise ValueError(f"unknown setting {setting!r}")
