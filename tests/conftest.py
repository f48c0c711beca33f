import numpy as np
import pytest
from hypothesis import settings

from cohsmix.model import FeatureMatrix, Graph, ModelParams

# Every run draws the same examples, so the suite's outcome and wall time
# repeat; ``pytest --hypothesis-profile=explore`` draws fresh ones.
settings.register_profile("default", derandomize=True)
settings.register_profile("explore", derandomize=False)


def random_graph(n, rng, density=0.4):
    upper = np.triu(rng.random((n, n)) < density, k=1).astype(float)
    return Graph(upper + upper.T)


def random_features(n, p, rng, scale=1.0):
    return FeatureMatrix(rng.normal(0.0, scale, size=(n, p)))


def random_params(n_classes, p, rng):
    alpha = rng.dirichlet(np.ones(n_classes))
    pi = rng.uniform(0.05, 0.95, size=(n_classes, n_classes))
    pi = (pi + pi.T) / 2.0
    return ModelParams(
        alpha=alpha,
        pi=pi,
        mu=rng.normal(0.0, 2.0, size=(n_classes, p)),
        sigma2=float(rng.uniform(0.5, 2.0)),
    )


def random_responsibilities(n, n_classes, rng):
    return rng.dirichlet(np.ones(n_classes), size=n)


def row_by_row_mass(graph, resp_t):
    """``Graph.neighbour_mass`` with each row's entries summed in an order
    that does not depend on the other rows."""
    return np.einsum("...n,nm->...m", resp_t, graph.adjacency)


def random_instance(rng, n=6, n_classes=2, p=2):
    graph = random_graph(n, rng)
    features = random_features(n, p, rng)
    params = random_params(n_classes, p, rng)
    return graph, features, params


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
