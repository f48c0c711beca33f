"""Clustering of graphs with vertex features via a latent-class model.

Vertices belong to hidden classes that shape both the wiring of an
undirected binary graph (block-structured Bernoulli edges) and per-vertex
Gaussian feature vectors. Inference is variational EM; the number of
classes is picked by an integrated-classification-likelihood criterion.
Includes an affiliation-model simulator, an adjusted-Rand-index metric,
and a benchmark harness with a command-line front end.
"""

from .em import (
    EMConfig,
    EmptyClassError,
    FitResult,
    e_step,
    fit,
    fit_multi_restart,
    init_responsibilities,
    m_step,
)
from .harness import ExperimentRecord, run_grid
from .io import (
    read_features,
    read_graph,
    read_params,
    write_features,
    write_graph,
    write_result,
)
from .metrics import ContingencyTable, adjusted_rand_index, contingency_table
from .model import (
    ClassStats,
    FeatureMatrix,
    Graph,
    ModelParams,
    complete_log_likelihood,
    exact_log_marginal,
    one_hot,
    partition_from_responsibilities,
    variational_lower_bound,
)
from .selection import ICLScan, icl_penalty, icl_score, select_q
from .simulate import AffiliationSpec, generate, grid_specs

__version__ = "0.1.0"

__all__ = [
    "AffiliationSpec",
    "ClassStats",
    "ContingencyTable",
    "EMConfig",
    "EmptyClassError",
    "ExperimentRecord",
    "FeatureMatrix",
    "FitResult",
    "Graph",
    "ICLScan",
    "ModelParams",
    "adjusted_rand_index",
    "complete_log_likelihood",
    "contingency_table",
    "e_step",
    "exact_log_marginal",
    "fit",
    "fit_multi_restart",
    "generate",
    "grid_specs",
    "icl_penalty",
    "icl_score",
    "init_responsibilities",
    "m_step",
    "one_hot",
    "partition_from_responsibilities",
    "read_features",
    "read_graph",
    "read_params",
    "run_grid",
    "select_q",
    "variational_lower_bound",
    "write_features",
    "write_graph",
    "write_result",
]
