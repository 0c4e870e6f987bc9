"""Random-walk node sampling, estimation, and spectral analysis for graphs.

Five walk designs (srw, rwe, md, gmd, wjrw) over undirected edge-list
graphs, exact stationary distributions (closed form and numeric), a
self-normalized importance-weighted estimator for node properties, and a
seeded experiment harness producing CSV/JSON accuracy and uniqueness
reports.
"""

import os

# numpy's bundled OpenBLAS starts its threads as numpy loads, and each spins
# for 2^28 cycles (OpenBLAS's default timeout) before it sleeps, although most
# commands make no BLAS call. 2^20 cycles is under a millisecond, and still
# long enough that dgeev's BLAS threads stay awake between its calls. This
# must run before the first submodule imports numpy; a user's own timeout is
# kept, and the thread count is left alone. Pool workers inherit the setting.
if "OPENBLAS_THREAD_TIMEOUT" not in os.environ and "GOTO_THREAD_TIMEOUT" not in os.environ:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "20"

from .estimation import (
    ZeroInclusionProbability,
    degree_distribution_estimate,
    ht_ratio_estimate,
    kl_divergence,
    true_degree_distribution,
)
from .graph import (
    EdgeListParseError,
    EmptyGraphError,
    Graph,
    IngestReport,
    average_degree,
    largest_connected_component,
    load_edge_list,
    parse_edge_list,
)
from .harness import UsageError, estimation_weights
from .samplers import (
    ConvergenceError,
    SamplerError,
    WalkConfig,
    WalkTooLongError,
    derive_seed,
    run_walk,
    run_walks,
    stationary_closed_form,
    stationary_numeric,
)
from .spectral import (
    SpectrumReport,
    characteristic_polynomial,
    dense_transition_matrix,
    expected_repeat_probability,
    reversibility_residual,
    spectrum,
)

__version__ = "0.1.0"

# The README's "Public API" list, which a test holds this to. Every other
# name stays in its module, for the package's own use, and may change.
__all__ = [
    "ConvergenceError",
    "EdgeListParseError",
    "EmptyGraphError",
    "Graph",
    "IngestReport",
    "SamplerError",
    "SpectrumReport",
    "UsageError",
    "WalkConfig",
    "WalkTooLongError",
    "ZeroInclusionProbability",
    "average_degree",
    "characteristic_polynomial",
    "degree_distribution_estimate",
    "dense_transition_matrix",
    "derive_seed",
    "estimation_weights",
    "expected_repeat_probability",
    "ht_ratio_estimate",
    "kl_divergence",
    "largest_connected_component",
    "load_edge_list",
    "parse_edge_list",
    "reversibility_residual",
    "run_walk",
    "run_walks",
    "spectrum",
    "stationary_closed_form",
    "stationary_numeric",
    "true_degree_distribution",
]
