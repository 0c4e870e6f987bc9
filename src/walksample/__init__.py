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
    Distribution,
    ZeroInclusionProbability,
    degree_distribution_estimate,
    ht_ratio_estimate,
    kl_divergence,
    true_degree_distribution,
    tvd,
    unique_count,
)
from .graph import (
    EdgeListParseError,
    EmptyGraphError,
    Graph,
    GraphStats,
    IngestReport,
    average_degree,
    build_graph,
    graph_stats,
    largest_connected_component,
    load_edge_list,
    parse_edge_list,
    write_edge_list,
)
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    ReportRow,
    UsageError,
    aggregate_rows,
    cmd_analyze,
    cmd_run,
    cmd_stats,
    cmd_sweep_budget,
    cmd_sweep_c,
    estimation_weights,
    render_csv,
    render_json,
)
from .samplers import (
    ConvergenceError,
    JumpSet,
    RNG_ALGORITHM,
    SamplerError,
    SamplerKind,
    Trace,
    WalkConfig,
    WalkTooLongError,
    derive_seed,
    jump_set,
    make_rng,
    resolve_cap,
    run_walk,
    run_walks,
    self_transition_probabilities,
    stationary_closed_form,
    stationary_numeric,
    step,
    transition_row,
)
from .spectral import (
    DENSE_CAP,
    SpectrumReport,
    WalkMatrix,
    characteristic_polynomial,
    dense_transition_matrix,
    expected_repeat_probability,
    reversibility_residual,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "ConvergenceError",
    "DENSE_CAP",
    "Distribution",
    "EdgeListParseError",
    "EmptyGraphError",
    "ExperimentConfig",
    "Graph",
    "GraphStats",
    "IngestReport",
    "JumpSet",
    "RNG_ALGORITHM",
    "ReportRow",
    "SamplerError",
    "SamplerKind",
    "SpectrumReport",
    "Trace",
    "UsageError",
    "WalkConfig",
    "WalkMatrix",
    "WalkTooLongError",
    "ZeroInclusionProbability",
    "aggregate_rows",
    "average_degree",
    "build_graph",
    "characteristic_polynomial",
    "cmd_analyze",
    "cmd_run",
    "cmd_stats",
    "cmd_sweep_budget",
    "cmd_sweep_c",
    "degree_distribution_estimate",
    "dense_transition_matrix",
    "derive_seed",
    "estimation_weights",
    "expected_repeat_probability",
    "graph_stats",
    "ht_ratio_estimate",
    "jump_set",
    "kl_divergence",
    "largest_connected_component",
    "load_edge_list",
    "make_rng",
    "parse_edge_list",
    "render_csv",
    "render_json",
    "resolve_cap",
    "reversibility_residual",
    "run_walk",
    "run_walks",
    "self_transition_probabilities",
    "spectrum",
    "stationary_closed_form",
    "stationary_numeric",
    "step",
    "transition_row",
    "true_degree_distribution",
    "tvd",
    "unique_count",
    "write_edge_list",
]
