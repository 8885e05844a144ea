"""combinf: exact combinatorial inference for comparing monotone graph
features, applied to minimum-spanning-tree shapes of connectivity networks."""

from ._kernels import backend as kernel_backend
from .connectivity import (
    ConnectivityMatrix,
    DataMatrix,
    TwinCohort,
    TwinMap,
    heritability_index,
    pearson_correlation_matrix,
    twin_edgewise_correlation,
)
from .errors import DataError, ValidationError
from .exact import DiscrepancyResult, discrepancy, exact_pvalue
from .mst import (
    SpanningForest,
    WeightMode,
    compare_msts,
    growth_curve,
    localize_nodes,
    mst_from_connectivity,
)
from .simulation import (
    ExperimentReport,
    RngStream,
    SimulationConfig,
    all_splits,
    permutation_test,
    run_combinatorial_trial,
    run_experiment,
    sampled_relabelings,
    simulate_modular_data,
    simulate_modular_pair,
)

__version__ = "0.1.0"

__all__ = [
    "ConnectivityMatrix", "DataError", "DataMatrix", "DiscrepancyResult",
    "ExperimentReport", "RngStream", "SimulationConfig", "SpanningForest",
    "TwinCohort", "TwinMap", "ValidationError", "WeightMode", "all_splits",
    "compare_msts", "discrepancy", "exact_pvalue", "growth_curve",
    "heritability_index", "kernel_backend", "localize_nodes",
    "mst_from_connectivity", "pearson_correlation_matrix",
    "permutation_test", "run_combinatorial_trial", "run_experiment",
    "sampled_relabelings", "simulate_modular_data",
    "simulate_modular_pair", "twin_edgewise_correlation",
]
