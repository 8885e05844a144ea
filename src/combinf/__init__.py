"""combinf: exact combinatorial inference for comparing monotone graph
features, applied to minimum-spanning-tree shapes of connectivity networks."""

from ._kernels import backend as kernel_backend
from .connectivity import (
    ConnectivityMatrix,
    DataMatrix,
    TwinCohort,
    heritability_index,
    pearson_correlation_matrix,
    spearman_correlation,
    twin_edgewise_correlation,
)
from .errors import DataError, EnumerationLimitError, ValidationError
from .exact import (
    DiscrepancyResult,
    brute_force_pvalue,
    count_band_paths,
    discrepancy,
    exact_pvalue,
)
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
    permutation_test,
    run_combinatorial_trial,
    run_experiment,
    simulate_modular_data,
    simulate_modular_pair,
)

__version__ = "0.1.0"

__all__ = [
    "ConnectivityMatrix", "DataError", "DataMatrix", "DiscrepancyResult",
    "EnumerationLimitError", "ExperimentReport", "RngStream",
    "SimulationConfig", "SpanningForest", "TwinCohort",
    "ValidationError", "WeightMode", "brute_force_pvalue", "compare_msts",
    "count_band_paths", "discrepancy", "exact_pvalue", "growth_curve",
    "heritability_index", "kernel_backend", "localize_nodes",
    "mst_from_connectivity", "pearson_correlation_matrix", "permutation_test",
    "run_combinatorial_trial", "run_experiment", "simulate_modular_data",
    "simulate_modular_pair", "spearman_correlation",
    "twin_edgewise_correlation",
]
