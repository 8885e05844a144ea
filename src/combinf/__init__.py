"""combinf: exact combinatorial inference for comparing monotone graph
features, applied to minimum-spanning-tree shapes of connectivity networks."""

from ._kernels import backend as kernel_backend
from .connectivity import (
    ConnectivityMatrix,
    DataMatrix,
    HeritabilityMap,
    TwinCohort,
    heritability_index,
    pearson_correlation_matrix,
    spearman_correlation,
    twin_edgewise_correlation,
)
from .errors import DataError, EnumerationLimitError, ValidationError
from .exact import (
    BandCountTable,
    DiscrepancyResult,
    ExactPValue,
    MonotoneSequence,
    StepFunction,
    binomial,
    brute_force_pvalue,
    build_step_function,
    count_band_paths,
    discrepancy,
    exact_pvalue,
)
from .mst import (
    MstComparison,
    SpanningForest,
    WeightedGraph,
    WeightMode,
    compare_msts,
    growth_curve,
    kruskal_mst,
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
    "BandCountTable", "ConnectivityMatrix", "DataError", "DataMatrix",
    "DiscrepancyResult", "EnumerationLimitError", "ExactPValue",
    "ExperimentReport", "HeritabilityMap", "MonotoneSequence",
    "MstComparison", "RngStream", "SimulationConfig", "SpanningForest",
    "StepFunction", "TwinCohort", "ValidationError", "WeightMode",
    "WeightedGraph", "binomial", "brute_force_pvalue",
    "build_step_function", "compare_msts", "count_band_paths", "discrepancy",
    "exact_pvalue", "growth_curve", "heritability_index", "kernel_backend",
    "kruskal_mst", "localize_nodes", "mst_from_connectivity",
    "pearson_correlation_matrix", "permutation_test",
    "run_combinatorial_trial", "run_experiment", "simulate_modular_data",
    "simulate_modular_pair", "spearman_correlation",
    "twin_edgewise_correlation",
]
