"""Cluster regions by epidemic time-series behaviour and by scalar features,
quantify cluster stability across fixed time windows, and score each feature's
agreement with the epidemic clusters against a Monte Carlo random-label null.
"""

from .align import (
    AlignmentResult,
    BalanceDiagnostic,
    BaselineResult,
    balance_check,
    best_permutation_dissimilarity,
    random_baseline,
)
from .cluster import (
    ClusterAssignment,
    KMeansConfig,
    SpectralConfig,
    cluster_scalar_feature,
    eigengap_suggest_k,
    kmeans,
    laplacian,
    rbf_affinity,
    spectral_cluster,
    spectral_from_affinity,
)
from .ingest import (
    EpicurveMatrix,
    FeatureTable,
    IngestError,
    load_epicurves,
    load_features,
    split_windows,
    write_epicurves,
    write_features,
    write_populations,
)
from .pipeline import (
    AssociationCell,
    AssociationReport,
    StabilityMatrix,
    feature_association,
    select_technique,
    temporal_stability,
)
from .preprocess import (
    PREPROCESS_KINDS,
    apply_preprocess,
    minmax_global,
    minmax_rows,
    population_normalize,
    zscore_rows,
)
from .synth import Fixture, generate_fixture, write_fixture

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "AssociationCell",
    "AssociationReport",
    "BalanceDiagnostic",
    "BaselineResult",
    "ClusterAssignment",
    "EpicurveMatrix",
    "FeatureTable",
    "Fixture",
    "IngestError",
    "KMeansConfig",
    "PREPROCESS_KINDS",
    "SpectralConfig",
    "StabilityMatrix",
    "apply_preprocess",
    "balance_check",
    "best_permutation_dissimilarity",
    "cluster_scalar_feature",
    "eigengap_suggest_k",
    "feature_association",
    "generate_fixture",
    "kmeans",
    "laplacian",
    "load_epicurves",
    "load_features",
    "minmax_global",
    "minmax_rows",
    "population_normalize",
    "random_baseline",
    "rbf_affinity",
    "select_technique",
    "spectral_cluster",
    "spectral_from_affinity",
    "split_windows",
    "temporal_stability",
    "write_epicurves",
    "write_features",
    "write_fixture",
    "write_populations",
    "zscore_rows",
]
