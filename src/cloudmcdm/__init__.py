"""Multi-criteria evaluation toolkit: AHP with automatic judgment-matrix repair,
entropy weighting, deviation-square-sum weight fusion, and normal cloud model
scoring with grade assignment by maximum similarity."""

__version__ = "0.1.0"

from .hierarchy import IndexHierarchy, IndicatorNode, leaf_indicators, load_hierarchy, validate_hierarchy
from .dataprep import DataMatrix, load_data_csv, min_max_normalize
from .ewm import WeightVector, entropy_weights
from .iahp import (
    RepairConfig,
    RepairError,
    RepairTrace,
    auto_correct,
    consistency_ratio,
    from_preference,
    principal_weights,
    to_preference,
)
from .combiner import CombinationResult, combine_weights, deviation_matrix
from .cloud import (
    CloudParams,
    DropletSet,
    GradeScheme,
    aggregate_clouds,
    assign_grade,
    cloud_similarity,
    forward_cloud,
    grade_cloud,
    grade_clouds,
    indicator_cloud,
    load_scheme,
)
from .fce import fce_score, triangular_memberships
from .pipeline import EvaluationReport, PipelineConfig, compare_scenarios, run_pipeline
