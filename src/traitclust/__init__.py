"""Categorical clustering and trait reporting for Likert-style survey data."""

from .dissimilarity import (
    CATEGORICAL,
    AttributeSpec,
    Prototype,
    simple_matching,
)
from .errors import (
    AlignmentError,
    DegenerateProfileError,
    InfeasibleConfigError,
    ParseError,
    ReportError,
    SchemaError,
)
from .kmodes import (
    CategoricalDataset,
    ClusterModel,
    FitConfig,
    elbow_scan,
    fit,
    init_modes,
    select_k,
    within_cluster_difference,
)
from .report import (
    ClusterLabeling,
    ClusterSummary,
    PercentReport,
    emit_report,
    fuse_profiles,
    label_clusters,
    mean_percentages,
    parse_report,
    personality_percentages,
)
from .survey import (
    PRESETS,
    ParseReport,
    ParseResult,
    ResponseTable,
    SurveyItem,
    SurveySchema,
    TraitProfile,
    dump_schema,
    generate_synthetic,
    load_schema,
    parse_responses,
    schema_to_dict,
    score_profile,
    score_profiles,
)

__version__ = "0.1.0"
