"""Streaming analytics over case registries and sequence metadata.

The pipeline is ingest -> metrics/genomics -> report: streaming readers
decode rows into typed records, mergeable accumulators and tallies reduce
them, and the report module renders the standard tables deterministically.
``episurv.fixtures`` (imported on its own, not re-exported here) generates
synthetic datasets whose re-aggregation reproduces given marginal tables
exactly.
"""

from .schema import (
    CaseClassification,
    CodedFlag,
    PatientRecord,
    STATE_NAMES,
    Sex,
    SuspectType,
    TreatmentStrategy,
    is_positive,
    suspect_type,
)
from .ingest import (
    GisaidStream,
    IngestStats,
    MissingRequiredColumn,
    RowError,
    SampleRecord,
    SveervStream,
    ingest_gisaid,
    ingest_sveerv,
    validate_report,
)
from .metrics import (
    AgeGroup,
    CaseCounts,
    CohortFilter,
    MetricsReport,
    PositivityMode,
    RankMetric,
    SeverityCriterion,
    StratumKey,
    Subcohort,
    UndefinedForEmptyCohort,
    accumulate,
    age_group,
    build_report,
    comorbidity_profile,
    fatality_rate,
    merge,
    positivity_index,
    rank_states,
    severity_rates,
    stratified_report,
)
from .genomics import (
    DEFAULT_CATALOG,
    PangoPattern,
    StatusBucket,
    VariantCatalog,
    VariantCategory,
    VariantDefinition,
    VariantShares,
    bucket_status,
    classify_sample,
    clade_crosstab,
    fold_text,
    full_crosstab,
    load_catalog,
    matches,
    parse_pattern,
    state_summary,
    status_crosstab,
    variant_shares,
)
from .report import ShapeMismatch, TableId, format_pct, render

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # schema
    "CaseClassification", "CodedFlag", "PatientRecord", "STATE_NAMES", "Sex",
    "SuspectType", "TreatmentStrategy", "is_positive", "suspect_type",
    # ingest
    "GisaidStream", "IngestStats", "MissingRequiredColumn", "RowError",
    "SampleRecord", "SveervStream", "ingest_gisaid", "ingest_sveerv", "validate_report",
    # metrics
    "AgeGroup", "CaseCounts", "CohortFilter", "MetricsReport", "PositivityMode",
    "RankMetric", "SeverityCriterion", "StratumKey", "Subcohort",
    "UndefinedForEmptyCohort", "accumulate", "age_group", "build_report",
    "comorbidity_profile", "fatality_rate", "merge", "positivity_index",
    "rank_states", "severity_rates", "stratified_report",
    # genomics
    "DEFAULT_CATALOG", "PangoPattern", "StatusBucket", "VariantCatalog",
    "VariantCategory", "VariantDefinition", "VariantShares", "bucket_status",
    "classify_sample", "clade_crosstab", "fold_text", "full_crosstab",
    "load_catalog", "matches", "parse_pattern", "state_summary",
    "status_crosstab", "variant_shares",
    # report
    "ShapeMismatch", "TableId", "format_pct", "render",
]
