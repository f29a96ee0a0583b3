"""Responsibility modelling toolkit.

Parse ``.resp`` responsibility models, detect vulnerabilities, drive
structured information-requirements elicitation, generate information-
hazard worksheets, and emit traced requirement reports, tables and
diagrams.
"""

from .analysis import (
    Finding,
    InconsistencyKind,
    PerceptionInconsistency,
    diff_models,
    run_all,
)
from .build import ModelBuildError, build_model, load_model
from .dsl import (
    ElicitationRecord,
    ParseFailure,
    SourceSpan,
    parse_answers,
    parse_model,
    parse_requirements,
    print_model,
    print_requirements,
)
from .elicitation import (
    IngestError,
    answers_skeleton,
    information_recorded_table,
    information_required_table,
    ingest_all,
)
from .hazards import coverage, derive_mitigations, generate_worksheet
from .model import (
    Agent,
    AgentKind,
    Channel,
    GuideWord,
    HazardEntry,
    InfoNeed,
    InfoProduct,
    InfoTable,
    InputError,
    Model,
    Problem,
    RequirementRecord,
    Resource,
    ResourceKind,
    Responsibility,
    Severity,
    TraceRef,
    UnknownResponsibility,
    slugify,
    validate,
)
from .reporting import (
    TraceResolutionError,
    diff_report,
    findings_report,
    requirements_report,
    table_to_csv,
    table_to_markdown,
    to_dot,
    worksheet_table,
)

__version__ = "0.1.0"
