"""catamerge: schema integration through theory extensions and the chase.

Schemas are presentations of multi-sorted theories (entities, foreign keys,
attributes, Horn constraints). An extension declares how schemas relate —
entity identifications plus bridge constraints — and the engine computes the
combined schema, pushes source data into it, saturates with a chase, and
answers conjunctive queries over the result.
"""

from .chase import (
    ChaseConfig,
    ChaseResult,
    ChaseTrace,
    chase,
    fire_once,
    replay,
    verify_universality,
)
from .errors import (
    CatamergeError,
    ChasePreconditionError,
    ConstantClash,
    IdentificationCollision,
    InstanceError,
    QueryError,
    SchemaError,
)
from .instance import (
    AttrValue,
    ElementId,
    Instance,
    NullRef,
    UNDEFINED,
    check_model,
    eval_path,
    instances_same_data,
    new_instance,
)
from .integrate import (
    CombinedSchema,
    RoundTripReport,
    combine_schemas,
    delta_project,
    roundtrip_report,
    sigma_insert,
    validate_extension,
)
from .parser import (
    Diagnostic,
    Document,
    SourceDocument,
    parse_constraint,
    parse_document,
    parse_extension,
    parse_instance,
    parse_query,
    parse_schema,
)
from .printer import aligned_table, instance_csvs, print_canonical, result_table_csv
from .query import JoinPlan, QuerySpec, ResultTable, evaluate, explain
from .schema import (
    Attribute,
    Constraint,
    Const,
    ExtensionSpec,
    ForeignKey,
    Identification,
    Path,
    Schema,
    ValidationReport,
    check_weak_acyclicity,
    classify_constraint,
    compose_paths,
    validate_schema,
)
from .typeside import BaseType, levenshtein

__version__ = "0.1.0"

__all__ = [
    "AttrValue",
    "Attribute",
    "BaseType",
    "CatamergeError",
    "ChaseConfig",
    "ChasePreconditionError",
    "ChaseResult",
    "ChaseTrace",
    "CombinedSchema",
    "Const",
    "Constraint",
    "ConstantClash",
    "Diagnostic",
    "Document",
    "ElementId",
    "ExtensionSpec",
    "ForeignKey",
    "Identification",
    "IdentificationCollision",
    "Instance",
    "InstanceError",
    "JoinPlan",
    "NullRef",
    "Path",
    "QueryError",
    "QuerySpec",
    "ResultTable",
    "RoundTripReport",
    "Schema",
    "SchemaError",
    "SourceDocument",
    "UNDEFINED",
    "ValidationReport",
    "aligned_table",
    "chase",
    "check_model",
    "check_weak_acyclicity",
    "classify_constraint",
    "combine_schemas",
    "compose_paths",
    "delta_project",
    "eval_path",
    "evaluate",
    "explain",
    "fire_once",
    "instance_csvs",
    "instances_same_data",
    "levenshtein",
    "new_instance",
    "parse_constraint",
    "parse_document",
    "parse_extension",
    "parse_instance",
    "parse_query",
    "parse_schema",
    "print_canonical",
    "replay",
    "result_table_csv",
    "roundtrip_report",
    "sigma_insert",
    "validate_extension",
    "validate_schema",
    "verify_universality",
]
