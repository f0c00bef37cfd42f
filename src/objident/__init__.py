"""Identify candidate objects in legacy procedural code.

Each function of a corpus is described by which record (struct) types it
returns, takes as arguments, and touches the fields of.  Those binary
relations form a pattern matrix; exact-arithmetic single-linkage
agglomerative clustering over it groups the functions that belong to the
same data structure, and each resulting cluster is proposed as a candidate
object together with the subject type it predominantly serves.
"""

__version__ = "0.1.0"

from .declarations import parse_declarations
from .dendrogram import cut_height, cut_k, render_ascii, render_dot, to_structured
from .engine import MergePolicy, cluster, initial_proximity, policy_from_name
from .errors import (
    ConfigError,
    InputOutputError,
    ObjidentError,
    ParseError,
    ValidationError,
)
from .features import ComponentRecord, build_pattern_matrix, derive_relations
from .ingest import (
    canonical_json,
    components_document,
    parse_components,
    parse_cut_spec,
    write_text_atomic,
)
from .metrics import Metric, distance, metric_from_name
from .report import label_clusters

__all__ = [
    "__version__",
    "ComponentRecord",
    "ConfigError",
    "InputOutputError",
    "MergePolicy",
    "Metric",
    "ObjidentError",
    "ParseError",
    "ValidationError",
    "build_pattern_matrix",
    "canonical_json",
    "cluster",
    "components_document",
    "cut_height",
    "cut_k",
    "derive_relations",
    "distance",
    "initial_proximity",
    "label_clusters",
    "metric_from_name",
    "parse_components",
    "parse_cut_spec",
    "parse_declarations",
    "policy_from_name",
    "render_ascii",
    "render_dot",
    "to_structured",
    "write_text_atomic",
]
