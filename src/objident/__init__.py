"""Identify candidate objects in legacy procedural code.

Each function of a corpus is described by which record (struct) types it
returns, takes as arguments, and touches the fields of.  Those binary
relations form a pattern matrix; exact-arithmetic single-linkage
agglomerative clustering over it groups the functions that belong to the
same data structure, and each resulting cluster is proposed as a candidate
object together with the subject type it predominantly serves.
"""

__version__ = "0.1.0"

from .dendrogram import (
    Dendrogram,
    DendroNode,
    Partition,
    PartitionGroup,
    cut_height,
    cut_k,
    render_ascii,
    render_dot,
    to_structured,
)
from .engine import (
    ClusterId,
    ClusterResult,
    Linkage,
    Merge,
    MergePolicy,
    MergeRound,
    ProximityMatrix,
    cluster,
    initial_proximity,
    linkage_from_name,
    policy_from_name,
)
from .errors import (
    ConfigError,
    InputOutputError,
    ObjidentError,
    ParseError,
    ValidationError,
)
from .declarations import parse_declarations
from .features import (
    ComponentRecord,
    PatternMatrix,
    Relation,
    RelationKind,
    RelationSchema,
    build_pattern_matrix,
    derive_relations,
)
from .ingest import (
    DendrogramFormat,
    InputKind,
    RunConfig,
    canonical_json,
    components_document,
    execute,
    parse_components,
    parse_cut_spec,
    run,
    write_text_atomic,
)
from .metrics import (
    ExactDissimilarity,
    Metric,
    distance,
    euclidean,
    hamming,
    jaccard,
    manhattan,
    metric_from_name,
    simple_matching,
)
from .report import CandidateObjectReport, ClusterAttribution, label_clusters

__all__ = [
    "__version__",
    "CandidateObjectReport",
    "ClusterAttribution",
    "ClusterId",
    "ClusterResult",
    "ComponentRecord",
    "ConfigError",
    "Dendrogram",
    "DendroNode",
    "DendrogramFormat",
    "ExactDissimilarity",
    "InputKind",
    "InputOutputError",
    "Linkage",
    "Merge",
    "MergePolicy",
    "MergeRound",
    "Metric",
    "ObjidentError",
    "ParseError",
    "Partition",
    "PartitionGroup",
    "PatternMatrix",
    "ProximityMatrix",
    "Relation",
    "RelationKind",
    "RelationSchema",
    "RunConfig",
    "ValidationError",
    "build_pattern_matrix",
    "canonical_json",
    "cluster",
    "components_document",
    "cut_height",
    "cut_k",
    "derive_relations",
    "distance",
    "euclidean",
    "execute",
    "hamming",
    "initial_proximity",
    "jaccard",
    "label_clusters",
    "linkage_from_name",
    "manhattan",
    "metric_from_name",
    "parse_components",
    "parse_cut_spec",
    "parse_declarations",
    "policy_from_name",
    "render_ascii",
    "render_dot",
    "run",
    "simple_matching",
    "to_structured",
    "write_text_atomic",
]
