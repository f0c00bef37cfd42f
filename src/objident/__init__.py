"""Identify candidate objects in legacy procedural code.

Each function of a corpus is described by which record (struct) types it
returns, takes as arguments, and touches the fields of.  Those binary
relations form a pattern matrix; exact-arithmetic single-linkage
agglomerative clustering over it groups the functions that belong to the
same data structure, and each resulting cluster is proposed as a candidate
object together with the subject type it predominantly serves.
"""

__version__ = "0.1.0"

# The module that defines each public name.  A name is imported on its
# first access (PEP 562), so ``import objident`` loads no submodule and a
# command-line run compiles only the modules it uses.
_HOMES = {name: module for module, names in (
    ("declarations", "parse_declarations"),
    ("dendrogram", "cut_height cut_k render_ascii render_dot"),
    ("document", "to_structured"),
    ("engine", "MergePolicy cluster initial_proximity policy_from_name"),
    ("errors", "ConfigError InputOutputError ObjidentError ParseError ValidationError"),
    ("features", "ComponentRecord build_pattern_matrix derive_relations"),
    ("ingest", "canonical_json components_document parse_components parse_cut_spec "
               "write_text_atomic"),
    ("metrics", "Metric distance metric_from_name"),
    ("report", "label_clusters"),
) for name in names.split()}

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


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
