"""On-disk formats and the end-to-end pipeline driver.

Defines the components document (JSON with ``subject_types`` and
``components`` keys), the canonical JSON writer used for every structured
output, and ``execute``, which drives parse -> relation schema -> pattern
matrix -> clustering -> optional cut and report, writing all requested
outputs atomically (every output to a temp file first, then all renamed).
"""

from __future__ import annotations

import contextlib
import enum
import errno
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from . import dendrogram as dendro
from .declarations import parse_declarations
from .engine import MergePolicy, cluster
from .errors import ConfigError, InputOutputError, ParseError
from .features import ComponentRecord, build_pattern_matrix, derive_relations
from .metrics import Metric
from .report import label_clusters


def canonical_json(doc) -> str:
    """The one JSON form used for every document this package writes."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Components document
# ---------------------------------------------------------------------------

def components_document(subject_types: Sequence[str],
                        records: Sequence[ComponentRecord]) -> dict:
    """Serializable form of a corpus; uses_fields is emitted sorted."""
    return {
        "subject_types": list(subject_types),
        "components": [
            {
                "name": r.name,
                "returns": r.returns,
                "args": list(r.args),
                "uses_fields": sorted(r.uses_fields),
            }
            for r in records
        ],
    }


def _string_list(value, location: str, *, allow_empty: bool) -> list[str]:
    if not isinstance(value, list) or any(not isinstance(v, str) or not v for v in value):
        raise ParseError("expected a list of non-empty strings", location=location)
    if not value and not allow_empty:
        raise ParseError("list must be non-empty", location=location)
    return value


_COMPONENT_KEYS = {"name", "returns", "args", "uses_fields"}


def parse_components(text: str) -> tuple[tuple[str, ...], tuple[ComponentRecord, ...]]:
    """Parse a components document into subject types plus records.

    Schema violations raise ParseError with the offending field path (for
    malformed JSON, the line and column).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ParseError("expected a top-level object", location="document")
    unknown = sorted(set(doc) - {"subject_types", "components"})
    if unknown:
        raise ParseError(f"unknown top-level key(s): {', '.join(unknown)}",
                         location="document")
    for key in ("subject_types", "components"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}", location="document")

    subjects = _string_list(doc["subject_types"], "subject_types", allow_empty=False)
    if len(set(subjects)) != len(subjects):
        raise ParseError("subject types must be unique", location="subject_types")

    if not isinstance(doc["components"], list) or not doc["components"]:
        raise ParseError("expected a non-empty list", location="components")
    records = []
    names = set()
    for index, entry in enumerate(doc["components"]):
        where = f"components[{index}]"
        if not isinstance(entry, dict):
            raise ParseError("expected an object", location=where)
        unknown = sorted(set(entry) - _COMPONENT_KEYS)
        if unknown:
            raise ParseError(f"unknown key(s): {', '.join(unknown)}", location=where)
        if "name" not in entry or not isinstance(entry["name"], str) or not entry["name"]:
            raise ParseError("missing or empty 'name'", location=where)
        name = entry["name"]
        if name in names:
            raise ParseError(f"duplicate component name {name!r}", location=where)
        names.add(name)
        returns = entry.get("returns")
        if returns is not None and (not isinstance(returns, str) or not returns):
            raise ParseError("'returns' must be a non-empty string or null",
                             location=f"{where}.returns")
        args = _string_list(entry.get("args", []), f"{where}.args", allow_empty=True)
        uses = _string_list(entry.get("uses_fields", []), f"{where}.uses_fields",
                            allow_empty=True)
        bad = sorted(set(uses) - set(subjects))
        if bad:
            raise ParseError(
                f"unknown subject type(s) in uses_fields: {', '.join(bad)}",
                location=f"{where}.uses_fields")
        records.append(ComponentRecord(name, returns, tuple(args), frozenset(uses)))
    return tuple(subjects), tuple(records)


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

def read_text(path: Path | str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputOutputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def write_texts_atomic(outputs: Iterable[tuple[Path | str, str]]) -> None:
    """Write each (path, text) pair to a sibling temp file, then rename them
    all.  Nothing is renamed until every write has succeeded, and a failure
    removes every temp file, so a failed call leaves no output behind.  A
    target that is a directory, which would fail only at its rename, is
    refused before anything is written."""
    staged: list[tuple[str, Path]] = []
    path = None
    try:
        try:
            for path, text in outputs:
                path = Path(path)
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
                staged.append((tmp, path))
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
            for tmp, path in staged:
                os.replace(tmp, path)
        except BaseException:
            for tmp, _ in staged:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputOutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_text_atomic(path: Path | str, text: str) -> None:
    """Write one file via a sibling temp file plus rename, so a failure
    leaves no partial output behind."""
    write_texts_atomic([(path, text)])


# ---------------------------------------------------------------------------
# Run configuration and pipeline
# ---------------------------------------------------------------------------

class InputKind(enum.Enum):
    COMPONENTS = "components"
    DECLARATIONS = "decls"


class DendrogramFormat(enum.Enum):
    ASCII = "ascii"
    DOT = "dot"
    STRUCTURED = "structured"


def parse_cut_spec(text: str) -> tuple[str, int | Fraction]:
    """Parse 'k:<int>' or 'h:<decimal>' into a (mode, value) pair."""
    mode, sep, value = text.partition(":")
    if not sep or mode not in ("k", "h"):
        raise ConfigError(f"invalid cut spec {text!r} (expected k:<int> or h:<decimal>)")
    if mode == "k":
        try:
            return "k", int(value)
        except ValueError:
            raise ConfigError(f"invalid cut size {value!r}") from None
    try:
        height = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"invalid cut height {value!r}") from None
    if height < 0:
        raise ConfigError("cut height must be >= 0")
    return "h", height


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline invocation needs."""

    input_path: Path
    input_kind: InputKind
    metric: Metric = Metric.EUCLIDEAN
    policy: MergePolicy = MergePolicy.SEQUENTIAL
    cut: tuple[str, int | Fraction] | None = None
    trace_path: Path | None = None
    dendrogram_path: Path | None = None
    dendrogram_format: DendrogramFormat = DendrogramFormat.ASCII
    report_path: Path | None = None

    def __post_init__(self):
        if self.report_path is not None and self.cut is None:
            raise ConfigError("--report requires --cut (a report labels a flat partition)")


def _summary_lines(config: RunConfig, pattern, trace, partition, report) -> list[str]:
    lines = [
        f"components: {pattern.n_rows}, relations: {pattern.n_cols}, "
        f"metric: {config.metric.value}, policy: {config.policy.value}, "
        "linkage: single"
    ]
    for merge_round in trace:
        merges = "; ".join(
            f"{m.new.label} = " + " + ".join(c.label for c in m.constituents)
            for m in merge_round.merges)
        lines.append(f"round {merge_round.round_index} @ {merge_round.min_key.display}: {merges}")
    if partition is not None:
        mode, value = config.cut
        lines.append(f"cut {mode}:{value} -> {len(partition)} group(s)")
        for group in partition:
            lines.append(f"  {group.label}: " + ", ".join(group.members))
    if report is not None:
        for entry in report.entries:
            subject = entry.dominant_subject or ("ambiguous: " + ", ".join(entry.tied_subjects))
            lines.append(f"  {entry.cluster_label} -> {subject} "
                         f"(affinity {entry.affinity.numerator}/{entry.affinity.denominator})")
    return lines


def execute(config: RunConfig, *, out=None, err=None) -> None:
    """Run the pipeline, writing outputs and a stdout summary.

    Raises ObjidentError subclasses on any failure; output files are
    written only after all computation has succeeded, and together: none
    appears unless all of them could be written.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr

    text = read_text(config.input_path)
    if config.input_kind is InputKind.COMPONENTS:
        subjects, records = parse_components(text)
    else:
        subjects, records = parse_declarations(text)
        if records and not any(r.uses_fields for r in records):
            print("warning: no '! uses:' annotations found; "
                  "field-usage columns will be all zero", file=err)

    schema = derive_relations(subjects)
    pattern = build_pattern_matrix(records, schema)
    dend, trace = cluster(pattern, config.metric, config.policy)

    partition = None
    report = None
    if config.cut is not None:
        mode, value = config.cut
        partition = (dendro.cut_k(dend, value) if mode == "k"
                     else dendro.cut_height(dend, value))
        if config.report_path is not None:
            report = label_clusters(partition, pattern, schema)

    structured = None
    if config.trace_path is not None or (
            config.dendrogram_path is not None
            and config.dendrogram_format is DendrogramFormat.STRUCTURED):
        structured = canonical_json(dendro.to_structured(
            dend, trace, schema=schema, pattern=pattern, report=report))

    outputs = []
    if config.trace_path is not None:
        outputs.append((config.trace_path, structured))
    if config.dendrogram_path is not None:
        if config.dendrogram_format is DendrogramFormat.ASCII:
            outputs.append((config.dendrogram_path, dendro.render_ascii(dend)))
        elif config.dendrogram_format is DendrogramFormat.DOT:
            outputs.append((config.dendrogram_path, dendro.render_dot(dend)))
        else:
            outputs.append((config.dendrogram_path, structured))
    if config.report_path is not None:
        outputs.append((config.report_path, canonical_json(report.to_doc())))
    write_texts_atomic(outputs)

    for line in _summary_lines(config, pattern, trace, partition, report):
        print(line, file=out)

