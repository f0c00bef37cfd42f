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


_encode_str = json.encoder.encode_basestring
# json's own text for scalars, keys and containers of scalars.  Its item
# separator is a line break, and json escapes every line break inside a
# string, so indenting its text at a depth is one ``replace``.
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",\n", ": ")).encode
_CONTAINERS = (dict, list, tuple)


def canonical_json(doc) -> str:
    """The one JSON form used for every document this package writes:
    exactly ``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"``.

    Written with an explicit stack, so nesting depth is not limited by the
    interpreter's recursion limit.  The text of each scalar, key and
    container of scalars comes from json's encoder.  A dict of scalars is
    rendered once per object and depth and its text reused, and a list of
    such dicts is joined in one step; ``to_structured`` shares one
    ``{num, den}`` dict between all cells at one distance, so each distinct
    key is rendered once per depth.  The document must not change during
    the call.
    """
    # Per depth: the line break before an item, and id(dict) -> text of each
    # dict of scalars rendered there.
    newlines = ["\n"]
    flat_dicts: list[dict[int, str]] = [{}]

    def newline(depth: int) -> str:
        while len(newlines) <= depth:
            newlines.append(newlines[-1] + "  ")
            flat_dicts.append({})
        return newlines[depth]

    def indented(text: str, depth: int) -> str:
        """The encoder's text of a non-empty container, indented at ``depth``."""
        inner = newline(depth + 1)
        return text[0] + inner + text[1:-1].replace("\n", inner) + newlines[depth] + text[-1]

    def flat_item(value, depth: int) -> str | None:
        """Text at ``depth`` of a scalar, an empty container or a dict of
        scalars; None for anything else."""
        if not isinstance(value, _CONTAINERS) or not value:
            return _encode(value)
        if not isinstance(value, dict):
            return None
        text = flat_dicts[depth].get(id(value))
        if text is None:
            if any(isinstance(item, _CONTAINERS) for item in value.values()):
                return None
            text = flat_dicts[depth][id(value)] = indented(_encode(value), depth)
        return text

    def flat(value, depth: int) -> str | None:
        """Text at ``depth`` of a value that needs no frame: what
        ``flat_item`` takes, or a list of scalars or of those; None for any
        other value."""
        if not isinstance(value, (list, tuple)) or not value:
            return flat_item(value, depth)
        inner = newline(depth + 1)
        kinds = set(map(type, value))
        if kinds == {str}:
            parts = map(_encode_str, value)
        else:
            parts = list(map(flat_dicts[depth + 1].get, map(id, value)))
            if None in parts:
                if not any(issubclass(kind, _CONTAINERS) for kind in kinds):
                    return indented(_encode(value), depth)
                parts = [flat_item(item, depth + 1) if text is None else text
                         for text, item in zip(parts, value)]
                if None in parts:
                    return None
        return "[" + inner + ("," + inner).join(parts) + newlines[depth] + "]"

    out: list[str] = []
    open_ids: set[int] = set()
    # Frames: [items iterator, is a dict, depth of its items, the container,
    # the text before its next item].
    stack: list[list] = []

    def write(value, depth: int) -> None:
        text = flat(value, depth)
        if text is not None:
            out.append(text)
            return
        if id(value) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(value))
        is_dict = isinstance(value, dict)
        out.append("{" if is_dict else "[")
        stack.append([iter(value.items() if is_dict else value), is_dict,
                      depth + 1, value, newline(depth + 1)])

    write(doc, 0)
    while stack:
        frame = stack[-1]
        items, is_dict, depth = frame[0], frame[1], frame[2]
        separator = "," + newlines[depth]
        for item in items:
            out.append(frame[4])
            frame[4] = separator
            if is_dict:
                key, item = item
                # Any other key: json's text of {key: 0} less "{" and ": 0}".
                out.append((_encode_str(key) if isinstance(key, str)
                            else _encode({key: 0})[1:-4]) + ": ")
            write(item, depth)
            if stack[-1] is not frame:
                break
        else:
            stack.pop()
            open_ids.discard(id(frame[3]))
            out.append(newlines[depth - 1] + ("}" if is_dict else "]"))
    out.append("\n")
    return "".join(out)


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
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", location="document") from None
    except ValueError:  # an integer longer than int() may convert
        raise ParseError("invalid JSON: a number is too long", location="document") from None
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
    primitive = sorted({"void", "int"} & set(subjects))
    if primitive:
        raise ParseError(f"{primitive[0]!r} is a primitive type, not a subject type",
                         location="subject_types")

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
    """A UTF-8 file's text, with every line end read as ``\\n`` as in text mode."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputOutputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: cannot decode byte 0x{data[exc.start]:02x} "
                         f"at byte offset {exc.start}", location=str(path)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_texts_atomic(outputs: Iterable[tuple[Path | str, str]]) -> None:
    """Write each (path, text) pair to a sibling temp file, then rename them
    all.  Nothing is renamed until every write has succeeded, and a failure
    removes every temp file and then every directory the call made, deepest
    first, so a failed call leaves no output behind.  A target that exists
    but is not a regular file is refused before anything is written: a
    directory would fail only at its rename, and a FIFO, socket or device
    would be replaced by it.  Each file gets the mode a plain
    ``open(path, "w")`` would give it, 0o666 less the umask."""
    umask = os.umask(0)
    os.umask(umask)
    outputs = [(Path(path), text) for path, text in outputs]
    staged: list[tuple[str, Path]] = []
    made: list[Path] = []
    path = None
    try:
        try:
            for path, _ in outputs:
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                if path.exists() and not path.is_file():
                    raise OSError("not a regular file")
            for path, text in outputs:
                for folder in reversed((path.parent, *path.parent.parents)):
                    if not folder.is_dir():
                        folder.mkdir()
                        made.append(folder)
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
                staged.append((tmp, path))
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    os.fchmod(fd, 0o666 & ~umask)
                    handle.write(text)
            for tmp, path in staged:
                os.replace(tmp, path)
        except BaseException:
            for tmp, _ in staged:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            for folder in reversed(made):
                with contextlib.suppress(OSError):
                    folder.rmdir()
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
            size = int(value)
        except ValueError:
            raise ConfigError(f"invalid cut size {value!r}") from None
        if size < 1:
            raise ConfigError("cut size must be >= 1")
        return "k", size
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
        flags = {os.path.realpath(self.input_path): "--input"}
        for flag, path in (("--trace", self.trace_path), ("--dendrogram", self.dendrogram_path),
                           ("--report", self.report_path)):
            if path is not None:
                other = flags.setdefault(os.path.realpath(path), flag)
                if other != flag:
                    raise ConfigError(f"{other} and {flag} name the same file {str(path)!r}")


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
    appears unless all of them could be written.  They are in place before
    the summary is printed, so a failing ``out`` (an InputOutputError)
    leaves them complete.
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

    lines = _summary_lines(config, pattern, trace, partition, report)
    try:
        for line in lines:
            print(line, file=out)
        out.flush()
    except OSError as exc:
        raise InputOutputError(
            f"cannot write the summary to stdout: {exc.strerror or exc}") from exc

