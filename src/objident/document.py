"""The structured run document: ``structured_chunks`` yields its text, and
``to_structured`` builds it as a dict whose rounds are read back from that
text.  The command line writes the text for ``--trace``, and imports this
module for those runs alone.  The rounds' matrices come from a walk of
their own, ``engine.walk_rounds``.  Only ``json.loads`` recurses, over the
rounds' 7 levels, so trees of any depth work.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring
from typing import Iterable, Iterator, Sequence

from .dendrogram import Dendrogram, _Memo
from .engine import MergeRound, walk_rounds
from .features import PatternMatrix
from .ingest import json_chunks
from .report import CandidateObjectReport


def _key_doc(key: Fraction) -> dict:
    return {"num": key.numerator, "den": key.denominator}


def _node_doc(d: Dendrogram) -> dict:
    """The nested label/height tree, built without recursion."""
    root: dict = {}
    # Each entry is a node id and the empty dict, already in place in its
    # parent's document, that becomes its own.
    stack = [(d.root, root)]
    while stack:
        nid, doc = stack.pop()
        node = d.nodes[nid]
        doc["label"] = node.label
        if node.is_leaf:
            continue
        kids = [{} for _ in node.children]
        doc.update(height=node.height.display, height_key=_key_doc(node.height.key),
                   round=node.round_index, children=kids)
        stack.extend(zip(d.ordered_children(nid), kids))
    return root


# The line break and indent before an item at each depth of the document.
_INDENT = ["\n" + "  " * depth for depth in range(8)]


def _list_text(texts: Iterable[str], depth: int) -> str:
    """json's text, at ``depth``, of a non-empty list whose items have
    ``texts`` at ``depth + 1``."""
    inner = _INDENT[depth + 1]
    return "[" + inner + ("," + inner).join(texts) + _INDENT[depth] + "]"


def _dict_text(items: Iterable[tuple[str, str]], depth: int) -> str:
    """json's text, at ``depth``, of a non-empty dict of (key, value text)
    ``items`` whose keys need no escapes."""
    inner = _INDENT[depth + 1]
    texts = ('"%s": %s' % item for item in items)
    return "{" + inner + ("," + inner).join(texts) + _INDENT[depth] + "}"


def _key_text(key: Fraction, depth: int) -> str:
    return _dict_text((("num", str(key.numerator)), ("den", str(key.denominator))), depth)


# A view's rows of cells: the text before its first row, between two rows,
# and after its last row, and the separator of two cells of a row.
_ROWS_OPEN = "[" + _INDENT[5] + "[" + _INDENT[6]
_ROWS_BETWEEN = _INDENT[5] + "]," + _INDENT[5] + "[" + _INDENT[6]
_ROWS_CLOSE = _INDENT[5] + "]" + _INDENT[4] + "]"
_CELL_SEP = "," + _INDENT[6]
# The most cells in a chunk of rows, unless one row holds more.
_CHUNK_CELLS = 512


def _rows_text(rows: list[list[str]], after: str) -> Iterable[str]:
    """The text of a round's ``display_values`` or ``exact_keys``, then
    ``after``, in chunks of a few rows.  ``rows`` holds, for each active
    cluster, the texts of its row of cells at their depth, 6.  A chunk is
    made by ``map``s of joins, with no Python step per row, and holds at
    most ``_CHUNK_CELLS`` cells or one row: the writer gets few texts, none
    of them large, and each row's join is copied once, into its chunk."""
    if len(rows) < 2:
        return ("[]" + after,)
    # Row p holds p < len(rows) cells.
    step = _CHUNK_CELLS // len(rows) or 1
    chunks = map(_ROWS_BETWEEN.join, (map(_CELL_SEP.join, rows[i:i + step])
                                      for i in range(1, len(rows), step)))
    return chain((_ROWS_OPEN, next(chunks)),
                 chain.from_iterable(zip(repeat(_ROWS_BETWEEN), chunks)),
                 (_ROWS_CLOSE + after,))


def to_structured(d: Dendrogram, trace: Sequence["MergeRound"], *,
                  schema=None, pattern: "PatternMatrix | None" = None,
                  report: "CandidateObjectReport | None" = None) -> dict:
    """Assemble the machine-readable output document, as a dict.

    Always contains ``rounds`` (per-round merges plus lower-triangle matrix
    snapshots with 2-decimal display values and exact rational keys) and
    ``dendrogram``; ``schema``, ``pattern_matrix``, and ``report`` sections
    are included when the corresponding inputs are given.

    ``canonical_json`` of it is exactly the text that ``structured_chunks``
    yields, which is what the command line writes.  Its ``rounds`` are
    that text read back by ``json.loads``, so the text's builder is the one
    builder of the rounds and every cell has a dict of its own.  That costs
    the whole text of the rounds at once and then a dict per cell, many
    times the time and memory of ``structured_chunks``, which is the way to
    the text.  The rounds nest 7 deep, and the nested ``dendrogram`` is
    built without recursion, for trees of any depth.
    """
    doc: dict = {}
    if schema is not None:
        doc["schema"] = {
            "subject_types": list(schema.subject_types),
            "relations": [
                {"label": r.label, "kind": r.kind.value, "subject": r.subject}
                for r in schema.relations
            ],
        }
    if pattern is not None:
        doc["pattern_matrix"] = {
            "row_labels": list(pattern.row_labels),
            "col_labels": list(pattern.col_labels),
            "rows": [[row >> c & 1 for c in range(pattern.n_cols)] for row in pattern.rows],
        }
    doc["rounds"] = json.loads("".join(_rounds_text(trace))) if trace else []
    doc["dendrogram"] = _node_doc(d)
    if report is not None:
        doc["report"] = report.to_doc()
    return doc


def _rounds_text(trace: Sequence["MergeRound"]) -> Iterator[str]:
    """The text of a non-empty ``rounds`` at depth 1, in chunks.

    The rows of cell texts are the two tables of ``engine.walk_rounds``,
    whose views give each distinct distance its display text and its
    ``{num, den}`` text once; ``_rows_text`` joins them into chunks of a
    few rows through C iterators, and ``chain`` passes the chunks on, so
    no Python frame runs per row.  Each round's head and ``labels`` are one
    chunk, formatted from the text of each label, made once by json's
    string encoder."""
    label = _Memo(encode_basestring)
    rounds = walk_rounds(trace, lambda e: encode_basestring(e.display),
                         lambda e: _key_text(e.key, 6))

    def parts() -> Iterator[Iterable[str]]:
        for index, (r, active, (display_rows, key_rows)) in enumerate(rounds):
            merges = [_dict_text((("label", label[m.new.label]),
                                  ("member_labels", _list_text(
                                      [label[c.label] for c in m.constituents], 5))), 4)
                      for m in r.merges]
            # The round's own text up to its matrix's first view.
            head = _dict_text((("round", str(r.round_index)),
                               ("min_display", encode_basestring(r.min_key.display)),
                               ("min_key", _key_text(r.min_key.key, 3)),
                               ("merges", _list_text(merges, 3)),
                               ("matrix", "")), 2)
            labels = _list_text([label[c.label] for c in active], 4)
            yield ((("," if index else "[") + _INDENT[2] + head[:-len(_INDENT[2]) - 1]
                    + '{%s"labels": %s,%s"display_values": ' % (_INDENT[4], labels, _INDENT[4])),)
            yield _rows_text(display_rows, ',%s"exact_keys": ' % _INDENT[4])
            yield _rows_text(key_rows, _INDENT[3] + "}" + _INDENT[2] + "}")
        yield (_INDENT[1] + "]",)

    # The walk changes its tables in place when it moves to the next
    # round, so each lazy map over them must be used up first: chain takes
    # the next part from ``parts`` only once the last one is exhausted.
    return chain.from_iterable(parts())


def structured_chunks(d: Dendrogram, trace: Sequence["MergeRound"], *,
                      schema=None, pattern: "PatternMatrix | None" = None,
                      report: "CandidateObjectReport | None" = None) -> Iterator[str]:
    """The text of ``canonical_json(to_structured(...))``, in chunks.

    Every section but ``rounds`` is ``json_chunks`` of its value in
    ``to_structured`` with no rounds, so no section is ever one string:
    the nested ``dendrogram`` is rendered a node at a time.  No round is
    built as a document: its head and ``labels`` are formatted from texts
    of json's string encoder, one per label, and the rows of
    ``display_values`` and of ``exact_keys`` are joins of cell texts, made
    once per distinct distance, in chunks of at most ``_CHUNK_CELLS`` cells
    or one row.  The snapshots come from the tables of cell texts of the
    engine's ``walk_rounds``, never from ``MergeRound.matrix_after``: a
    cluster's rows of cell texts are looked up once, when it is new, and
    then follow the merges, so a sequential run's O(n^3) snapshots cost
    O(n^2) lookups and O(n^3) joined cells.  They are rendered a chunk at a
    time and never held whole; the tables take two pointers per cell of
    the current round's matrix.  The chunks pass through C iterators
    (``map`` and ``chain``), so no Python frame runs per row of cells.
    """
    def sections() -> Iterator[Iterable[str]]:
        head = "{"
        for key, value in to_structured(d, (), schema=schema, pattern=pattern,
                                        report=report).items():
            yield ('%s%s"%s": ' % (head, _INDENT[1], key),)
            head = ","
            yield _rounds_text(trace) if key == "rounds" and trace else json_chunks(value, 1)
        yield ("\n}\n",)

    return chain.from_iterable(sections())
