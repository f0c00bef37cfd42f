"""Merge tree: flat cuts and ASCII / DOT / structured-document renderings,
the last both as a dict and as the chunks of its text.

Node ids follow creation order (leaves 0..n-1, merged clusters n, n+1, ...),
so a child's id is always smaller than its parent's.  All renderings are
pure functions of the tree; child ordering in every rendering is canonical
(by smallest leaf id in the subtree) so output is byte-deterministic.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ValidationError
from .metrics import ExactDissimilarity

if TYPE_CHECKING:
    from .engine import MergeRound
    from .features import PatternMatrix
    from .report import CandidateObjectReport


class DendroNode(NamedTuple):
    """One tree node; leaves have no children and no height."""

    id: int
    label: str
    children: tuple[int, ...] = ()
    height: ExactDissimilarity | None = None
    round_index: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Dendrogram(NamedTuple("Dendrogram", [
        ("nodes", Mapping[int, DendroNode]), ("root", int), ("n_leaves", int)])):
    """The full merge tree over ``n_leaves`` original components."""

    # A subclass of the tuple has the __dict__ that cached_property needs.
    @cached_property
    def _min_leaf(self) -> dict[int, int]:
        # Children ids precede parent ids, so one ascending pass suffices.
        low: dict[int, int] = {}
        for nid in sorted(self.nodes):
            kids = self.nodes[nid].children
            low[nid] = min(map(low.__getitem__, kids)) if kids else nid
        return low

    def members(self, node_id: int) -> frozenset[int]:
        """Leaf ids of the subtree at ``node_id``, by an explicit-stack walk."""
        leaves = []
        stack = [node_id]
        while stack:
            nid = stack.pop()
            kids = self.nodes[nid].children
            if kids:
                stack.extend(kids)
            else:
                leaves.append(nid)
        return frozenset(leaves)

    def leaf_labels(self, node_id: int) -> tuple[str, ...]:
        """Leaf labels of a subtree, ordered by leaf id."""
        return tuple(self.nodes[i].label for i in sorted(self.members(node_id)))

    def ordered_children(self, node_id: int) -> tuple[int, ...]:
        """Children sorted by their smallest contained leaf id."""
        return tuple(sorted(self.nodes[node_id].children, key=self._min_leaf.__getitem__))


class PartitionGroup(NamedTuple):
    """One group of a flat partition: the subtree label plus its leaves."""

    label: str
    members: tuple[str, ...]


Partition = tuple[PartitionGroup, ...]


def _as_groups(d: Dendrogram, node_ids: Iterable[int]) -> Partition:
    ordered = sorted(node_ids, key=d._min_leaf.__getitem__)
    return tuple(
        PartitionGroup(d.nodes[g].label, d.leaf_labels(g)) for g in ordered)


def cut_k(d: Dendrogram, k: int) -> Partition:
    """Undo merges from the top (highest creation order first) down to k groups.

    Once the merges above id t are undone, merge t is a group (its parent
    is newer) and the newest one, so one walk down the merge ids does the
    cut in O(n).  Multiway merge nodes split into all their children at
    once, so with such nodes some group counts are not reachable; those
    raise ValidationError rather than returning an approximate cut.
    """
    if not 1 <= k <= d.n_leaves:
        raise ValidationError(
            f"cut size {k} out of range 1..{d.n_leaves}")
    groups = {d.root}
    for target in range(d.root, d.n_leaves - 1, -1):
        if len(groups) >= k:
            break
        groups.remove(target)
        groups.update(d.nodes[target].children)
    if len(groups) != k:
        raise ValidationError(
            f"cut of exactly {k} groups is not reachable: a multiway merge "
            f"steps straight to {len(groups)} groups")
    return _as_groups(d, groups)


_DIGIT_LIMIT = 4300  # CPython's default limit on the digits of an int string


def _parse_height(h, error=ValidationError) -> Fraction:
    """``h`` as an exact height >= 0, for ``cut_height`` and
    ``ingest.parse_cut_spec``, or ``error`` at once: the exponent of a text
    or a ``Decimal`` is bounded before its power of ten is built, so are a
    ``Decimal``'s digits, and then their numerator and denominator, so that
    a run's summary can print them.  NaN and infinities are refused."""
    text, decimal = isinstance(h, str), isinstance(h, Decimal)
    try:
        if text and "e" in h.lower() and abs(int(h.lower().rpartition("e")[2])) > _DIGIT_LIMIT:
            raise ValueError
        if decimal:
            _, digits, exponent = h.as_tuple()
            if not h.is_finite() or max(len(digits), abs(exponent)) > _DIGIT_LIMIT:
                raise ValueError
        threshold = Fraction(h)
        if (text or decimal) and max(threshold.numerator,
                                     threshold.denominator) >= 10 ** _DIGIT_LIMIT:
            raise ValueError
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise error(f"invalid cut height {h!r}") from None
    if threshold < 0:
        raise error("cut height must be >= 0")
    return threshold


def cut_height(d: Dendrogram, h) -> Partition:
    """Maximal subtrees whose merge heights are all <= h.

    ``h`` is in display units (the dissimilarity itself, not its rounded
    form) and is compared exactly; pass a string like "1.5" for an exact
    decimal threshold.  Merge heights never fall going up the tree (the
    engine enforces it), so a node's own height is its subtree's maximum.
    """
    threshold = _parse_height(h)
    groups: list[int] = []
    stack = [d.root]
    while stack:
        nid = stack.pop()
        node = d.nodes[nid]
        if node.is_leaf or node.height.within_height(threshold):
            groups.append(nid)
        else:
            stack.extend(node.children)
    return _as_groups(d, groups)


def _node_line(node: DendroNode) -> str:
    if node.is_leaf:
        return node.label
    return f"{node.label}  {node.height.display}"


def render_ascii(d: Dendrogram) -> str:
    """Deterministic monospaced tree, one node per line, root first."""
    lines: list[str] = []
    # Stack holds (node id, prefix for this line, prefix for its children).
    stack: list[tuple[int, str, str]] = [(d.root, "", "")]
    while stack:
        nid, prefix, child_prefix = stack.pop()
        lines.append(prefix + _node_line(d.nodes[nid]))
        kids = d.ordered_children(nid)
        for pos in range(len(kids) - 1, -1, -1):
            last = pos == len(kids) - 1
            stack.append((
                kids[pos],
                child_prefix + ("`-- " if last else "|-- "),
                child_prefix + ("    " if last else "|   "),
            ))
    lines.append("")
    return "\n".join(lines)


def render_dot(d: Dendrogram) -> str:
    """Directed graph text: one node per leaf and merge, edges child -> parent."""
    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph dendrogram {", "  rankdir=BT;"]
    for nid in sorted(d.nodes):
        node = d.nodes[nid]
        if node.is_leaf:
            lines.append(f'  n{nid} [shape=box, label="{esc(node.label)}"];')
        else:
            lines.append(
                f'  n{nid} [label="{esc(node.label)}\\n{node.height.display}"];')
    for nid in sorted(d.nodes):
        for child in d.ordered_children(nid):
            lines.append(f"  n{child} -> n{nid};")
    lines.extend(("}", ""))
    return "\n".join(lines)


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


class _Memo(dict):
    """``make(key)`` of each key, made on its first lookup and kept."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


def _round_doc(r: "MergeRound") -> dict:
    """A round's entry in ``rounds``, less its ``matrix``."""
    return {
        "round": r.round_index,
        "min_display": r.min_key.display,
        "min_key": _key_doc(r.min_key.key),
        "merges": [
            {
                "label": m.new.label,
                "member_labels": [c.label for c in m.constituents],
            }
            for m in r.merges
        ],
    }


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


def _matrix_text(labels: str, display_rows: list[list[str]],
                 key_rows: list[list[str]]) -> Iterator[str]:
    """The text of a round's ``matrix`` in ``to_structured``, a chunk
    per row of cells.  ``labels`` is the text of its ``labels``, and
    ``display_rows`` and ``key_rows`` hold, for each active cluster, the
    texts of its row of cells at their depth, 6."""
    yield '{%s"labels": %s,%s"display_values": ' % (_INDENT[4], labels, _INDENT[4])
    for rows, after in ((display_rows, ',%s"exact_keys": ' % _INDENT[4]),
                        (key_rows, _INDENT[3] + "}")):
        if len(rows) < 2:
            yield "[]" + after
            continue
        sep, opener = "," + _INDENT[6], "[" + _INDENT[5] + "[" + _INDENT[6]
        for row in rows[1:]:
            yield opener + sep.join(row)
            opener = _INDENT[5] + "]," + _INDENT[5] + "[" + _INDENT[6]
        yield _INDENT[5] + "]" + _INDENT[4] + "]" + after


def to_structured(d: Dendrogram, trace: Sequence["MergeRound"], *,
                  schema=None, pattern: "PatternMatrix | None" = None,
                  report: "CandidateObjectReport | None" = None) -> dict:
    """Assemble the machine-readable output document, as a dict.

    Always contains ``rounds`` (per-round merges plus lower-triangle matrix
    snapshots with 2-decimal display values and exact rational keys) and
    ``dendrogram``; ``schema``, ``pattern_matrix``, and ``report`` sections
    are included when the corresponding inputs are given.

    This is the document's dict view and the reference for its text:
    ``canonical_json`` of it is exactly the text that ``structured_chunks``
    yields, which is what the command line writes, but it renders every
    cell's ``{num, den}`` on its own, so ``structured_chunks`` is the fast
    way to that text.  Like ``structured_chunks``, it reads the snapshots
    from a walk of its own, ``engine.walk_rounds``, never from
    ``MergeRound.matrix_after``: the walk's two tables, of each cell's
    display string and of its ``{num, den}`` dict, follow the merges and
    each round gets a copy of them, so a sequential run's O(n^3) cells
    take O(n^2) lookups.  Each is made once per distinct distance, so all
    cells at the same distance share one dict object.  The nested
    ``dendrogram`` is built without recursion, for trees of any depth.
    """
    from .engine import walk_rounds  # the engine imports this module

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
    doc["rounds"] = [
        dict(_round_doc(r), matrix={
            "labels": [c.label for c in active],
            "display_values": list(map(list.copy, display_rows[1:])),
            "exact_keys": list(map(list.copy, key_rows[1:]))})
        for r, active, (display_rows, key_rows) in walk_rounds(
            trace, lambda e: e.display, lambda e: _key_doc(e.key))]
    doc["dendrogram"] = _node_doc(d)
    if report is not None:
        doc["report"] = report.to_doc()
    return doc


def _rounds_text(trace: Sequence["MergeRound"]) -> Iterator[str]:
    """The text of a non-empty ``rounds`` at depth 1, a chunk per row of cells.

    The rows of cell texts are the two tables of ``engine.walk_rounds``,
    whose views give each distinct distance its display text and its
    ``{num, den}`` text once.  Each round's head and ``labels`` are
    formatted from the text of each label, made once by json's string
    encoder."""
    from .engine import walk_rounds  # the engine imports this module

    label = _Memo(encode_basestring)
    rounds = walk_rounds(trace, lambda e: encode_basestring(e.display),
                         lambda e: _key_text(e.key, 6))
    for index, (r, active, (display_rows, key_rows)) in enumerate(rounds):
        merges = [_dict_text((("label", label[m.new.label]),
                              ("member_labels", _list_text(
                                  [label[c.label] for c in m.constituents], 5))), 4)
                  for m in r.merges]
        # The round's own text less its closing brace, which follows its matrix.
        head = _dict_text((("round", str(r.round_index)),
                           ("min_display", encode_basestring(r.min_key.display)),
                           ("min_key", _key_text(r.min_key.key, 3)),
                           ("merges", _list_text(merges, 3)),
                           ("matrix", "")), 2)
        yield ("," if index else "[") + _INDENT[2] + head[:-len(_INDENT[2]) - 1]
        yield from _matrix_text(_list_text([label[c.label] for c in active], 4),
                                display_rows, key_rows)
        yield _INDENT[2] + "}"
    yield _INDENT[1] + "]"


def structured_chunks(d: Dendrogram, trace: Sequence["MergeRound"], *,
                      schema=None, pattern: "PatternMatrix | None" = None,
                      report: "CandidateObjectReport | None" = None) -> Iterator[str]:
    """The text of ``canonical_json(to_structured(...))``, in chunks.

    Every section but ``rounds`` is ``json_chunks`` of its value in
    ``to_structured`` with no rounds, so no section is ever one string:
    the nested ``dendrogram`` is rendered a node at a time.  No round is
    built as a document: its head and ``labels`` are formatted from texts
    of json's string encoder, one per label, and each row of
    ``display_values`` and of ``exact_keys`` is one join of cell texts,
    made once per distinct distance, and is one chunk.  The snapshots come
    from the tables of cell texts of the engine's ``walk_rounds``, never
    from ``MergeRound.matrix_after``: a cluster's rows of cell texts are
    looked up once, when it is new, and then follow the merges, so a
    sequential run's O(n^3) snapshots cost O(n^2) lookups and O(n^3)
    joins.  They are rendered a row at a time and never held whole; the
    tables take two pointers per cell of the current round's matrix.
    """
    from .ingest import json_chunks  # ingest imports this module

    head = "{"
    for key, value in to_structured(d, (), schema=schema, pattern=pattern,
                                    report=report).items():
        yield '%s%s"%s": ' % (head, _INDENT[1], key)
        head = ","
        yield from _rounds_text(trace) if key == "rounds" and trace else json_chunks(value, 1)
    yield "\n}\n"
