"""Merge tree: flat cuts and the ASCII and DOT renderings.

Node ids follow creation order (leaves 0..n-1, merged clusters n, n+1, ...),
so a child's id is always smaller than its parent's.  Both renderings are
pure functions of the tree; child ordering in each is canonical (by
smallest leaf id in the subtree) so output is byte-deterministic.  The
structured run document is built in ``objident.document``.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import ValidationError
from .metrics import ExactDissimilarity


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
    a run's summary can print them.  NaN, infinities and a text with a
    ``_``, which ``Fraction`` reads only from Python 3.11 on, are refused,
    and so is a text with a character that ``parse_cut_spec``'s ``k:``
    refuses and ``Fraction`` reads: a non-ASCII one (a Unicode digit),
    whitespace or a leading ``+``."""
    text, decimal = isinstance(h, str), isinstance(h, Decimal)
    try:
        if text and (not h.isascii() or h.split() != [h] or h.startswith("+") or "_" in h
                     or "e" in h.lower()
                     and abs(int(h.lower().rpartition("e")[2])) > _DIGIT_LIMIT):
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


class _Memo(dict):
    """``make(key)`` of each key, made on its first lookup and kept."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value
