"""Agglomerative single-linkage clustering over binary pattern rows.

Two merge policies are provided:

* SEQUENTIAL: the classic one-merge-per-step algorithm.  Each round merges
  exactly the lexicographically first (by ascending id pair) of the pairs
  achieving the global minimum dissimilarity.
* PAPER_REPRO: a round-based variant.  When the global minimum is exactly
  zero, every connected component of the zero-dissimilarity graph merges as
  one multiway cluster; otherwise disjoint minimum pairs are picked greedily
  in ascending (i, j) id order.  Several merges can happen per round.  A
  distance is zero only between identical rows, so the zero components are
  the classes of identical rows, and only the first round can have them.

Both are deterministic given the input row order.  Ties are decided
exactly, never by float luck: the engine compares ints whose order and
equality match the metric's exact rational keys, and ``metrics.distance``
makes the ``ExactDissimilarity`` of each int that a height or snapshot shows.

The pair table is built once per distinct pattern row, and a merge at
distance zero, of identical rows, keeps one part's row instead of taking a
minimum.  Each active cluster keeps its nearest partner among the larger
ids (the smallest id on a tie).  A new cluster takes the largest id, so a
merge searches only the rows whose partner it consumed, and every tie is
found by one scan, ``_ClusterTable.next_at``.  Time is O(n^2) when ties are
rare and up to O(n^3) on tie-heavy rows, where the paper policy's greedy
matching can rescan a row in every round.

The engine keeps only the live distances: O(n^2) memory for n pattern
rows, half of what keeping every round's distances takes.  A round's
proximity matrix is re-derived from the merge list (Müllner, arXiv:1109.2378)
by a replay that applies the merges, through the engine's own ``merge``, to
a second table built on the first read.  Reading rounds in order costs
O(active^2) each; going back to an earlier round restarts the replay.
"""

from __future__ import annotations

import enum
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple

from .dendrogram import DendroNode, Dendrogram
from .errors import ConfigError, ValidationError
from .features import PatternMatrix
from .metrics import ExactDissimilarity, Metric, distance


class MergePolicy(enum.Enum):
    SEQUENTIAL = "sequential"
    PAPER_REPRO = "paper"


def policy_from_name(name: str) -> MergePolicy:
    """Resolve a CLI/config policy name (case-insensitive)."""
    try:
        return MergePolicy(name.lower())
    except ValueError:
        valid = ", ".join(p.value for p in MergePolicy)
        raise ConfigError(f"unknown policy {name!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class ProximityMatrix:
    """Symmetric dissimilarity matrix over the clusters active at one point.

    ``active`` is ascending by id; ``keys[p][q]``, q < p, is the engine's int
    distance between ``active[p]`` and ``active[q]``, and ``exact`` maps each
    int to its ``ExactDissimilarity``, one value shared by all cells at it.
    ``cells`` maps (i, j) ids, i < j, to the dissimilarity; it is built on
    first read.  The diagonal is implicitly zero and never stored.
    """

    active: tuple[DendroNode, ...]
    keys: list[list[int]]
    exact: Mapping[int, ExactDissimilarity] = field(repr=False, compare=False)

    def __post_init__(self):
        ids = [c.id for c in self.active]
        if ids != sorted(ids):
            raise ValidationError("active clusters must be ascending by id")

    @cached_property
    def cells(self) -> dict[tuple[int, int], ExactDissimilarity]:
        ids = [c.id for c in self.active]
        cells: dict[tuple[int, int], ExactDissimilarity] = {}
        for pos, (b, row) in enumerate(zip(ids, self.keys)):
            cells.update(zip(((a, b) for a in ids[:pos]), map(self.exact.__getitem__, row)))
        return cells

    def get(self, i: int, j: int) -> ExactDissimilarity:
        """Cell for two distinct active cluster ids, in either order."""
        if i == j:
            raise ValidationError("diagonal cells are not stored")
        return self.cells[(i, j) if i < j else (j, i)]

    def pairs(self) -> Iterator[tuple[DendroNode, DendroNode, ExactDissimilarity]]:
        """All unordered pairs in ascending lexicographic (i, j) id order."""
        for a_pos in range(len(self.active)):
            for b_pos in range(a_pos + 1, len(self.active)):
                a, b = self.active[a_pos], self.active[b_pos]
                yield a, b, self.cells[(a.id, b.id)]


class Merge(NamedTuple):
    new: DendroNode
    constituents: tuple[DendroNode, ...]


@dataclass(frozen=True)
class MergeRound:
    """One round of the engine: what merged, at what minimum, and (through
    ``matrix_after``) the proximity matrix left after all of its merges."""

    round_index: int
    min_key: ExactDissimilarity
    merges: tuple[Merge, ...]
    _replay: "_Replay" = field(repr=False, compare=False)

    @property
    def matrix_after(self) -> ProximityMatrix:
        """The proximity matrix after this round's merges, rebuilt on every
        access by the run's replay: its int ``keys`` in O(active^2) time when
        rounds are read in order (an earlier round restarts the replay), its
        ``cells`` dict only when read.  Hold on to the result to read it
        twice.  ``dendrogram.to_structured`` reads ``keys`` alone."""
        return self._replay.matrix_after(self.round_index)


class ClusterResult(NamedTuple):
    dendrogram: Dendrogram
    trace: tuple[MergeRound, ...]


def _row_classes(pattern: PatternMatrix) -> list[list[int]]:
    """Leaf ids grouped by identical pattern row, in order of first
    appearance: each class is ascending, and the classes are ordered by
    their smallest member."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(pattern.rows):
        classes.setdefault(row, []).append(i)
    return list(classes.values())


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _pair_ints(pattern: PatternMatrix, metric: Metric,
               classes: list[list[int]]) -> list[list[int]]:
    """All pairwise distances between pattern rows as ints that order and
    tie exactly like the metric's keys, one list per leaf.

    ``classes`` is ``_row_classes(pattern)``: each distinct row is packed
    once, and distances are computed only between distinct rows."""
    packed = [int(bytes(pattern.rows[ids[0]]).translate(_DIGITS) or b"0", 2)
              for ids in classes]
    if metric is not Metric.JACCARD:
        # The Euclidean (squared), Manhattan and SMC keys are the mismatch
        # count or a fixed multiple of it.
        table = [[(a ^ b).bit_count() for b in packed] for a in packed]
    else:
        # Jaccard is x/u with x mismatches and u <= W set columns.  Two
        # distinct fractions with denominators <= W differ by at least 1/W^2,
        # so floor(x * W^2 / u) orders and ties exactly like x/u.  No pair
        # has more set columns than twice the heaviest row.
        width = pattern.n_cols
        scale = width * width
        top = min(width, 2 * max(a.bit_count() for a in packed))
        keys = [[x * scale // u if u else 0 for u in range(top + 1)]
                for x in range(top + 1)]
        table = [[keys[(a ^ b).bit_count()][(a | b).bit_count()] for b in packed]
                 for a in packed]
    if len(classes) == pattern.n_rows:
        return table
    of = [0] * pattern.n_rows
    for c, ids in enumerate(classes):
        for i in ids:
            of[i] = c
    return [list(map(table[c].__getitem__, of)) for c in of]


class _ExactKeys(dict):
    """Int distance -> ExactDissimilarity, made on first use by
    ``metrics.distance`` on two made-up rows of ``width`` columns whose
    mismatch and either-set counts the int stands for."""

    def __init__(self, metric: Metric, width: int):
        super().__init__()
        self._metric, self._width = metric, width

    def __missing__(self, key: int) -> ExactDissimilarity:
        width = self._width
        if self._metric is Metric.JACCARD and key:
            # Invert key = floor(x * W^2 / u): at the first u where
            # x = ceil(key * u / W^2) gives the key back, x/u is its fraction.
            scale = width * width
            u = next(u for u in range(1, width + 1) if -(-key * u // scale) * scale // u == key)
            x = -(-key * u // scale)
        else:
            x = u = key
        row = [1] * u + [0] * (width - u)
        value = self[key] = distance(self._metric, [0] * x + row[x:], row)
        return value


_NEVER = sys.maxsize


class _ClusterTable:
    """The active clusters of an agglomeration and the int distances between
    them: ``rows[x][y]`` for active x and y.  A new cluster takes the next
    id; a merged-away cluster's row is freed (None), and the entries at its
    id in other rows are stale."""

    def __init__(self, pattern: PatternMatrix, metric: Metric):
        if pattern.n_rows < 2:
            raise ValidationError("clustering needs at least 2 pattern rows")
        classes = _row_classes(pattern)
        self.rows: list[list[int] | None] = _pair_ints(pattern, metric, classes)
        # The int distance is 0 exactly for identical rows, so the classes
        # with more than one member are the zero-distance components of the
        # first round, and no zero distance is left once they merge.
        self.copies = [tuple(ids) for ids in classes if len(ids) > 1]
        self.exact = _ExactKeys(metric, pattern.n_cols)
        self.active = list(range(pattern.n_rows))

    def merge(self, group: tuple[int, ...], key) -> None:
        """Merge the active clusters ``group`` (ascending ids), ``key`` apart
        (an int or exact key), into one by the single-linkage row minimum."""
        rows, active = self.rows, self.active
        # A zero key means identical rows, and heights never fall, so the
        # parts' rows agree at every active id: the first is the minimum.
        row = rows[group[0]]
        if key:
            for g in group[1:]:
                row = [a if a < b else b for a, b in zip(row, rows[g])]
        row.append(0)
        for g in group:
            del active[bisect_left(active, g)]
            rows[g] = None
        for k in active:
            rows[k].append(row[k])
        active.append(len(rows))
        rows.append(row)

    def next_at(self, c: int, key: int, after: int, skip=()) -> int | None:
        """The smallest active id above ``after``, not in ``skip``, whose
        distance from cluster ``c`` is ``key``; None if there is none."""
        row, rows = self.rows[c], self.rows
        at = after
        while True:
            try:
                at = row.index(key, at + 1)
            except ValueError:
                return None
            if rows[at] is not None and at not in skip:
                return at


class _Replay:
    """An agglomeration's merge list, ``clusters`` (tree nodes by id), and
    the proximity matrices re-derived from it by applying the merges to a
    table built on the first read.  The cursor only moves forward; an
    earlier round than the last one read starts again from the leaves."""

    def __init__(self, pattern: PatternMatrix, metric: Metric):
        self.pattern, self.metric = pattern, metric
        self.clusters = [DendroNode(i, label) for i, label in enumerate(pattern.row_labels)]
        self.table: _ClusterTable | None = None

    def record(self, group: tuple[int, ...], height: ExactDissimilarity,
               round_index: int) -> DendroNode:
        """Append and return the ``DendroNode`` of a merge of ``group``."""
        clusters, n = self.clusters, self.pattern.n_rows
        if any(clusters[g].height > height for g in group if g >= n):
            raise ValidationError(f"merge at {height.display} would sit below one of its parts")
        new = DendroNode(len(clusters), f"C{len(clusters) - n + 1}", group, height, round_index)
        clusters.append(new)
        return new

    def matrix_after(self, round_index: int) -> ProximityMatrix:
        """The proximity matrix over the clusters active after a round
        (round 0: the original rows)."""
        table, clusters = self.table, self.clusters
        if table is None or (clusters[len(table.rows) - 1].round_index or 0) > round_index:
            table = self.table = _ClusterTable(self.pattern, self.metric)
        for node in clusters[len(table.rows):]:
            if node.round_index > round_index:
                break
            table.merge(node.children, node.height.key)
        ids, rows = table.active, table.rows
        return ProximityMatrix(tuple(map(clusters.__getitem__, ids)),
                               [list(map(rows[b].__getitem__, ids[:pos]))
                                for pos, b in enumerate(ids)],
                               table.exact)


def initial_proximity(pattern: PatternMatrix, metric: Metric) -> ProximityMatrix:
    """Pairwise dissimilarities between all original pattern rows."""
    return _Replay(pattern, metric).matrix_after(0)


def _greedy_pairs(table: _ClusterTable, near_key: list, near_id: list,
                  low: int) -> list[tuple[int, int]]:
    """Disjoint pairs at distance ``low``, taken greedily in ascending
    (i, j) id order."""
    taken: set[int] = set()
    pairs = []
    for c in table.active:
        if near_key[c] != low or c in taken:
            continue
        partner = near_id[c]
        if partner in taken:
            # The ids between c and its partner are farther than `low`.
            partner = table.next_at(c, low, partner, taken)
            if partner is None:
                continue
        pairs.append((c, partner))
        taken.update((c, partner))
    return pairs


def cluster(pattern: PatternMatrix, metric: Metric,
            policy: MergePolicy = MergePolicy.SEQUENTIAL) -> ClusterResult:
    """Run the full agglomeration and return the merge tree plus round trace.

    Leaves 0..n-1 keep the row labels; merged clusters get ids n, n+1, ...
    and labels C1, C2, ... in creation order within and across rounds.  One
    ``DendroNode`` per cluster serves the tree, ``Merge`` and
    ``ProximityMatrix.active``.  Only the live distances are kept, in O(n^2)
    memory, and they are freed on return: a replay of the merges rebuilds a
    round's ``matrix_after`` when it is read, so reading every round's
    matrix of a sequential run in order costs O(n^3).
    """
    table = _ClusterTable(pattern, metric)
    replay = _Replay(pattern, metric)
    rows, active, clusters = table.rows, table.active, replay.clusters
    n = pattern.n_rows
    # near_key[c], near_id[c]: c's nearest partner among the active clusters
    # with a larger id, the smallest id on a tie; `_NEVER` when there is none.
    near_key = [_NEVER] * (2 * n - 1)
    near_id: list[int | None] = [None] * (2 * n - 1)
    for c in range(n - 1):
        near_key[c] = min(rows[c][c + 1:])
        near_id[c] = table.next_at(c, near_key[c], c)
    trace: list[MergeRound] = []
    round_index = 0
    while len(active) > 1:
        round_index += 1
        if policy is MergePolicy.SEQUENTIAL:
            first = min(active, key=near_key.__getitem__)
            low = near_key[first]
            groups = [(first, near_id[first])]
        else:
            low = min(map(near_key.__getitem__, active))
            groups = (table.copies if low == 0
                      else _greedy_pairs(table, near_key, near_id, low))
        height = table.exact[low]
        merges = []
        for group in groups:
            new = replay.record(group, height, round_index)
            table.merge(group, low)
            merges.append(Merge(new, tuple(map(clusters.__getitem__, group))))
            to_new = rows[new.id]
            for c in active[:-1]:
                if to_new[c] < near_key[c]:
                    near_key[c], near_id[c] = to_new[c], new.id
                elif near_id[c] in group:
                    # Its partner was merged into `new`, which is now exactly
                    # as near: take the smallest id at that distance (`new`
                    # itself, at the latest).  The old partner was the
                    # smallest such id and distances to surviving clusters
                    # never change, so the scan starts past it.
                    near_id[c] = table.next_at(c, near_key[c], near_id[c])
        trace.append(MergeRound(round_index, height, tuple(merges), replay))
    dend = Dendrogram(dict(enumerate(clusters)), root=active[0], n_leaves=n)
    return ClusterResult(dend, tuple(trace))
