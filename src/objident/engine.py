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
equality match the metric's exact rational keys, and exact
``ExactDissimilarity`` values are made from ``metrics.distance`` for the
merge heights and for the snapshots a caller reads.

The pair table is built once per distinct pattern row: identical rows are
grouped, each distinct row is packed into an int once, and distances are
computed only between distinct rows, then spread to every leaf's own list.
A merge at distance zero joins identical rows, so it copies one part's row
instead of taking an elementwise minimum.

The engine keeps, for each active cluster, its nearest partner among the
active clusters with a larger id (the smallest such id on a tie).  A new
cluster always takes the largest id, so after a merge only the rows whose
partner was consumed need a search; every other row compares against the
new cluster alone.  Every tie is found by one scan, ``_ClusterTable.next_at``.
Memory is O(n^2) for n pattern rows.  Time is O(n^2) when ties are rare,
and up to O(n^3) on tie-heavy rows, where the paper policy's greedy
matching can rescan a row to its end in every round.
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
    _table: "_ClusterTable" = field(repr=False, compare=False)

    @property
    def matrix_after(self) -> ProximityMatrix:
        """The proximity matrix after this round's merges.

        Rebuilt on every access from distances the engine keeps anyway: its
        int ``keys`` in O(active^2) time, and its ``cells`` dict only when
        read.  Hold on to the result to read it twice.
        ``dendrogram.to_structured`` reads ``keys`` alone, so each trace
        cell costs one lookup.
        """
        return self._table.snapshot(self.round_index)


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
    """Every cluster an agglomeration has made, and the distances between them.

    ``rows[x][y]`` is the int distance between clusters x and y for any two
    that were active at the same time.  A row gets one entry for each
    cluster made while its own cluster is active, and no entry is ever
    rewritten, so the matrix after any round can be rebuilt later.  When a
    cluster is merged away its row keeps only the entries below its own id,
    the only ones a snapshot reads.  Entries for two clusters that were
    never active together are meaningless.  ``clusters[x]`` is cluster x's
    tree node; its ``round_index`` is the round that made it.
    """

    def __init__(self, pattern: PatternMatrix, metric: Metric):
        n = pattern.n_rows
        if n < 2:
            raise ValidationError("clustering needs at least 2 pattern rows")
        self.n_leaves = n
        classes = _row_classes(pattern)
        self.rows = _pair_ints(pattern, metric, classes)
        # The int distance is 0 exactly for identical rows, so the classes
        # with more than one member are the zero-distance components of the
        # first round, and no zero distance is left once they merge.
        self.copies = [tuple(ids) for ids in classes if len(ids) > 1]
        self.exact = _ExactKeys(metric, pattern.n_cols)
        self.clusters = [DendroNode(i, label) for i, label in enumerate(pattern.row_labels)]
        self.active = list(range(n))
        self.ended = [_NEVER] * n

    def merge(self, group: tuple[int, ...], key: int, round_index: int) -> DendroNode:
        """Replace the active clusters ``group`` (ascending ids) by a new
        cluster at distance ``key``, using the single-linkage minimum rule,
        and return its tree node."""
        height = self.exact[key]
        if any(self.clusters[g].height > height for g in group if g >= self.n_leaves):
            raise ValidationError(f"merge at {height.display} would sit below one of its parts")
        new_id = len(self.clusters)
        new = DendroNode(new_id, f"C{new_id - self.n_leaves + 1}", group, height, round_index)
        rows, active = self.rows, self.active
        if key == 0:
            # A zero key means identical pattern rows, and heights never
            # fall, so every cluster made at height 0 holds identical rows:
            # the parts' rows agree at every active id, and any one of them
            # is the minimum there.
            row = rows[group[0]].copy()
        else:
            row = rows[group[0]]
            for g in group[1:]:
                row = [a if a < b else b for a, b in zip(row, rows[g])]
        row.append(0)
        for g in group:
            del active[bisect_left(active, g)]
            del rows[g][g:]  # a snapshot reads a row only below its own id
            self.ended[g] = round_index
        for k in active:
            rows[k].append(row[k])
        rows.append(row)
        active.append(new_id)
        self.clusters.append(new)
        self.ended.append(_NEVER)
        return new

    def next_at(self, c: int, key: int, after: int, skip=()) -> int | None:
        """The smallest active id above ``after``, not in ``skip``, whose
        distance from cluster ``c`` is ``key``; None if there is none."""
        row, ended = self.rows[c], self.ended
        at = after
        while True:
            try:
                at = row.index(key, at + 1)
            except ValueError:
                return None
            if ended[at] == _NEVER and at not in skip:
                return at

    def snapshot(self, round_index: int) -> ProximityMatrix:
        """The proximity matrix over the clusters active after a round
        (round 0: the original rows)."""
        ids = [c.id for c, end in zip(self.clusters, self.ended)
               if (c.round_index or 0) <= round_index < end]
        rows = self.rows
        return ProximityMatrix(tuple(map(self.clusters.__getitem__, ids)),
                               [list(map(rows[b].__getitem__, ids[:pos]))
                                for pos, b in enumerate(ids)],
                               self.exact)


def initial_proximity(pattern: PatternMatrix, metric: Metric) -> ProximityMatrix:
    """Pairwise dissimilarities between all original pattern rows."""
    return _ClusterTable(pattern, metric).snapshot(0)


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
    ``ProximityMatrix.active``.  The engine needs O(n^2) memory for n
    pattern rows, and O(n^2) time when ties are rare, up to O(n^3) on
    tie-heavy rows.  A round's ``matrix_after`` is rebuilt from its int
    distances when read, and its ``cells`` dict only when that is read, so
    reading every round's matrix of a sequential run costs O(n^3).
    """
    table = _ClusterTable(pattern, metric)
    rows, active = table.rows, table.active
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
            new = table.merge(group, low, round_index)
            merges.append(Merge(new, tuple(table.clusters[g] for g in group)))
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
        trace.append(MergeRound(round_index, height, tuple(merges), table))
    dend = Dendrogram(dict(enumerate(table.clusters)), root=active[0], n_leaves=n)
    return ClusterResult(dend, tuple(trace))
