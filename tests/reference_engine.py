"""A frozen copy of the merge-choosing part of objident's engine, for tests.

This is the engine as it stood before its proximity history moved into a
replay: the pair table, the row minimum, the ``next_at`` tie scan, the
near-partner bookkeeping and both policies' merge choice.  Snapshot code
and tree nodes are left out.  It imports nothing from ``objident.engine``,
so comparing the two at scale checks the live engine's merges (ids,
constituents, exact heights and round indexes) against an independent copy
on corpora far larger than the brute-force oracle can take.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import NamedTuple

from objident.features import PatternMatrix
from objident.metrics import ExactDissimilarity, Metric, distance


class RefMerge(NamedTuple):
    round_index: int
    new_id: int
    group: tuple[int, ...]
    height: ExactDissimilarity


def _row_classes(pattern: PatternMatrix) -> list[list[int]]:
    classes: dict[int, list[int]] = {}
    for i, row in enumerate(pattern.rows):
        classes.setdefault(row, []).append(i)
    return list(classes.values())


def _pair_ints(pattern: PatternMatrix, metric: Metric,
               classes: list[list[int]]) -> list[list[int]]:
    packed = [pattern.rows[ids[0]] for ids in classes]
    if metric is not Metric.JACCARD:
        table = [[(a ^ b).bit_count() for b in packed] for a in packed]
    else:
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
    def __init__(self, metric: Metric, width: int):
        super().__init__()
        self._metric, self._width = metric, width

    def __missing__(self, key: int) -> ExactDissimilarity:
        width = self._width
        if self._metric is Metric.JACCARD and key:
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
    def __init__(self, pattern: PatternMatrix, metric: Metric):
        n = pattern.n_rows
        classes = _row_classes(pattern)
        self.rows = _pair_ints(pattern, metric, classes)
        self.copies = [tuple(ids) for ids in classes if len(ids) > 1]
        self.active = list(range(n))
        self.ended = [_NEVER] * n

    def merge(self, group: tuple[int, ...], key: int, round_index: int) -> int:
        new_id = len(self.rows)
        rows, active = self.rows, self.active
        if key == 0:
            row = rows[group[0]].copy()
        else:
            row = rows[group[0]]
            for g in group[1:]:
                row = [a if a < b else b for a, b in zip(row, rows[g])]
        row.append(0)
        for g in group:
            del active[bisect_left(active, g)]
            del rows[g][g:]
            self.ended[g] = round_index
        for k in active:
            rows[k].append(row[k])
        rows.append(row)
        active.append(new_id)
        self.ended.append(_NEVER)
        return new_id

    def next_at(self, c: int, key: int, after: int, skip=()) -> int | None:
        row, ended = self.rows[c], self.ended
        at = after
        while True:
            try:
                at = row.index(key, at + 1)
            except ValueError:
                return None
            if ended[at] == _NEVER and at not in skip:
                return at


def _greedy_pairs(table: _ClusterTable, near_key: list, near_id: list,
                  low: int) -> list[tuple[int, int]]:
    taken: set[int] = set()
    pairs = []
    for c in table.active:
        if near_key[c] != low or c in taken:
            continue
        partner = near_id[c]
        if partner in taken:
            partner = table.next_at(c, low, partner, taken)
            if partner is None:
                continue
        pairs.append((c, partner))
        taken.update((c, partner))
    return pairs


def reference_merges(pattern: PatternMatrix, metric: Metric, paper: bool) -> list[RefMerge]:
    """Every merge of a run, in creation order; ``paper`` picks the paper
    policy, else the sequential one."""
    table = _ClusterTable(pattern, metric)
    exact = _ExactKeys(metric, pattern.n_cols)
    rows, active = table.rows, table.active
    n = pattern.n_rows
    near_key = [_NEVER] * (2 * n - 1)
    near_id: list[int | None] = [None] * (2 * n - 1)
    for c in range(n - 1):
        near_key[c] = min(rows[c][c + 1:])
        near_id[c] = table.next_at(c, near_key[c], c)
    merges: list[RefMerge] = []
    round_index = 0
    while len(active) > 1:
        round_index += 1
        if not paper:
            first = min(active, key=near_key.__getitem__)
            low = near_key[first]
            groups = [(first, near_id[first])]
        else:
            low = min(map(near_key.__getitem__, active))
            groups = (table.copies if low == 0
                      else _greedy_pairs(table, near_key, near_id, low))
        for group in groups:
            new_id = table.merge(group, low, round_index)
            merges.append(RefMerge(round_index, new_id, tuple(group), exact[low]))
            to_new = rows[new_id]
            for c in active[:-1]:
                if to_new[c] < near_key[c]:
                    near_key[c], near_id[c] = to_new[c], new_id
                elif near_id[c] in group:
                    near_id[c] = table.next_at(c, near_key[c], near_id[c])
    return merges
