"""Check that the engine's sparse and dense pair sources give the same merges.

``objident.engine._levels`` hands the level walk the pairs of each distance
level.  On a sparse input it finds the pairs that share a column through a
column index and takes every other pair's level from the two row weights;
with ``dense=True`` it computes every pair.  This script runs the walk with
each source under Euclidean/sequential and Jaccard/paper, and compares
every merge: its round, new id, constituents' ids and exact height.  The
corpora are the shapes of ``tests/test_reference_net.py``:

* random, dups, star, identical and all-zero at n=5,000, with the default
  source, which must find each of them sparse;
* chain at n=600, with the column index forced (``dense=False``).  The
  default source treats a chain as dense, and a forced index on it takes
  O(n^3) time, so it runs smaller.

It exits non-zero if any run differs, or if a corpus of the first kind is
dense enough that the default source would list every pair too.  pytest
does not collect it: one run takes about a minute and a half and 0.6 GB,
most of both for the dense source.

    PYTHONPATH=src python tests/check_pair_sources.py [--n 5000]
"""

import argparse
import functools
import sys
import time

from objident import MergePolicy, Metric
from objident import engine

from test_reference_net import SHAPES

SPARSE = ("random", "dups", "star", "identical", "all-zero")
CHAIN_N = 600
RUNS = ((Metric.EUCLIDEAN, MergePolicy.SEQUENTIAL), (Metric.JACCARD, MergePolicy.PAPER_REPRO))


def merges(pattern, metric, policy, levels):
    trace = engine._cluster(pattern, metric, policy, levels).trace
    return [(r.round_index, m.new.id, tuple(c.id for c in m.constituents), m.new.height)
            for r in trace for m in r.merges]


def index_pairs(pattern):
    """The pairs of distinct rows that a column index lists, with repeats,
    against the pairs there are."""
    rows = set(pattern.rows)
    listed = sum(k * (k - 1) // 2 for k in (sum(a >> c & 1 for a in rows)
                                            for c in range(pattern.n_cols)))
    return listed, len(rows) * (len(rows) - 1) // 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5000)
    args = parser.parse_args(argv)
    checks = [(shape, args.n, engine._levels) for shape in SPARSE]
    checks.append(("chain", CHAIN_N, functools.partial(engine._levels, dense=False)))
    failed = False
    for shape, n, source in checks:
        pattern = SHAPES[shape](n)
        listed, pairs = index_pairs(pattern)
        if source is engine._levels and listed > pairs:
            print(f"{shape}: the index lists {listed} pairs of {pairs}; not a sparse input")
            failed = True
            continue
        for metric, policy in RUNS:
            start = time.perf_counter()
            sparse = merges(pattern, metric, policy, source)
            middle = time.perf_counter()
            dense = merges(pattern, metric, policy, functools.partial(engine._levels, dense=True))
            end = time.perf_counter()
            same = sparse == dense
            failed |= not same
            print(f"{shape} n={n} {metric.value}/{policy.value}: "
                  f"{'same' if same else 'DIFFERENT'} {len(sparse)} merges "
                  f"(sparse {middle - start:.1f} s, dense {end - middle:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
