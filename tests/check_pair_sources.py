"""Check that the engine's sparse and dense pair sources give the same merges.

``objident.engine._levels`` hands the level walk the pairs of each distance
level.  On a sparse input it finds the pairs that share a column through a
column index and takes every other pair's level from the two row weights;
with ``dense=True`` it computes every pair.  This script runs the walk with
each source on the benchmark generator's random and dup-heavy corpora at
n=5,000, under Euclidean/sequential and Jaccard/paper, and compares every
merge: its round, new id, constituents' ids and exact height.  It exits
non-zero if any run differs, or if a corpus is dense enough that the
default source would list every pair too.  pytest does not collect it: one
run takes about a minute and 0.4 GB, most of both for the dense source.

    PYTHONPATH=src python tests/check_pair_sources.py [--n 5000]
"""

import argparse
import functools
import importlib.util
import sys
import time
from pathlib import Path

from objident import MergePolicy, Metric, build_pattern_matrix, derive_relations, parse_components
from objident import engine

_CORPUS_PY = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
_spec = importlib.util.spec_from_file_location("bench_corpus", _CORPUS_PY)
bench_corpus = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_corpus)

SHAPES = {"random": 0.0, "dups": 0.5}
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
    failed = False
    for shape, dup_rate in SHAPES.items():
        subjects, records = parse_components(bench_corpus.to_components(
            bench_corpus.generate(args.n, dup_rate, args.n)))
        pattern = build_pattern_matrix(records, derive_relations(subjects))
        listed, pairs = index_pairs(pattern)
        if listed > pairs:
            print(f"{shape}: the index lists {listed} pairs of {pairs}; not a sparse input")
            failed = True
            continue
        for metric, policy in RUNS:
            start = time.perf_counter()
            sparse = merges(pattern, metric, policy, engine._levels)
            middle = time.perf_counter()
            dense = merges(pattern, metric, policy, functools.partial(engine._levels, dense=True))
            end = time.perf_counter()
            same = sparse == dense
            failed |= not same
            print(f"{shape} n={args.n} {metric.value}/{policy.value}: "
                  f"{'same' if same else 'DIFFERENT'} {len(sparse)} merges "
                  f"(sparse {middle - start:.1f} s, dense {end - middle:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
