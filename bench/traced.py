"""Traced replay of ``objident cluster`` for the benchmark's per-layer numbers.

Runs the stages of ``objident.ingest.execute`` through the package's public
functions, with the same branches, and wraps each branch in a span named
after the module that does the work; the output files are written last.  The files it
writes must be byte-identical to the CLI's; ``run.py`` checks that.  On
top of the pipeline it makes one off-path call, ``engine.initial_proximity``,
which ``cluster`` makes internally, to time the pairwise distances alone.

With ``--memory`` it starts ``tracemalloc`` and reports the allocation peak
of the engine and of ``to_structured`` instead; that pass is slower, so its
span times are not used.

    PYTHONPATH=src python3 bench/traced.py --job job.json [--memory]

prints one JSON object: span seconds on and off the path of ``execute``,
counts, and peak MB when asked.
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from objident import (
    build_pattern_matrix,
    canonical_json,
    cluster,
    cut_height,
    cut_k,
    derive_relations,
    initial_proximity,
    label_clusters,
    metric_from_name,
    parse_components,
    parse_cut_spec,
    parse_declarations,
    policy_from_name,
    render_ascii,
    render_dot,
    to_structured,
    write_text_atomic,
)
from objident.ingest import read_text

SPANS = (
    "ingest.read_s", "ingest.parse_s", "features.pattern_s", "engine.cluster_s",
    "dendrogram.cut_s", "report.label_s", "dendrogram.to_structured_s",
    "ingest.serialise_s", "dendrogram.render_s", "ingest.write_s",
)
OFF_PATH = ("engine.initial_proximity_s",)


class Tracer:
    """Accumulates span durations by name, and allocation peaks when
    tracemalloc is running."""

    def __init__(self, memory: bool):
        self.seconds = dict.fromkeys(SPANS + OFF_PATH, 0.0)
        self.peak_mb: dict[str, float] = {}
        self.memory = memory

    @contextmanager
    def span(self, name: str):
        if self.memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start
            if self.memory:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)


def replay(job: dict, tracer: Tracer) -> dict:
    """The body of ``ingest.execute`` for one job, minus the stdout summary.
    Returns the counts read from what the stages returned."""
    span = tracer.span
    metric = metric_from_name(job["metric"])
    policy = policy_from_name(job["policy"])
    cut = parse_cut_spec(job["cut"]) if job.get("cut") else None
    outputs = job["outputs"]

    with span("ingest.read_s"):
        text = read_text(job["input"])
    with span("ingest.parse_s"):
        if job["kind"] == "components":
            subjects, records = parse_components(text)
        else:
            subjects, records = parse_declarations(text)
    with span("features.pattern_s"):
        schema = derive_relations(subjects)
        pattern = build_pattern_matrix(records, schema)
    with span("engine.cluster_s"):
        dend, trace = cluster(pattern, metric, policy=policy)

    partition = None
    report = None
    with span("dendrogram.cut_s"):
        if cut is not None:
            mode, value = cut
            partition = cut_k(dend, value) if mode == "k" else cut_height(dend, value)
    with span("report.label_s"):
        if "report" in outputs:
            report = label_clusters(partition, pattern, schema)

    doc = None
    with span("dendrogram.to_structured_s"):
        if "trace" in outputs:
            doc = to_structured(dend, trace, schema=schema, pattern=pattern, report=report)
    structured = None
    with span("ingest.serialise_s"):
        if doc is not None:
            structured = canonical_json(doc)
    del doc
    serialised = len(structured.encode()) if structured is not None else 0

    tree = None
    with span("dendrogram.render_s"):
        if "dendrogram" in outputs:
            render = render_dot if job["format"] == "dot" else render_ascii
            tree = render(dend)
    report_text = None
    with span("ingest.serialise_s"):
        if report is not None:
            report_text = canonical_json(report.to_doc())
    if report_text is not None:
        serialised += len(report_text.encode())
    with span("ingest.write_s"):
        for role, content in (("trace", structured), ("dendrogram", tree),
                              ("report", report_text)):
            if role in outputs:
                write_text_atomic(outputs[role], content)

    with span("engine.initial_proximity_s"):
        pairs = len(initial_proximity(pattern, metric).cells)

    merges = [m for r in trace for m in r.merges]
    return {
        "engine.rounds": len(trace),
        "engine.merges": len(merges),
        "engine.multiway_merges": sum(len(m.constituents) > 2 for m in merges),
        "engine.snapshot_cells": sum(len(r.matrix_after.cells) for r in trace),
        "engine.pairs": pairs,
        "features.cells": pattern.n_rows * pattern.n_cols,
        "dendrogram.groups": len(partition) if partition is not None else 0,
        "ingest.serialise_mb": serialised / 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced replay of objident cluster")
    parser.add_argument("--job", type=Path, required=True, help="job description (JSON)")
    parser.add_argument("--memory", action="store_true",
                        help="measure allocation peaks with tracemalloc")
    args = parser.parse_args(argv)
    job = json.loads(args.job.read_text(encoding="utf-8"))
    tracer = Tracer(args.memory)
    if args.memory:
        tracemalloc.start()
    counts = replay(job, tracer)
    print(json.dumps({
        "spans": {name: tracer.seconds[name] for name in SPANS},
        "off_path": {name: tracer.seconds[name] for name in OFF_PATH},
        "counts": counts,
        "peak_mb": tracer.peak_mb,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
