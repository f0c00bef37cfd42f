"""Command-line entry points: ``cluster`` runs the pipeline, ``parse``
converts a declaration file into a components document."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .declarations import parse_declarations
from .engine import policy_from_name
from .errors import ConfigError, ObjidentError
from .ingest import (
    DendrogramFormat,
    InputKind,
    RunConfig,
    canonical_json,
    components_document,
    execute,
    parse_cut_spec,
    read_text,
    write_text_atomic,
)
from .metrics import metric_from_name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="objident",
        description="Identify candidate objects in procedural code by "
                    "single-linkage clustering of type-usage features.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser(
        "cluster", help="cluster a corpus and write trace/dendrogram/report outputs")
    cluster.add_argument("--input", required=True, type=Path,
                         help="input corpus file")
    cluster.add_argument("--kind", required=True, choices=["components", "decls"],
                         help="input format: components document or declaration file")
    cluster.add_argument("--metric", default="euclidean",
                         help="euclidean | manhattan | smc | jaccard (default: euclidean)")
    cluster.add_argument("--policy", default="sequential",
                         help="sequential | paper (default: sequential)")
    cluster.add_argument("--linkage", default="single",
                         help="only 'single' is implemented (default)")
    cluster.add_argument("--cut", metavar="k:<n>|h:<x>",
                         help="flatten the tree into k groups or at height x")
    cluster.add_argument("--trace", type=Path, metavar="PATH",
                         help="write the structured run document (JSON)")
    cluster.add_argument("--dendrogram", type=Path, metavar="PATH",
                         help="write the merge tree")
    cluster.add_argument("--format", dest="dendrogram_format", default="ascii",
                         choices=["ascii", "dot", "structured"],
                         help="dendrogram output format (default: ascii)")
    cluster.add_argument("--report", type=Path, metavar="PATH",
                         help="write the candidate-object report (requires --cut)")

    convert = sub.add_parser(
        "parse", help="convert a declaration file into a components document")
    convert.add_argument("--decls", required=True, type=Path,
                         help="declaration file to parse")
    convert.add_argument("--out", required=True, type=Path,
                         help="components document to write")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "cluster":
            metric = metric_from_name(args.metric)
            policy = policy_from_name(args.policy)
            if args.linkage.lower() != "single":
                raise ConfigError(
                    f"unknown linkage {args.linkage!r} (only 'single' is implemented)")
            execute(RunConfig(
                input_path=args.input,
                input_kind=InputKind(args.kind),
                metric=metric,
                policy=policy,
                cut=parse_cut_spec(args.cut) if args.cut is not None else None,
                trace_path=args.trace,
                dendrogram_path=args.dendrogram,
                dendrogram_format=DendrogramFormat(args.dendrogram_format),
                report_path=args.report,
            ))
        else:
            subjects, records = parse_declarations(read_text(args.decls))
            write_text_atomic(args.out,
                              canonical_json(components_document(subjects, records)))
    except ObjidentError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
