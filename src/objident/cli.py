"""Command-line entry points: ``cluster`` runs the pipeline, ``parse``
converts a declaration file into a components document.

``run`` is the process's entry point (the ``objident`` console script and
``python -m objident.cli``): it runs ``main`` and, however the process
ends, moves every object still alive into the collector's permanent
generation, so the interpreter's finalization does not walk a finished
run's objects only to free them when the process exits anyway.  ``main``
never freezes: tests and library callers run it in process, where the
objects it leaves behind must stay collectable."""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, ObjidentError


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
    cluster.add_argument("--format", dest="dendrogram_format",
                         choices=["ascii", "dot", "structured"],
                         help="dendrogram output format (requires --dendrogram; "
                              "default: ascii)")
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
    # The pipeline is imported only once the arguments name a command, so
    # --version, --help and a usage error load none of it.
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "cluster":
            if args.dendrogram_format is not None and args.dendrogram is None:
                raise ConfigError("--format requires --dendrogram (it is the format of that file)")
            from .engine import policy_from_name
            from .ingest import DendrogramFormat, InputKind, RunConfig, execute, parse_cut_spec
            from .metrics import metric_from_name

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
                dendrogram_format=DendrogramFormat(args.dendrogram_format or "ascii"),
                report_path=args.report,
            ))
        else:
            if os.path.realpath(args.out) == os.path.realpath(args.decls):
                raise ConfigError(f"--decls and --out name the same file {str(args.out)!r}")
            from .declarations import parse_declarations
            from .ingest import canonical_json, components_document, read_text, write_text_atomic

            subjects, records = parse_declarations(read_text(args.decls))
            write_text_atomic(args.out,
                              canonical_json(components_document(subjects, records)))
    except ObjidentError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def run() -> None:
    """Exit the process with ``main``'s code over ``sys.argv``.  The freeze
    covers every way out (``--version``, ``--help``, a usage error, an
    ``ObjidentError`` and success): finalization still flushes the
    standard streams, runs ``atexit`` handlers and tears down modules, but
    no longer collects the run's objects.  ``os._exit`` would skip the
    handlers and the flush, so it is not used."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
