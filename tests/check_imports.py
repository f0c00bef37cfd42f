"""Fail if ``import objident`` loads any ``objident`` submodule, or if
``import objident.cli`` or ``objident --version`` loads ``dataclasses``,
``inspect`` or any pipeline module.

Every ``objident`` process pays for its imports before it reads a byte,
and compiles every module it imports when no bytecode cache exists.
``dataclasses`` imports ``inspect``, and each ``@dataclass`` compiles its
methods at every start.  The command line imports the pipeline only once
its arguments name a command, so ``--version``, ``--help`` and a usage
error load ``objident.errors`` and nothing else of it.  Modules that were
loaded before the import, such as those the environment's ``site`` brings
in, do not count.

    PYTHONPATH=src python tests/check_imports.py   # the source tree
    python /path/to/tests/check_imports.py         # the installed package
"""

import contextlib
import io
import sys

before = set(sys.modules)
import objident  # noqa: E402

loaded = sorted(m for m in set(sys.modules) - before if m.startswith("objident."))
if loaded:
    sys.exit(f"import objident loaded {', '.join(loaded)} from {objident.__file__}")

unwanted = {"dataclasses", "inspect"} | {
    f"objident.{name}" for name in ("declarations", "dendrogram", "document", "engine",
                                    "features", "ingest", "metrics", "report")}

import objident.cli  # noqa: E402

loaded = sorted(unwanted & (set(sys.modules) - before))
if loaded:
    sys.exit(f"import objident.cli loaded {', '.join(loaded)} from {objident.cli.__file__}")

with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.suppress(SystemExit):
    objident.cli.main(["--version"])
if out.getvalue() != f"objident {objident.__version__}\n":
    sys.exit(f"objident --version printed {out.getvalue()!r}")
loaded = sorted(unwanted & (set(sys.modules) - before))
if loaded:
    sys.exit(f"objident --version loaded {', '.join(loaded)} from {objident.cli.__file__}")
