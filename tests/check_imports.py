"""Fail if ``import objident`` loads any ``objident`` submodule, or if
``import objident.cli`` loads ``dataclasses``, ``inspect``,
``objident.declarations`` or ``objident.document``.

Every ``objident`` process pays for its imports before it reads a byte,
and compiles every module it imports when no bytecode cache exists.
``dataclasses`` imports ``inspect``, and each ``@dataclass`` compiles its
methods at every start.  The declaration parser serves ``--kind decls`` and
``parse`` runs only, and the document module runs that write the
structured document only, so the command line imports each of them in
those runs alone.  Modules that were loaded before the import, such as
those the environment's ``site`` brings in, do not count.

    PYTHONPATH=src python tests/check_imports.py   # the source tree
    python /path/to/tests/check_imports.py         # the installed package
"""

import sys

before = set(sys.modules)
import objident  # noqa: E402

loaded = sorted(m for m in set(sys.modules) - before if m.startswith("objident."))
if loaded:
    sys.exit(f"import objident loaded {', '.join(loaded)} from {objident.__file__}")

import objident.cli  # noqa: E402

unwanted = {"dataclasses", "inspect", "objident.declarations", "objident.document"}
loaded = sorted(unwanted & (set(sys.modules) - before))
if loaded:
    sys.exit(f"import objident.cli loaded {', '.join(loaded)} from {objident.cli.__file__}")
