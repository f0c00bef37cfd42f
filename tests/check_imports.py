"""Fail if ``import objident.cli`` loads ``dataclasses`` or ``inspect``.

Every ``objident`` process pays for its imports before it reads a byte, and
these two were once the largest part of that: ``dataclasses`` imports
``inspect``, and each ``@dataclass`` compiles its methods at every start.
Modules that were loaded before the import, such as those the
environment's ``site`` brings in, do not count.

    PYTHONPATH=src python tests/check_imports.py   # the source tree
    python /path/to/tests/check_imports.py         # the installed package
"""

import sys

before = set(sys.modules)
import objident.cli  # noqa: E402

loaded = sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))
if loaded:
    sys.exit(f"import objident.cli loaded {', '.join(loaded)} from {objident.cli.__file__}")
