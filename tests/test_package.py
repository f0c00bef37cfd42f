"""The package's public names, which it imports on their first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import objident


def test_every_public_name_resolves_from_its_module():
    namespace = {}
    exec("from objident import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(objident.__all__)
    for name in objident.__all__:
        value = getattr(objident, name)
        assert namespace[name] is value
        if name != "__version__":
            assert getattr(importlib.import_module(value.__module__), name) is value
    assert set(objident.__all__) <= set(dir(objident))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'objident' has no attribute 'nope'$"):
        objident.nope
    assert not hasattr(objident, "Dendrogram")  # public in its module, not here
    with pytest.raises(ImportError, match="nope"):
        exec("from objident import nope", {})


def test_a_name_loads_its_own_module_only():
    # What the benchmark's traced replay does, in a fresh interpreter.
    program = ("import sys\n"
               "from objident import to_structured\n"
               "print(to_structured.__module__, sorted(m for m in sys.modules"
               " if m.startswith('objident.declarations')))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(src)})
    assert (child.returncode, child.stderr, child.stdout) == (0, "", "objident.document []\n")
