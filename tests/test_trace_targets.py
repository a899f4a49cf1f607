"""The names ``perfbench/trace.py`` wraps exist in the package.

The tracer replaces module attributes by name (its ``TARGETS``), so a
renamed or deleted function would otherwise surface only as a traceback
inside the traced CLI's subprocess.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

# loaded from its path: the name ``trace`` is also a standard-library module
_spec = importlib.util.spec_from_file_location(
    "perfbench_trace", Path(__file__).resolve().parents[1] / "perfbench" / "trace.py")
_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_trace)
TARGETS = _trace.TARGETS


@pytest.mark.parametrize("module, attr", [(module, attr) for module, attr, _ in TARGETS],
                         ids=[f"{module}.{attr}" for module, attr, _ in TARGETS])
def test_every_trace_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), \
            f"perfbench/trace.py wraps {module}.{attr}, but {part!r} is not defined there"
        owner = getattr(owner, part)
    assert callable(owner), f"perfbench/trace.py wraps {module}.{attr}, which is not callable"
