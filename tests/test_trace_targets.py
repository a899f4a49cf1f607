"""The names ``perfbench/trace.py`` wraps exist in the package, and its
wrappers read the bilinear solve.

The tracer replaces module attributes by name (its ``TARGETS``), so a
renamed or deleted function would otherwise surface only as a traceback
inside the traced CLI's subprocess.  No benchmark fixture takes the
bilinear path, so its call shape is checked here, in process.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from fractsurf import ifs

from test_solver_paths import nonuniform_job


def _load(name: str):
    """``perfbench/<name>.py``, loaded from its path (``trace`` also names a standard module)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_trace, _layers = _load("trace"), _load("layers")
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


def test_tracer_reads_the_bilinear_solve(monkeypatch):
    # the tracer's own wrappers on OperatorGrid.apply and ifs.solve_fixed_point,
    # as its install() sets them; the bias re-solve calls solve_fixed_point
    # through the module global, so it is a child span of the main solve
    tracer = _trace.Tracer("in-process")
    monkeypatch.setattr(ifs.OperatorGrid, "apply",
                        tracer.wrap("ifs.apply", ifs.OperatorGrid.apply))
    monkeypatch.setattr(ifs, "solve_fixed_point",
                        tracer.wrap("ifs.solve", ifs.solve_fixed_point))
    job = nonuniform_job()
    assert not ifs.OperatorGrid(job.system, 65).lattice
    surface = ifs.solve_fixed_point(job.system, 65, tol=job.config.solver.tol)
    assert surface.bias_estimate is not None
    (bias,) = [s for s in tracer.spans if s["name"] == "ifs.solve" and s["parent"] is not None]
    metrics = _layers.span_metrics(tracer.spans)
    assert metrics["ifs.apply.calls"] == surface.iterations + bias["iterations"]
    assert metrics["ifs.solve.iterations"] == surface.iterations
    assert 0 < metrics["ifs.apply.useful_ratio"] < 1
    assert metrics["ifs.bias_solve_s"] > 0
    assert metrics["ifs.apply.bytes_computed"] > 0
