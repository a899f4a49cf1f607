"""Span tracing of the fractsurf CLI, installed from outside the package.

Run as a script, this module starts a span before ``fractsurf.cli`` is
imported, wraps the public names that ``fractsurf.cli``, ``fractsurf.pipeline``,
``fractsurf.ifs`` and ``fractsurf.dimension`` call through their module
globals (plus ``OperatorGrid.__init__`` and ``OperatorGrid.apply``), runs the
CLI with the remaining arguments and writes every span to a JSON file::

    PYTHONPATH=src python perfbench/trace.py <spans.json> <run id> surface --fixture example2a

Nothing under ``src/`` is edited: the wrappers replace module attributes in
this process only.  Because ``solve_fixed_point`` calls itself through the
``fractsurf.ifs`` global, the half-resolution bias re-solve appears as a
child span of the main solve.  Spans stay in memory until the CLI returns.
"""
from __future__ import annotations

import functools
import json
import resource
import sys
import time

# (module, attribute, span name).  A class attribute is written "Class.method".
TARGETS = (
    ("fractsurf.cli", "parse_config", "config.parse"),
    ("fractsurf.cli", "parse_config_document", "config.parse"),
    ("fractsurf.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("fractsurf.pipeline", "build_system", "pipeline.build_system"),
    ("fractsurf.pipeline", "realize_grid", "config.realize_grid"),
    ("fractsurf.pipeline", "build_domain_maps", "grid.domain_maps"),
    ("fractsurf.pipeline", "build_boundary_curves", "boundary.curves"),
    ("fractsurf.pipeline", "build_coons_blend", "boundary.blends"),
    ("fractsurf.pipeline", "load_explicit_blend", "boundary.blends"),
    ("fractsurf.pipeline", "build_free_field", "boundary.q"),
    ("fractsurf.pipeline", "build_Q", "boundary.q"),
    ("fractsurf.pipeline", "build_quartic_field", "scaling.build_field"),
    ("fractsurf.pipeline", "build_product_field", "scaling.build_field"),
    ("fractsurf.pipeline", "build_expression_field", "scaling.build_field"),
    ("fractsurf.pipeline", "assemble_ifs", "ifs.assemble"),
    ("fractsurf.pipeline", "solve_fixed_point", "ifs.solve"),
    ("fractsurf.pipeline", "chaos_game", "ifs.chaos"),
    ("fractsurf.pipeline", "certify_metric", "ifs.certify_metric"),
    ("fractsurf.pipeline", "dimension_report", "dimension.report"),
    ("fractsurf.pipeline", "heightmap_csv", "exports.heightmap_csv"),
    ("fractsurf.pipeline", "heightmap_pgm", "exports.heightmap_pgm"),
    ("fractsurf.pipeline", "xyz_text", "exports.xyz_text"),
    ("fractsurf.pipeline", "counts_csv", "exports.counts_csv"),
    ("fractsurf.pipeline", "dimension_report_text", "exports.dimension_text"),
    ("fractsurf.pipeline", "write_text", "exports.write"),
    ("fractsurf.pipeline", "write_bytes", "exports.write"),
    ("fractsurf.ifs", "solve_fixed_point", "ifs.solve"),
    ("fractsurf.ifs", "OperatorGrid.__init__", "ifs.operator_setup"),
    ("fractsurf.ifs", "OperatorGrid.apply", "ifs.apply"),
    ("fractsurf.dimension", "box_counts", "dimension.box_count"),
    ("fractsurf.dimension", "bounds_from_fields", "dimension.bounds"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def array_bytes(*objects) -> int:
    """Computed bytes of the arrays an operator application touches.

    The sum of ``nbytes`` over the given arrays and over every array
    attribute of the given objects; cache misses are not counted.
    """
    total = 0
    for obj in objects:
        if hasattr(obj, "nbytes"):
            total += int(obj.nbytes)
        else:
            total += sum(int(v.nbytes) for v in vars(obj).values() if hasattr(v, "nbytes"))
    return total


class Tracer:
    """In-memory span recorder: name, start, end, parent and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        annotate = _ANNOTATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            if name == "ifs.solve":
                span["rss_mb_before"] = _maxrss_mb()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in its module (or class) with a traced wrapper."""
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))


def _annotate_solve(span, args, surface):
    span["rss_mb_after"] = _maxrss_mb()
    span["iterations"] = int(surface.iterations)
    span["resolution"] = int(surface.resolution)


def _annotate_apply(span, args, result):
    plan, phi = args
    span["bytes"] = array_bytes(plan, phi, result)


def _annotate_chaos(span, args, points):
    span["points"] = int(len(points))


def _annotate_write(span, args, path):
    span["bytes"] = int(path.stat().st_size)


_ANNOTATORS = {
    "ifs.solve": _annotate_solve,
    "ifs.apply": _annotate_apply,
    "ifs.chaos": _annotate_chaos,
    "exports.write": _annotate_write,
}


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    root = tracer.begin("cli.main")
    span = tracer.begin("cli.import")
    import fractsurf.cli  # noqa: F401  (also imports pipeline, ifs, dimension)
    tracer.end(span)
    tracer.install()
    try:
        fractsurf.cli.main(args=cli_args, prog_name="fractsurf")
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    tracer.end(root)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
