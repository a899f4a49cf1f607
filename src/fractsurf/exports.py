"""Writers for the on-disk output formats.

All text formats use the shortest decimal representation that round-trips
to the same float (``repr``), so identical inputs produce byte-identical
files.

* heightmap CSV — a header row ``resolution,x_min,x_max,y_min,y_max``
  followed by one row per sample line, top row at ``y_max``, x ascending
  left to right.
* PGM — binary ``P5`` with ``maxval`` 65535 (big-endian samples); the
  height-to-gray scaling is recorded in ``#`` comments.
* xyz — one ``x y z`` triple per line (point clouds from the random
  orbit sampler).
* counts CSV — ``delta,count`` pairs from box counting.
* dimension report — ``key=value`` lines, one per reported quantity.
"""
from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .dimension import DimensionReport
from .ifs import SurfaceSample
from .utils import format_float


def heightmap_csv(surface: SurfaceSample) -> str:
    xs = surface.x_samples
    ys = surface.y_samples
    out = io.StringIO()
    header = [str(surface.resolution), format_float(xs[0]), format_float(xs[-1]),
              format_float(ys[0]), format_float(ys[-1])]
    out.write(",".join(header) + "\n")
    # heights is indexed [ix, iy]; emit rows from y_max down to y_min.
    z = surface.heights
    for iy in range(len(ys) - 1, -1, -1):
        out.write(",".join(format_float(v) for v in z[:, iy]) + "\n")
    return out.getvalue()


def heightmap_pgm(surface: SurfaceSample) -> bytes:
    """16-bit grayscale image of the height field (top row at y_max)."""
    z = surface.heights
    lo = float(z.min())
    hi = float(z.max())
    span = hi - lo
    if span > 0:
        gray = np.rint((z - lo) / span * 65535.0).astype(np.uint16)
    else:
        gray = np.zeros(z.shape, dtype=np.uint16)
    image = gray.T[::-1]  # rows top-down = y descending
    header = (
        f"P5\n"
        f"# gray = round((z - z_min) / (z_max - z_min) * 65535)\n"
        f"# z_min={format_float(lo)} z_max={format_float(hi)}\n"
        f"{image.shape[1]} {image.shape[0]}\n65535\n"
    )
    return header.encode("ascii") + image.astype(">u2").tobytes()


def xyz_text(points: np.ndarray) -> str:
    out = io.StringIO()
    for x, y, z in points:
        out.write(f"{format_float(x)} {format_float(y)} {format_float(z)}\n")
    return out.getvalue()


def counts_csv(deltas, counts) -> str:
    lines = ["delta,count"]
    for d, c in zip(deltas, counts):
        c = int(c) if float(c).is_integer() else format_float(c)
        lines.append(f"{format_float(d)},{c}")
    return "\n".join(lines) + "\n"


def dimension_report_text(report: DimensionReport) -> str:
    """Key=value summary of one dimension analysis."""
    lines = []

    def put(key, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = format_float(value)
        lines.append(f"{key}={value}")

    hyp = report.hypotheses
    put("square", hyp.square)
    put("uniform_x", hyp.uniform_x)
    put("uniform_y", hyp.uniform_y)
    put("non_collinear_witness", hyp.witness is not None)
    put("applicable", hyp.applicable)
    if report.bounds is not None:
        b = report.bounds
        put("case", b.case)
        put("gap", b.gap)
        put("sum_lower", b.sum_lower)
        put("sum_upper", b.sum_upper)
        put("epsilon", b.epsilon)
        put("lower_bound", b.lower)
        put("upper_bound", b.upper)
        for k, note in enumerate(b.notes):
            put(f"note_{k}", note)
    est = report.estimate
    put("estimate", est.dimension)
    put("intercept", est.intercept)
    put("r_squared", est.r_squared)
    put("scales", len(est.deltas))
    put("excluded_scale", est.excluded[0] if est.excluded is not None else "none")
    put("resolution", report.resolution)
    put("annotation", report.annotation)
    for k, warning in enumerate(est.warnings):
        put(f"warning_{k}", warning)
    return "\n".join(lines) + "\n"


def write_text(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def write_bytes(path: Path, blob: bytes) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return path
