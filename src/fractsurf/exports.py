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

The two large text formats (heightmap CSV, xyz) are produced as iterables of
strings, which :func:`write_text` writes one after another, so their text
is never whole in memory.  Their values are formatted in blocks of whole
rows or points, by a pool of forked worker processes when the machine
offers more than one usable CPU (:func:`_formatted`); the bytes do not
depend on how many workers ran.
"""
from __future__ import annotations

import os
from collections import deque
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .dimension import DimensionReport
from .errors import FractsurfError
from .ifs import SurfaceSample
from .utils import format_float

# Values per formatted block: whole rows of the heightmap, whole xyz points.
_BLOCK_FLOATS = 2 ** 15


def _usable_cpus() -> int:
    # without an affinity probe (not Linux) the text is formatted in-process
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _formatted(format_block: Callable[[np.ndarray], str], rows: np.ndarray,
               artifact: str) -> Iterator[str]:
    """``format_block`` of consecutive blocks of whole ``rows``, in order.

    A block holds ``_BLOCK_FLOATS`` values (at least one row).  With more
    than one usable CPU and more than one block, the blocks go to one forked
    worker per usable CPU (at most one per block), with at most workers + 1
    blocks in flight; otherwise they are formatted in this process by the
    same function.  The pool is shut down and its workers joined before the
    generator finishes, is closed or raises.  A worker's exception re-raises
    here; a worker that dies raises :class:`FractsurfError` naming
    ``artifact``.
    """
    step = max(1, _BLOCK_FLOATS // rows.shape[1])
    blocks = (rows[r0:r0 + step] for r0 in range(0, len(rows), step))
    workers = min(_usable_cpus(), -(-len(rows) // step))
    if workers <= 1:
        yield from map(format_block, blocks)
        return
    # imported only here: they take about 30 ms and 1 MB, which runs that
    # write no large text must not pay
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        pending = deque()
        for block in blocks:
            pending.append(pool.submit(format_block, block))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool as exc:
        raise FractsurfError(f"writing the {artifact}: a formatting worker "
                             f"process died") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _format_rows(rows: np.ndarray) -> str:
    # repr of the Python floats from tolist() is format_float, per element
    return "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())


def _format_points(points: np.ndarray) -> str:
    return "".join(" ".join(map(repr, point)) + "\n" for point in points.tolist())


def heightmap_csv(surface: SurfaceSample) -> Iterator[str]:
    """The heightmap CSV text: the header, then one string per block of rows."""
    xs = surface.x_samples
    ys = surface.y_samples
    header = [str(surface.resolution), format_float(xs[0]), format_float(xs[-1]),
              format_float(ys[0]), format_float(ys[-1])]
    yield ",".join(header) + "\n"
    # heights is indexed [ix, iy]; emit rows from y_max down to y_min.
    yield from _formatted(_format_rows, surface.heights[:, ::-1].T, "heightmap CSV")


def heightmap_pgm(surface: SurfaceSample) -> bytes:
    """16-bit grayscale image of the height field (top row at y_max)."""
    z = surface.heights
    lo = float(z.min())
    hi = float(z.max())
    span = hi - lo
    if span > 0:
        # in place, the same operations as rint((z - lo) / span * 65535)
        gray = z - lo
        gray /= span
        gray *= 65535.0
        np.rint(gray, out=gray)
    else:
        gray = np.zeros(z.shape)
    image = gray.T[::-1]  # rows top-down = y descending
    header = (
        f"P5\n"
        f"# gray = round((z - z_min) / (z_max - z_min) * 65535)\n"
        f"# z_min={format_float(lo)} z_max={format_float(hi)}\n"
        f"{image.shape[1]} {image.shape[0]}\n65535\n"
    )
    return header.encode("ascii") + image.astype(">u2").tobytes()


def xyz_text(points: np.ndarray) -> Iterator[str]:
    """The xyz text, one string per block of whole points."""
    return _formatted(_format_points, points, "xyz point cloud")


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


def write_text(path: Path, text: str | Iterable[str]) -> Path:
    """Write a string, or an iterable of strings one after another, as UTF-8."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    return path


def write_bytes(path: Path, blob: bytes) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return path
