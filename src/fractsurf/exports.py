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

The three large formats (heightmap CSV, PGM, xyz) are produced as iterables
of byte blocks of ``_BLOCK_FLOATS`` values each, which :func:`write_bytes`
writes one after another, so none is ever whole in memory.  The text values
are formatted in blocks of whole rows or points by one shortest-round-trip
kernel (:func:`_formatted`); the image is scaled in blocks of whole rows.
Every artifact is written to a temporary file beside it and moved into place
after its last block, so a failed write leaves no partial file.
"""
from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .dimension import DimensionReport
from .errors import FractsurfError
from .ifs import SurfaceSample
from .utils import format_float

# Values per block: whole rows of the heightmap or the image, whole xyz points.
_BLOCK_FLOATS = 2 ** 15


def _formatted(rows: np.ndarray, sep: str) -> Iterator[bytes]:
    """One line per row, its values ``repr``-formatted and joined by ``sep``.

    Yields one block of whole rows holding ``_BLOCK_FLOATS`` values (at
    least one row) at a time, in order, as bytes or a bytes-like view; each
    block (:func:`_format_block`) is formatted after the last is released.
    """
    cols = rows.shape[1]
    step = max(1, _BLOCK_FLOATS // cols)
    for r0 in range(0, len(rows), step):
        yield _format_block(rows[r0:r0 + step].ravel(), cols, sep)


def _format_block(values: np.ndarray, cols: int, sep: str):
    """``values`` as text, ``cols`` to a line: one ``orjson.dumps``, copied once.

    orjson's shortest-round-trip (Ryū) digits are ``repr``'s digits; its
    commas are rewritten in place, every line's last one to a newline and
    the others to ``sep``.  orjson's spelling differs only where ``repr``
    uses exponent form (a non-zero ``|x| < 1e-4``, or ``|x| >= 1e16``) and
    for NaN and ±inf, which it writes as ``null``; only a block with such
    values is joined anew, each replaced by its ``repr``.
    """
    # imported only here: it takes about 15 ms, which runs that write no
    # large text must not pay
    import orjson

    odd = np.flatnonzero(~((np.abs(values) < 1e16) & ((np.abs(values) >= 1e-4) | (values == 0))))
    # "[v,...,v]" without the "["; value k ends at ends[k], the "]" last
    text = np.frombuffer(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY),
                         np.uint8, offset=1).copy()
    ends = np.append(np.flatnonzero(text == ord(",")), len(text) - 1)
    text[ends] = ord(sep)
    text[ends[cols - 1::cols]] = ord("\n")
    if not len(odd):
        return text.data
    pieces, done = [], 0
    for k, value in zip(odd.tolist(), values[odd].tolist()):
        pieces += [text[done:ends[k - 1] + 1 if k else 0], repr(value).encode("ascii")]
        done = ends[k]
    pieces.append(text[done:])
    return b"".join(pieces)


def heightmap_csv(surface: SurfaceSample) -> Iterator[bytes]:
    """The heightmap CSV bytes: the header, then one block of rows at a time."""
    xs = surface.x_samples
    ys = surface.y_samples
    header = [str(surface.resolution), format_float(xs[0]), format_float(xs[-1]),
              format_float(ys[0]), format_float(ys[-1])]
    yield (",".join(header) + "\n").encode("ascii")
    # heights is indexed [ix, iy]; emit rows from y_max down to y_min.
    yield from _formatted(surface.heights[:, ::-1].T, ",")


def heightmap_pgm(surface: SurfaceSample) -> Iterator[bytes]:
    """16-bit grayscale image of the height field (top row at y_max).

    Yields the header, then the pixels of one block of whole image rows
    holding ``_BLOCK_FLOATS`` values (at least one row) at a time, in order.
    """
    z = surface.heights
    lo = float(z.min())
    hi = float(z.max())
    span = hi - lo
    image = z[:, ::-1].T  # rows top-down = y descending
    yield (
        f"P5\n"
        f"# gray = round((z - z_min) / (z_max - z_min) * 65535)\n"
        f"# z_min={format_float(lo)} z_max={format_float(hi)}\n"
        f"{image.shape[1]} {image.shape[0]}\n65535\n"
    ).encode("ascii")
    step = max(1, _BLOCK_FLOATS // image.shape[1])
    for r0 in range(0, len(image), step):
        rows = image[r0:r0 + step]
        if span > 0:
            # in place, the same operations as rint((z - lo) / span * 65535)
            gray = rows - lo
            gray /= span
            gray *= 65535.0
            np.rint(gray, out=gray)
            yield gray.astype(">u2").tobytes()
        else:
            yield bytes(2 * rows.size)


def xyz_text(points: np.ndarray) -> Iterator[bytes]:
    """The xyz text bytes, one block of whole points at a time."""
    return _formatted(points, " ")


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
        put("sum_upper", b.sum_upper)
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
    """Write a string as UTF-8, newlines as they are."""
    return write_bytes(path, text.encode("utf-8"))


def write_bytes(path: Path, data: bytes | Iterable[bytes]) -> Path:
    """Write bytes, or an iterable of byte blocks one after another.

    The blocks go to a temporary file beside ``path``, which replaces
    ``path`` only after the last block, so a write that fails part-way
    leaves no truncated artifact and an earlier one as it was.  The
    directory is created if missing; a failure to create it or to write
    raises ``FractsurfError`` naming ``path``.
    """
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(partial, "wb") as fh:
                fh.writelines([data] if isinstance(data, bytes) else data)
            os.replace(partial, path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise FractsurfError(f"cannot write {path}: {exc}") from None
    return path
