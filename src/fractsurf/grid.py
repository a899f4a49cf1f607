"""Rectangular interpolation grids and the per-cell affine domain maps.

A data grid is a strictly increasing knot vector per axis plus a matrix of
heights ``z[i, j]`` anchored at ``(x_knots[i], y_knots[j])``.  Cells are
indexed 1-based: cell ``(i, j)`` spans ``[x_{i-1}, x_i] x [y_{j-1}, y_j]``.

Each cell carries an affine product map ``L_ij`` contracting the full
rectangle onto the cell.  Maps are kept affine on purpose: closed-form
inverses, exact Lipschitz constants, and the contraction bookkeeping the
fixed-point machinery depends on.

Solvers sample the rectangle on an ``R x R`` lattice with every knot on a
sample line.  :func:`sample_axes` is the one place that decides which ``R``
admit such a lattice: at most ``MAX_RESOLUTION``, at least
:func:`min_resolution`, with ``R - 1`` a multiple of :func:`alignment_base`.

Example
-------
>>> import numpy as np
>>> g = DataGrid((0.0, 0.5, 1.0), (0.0, 0.5, 1.0), np.zeros((3, 3)))
>>> g.n, g.m
(2, 2)
>>> locate_cell(g, (0.25, 0.75))
CellIndex(i=1, j=2)
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FractsurfError, InvalidGridError, OutOfDomainError

#: absolute tolerance for inverse round-trips and image/tiling checks
MAP_TOL = 1e-12
#: most samples per axis of any lattice: one R x R float array is then 34 GB,
#: and the solver holds four to five of them
MAX_RESOLUTION = 2 ** 16 + 1


@dataclass(frozen=True, order=True)
class CellIndex:
    """1-based cell address: ``i`` along x in 1..n, ``j`` along y in 1..m."""

    i: int
    j: int


@dataclass(frozen=True)
class DataGrid:
    """Immutable rectangular data set.

    Parameters
    ----------
    x_knots, y_knots:
        Strictly increasing coordinates, at least two per axis.
    z:
        Heights, shape ``(n+1, m+1)`` with ``z[i, j]`` at ``(x_i, y_j)``.
        Note the x-major layout; tables that print one row per y level
        must be transposed (see :func:`DataGrid.from_y_rows`).
    """

    x_knots: tuple[float, ...]
    y_knots: tuple[float, ...]
    z: np.ndarray = field(compare=False)

    def __post_init__(self):
        xs = tuple(float(v) for v in self.x_knots)
        ys = tuple(float(v) for v in self.y_knots)
        object.__setattr__(self, "x_knots", xs)
        object.__setattr__(self, "y_knots", ys)
        if len(xs) < 2 or len(ys) < 2:
            raise InvalidGridError("need at least two knots per axis")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InvalidGridError("x_knots must be strictly increasing")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise InvalidGridError("y_knots must be strictly increasing")
        z = np.array(self.z, dtype=float)
        if z.shape != (len(xs), len(ys)):
            raise InvalidGridError(
                f"z has shape {z.shape}, expected {(len(xs), len(ys))} "
                "(x-major: one row per x knot)")
        if not np.all(np.isfinite(z)):
            raise InvalidGridError("z contains non-finite values")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @classmethod
    def from_y_rows(cls, x_knots: Sequence[float], y_knots: Sequence[float],
                    rows: Iterable[Sequence[float]]) -> "DataGrid":
        """Build from a table printed one row per y level (so z is transposed)."""
        mat = np.array([list(r) for r in rows], dtype=float)
        return cls(tuple(x_knots), tuple(y_knots), mat.T)

    @property
    def n(self) -> int:
        return len(self.x_knots) - 1

    @property
    def m(self) -> int:
        return len(self.y_knots) - 1

    @property
    def x_span(self) -> float:
        return self.x_knots[-1] - self.x_knots[0]

    @property
    def y_span(self) -> float:
        return self.y_knots[-1] - self.y_knots[0]

    @property
    def rect(self) -> tuple[float, float, float, float]:
        """Full rectangle as (x_lo, x_hi, y_lo, y_hi)."""
        return (self.x_knots[0], self.x_knots[-1], self.y_knots[0], self.y_knots[-1])

    def cells(self) -> list[CellIndex]:
        return [CellIndex(i, j) for i in range(1, self.n + 1) for j in range(1, self.m + 1)]

    def cell_rect(self, cell: CellIndex) -> tuple[float, float, float, float]:
        """Rectangle of one cell as (x_lo, x_hi, y_lo, y_hi)."""
        if not (1 <= cell.i <= self.n and 1 <= cell.j <= self.m):
            raise InvalidGridError(f"cell {cell} outside 1..{self.n} x 1..{self.m}")
        return (self.x_knots[cell.i - 1], self.x_knots[cell.i],
                self.y_knots[cell.j - 1], self.y_knots[cell.j])

    def corner_values(self, cell: CellIndex) -> tuple[float, float, float, float]:
        """Heights at the cell corners: (z_ll, z_hl, z_lh, z_hh) in (x, y) order."""
        i, j = cell.i, cell.j
        return (float(self.z[i - 1, j - 1]), float(self.z[i, j - 1]),
                float(self.z[i - 1, j]), float(self.z[i, j]))


@dataclass(frozen=True)
class AxisMap:
    """Affine contraction of one axis interval onto a knot interval.

    ``orientation`` +1 sends the low end of the source to the low end of
    the target; -1 flips the interval.
    """

    scale: float
    offset: float
    orientation: int
    source: tuple[float, float]
    target: tuple[float, float]

    @classmethod
    def build(cls, source: tuple[float, float], target: tuple[float, float],
              orientation: int = 1) -> "AxisMap":
        if orientation not in (1, -1):
            raise InvalidGridError(f"orientation must be +1 or -1, got {orientation}")
        (s0, s1), (t0, t1) = source, target
        scale = (t1 - t0) / (s1 - s0) * orientation
        if abs(scale) >= 1.0:
            raise InvalidGridError(
                f"axis map scale {scale:+.6g} is not a contraction; "
                "a single-cell axis cannot be refined by itself")
        anchor = t0 if orientation == 1 else t1
        offset = anchor - scale * s0
        return cls(scale, offset, orientation, (float(s0), float(s1)), (float(t0), float(t1)))

    def __call__(self, t):
        return self.scale * np.asarray(t, dtype=float) + self.offset

    def invert(self, t, tol: float = MAP_TOL):
        arr = np.asarray(t, dtype=float)
        lo, hi = self.target
        if np.any(arr < lo - tol) or np.any(arr > hi + tol):
            raise OutOfDomainError(
                f"value outside map image [{lo}, {hi}] by more than {tol}")
        return (arr - self.offset) / self.scale


@dataclass(frozen=True)
class DomainMap:
    """Product map L(x, y) = (axis_x(x), axis_y(y)) for one cell."""

    cell: CellIndex
    axis_x: AxisMap
    axis_y: AxisMap

    def __call__(self, point):
        x, y = point
        return (self.axis_x(x), self.axis_y(y))

    def invert(self, point, tol: float = MAP_TOL):
        x, y = point
        return (self.axis_x.invert(x, tol), self.axis_y.invert(y, tol))

    @property
    def contraction(self) -> float:
        """Lipschitz constant in the taxicab metric |dx| + |dy|."""
        return max(abs(self.axis_x.scale), abs(self.axis_y.scale))


def build_domain_maps(grid: DataGrid,
                      orientations: Mapping[tuple[int, int], tuple[int, int]] | None = None
                      ) -> dict[CellIndex, DomainMap]:
    """One affine contraction per cell, mapping the full rectangle onto it.

    ``orientations`` optionally assigns (sign_x, sign_y) per (i, j); every
    cell defaults to order-preserving (+1, +1).  Raises InvalidGridError
    when an axis has a single interval (scale 1 is not a contraction).
    """
    orientations = orientations or {}
    x0, x1, y0, y1 = grid.rect
    maps: dict[CellIndex, DomainMap] = {}
    for cell in grid.cells():
        cx_lo, cx_hi, cy_lo, cy_hi = grid.cell_rect(cell)
        ox, oy = orientations.get((cell.i, cell.j), (1, 1))
        maps[cell] = DomainMap(
            cell,
            AxisMap.build((x0, x1), (cx_lo, cx_hi), ox),
            AxisMap.build((y0, y1), (cy_lo, cy_hi), oy),
        )
    return maps


def locate_cell(grid: DataGrid, point) -> CellIndex:
    """Cell containing a point; shared edges resolve to the lower-index cell.

    Raises OutOfDomainError for points outside the grid rectangle.
    """
    x, y = float(point[0]), float(point[1])
    x0, x1, y0, y1 = grid.rect
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        raise OutOfDomainError(f"point ({x}, {y}) outside [{x0}, {x1}] x [{y0}, {y1}]")
    i = int(np.searchsorted(np.asarray(grid.x_knots), x, side="left"))
    j = int(np.searchsorted(np.asarray(grid.y_knots), y, side="left"))
    return CellIndex(max(i, 1), max(j, 1))


def _knot_fractions(knots: Sequence[float]) -> list[Fraction]:
    """Each knot's offset from the first knot as an exact fraction of the span."""
    span = knots[-1] - knots[0]
    return [Fraction((k - knots[0]) / span).limit_denominator(10 ** 9) for k in knots]


def alignment_base(grid: DataGrid) -> int:
    """Smallest A such that A times every knot fraction is an integer."""
    return math.lcm(*(f.denominator for knots in (grid.x_knots, grid.y_knots)
                      for f in _knot_fractions(knots)))


def min_resolution(grid: DataGrid) -> int:
    """Fewest samples per axis: four sample intervals per cell of the longer axis."""
    return 4 * max(grid.n, grid.m) + 1


def sample_axes(grid: DataGrid, resolution: int):
    """The sample lattice: ``resolution`` samples per axis, every knot on one.

    The lattice exists iff ``resolution`` is at most ``MAX_RESOLUTION``, at
    least :func:`min_resolution`, and ``resolution - 1`` is a multiple of
    :func:`alignment_base`; otherwise this raises.  Returns
    ``((x_samples, x_blocks), (y_samples, y_blocks))`` where ``blocks[k]`` is
    the number of sample intervals inside cell ``k + 1`` of that axis; each
    cell is sampled by its own linspace, so the knots are exact sample values.
    """
    if resolution > MAX_RESOLUTION:
        raise FractsurfError(f"resolution {resolution} is above the ceiling {MAX_RESOLUTION}")
    floor = min_resolution(grid)
    if resolution < floor:
        raise FractsurfError(f"resolution {resolution} is too coarse for a "
                             f"{grid.n}x{grid.m} grid; need at least {floor}")
    base = alignment_base(grid)
    if (resolution - 1) % base:
        raise FractsurfError(
            f"resolution {resolution} is not knot-aligned: R - 1 must be a multiple "
            f"of the grid's alignment base {base}")
    axes = []
    for knots in (grid.x_knots, grid.y_knots):
        stops = [int(f * (resolution - 1)) for f in _knot_fractions(knots)]
        blocks = [b - a for a, b in zip(stops, stops[1:])]
        parts = [np.linspace(lo, hi, k + 1) for lo, hi, k in zip(knots, knots[1:], blocks)]
        axes.append((np.concatenate([parts[0]] + [p[1:] for p in parts[1:]]), blocks))
    return tuple(axes)


def load_grid_text(text: str) -> DataGrid:
    """Parse the plain-text grid format.

    Layout: optional ``#`` comment lines, a line ``x: <knots>``, a line
    ``y: <knots>``, then one whitespace-separated row of heights per y
    level (top table row = first y knot), each with one entry per x knot.
    """
    xs: list[float] | None = None
    ys: list[float] | None = None
    rows: list[list[float]] = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("x:"):
                xs = [float(v) for v in line[2:].split()]
            elif line.startswith("y:"):
                ys = [float(v) for v in line[2:].split()]
            else:
                rows.append([float(v) for v in line.split()])
        except ValueError as exc:
            raise InvalidGridError(f"line {lineno}: {exc}") from None
    if xs is None or ys is None:
        raise InvalidGridError("grid text needs 'x:' and 'y:' knot lines")
    if len(rows) != len(ys):
        raise InvalidGridError(f"expected {len(ys)} height rows, found {len(rows)}")
    if any(len(r) != len(xs) for r in rows):
        raise InvalidGridError("every height row needs one value per x knot")
    return DataGrid.from_y_rows(xs, ys, rows)
