"""Box-counting dimension: a certified band and an empirical estimate.

On an n-by-n grid with uniform knot spacing, the paper bounds the dimension
of the attractor graph by ``1 + log_n sum_c min|s_c|`` below and
``1 + log_n sum_c max|s_c|`` above.  Every scaling field here is certified
to vanish on its cell edges, so ``min|s_c| = 0`` and the lower sum never
bounds anything: the lower end is the trivial 2 of a continuous surface
graph.  The upper sum is read off the certificates the fields already
carry, ``sum_c sup_bound_c``:

* ``sum <= n`` -> the graph has box-counting dimension exactly 2;
* ``sum > n``  -> ``2 <= dim <= 1 + log_n sum``, which stays below 3
  because every ``sup_bound < 1``.

The empirical side counts axis-aligned cubes of side ``delta`` touched by
the sampled graph using the column trick: a ``delta`` x ``delta`` base
column contributes ``ceil((z_max - z_min) / delta) + 1`` cubes.  Scales
must divide the sample grid evenly with at least four sample intervals per
cube edge, so column extrema are exact maxima over aligned sample blocks
(the column-oscillation variation of Feng, 2008).  :class:`ColumnExtrema`
takes the heights one row block at a time and keeps the extrema of the
finest columns only: a coarser column is the union of whole fine columns,
shared boundary samples included, so every coarser scale follows exactly by
a max/min reduction.  A ``dimension`` solve hands its row blocks straight to
it (``solve_fixed_point(..., fold=...)``) and never holds the surface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import FractsurfError, ScaleResolutionError
from .grid import CellIndex, DataGrid, alignment_base, min_resolution
from .ifs import SurfaceSample, fold_rows
from .scaling import ScalingField

UNIFORM_TOL = 1e-12
COLLINEAR_TOL = 1e-10
MIN_SAMPLES_PER_BOX = 4


@dataclass(frozen=True)
class HypothesisReport:
    """Which structural requirements for the dimension bounds hold."""

    square: bool
    uniform_x: bool
    uniform_y: bool
    witness: tuple[str, int] | None  # interior knot line with bent data
    reasons: tuple[str, ...]

    @property
    def applicable(self) -> bool:
        return self.square and self.uniform_x and self.uniform_y


@dataclass(frozen=True)
class DimensionBounds:
    lower: float
    upper: float
    case: str            # "exactly-two" | "bounds"
    sum_upper: float     # sum over the cells of the certified sup|s|
    notes: tuple[str, ...]


@dataclass(frozen=True)
class DimensionEstimate:
    dimension: float
    intercept: float
    r_squared: float
    deltas: tuple[float, ...]
    counts: tuple[float, ...]  # integers from box counting; floats accepted
    residuals: tuple[float, ...]
    excluded: tuple[float, float] | None
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class DimensionReport:
    hypotheses: HypothesisReport
    bounds: DimensionBounds | None
    estimate: DimensionEstimate
    resolution: int
    annotation: str


def _axis_uniform(knots: tuple[float, ...]) -> bool:
    diffs = np.diff(knots)
    return bool(np.max(np.abs(diffs - diffs.mean()))
                <= UNIFORM_TOL * max(1.0, knots[-1] - knots[0]))


def _line_deviation(t: np.ndarray, z: np.ndarray) -> float:
    """Max perpendicular distance of the points from their endpoint chord."""
    dt = t[-1] - t[0]
    dz = z[-1] - z[0]
    norm = math.hypot(dt, dz)
    cross = np.abs(dt * (z - z[0]) - (t - t[0]) * dz)
    return float(cross.max() / norm)


def check_hypotheses(grid: DataGrid) -> HypothesisReport:
    """Structural requirements: square uniform grid, a bent interior line.

    The band needs a square uniform grid.  The witness is the first
    interior knot line (constant x first, then constant y) whose data
    points deviate from their chord by more than ``COLLINEAR_TOL``, or
    ``None`` when every interior line is straight.  A bent line is the
    paper's hypothesis for a lower bound above 2; the band's lower end is
    2 on every grid (see :func:`bounds_from_fields`), so the witness is
    reported, not used.  Inapplicability is reported, never raised.
    """
    reasons = []
    square = grid.n == grid.m
    if not square:
        reasons.append(f"grid is {grid.n}x{grid.m}, not square")
    uniform_x = _axis_uniform(grid.x_knots)
    if not uniform_x:
        reasons.append("x knots are not uniformly spaced")
    uniform_y = _axis_uniform(grid.y_knots)
    if not uniform_y:
        reasons.append("y knots are not uniformly spaced")
    witness = None
    xs = np.asarray(grid.x_knots)
    ys = np.asarray(grid.y_knots)
    for i in range(1, grid.n):
        if _line_deviation(ys, grid.z[i, :]) > COLLINEAR_TOL:
            witness = ("x", i)
            break
    if witness is None:
        for j in range(1, grid.m):
            if _line_deviation(xs, grid.z[:, j]) > COLLINEAR_TOL:
                witness = ("y", j)
                break
    if witness is None:
        reasons.append("data are collinear along every interior knot line")
    return HypothesisReport(square=square, uniform_x=uniform_x, uniform_y=uniform_y,
                            witness=witness, reasons=tuple(reasons))


def bounds_from_fields(grid: DataGrid,
                       scalings: Mapping[CellIndex, ScalingField]) -> DimensionBounds:
    """The band from the fields' certified sups: exactly 2, or ``[2, 1 + log_n sum]``.

    Requires a square uniform grid (raises otherwise — use
    :func:`check_hypotheses` to branch).  Nothing is sampled here: each
    ``sup_bound`` is the certificate the field was built with.
    """
    hyp = check_hypotheses(grid)
    if not hyp.applicable:
        raise FractsurfError(
            "dimension bounds need a square uniform grid: " + "; ".join(
                r for r in hyp.reasons if "collinear" not in r))
    n = grid.n
    sum_upper = sum(scalings[cell].sup_bound for cell in grid.cells())
    if sum_upper <= n:
        return DimensionBounds(lower=2.0, upper=2.0, case="exactly-two",
                               sum_upper=sum_upper, notes=())
    return DimensionBounds(
        lower=2.0, upper=1.0 + math.log(sum_upper) / math.log(n), case="bounds",
        sum_upper=sum_upper,
        notes=("every field vanishes on its cell edges, so min|s| = 0 and the lower "
               "bound is the trivial 2 of a continuous surface graph",))


def natural_scales(grid: DataGrid, depth: int) -> list[float]:
    """Cube sides span / n^k for k = 1..depth (n = cells along x)."""
    if depth < 1:
        raise FractsurfError("depth must be at least 1")
    span = grid.x_knots[-1] - grid.x_knots[0]
    return [span / grid.n ** k for k in range(1, depth + 1)]


def dimension_resolution(grid: DataGrid, depth: int) -> int:
    """Smallest lattice resolution resolving all scales down to depth.

    ``R - 1`` is the smallest multiple of ``lcm(alignment_base, n^depth)``
    that gives every finest box ``MIN_SAMPLES_PER_BOX`` sample intervals and
    ``R`` at least the grid's :func:`~fractsurf.grid.min_resolution`.
    """
    finest_boxes = grid.n ** depth
    step = math.lcm(alignment_base(grid), finest_boxes)
    need = max(MIN_SAMPLES_PER_BOX * finest_boxes, min_resolution(grid) - 1)
    return -(-need // step) * step + 1


def box_layout(resolution: int, spans: tuple[float, float],
               delta: float) -> tuple[int, int, int, int]:
    """``(bx, wx, by, wy)``: boxes of side ``delta`` and sample intervals per box along x and y.

    Raises ScaleResolutionError unless ``delta`` tiles both spans, every box
    edge falls on a sample and holds at least ``MIN_SAMPLES_PER_BOX`` sample
    intervals.
    """
    out = []
    for span in spans:
        boxes = span / delta
        b = round(boxes)
        if b < 1 or abs(boxes - b) > 1e-9:
            raise ScaleResolutionError(
                f"scale {delta!r} does not tile the span {span!r} evenly")
        w = (resolution - 1) / b
        wi = round(w)
        if abs(w - wi) > 1e-9:
            raise ScaleResolutionError(
                f"scale {delta!r} is not aligned with the sample grid "
                f"(needs {w:.6g} sample intervals per box)")
        if wi < MIN_SAMPLES_PER_BOX:
            raise ScaleResolutionError(
                f"scale {delta!r} too fine for resolution {resolution}: only {wi} sample "
                f"intervals per box edge, need at least {MIN_SAMPLES_PER_BOX}")
        out.extend([b, wi])
    return out[0], out[1], out[2], out[3]


class ColumnExtrema:
    """Inclusive column extrema of a sampled surface, folded in one row block at a time.

    A ``delta`` layout has ``bx x by`` base columns; column ``(a, b)`` covers
    the samples ``[a*wx, (a+1)*wx] x [b*wy, (b+1)*wy]``, boundary samples
    shared with its neighbours.  Only the finest layout of each nested
    family of the given scales is folded: a coarser column is the union of
    whole fine columns, shared samples included, so its extrema are exactly
    the maxima and minima over them.  ``spans`` are the sample axes' spans.
    """

    def __init__(self, resolution: int, spans: tuple[float, float], deltas: Sequence[float]):
        self.resolution = resolution
        self.spans = spans
        self.folded: dict[tuple[int, int, int, int], tuple[np.ndarray, np.ndarray]] = {}
        for bx, wx, by, wy in sorted({self.layout(d) for d in deltas},
                                     key=lambda layout: (layout[1], layout[3])):
            if self._finer((bx, wx, by, wy)) is None:
                self.folded[bx, wx, by, wy] = (np.full((bx, by), -np.inf),
                                               np.full((bx, by), np.inf))

    def layout(self, delta: float) -> tuple[int, int, int, int]:
        """``(bx, wx, by, wy)``: boxes and sample intervals per box along x and y."""
        return box_layout(self.resolution, self.spans, delta)

    def _finer(self, layout):
        for fine in self.folded:
            if layout[1] % fine[1] == 0 and layout[3] % fine[3] == 0:
                return fine
        return None

    def __call__(self, r0: int, rows: np.ndarray) -> None:
        """Fold the sample rows ``r0, r0 + 1, ...`` (every column) in."""
        last = r0 + len(rows) - 1
        for (bx, wx, by, wy), extrema in self.folded.items():
            for a in range(max((r0 - 1) // wx, 0), min(last // wx, bx - 1) + 1):
                strip = rows[max(a * wx, r0) - r0:min((a + 1) * wx, last) - r0 + 1]
                for reduce, out in zip((np.maximum, np.minimum), extrema):
                    # the strip's rows first, then each column's samples [b*wy, (b+1)*wy]
                    line = reduce.reduce(strip, axis=0)
                    reduce(out[a], reduce.reduce(line[:-1].reshape(by, wy), axis=1), out=out[a])
                    reduce(out[a], line[wy::wy], out=out[a])

    def extrema(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        """Column maxima and minima at ``delta``, reduced from a folded finer layout."""
        bx, wx, by, wy = layout = self.layout(delta)
        fine = self._finer(layout)
        if fine is None:
            raise ScaleResolutionError(f"scale {delta!r} was not folded")
        col_max, col_min = self.folded[fine]
        shape = (bx, wx // fine[1], by, wy // fine[3])
        return (col_max.reshape(shape).max(axis=(1, 3)),
                col_min.reshape(shape).min(axis=(1, 3)))

    def count(self, delta: float) -> int:
        """Cubes of side ``delta``: ``ceil(range / delta) + 1`` per base column."""
        bx, _, by, _ = self.layout(delta)
        col_max, col_min = self.extrema(delta)
        spans = (col_max - col_min) / delta
        return int(np.sum(np.ceil(spans - 1e-9)) + bx * by)


def _spans(surface: SurfaceSample) -> tuple[float, float]:
    return (float(surface.x_samples[-1] - surface.x_samples[0]),
            float(surface.y_samples[-1] - surface.y_samples[0]))


def box_counts(surface: SurfaceSample, deltas: Sequence[float]) -> list[int]:
    """Number of delta-cubes touched by the sampled graph, at every scale.

    Each delta x delta base column contributes ceil(range / delta) + 1
    cubes, with the column height range read off the inclusive sample
    block (shared boundary samples count toward both adjacent columns).
    All scales come from one fold of the rows.  A surface solved with a
    :class:`ColumnExtrema` fold carries it in place of its heights;
    otherwise the heights are folded here, row block by row block.
    """
    columns = surface.fold
    if surface.heights is not None:
        columns = ColumnExtrema(surface.resolution, _spans(surface), deltas)
        fold_rows(surface.heights, columns)
    return [columns.count(d) for d in deltas]


def box_count_points(points: np.ndarray, delta: float,
                     rect: tuple[float, float, float, float]) -> int:
    """Cube count for a point cloud, anchored at the rectangle corner and
    the lowest point; the cross-check oracle for :func:`box_counts`."""
    x0, x1, y0, y1 = rect
    pts = np.asarray(points, dtype=float)
    ix = np.floor((pts[:, 0] - x0) / delta).astype(np.int64)
    iy = np.floor((pts[:, 1] - y0) / delta).astype(np.int64)
    iz = np.floor((pts[:, 2] - pts[:, 2].min()) / delta).astype(np.int64)
    ix = np.minimum(ix, int(math.ceil((x1 - x0) / delta)) - 1)
    iy = np.minimum(iy, int(math.ceil((y1 - y0) / delta)) - 1)
    return int(np.unique(np.stack([ix, iy, iz], axis=1), axis=0).shape[0])


def _fit(log_inv: np.ndarray, log_counts: np.ndarray):
    slope, intercept = np.polyfit(log_inv, log_counts, 1)
    fitted = slope * log_inv + intercept
    resid = np.abs(log_counts - fitted)
    ss_res = float(np.sum((log_counts - fitted) ** 2))
    ss_tot = float(np.sum((log_counts - log_counts.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2, resid


def estimate_dimension(deltas: Sequence[float], counts: Sequence[int]) -> DimensionEstimate:
    """OLS slope of log N against log (1/delta) over at least three scales.

    With at least four scales, a coarsest scale whose residual exceeds
    three times the median residual is dropped once and the line refit:
    the largest boxes often sit outside the asymptotic regime.
    """
    deltas = [float(d) for d in deltas]
    counts = [float(c) for c in counts]
    if len(deltas) != len(counts) or len(deltas) < 3:
        raise FractsurfError("need at least three (delta, count) pairs")
    if any(c < 1 for c in counts):
        raise FractsurfError("box counts must be at least 1")
    order = np.argsort(deltas)[::-1]  # coarsest first
    d = np.array([deltas[k] for k in order])
    c = np.array([counts[k] for k in order], dtype=float)
    warnings: list[str] = []
    if np.all(c == c[0]):
        warnings.append("box counts constant across scales")
    log_inv = np.log(1.0 / d)
    log_c = np.log(c)
    slope, intercept, r2, resid = _fit(log_inv, log_c)
    excluded = None
    # the coarsest boxes often sit outside the asymptotic regime; judge the
    # candidate against the median residual of the *other* scales so a bad
    # first point cannot inflate its own yardstick.  The floor keeps exact
    # power laws (residuals ~ 1e-16) from tripping the rule on rounding noise.
    med = max(float(np.median(resid[1:])), 1e-3)
    if len(d) >= 4 and resid[0] > 3 * med:
        excluded = (float(d[0]), float(c[0]))
        warnings.append(
            f"dropped coarsest scale {d[0]:.6g} (residual {resid[0]:.3g} "
            f"> 3x median {med:.3g})")
        d, c = d[1:], c[1:]
        log_inv, log_c = log_inv[1:], log_c[1:]
        slope, intercept, r2, resid = _fit(log_inv, log_c)
    return DimensionEstimate(dimension=slope, intercept=intercept, r_squared=r2,
                             deltas=tuple(d), counts=tuple(float(v) for v in c),
                             residuals=tuple(float(v) for v in resid),
                             excluded=excluded, warnings=tuple(warnings))


def dimension_report(grid: DataGrid, scalings: Mapping[CellIndex, ScalingField],
                     surface: SurfaceSample, depth: int) -> DimensionReport:
    """Full dimension analysis: hypotheses, bounds where they apply, and the
    empirical estimate from the natural scale ladder."""
    hyp = check_hypotheses(grid)
    bounds = None
    if hyp.applicable:
        bounds = bounds_from_fields(grid, scalings)
        annotation = "theoretical band available"
    else:
        annotation = ("empirical estimate only, no theoretical band: " + "; ".join(
            r for r in hyp.reasons if "collinear" not in r))
    deltas = natural_scales(grid, depth)
    counts = box_counts(surface, deltas)
    est = estimate_dimension(deltas, counts)
    return DimensionReport(hypotheses=hyp, bounds=bounds, estimate=est,
                           resolution=surface.resolution, annotation=annotation)
