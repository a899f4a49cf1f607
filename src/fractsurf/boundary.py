"""Boundary curves along knot lines, cell blends, and vertical offsets.

The attractor surface restricted to a knot line is forced to equal a
prescribed curve through that line's data points (one curve per x knot and
per y knot).  Inside each cell a blend function ``h`` interpolates the four
surrounding curves; the default is the transfinite (Coons) blend, which
matches them exactly, but an explicit bivariate polynomial table may be
supplied instead and is then validated against the curves.

The vertical offset of each IFS map combines the blend with the scaling
field and a free Lipschitz field g:

    Q(x, y) = -s(L(x, y)) * g(x, y) + h(L(x, y))      on the full rectangle

so that the map sends the graph point (x, y, g(x, y)) to the blend height.
g shifts where the fractal detail is injected; g = 0 is the common choice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (BlendCompatibilityError, BlendValidationError,
                     CurveValidationError, FractsurfError)
from .grid import CellIndex, DataGrid, DomainMap
from .scaling import ScalingField
from .utils import (PiecewisePoly, compile_xy_expression, poly2d_gradient_bound,
                    poly_outer, polyval2d, table_add)

INTERP_TOL = 1e-12
EDGE_MATCH_TOL = 1e-9
EDGE_MATCH_SAMPLES = 1024
#: highest piece degree that boundary method 'quadratic' accepts
QUADRATIC_MAX_DEGREE = 2


@dataclass(frozen=True)
class BoundaryCurve:
    """Curve along one knot line.

    ``q[i]`` lives on the vertical line x = x_knots[i] and is evaluated in
    y; ``r[j]`` lives on y = y_knots[j] and is evaluated in x.
    """

    poly: PiecewisePoly

    def __call__(self, t):
        return self.poly(t)


@dataclass(frozen=True)
class CurveNetwork:
    """All boundary curves of a grid: q[i] varies in y, r[j] varies in x."""

    q: tuple[BoundaryCurve, ...]
    r: tuple[BoundaryCurve, ...]


def _linear_pieces(knots: Sequence[float], values: np.ndarray) -> list[tuple[float, float]]:
    pieces = []
    for k in range(len(knots) - 1):
        slope = (values[k + 1] - values[k]) / (knots[k + 1] - knots[k])
        pieces.append((float(values[k] - slope * knots[k]), float(slope)))
    return pieces


def _validate_curve(name: str, curve: BoundaryCurve, knots: Sequence[float],
                    values: np.ndarray) -> None:
    for k, t in enumerate(knots):
        err = abs(float(curve.poly(t)) - float(values[k]))
        if err > INTERP_TOL:
            raise CurveValidationError(
                f"{name} misses its data point at t={t}: "
                f"curve gives {float(curve.poly(t))!r}, data is {float(values[k])!r} "
                f"(|error| = {err:.3g})")
    for k, gap in enumerate(curve.poly.junction_gaps()):
        if gap > INTERP_TOL:
            raise CurveValidationError(
                f"{name} is discontinuous at the junction t={knots[k + 1]} "
                f"(jump {gap:.3g})")


def build_boundary_curves(grid: DataGrid, method: str = "linear",
                          q_coeffs: Sequence[Sequence[Sequence[float]]] | None = None,
                          r_coeffs: Sequence[Sequence[Sequence[float]]] | None = None
                          ) -> CurveNetwork:
    """Construct and validate the full curve network.

    method 'linear' interpolates the data rows/columns piecewise linearly.
    method 'quadratic' takes explicit degree<=2 coefficients per piece
    (fitting quadratics to two data points per interval is underdetermined,
    so coefficients must be supplied, not fitted).  method 'pieces' is the
    same with no degree cap.  Every curve is validated: it must hit its
    data points to 1e-12 and be continuous at junctions.
    """
    if method not in ("linear", "quadratic", "pieces"):
        raise FractsurfError(f"unknown boundary method {method!r}")
    if method == "linear":
        q_lists = [_linear_pieces(grid.y_knots, grid.z[i, :]) for i in range(grid.n + 1)]
        r_lists = [_linear_pieces(grid.x_knots, grid.z[:, j]) for j in range(grid.m + 1)]
    else:
        if q_coeffs is None or r_coeffs is None:
            raise FractsurfError(f"method {method!r} requires q/r piece coefficients")
        if len(q_coeffs) != grid.n + 1 or len(r_coeffs) != grid.m + 1:
            raise FractsurfError(
                f"need {grid.n + 1} q curves and {grid.m + 1} r curves, "
                f"got {len(q_coeffs)} and {len(r_coeffs)}")
        if method == "quadratic":
            for label, group in (("q", q_coeffs), ("r", r_coeffs)):
                for idx, pieces in enumerate(group):
                    for p, c in enumerate(pieces):
                        if len(c) > QUADRATIC_MAX_DEGREE + 1:
                            raise FractsurfError(
                                f"{label}[{idx}] piece {p + 1} has degree {len(c) - 1} "
                                f"> {QUADRATIC_MAX_DEGREE} for method 'quadratic'")
        q_lists = [[tuple(float(v) for v in c) for c in pieces] for pieces in q_coeffs]
        r_lists = [[tuple(float(v) for v in c) for c in pieces] for pieces in r_coeffs]

    qs = []
    for i, pieces in enumerate(q_lists):
        curve = BoundaryCurve(PiecewisePoly(grid.y_knots, tuple(tuple(c) for c in pieces)))
        _validate_curve(f"q[{i}] (knot line x={grid.x_knots[i]})", curve,
                        grid.y_knots, grid.z[i, :])
        qs.append(curve)
    rs = []
    for j, pieces in enumerate(r_lists):
        curve = BoundaryCurve(PiecewisePoly(grid.x_knots, tuple(tuple(c) for c in pieces)))
        _validate_curve(f"r[{j}] (knot line y={grid.y_knots[j]})", curve,
                        grid.x_knots, grid.z[:, j])
        rs.append(curve)
    return CurveNetwork(tuple(qs), tuple(rs))


@dataclass(frozen=True)
class PatchBlend:
    """Blend function h on one cell, matching the four boundary curves.

    ``coeffs`` is the expanded monomial table in the cell's native
    coordinates; it always exists (the transfinite blend of polynomial
    curve pieces is itself a polynomial) and feeds the Lipschitz bound.
    Evaluation of the 'coons' form goes through the blend formula proper,
    which is exact on the edges by construction.
    """

    cell: CellIndex
    rect: tuple[float, float, float, float]
    form: str  # "coons" | "explicit"
    coeffs: np.ndarray = field(compare=False)
    q_lo: BoundaryCurve | None = field(default=None, compare=False, repr=False)
    q_hi: BoundaryCurve | None = field(default=None, compare=False, repr=False)
    r_lo: BoundaryCurve | None = field(default=None, compare=False, repr=False)
    r_hi: BoundaryCurve | None = field(default=None, compare=False, repr=False)
    corners: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __call__(self, x, y):
        if self.form == "explicit":
            return polyval2d(x, y, self.coeffs)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x_lo, x_hi, y_lo, y_hi = self.rect
        u = (x - x_lo) / (x_hi - x_lo)
        v = (y - y_lo) / (y_hi - y_lo)
        z_ll, z_hl, z_lh, z_hh = self.corners
        ruled = (1 - u) * self.q_lo(y) + u * self.q_hi(y) \
            + (1 - v) * self.r_lo(x) + v * self.r_hi(x)
        bilinear = ((1 - u) * (1 - v) * z_ll + u * (1 - v) * z_hl
                    + (1 - u) * v * z_lh + u * v * z_hh)
        return ruled - bilinear

    def lipschitz_bound(self) -> float:
        x_lo, x_hi, y_lo, y_hi = self.rect
        return poly2d_gradient_bound(self.coeffs, (x_lo, x_hi), (y_lo, y_hi))


def _cell_piece(curve: BoundaryCurve, piece: int) -> np.ndarray:
    return np.asarray(curve.poly.coeffs[piece], dtype=float)


def _coons_table(cell: CellIndex, rect, q_lo, q_hi, r_lo, r_hi, corners) -> np.ndarray:
    """Expand the transfinite blend into a monomial table (native coords)."""
    x_lo, x_hi, y_lo, y_hi = rect
    dx, dy = x_hi - x_lo, y_hi - y_lo
    u = np.array([-x_lo / dx, 1 / dx])
    one_minus_u = np.array([1 + x_lo / dx, -1 / dx])
    v = np.array([-y_lo / dy, 1 / dy])
    one_minus_v = np.array([1 + y_lo / dy, -1 / dy])
    cq_lo = _cell_piece(q_lo, cell.j - 1)
    cq_hi = _cell_piece(q_hi, cell.j - 1)
    cr_lo = _cell_piece(r_lo, cell.i - 1)
    cr_hi = _cell_piece(r_hi, cell.i - 1)
    z_ll, z_hl, z_lh, z_hh = corners
    tbl = poly_outer(one_minus_u, cq_lo)
    tbl = table_add(tbl, poly_outer(u, cq_hi))
    tbl = table_add(tbl, poly_outer(cr_lo, one_minus_v))
    tbl = table_add(tbl, poly_outer(cr_hi, v))
    tbl = table_add(tbl, -z_ll * poly_outer(one_minus_u, one_minus_v))
    tbl = table_add(tbl, -z_hl * poly_outer(u, one_minus_v))
    tbl = table_add(tbl, -z_lh * poly_outer(one_minus_u, v))
    tbl = table_add(tbl, -z_hh * poly_outer(u, v))
    return tbl


def build_coons_blend(grid: DataGrid, curves: CurveNetwork, cell: CellIndex) -> PatchBlend:
    """Transfinite blend of the four curves around a cell.

    The curves must agree with the corner data (compatibility); they do by
    construction when they interpolate the grid, but a mismatch beyond 1e-9
    raises before an inconsistent patch can propagate.
    """
    rect = grid.cell_rect(cell)
    x_lo, x_hi, y_lo, y_hi = rect
    q_lo, q_hi = curves.q[cell.i - 1], curves.q[cell.i]
    r_lo, r_hi = curves.r[cell.j - 1], curves.r[cell.j]
    corners = grid.corner_values(cell)
    checks = [
        ("q_lo(y_lo)", float(q_lo(y_lo)), corners[0]),
        ("r_lo(x_lo)", float(r_lo(x_lo)), corners[0]),
        ("q_hi(y_lo)", float(q_hi(y_lo)), corners[1]),
        ("r_lo(x_hi)", float(r_lo(x_hi)), corners[1]),
        ("q_lo(y_hi)", float(q_lo(y_hi)), corners[2]),
        ("r_hi(x_lo)", float(r_hi(x_lo)), corners[2]),
        ("q_hi(y_hi)", float(q_hi(y_hi)), corners[3]),
        ("r_hi(x_hi)", float(r_hi(x_hi)), corners[3]),
    ]
    for label, got, want in checks:
        if abs(got - want) > EDGE_MATCH_TOL:
            raise BlendCompatibilityError(
                f"cell ({cell.i},{cell.j}): {label} = {got!r} disagrees with "
                f"corner data {want!r}")
    tbl = _coons_table(cell, rect, q_lo, q_hi, r_lo, r_hi, corners)
    return PatchBlend(cell, rect, "coons", tbl, q_lo, q_hi, r_lo, r_hi, corners)


def load_explicit_blend(grid: DataGrid, curves: CurveNetwork, cell: CellIndex,
                        coeffs, samples: int = EDGE_MATCH_SAMPLES) -> PatchBlend:
    """Validate and wrap an explicit bivariate monomial table for one cell.

    The table's four edge restrictions must match the boundary curves to
    1e-9 at ``samples`` points per edge, and it must hit the corner data.
    The error message carries the worst offending sample.
    """
    rect = grid.cell_rect(cell)
    x_lo, x_hi, y_lo, y_hi = rect
    tbl = np.asarray(coeffs, dtype=float)
    if tbl.ndim != 2:
        raise BlendValidationError(f"cell ({cell.i},{cell.j}): coefficient table must be 2-D")
    q_lo, q_hi = curves.q[cell.i - 1], curves.q[cell.i]
    r_lo, r_hi = curves.r[cell.j - 1], curves.r[cell.j]
    ys = np.linspace(y_lo, y_hi, samples)
    xs = np.linspace(x_lo, x_hi, samples)
    edges = [
        (f"x={x_lo} vs q[{cell.i - 1}]", ys, polyval2d(np.full_like(ys, x_lo), ys, tbl), q_lo(ys)),
        (f"x={x_hi} vs q[{cell.i}]", ys, polyval2d(np.full_like(ys, x_hi), ys, tbl), q_hi(ys)),
        (f"y={y_lo} vs r[{cell.j - 1}]", xs, polyval2d(xs, np.full_like(xs, y_lo), tbl), r_lo(xs)),
        (f"y={y_hi} vs r[{cell.j}]", xs, polyval2d(xs, np.full_like(xs, y_hi), tbl), r_hi(xs)),
    ]
    worst = (0.0, "", 0.0)
    for label, ts, got, want in edges:
        err = np.abs(got - want)
        k = int(np.argmax(err))
        if err[k] > worst[0]:
            worst = (float(err[k]), label, float(ts[k]))
    if worst[0] > EDGE_MATCH_TOL:
        raise BlendValidationError(
            f"cell ({cell.i},{cell.j}): blend table edge {worst[1]} deviates by "
            f"{worst[0]:.6g} at parameter {worst[2]!r}")
    corners = grid.corner_values(cell)
    got_corners = [float(polyval2d(px, py, tbl))
                   for px, py in ((x_lo, y_lo), (x_hi, y_lo), (x_lo, y_hi), (x_hi, y_hi))]
    for got, want, where in zip(got_corners, corners, ("ll", "hl", "lh", "hh")):
        if abs(got - want) > EDGE_MATCH_TOL:
            raise BlendValidationError(
                f"cell ({cell.i},{cell.j}): corner {where} value {got!r} vs data {want!r}")
    return PatchBlend(cell, rect, "explicit", tbl, q_lo, q_hi, r_lo, r_hi, corners)


@dataclass(frozen=True)
class FreeField:
    """Lipschitz function g on the full rectangle with recorded bounds."""

    descriptor: str
    fn: Callable = field(compare=False, repr=False)
    lipschitz: float = 0.0
    sup_abs: float = 0.0

    def __call__(self, x, y):
        return self.fn(x, y)


ZERO_FIELD = FreeField("0", compile_xy_expression("0"), 0.0, 0.0)


def build_free_field(rect, expr: str, lipschitz: float,
                     sup_abs: float | None = None, samples: int = 512) -> FreeField:
    """Compile g from an expression; sup|g| sampled + slack when not given."""
    fn = compile_xy_expression(expr)
    lipschitz = float(lipschitz)
    if sup_abs is None:
        x_lo, x_hi, y_lo, y_hi = rect
        xs = np.linspace(x_lo, x_hi, samples)
        ys = np.linspace(y_lo, y_hi, samples)
        sampled = float(np.max(np.abs(fn(xs[:, None], ys[None, :]))))
        slack = lipschitz * ((xs[1] - xs[0]) + (ys[1] - ys[0])) / 2
        sup_abs = sampled + slack
    return FreeField(expr, fn, lipschitz, float(sup_abs))


@dataclass(frozen=True)
class QField:
    """Vertical offset of one IFS map: Q = -s(L(.)) * g + h(L(.)).

    ``lipschitz`` is a sound bound in the taxicab metric, assembled from
    the component bounds by product/sum rules; it drives the metric
    certificate of the assembled system.
    """

    cell: CellIndex
    dmap: DomainMap = field(compare=False)
    scaling: ScalingField = field(compare=False)
    free: FreeField = field(compare=False)
    blend: PatchBlend = field(compare=False)
    lipschitz: float = 0.0

    def __call__(self, x, y):
        lx, ly = self.dmap((x, y))
        return -self.scaling(lx, ly) * self.free(x, y) + self.blend(lx, ly)


def build_Q(dmap: DomainMap, scaling: ScalingField, free: FreeField,
            blend: PatchBlend) -> QField:
    """Assemble the offset field and its Lipschitz bound for one cell."""
    if scaling.cell != dmap.cell or blend.cell != dmap.cell:
        raise FractsurfError("scaling/blend cell indices disagree with the map")
    c_l = dmap.contraction
    lip = (scaling.lipschitz * c_l * free.sup_abs
           + scaling.sup_bound * free.lipschitz
           + blend.lipschitz_bound() * c_l)
    return QField(dmap.cell, dmap, scaling, free, blend, lip)
