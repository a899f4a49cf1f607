"""Boundary curves along knot lines, cell blends, and vertical offsets.

The attractor surface restricted to a knot line is forced to equal a
prescribed curve through that line's data points (one curve per x knot and
per y knot).  Inside each cell a blend function ``h`` interpolates the four
surrounding curves; the default is the transfinite (Coons) blend, which
matches them exactly, but an explicit bivariate polynomial table may be
supplied instead and is then validated against the curves.  Either way the
blend is stored and evaluated as one monomial table in the cell's own
coordinates ``(u, v)`` in ``[0, 1]^2`` (:class:`PatchBlend`), which keeps
the evaluation well conditioned for knots far from the origin.

The vertical offset of each IFS map combines the blend with the scaling
field and a free Lipschitz field g:

    Q(x, y) = -s(L(x, y)) * g(x, y) + h(L(x, y))      on the full rectangle

so that the map sends the graph point (x, y, g(x, y)) to the blend height.
g shifts where the fractal detail is injected; g = 0 is the common choice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (BlendCompatibilityError, BlendValidationError,
                     CurveValidationError, FractsurfError)
from .grid import CellIndex, DataGrid, DomainMap
from .scaling import CERT_SAMPLES, ScalingField, _sample_slack, _sampled_sup
from .utils import PiecewisePoly, compile_xy_expression, substitution_matrix

INTERP_TOL = 1e-12
EDGE_MATCH_TOL = 1e-9
EDGE_MATCH_SAMPLES = 1024
#: highest piece degree that boundary method 'quadratic' accepts
QUADRATIC_MAX_DEGREE = 2


@dataclass(frozen=True)
class CurveNetwork:
    """All boundary curves of a grid, one piecewise polynomial per knot line.

    ``q[i]`` lives on the vertical line x = x_knots[i] and is evaluated in
    y; ``r[j]`` lives on y = y_knots[j] and is evaluated in x.
    """

    q: tuple[PiecewisePoly, ...]
    r: tuple[PiecewisePoly, ...]


def _linear_pieces(knots: Sequence[float], values: np.ndarray) -> list[tuple[float, float]]:
    pieces = []
    for k in range(len(knots) - 1):
        slope = (values[k + 1] - values[k]) / (knots[k + 1] - knots[k])
        pieces.append((float(values[k] - slope * knots[k]), float(slope)))
    return pieces


def _validate_curve(name: str, curve: PiecewisePoly, knots: Sequence[float],
                    values: np.ndarray) -> None:
    at_knots = curve(np.asarray(knots, dtype=float))
    for k, t in enumerate(knots):
        err = abs(float(at_knots[k]) - float(values[k]))
        if err > INTERP_TOL:
            raise CurveValidationError(
                f"{name} misses its data point at t={t}: "
                f"curve gives {float(at_knots[k])!r}, data is {float(values[k])!r} "
                f"(|error| = {err:.3g})")
    for k, gap in enumerate(curve.junction_gaps()):
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
        curve = PiecewisePoly(grid.y_knots, tuple(tuple(c) for c in pieces))
        _validate_curve(f"q[{i}] (knot line x={grid.x_knots[i]})", curve,
                        grid.y_knots, grid.z[i, :])
        qs.append(curve)
    rs = []
    for j, pieces in enumerate(r_lists):
        curve = PiecewisePoly(grid.x_knots, tuple(tuple(c) for c in pieces))
        _validate_curve(f"r[{j}] (knot line y={grid.y_knots[j]})", curve,
                        grid.x_knots, grid.z[:, j])
        rs.append(curve)
    return CurveNetwork(tuple(qs), tuple(rs))


@dataclass(frozen=True)
class PatchBlend:
    """Blend function h on one cell: a monomial table in cell coordinates.

    ``table[k, l]`` multiplies ``u**k * v**l`` with ``u = (x - x_lo) / dx``
    and ``v = (y - y_lo) / dy``, so ``(u, v)`` lies in ``[0, 1]^2`` on the
    cell.  Coons and explicit blends both build this table; it is the only
    form that is evaluated, and the Lipschitz bound is read off it.
    """

    cell: CellIndex
    rect: tuple[float, float, float, float]
    table: np.ndarray = field(compare=False)

    def __call__(self, x, y):
        """Horner over the rows in ``u``, each row a polynomial in ``v`` of ``v``'s shape.

        A tensor call ``(bx[:, None], by[None, :])`` costs one full-size
        multiply-add per row after the first, and every element sees the
        same operations as a pointwise call at its coordinates.
        """
        x_lo, x_hi, y_lo, y_hi = self.rect
        u = (np.asarray(x, dtype=float) - x_lo) / (x_hi - x_lo)
        v = (np.asarray(y, dtype=float) - y_lo) / (y_hi - y_lo)
        out = npp.polyval(v, self.table[-1])
        for row in self.table[-2::-1]:
            out = out * u
            out += npp.polyval(v, row)
        shape = np.broadcast_shapes(u.shape, v.shape)
        if np.shape(out) != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    def lipschitz_bound(self) -> float:
        """``max(sum k|c_kl| / dx, sum l|c_kl| / dy)``: the chain rule on the cell.

        On ``[0, 1]^2`` every monomial is at most 1, so the sums bound
        ``|dh/du|`` and ``|dh/dv|``; the larger scaled partial derivative is
        a Lipschitz constant in the taxicab metric.
        """
        x_lo, x_hi, y_lo, y_hi = self.rect
        mag = np.abs(self.table)
        du = float(np.arange(mag.shape[0]) @ mag.sum(axis=1))
        dv = float(mag.sum(axis=0) @ np.arange(mag.shape[1]))
        return max(du / (x_hi - x_lo), dv / (y_hi - y_lo))


def _in_cell(coeffs, lo: float, hi: float, size: int) -> np.ndarray:
    """``size`` ascending coefficients in ``t`` of a polynomial in ``x = lo + (hi - lo) t``."""
    c = np.asarray(coeffs, dtype=float)
    return substitution_matrix(lo, hi - lo, size)[:len(c)].T @ c


# rows: coefficients of 1 - t and of t, the linear Lagrange basis on [0, 1]
_HAT = np.array([[1.0, -1.0], [0.0, 1.0]])


def build_coons_blend(grid: DataGrid, curves: CurveNetwork, cell: CellIndex) -> PatchBlend:
    """Transfinite blend of the four curves around a cell.

    In cell coordinates ``h = (1-u) q_lo(v) + u q_hi(v) + (1-v) r_lo(u)
    + v r_hi(u)`` minus the bilinear interpolant of the corner data.  The
    curves must agree with the corner data (compatibility); they do by
    construction when they interpolate the grid, but a mismatch beyond 1e-9
    raises before an inconsistent patch can propagate.
    """
    rect = grid.cell_rect(cell)
    x_lo, x_hi, y_lo, y_hi = rect
    i, j = cell.i, cell.j
    q_lo, q_hi = curves.q[i - 1], curves.q[i]
    r_lo, r_hi = curves.r[j - 1], curves.r[j]
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
                f"cell ({i},{j}): {label} = {got!r} disagrees with "
                f"corner data {want!r}")
    qs, rs = (q_lo.coeffs[j - 1], q_hi.coeffs[j - 1]), (r_lo.coeffs[i - 1], r_hi.coeffs[i - 1])
    nx, ny = max(2, *map(len, rs)), max(2, *map(len, qs))
    table = np.zeros((nx, ny))
    table[:2] += _HAT.T @ np.array([_in_cell(c, y_lo, y_hi, ny) for c in qs])
    table[:, :2] += np.array([_in_cell(c, x_lo, x_hi, nx) for c in rs]).T @ _HAT
    table[:2, :2] -= _HAT.T @ grid.z[i - 1:i + 1, j - 1:j + 1] @ _HAT
    return PatchBlend(cell, rect, table)


def load_explicit_blend(grid: DataGrid, curves: CurveNetwork, cell: CellIndex,
                        coeffs) -> PatchBlend:
    """Validate and convert an explicit monomial table ``c[k, l] x**k y**l`` for one cell.

    The table is converted to cell coordinates once; the resulting blend's
    four edge restrictions must match the boundary curves to 1e-9 at
    ``EDGE_MATCH_SAMPLES`` points per edge, and it must hit the corner data.
    The error message carries the worst offending sample.
    """
    rect = grid.cell_rect(cell)
    x_lo, x_hi, y_lo, y_hi = rect
    native = np.asarray(coeffs, dtype=float)
    if native.ndim != 2:
        raise BlendValidationError(f"cell ({cell.i},{cell.j}): coefficient table must be 2-D")
    table = (substitution_matrix(x_lo, x_hi - x_lo, native.shape[0]).T @ native
             @ substitution_matrix(y_lo, y_hi - y_lo, native.shape[1]))
    blend = PatchBlend(cell, rect, table)
    q_lo, q_hi = curves.q[cell.i - 1], curves.q[cell.i]
    r_lo, r_hi = curves.r[cell.j - 1], curves.r[cell.j]
    ys = np.linspace(y_lo, y_hi, EDGE_MATCH_SAMPLES)
    xs = np.linspace(x_lo, x_hi, EDGE_MATCH_SAMPLES)
    edges = [
        (f"x={x_lo} vs q[{cell.i - 1}]", ys, blend(x_lo, ys), q_lo(ys)),
        (f"x={x_hi} vs q[{cell.i}]", ys, blend(x_hi, ys), q_hi(ys)),
        (f"y={y_lo} vs r[{cell.j - 1}]", xs, blend(xs, y_lo), r_lo(xs)),
        (f"y={y_hi} vs r[{cell.j}]", xs, blend(xs, y_hi), r_hi(xs)),
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
    got_corners = [float(blend(px, py))
                   for px, py in ((x_lo, y_lo), (x_hi, y_lo), (x_lo, y_hi), (x_hi, y_hi))]
    for got, want, where in zip(got_corners, corners, ("ll", "hl", "lh", "hh")):
        if abs(got - want) > EDGE_MATCH_TOL:
            raise BlendValidationError(
                f"cell ({cell.i},{cell.j}): corner {where} value {got!r} vs data {want!r}")
    return blend


@dataclass(frozen=True)
class FreeField:
    """Lipschitz function g on the full rectangle with recorded bounds."""

    fn: Callable = field(compare=False, repr=False)
    lipschitz: float = 0.0
    sup_abs: float = 0.0

    def __call__(self, x, y):
        return self.fn(x, y)


def build_free_field(rect, expr: str, lipschitz: float,
                     sup_abs: float | None = None) -> FreeField:
    """Compile g from an expression; sup|g| sampled + slack when not given.

    A sampled sup that is not finite (g is NaN or infinite somewhere on the
    sample grid) raises.
    """
    fn = compile_xy_expression(expr)
    lipschitz = float(lipschitz)
    if sup_abs is None:
        sampled = _sampled_sup(fn, rect, CERT_SAMPLES)
        if not math.isfinite(sampled):
            raise FractsurfError(f"free field {expr!r} is not finite on the rectangle "
                                 f"(sampled sup |g| = {sampled!r})")
        sup_abs = sampled + lipschitz * _sample_slack(rect, CERT_SAMPLES)
    return FreeField(fn, lipschitz, float(sup_abs))


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
