"""Assembled iterated function systems and the surface solvers.

Each cell carries one 3-D map ``W(x, y, z) = (L(x, y), F(x, y, z))`` with
``F(x, y, z) = s(L(x, y)) * z + Q(x, y)``.  Because every scaling field
vanishes on its cell edges, the union of the maps' graph actions glues
continuously and the attractor is the graph of a continuous surface through
the data.

Two ways to materialize the attractor are provided and cross-checked:

* :func:`solve_fixed_point` solves the associated operator on a height
  field sampled on the grid's sample lattice
  (:func:`~fractsurf.grid.sample_axes`: every knot on a sample line, so a
  resolution below the floor or off the alignment base raises); the
  transform of a surface candidate ``phi`` on cell
  ``E_ij`` is ``s(p) * (phi(L^-1 p) - g(L^-1 p)) + h(p)``, a sup-norm
  contraction with factor ``c_s = max sup|s|``, so the a-posteriori bound
  ``c_s / (1 - c_s) * |T phi - phi|`` controls the error of ``T phi``
  against the exact fixed point at the sample nodes.  When every
  pulled-back node lands on a sample node (uniform, knot-aligned grids) the
  sampled operator is a pure gather ``phi -> s * phi[P] + b``.  ``P`` maps
  every node into ``image(P)`` and ``image(P)`` into itself, so the solver
  descends the chain of images to the core on which ``P`` is a permutation,
  composes the gather with itself there (pointer doubling, iterate ``2^k``
  in ``k`` rounds) and lifts the core's fixed point to level 1,
  ``image(P)``, with one gather per level.  Level 0, every node, is never
  held whole: ``s``, ``b`` and ``h`` are evaluated there one row block at a
  time, ``phi = s * phi_1[P] + b`` and ``T phi = s * (T_1 phi_1)[P] + b``
  are gathered from level 1, and the blocks go to a consumer (stacked into
  the heights, or folded into box-count column extrema) while the
  certifying residual is measured on every node.  Otherwise
  it iterates the bilinear pull-back, a separable gather in two 1-D passes
  (along y, then along x).  Either way ``iterations`` counts operator
  applications (equivalent ones on lattice plans) and ``sup_diffs`` holds
  the residuals ``|T phi - phi|``; the last entry, measured on every node,
  gives the bound.  Discretization bias from the bilinear
  pull-back is estimated separately against a half-resolution solve, when
  ``R - 1`` is even and the half resolution has a sample lattice of its own.
* :func:`chaos_game` drives a random orbit of the 3-D maps; started on the
  graph (at a data knot) it stays on the graph exactly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .boundary import QField
from .errors import ConvergenceError, FractsurfError, InvalidGridError
from .grid import CellIndex, DataGrid, DomainMap, sample_axes
from .scaling import ScalingField

TILING_TOL = 1e-12
# Rounding in the affine inversion is relative to the coordinates, so in units
# of one sample interval it grows with R - 1 and with the coordinates' size
# against the span: on the fixtures, on-node weights come out up to
# 3.3e-16 * (R - 1) off 0 or 1.  A weight within
# LATTICE_TOL * (R - 1) * max(1, max|knot| / span) counts as on a node;
# fractional weights of knot-aligned grids stay far above that.
LATTICE_TOL = 4e-15
# Cells per row block of a gather: a 256 KiB temporary stays in cache.
_GATHER_CELLS = 1 << 15
# Nodes per row block of a lattice plan's level 0: 512 KiB per evaluated field.
_ROW_CELLS = 1 << 16
# Chaos-game steps per block of Python floats.
_CHAOS_BLOCK = 4096
# Point pairs drawn by the sampled metric check.
METRIC_PAIRS = 10000


@dataclass(frozen=True)
class ContractionCertificate:
    """Constants backing the contraction arguments of an assembled system."""

    c_s: float        # max over cells of the certified sup|s| bound
    c_l: float        # max map contraction in the taxicab metric
    l_q: float        # max Lipschitz bound of the vertical offsets
    l_s: float        # max Lipschitz bound of the scaling fields

    def theta_max(self, z_bound: float) -> float:
        """Metric weights ``0 < theta < theta_max(Z)`` make every map contract on ``|z| <= Z``.

        ``F(p) - F(p') = s(Lp) (z - z') + z' (s(Lp) - s(Lp')) + Q(p) - Q(p')``, so the
        ratio under ``rho_theta`` is at most ``max(c_s, c_l + theta (l_q + c_l l_s Z))``.
        """
        slope = self.l_q + self.c_l * self.l_s * z_bound
        return (1.0 - self.c_l) / slope if slope > 0 else math.inf


@dataclass(frozen=True)
class MetricReport:
    """Sampled contraction check of the 3-D maps under the weighted metric

    rho_theta(p, p') = |dx| + |dy| + theta * |dz|.
    """

    theta_interval: tuple[float, float]
    theta: float
    admissible: bool
    max_ratio: float
    pairs: int
    seed: int


@dataclass(frozen=True)
class IfsSystem:
    grid: DataGrid
    maps: Mapping[CellIndex, DomainMap] = field(compare=False)
    scalings: Mapping[CellIndex, ScalingField] = field(compare=False)
    q_fields: Mapping[CellIndex, QField] = field(compare=False)
    certificate: ContractionCertificate

    def blend(self, cell: CellIndex):
        return self.q_fields[cell].blend

    def free(self, cell: CellIndex):
        return self.q_fields[cell].free

    def cells(self) -> list[CellIndex]:
        return self.grid.cells()


def assemble_ifs(grid: DataGrid, maps: Mapping[CellIndex, DomainMap],
                 scalings: Mapping[CellIndex, ScalingField],
                 q_fields: Mapping[CellIndex, QField]) -> IfsSystem:
    """Validate the per-cell pieces and compute the contraction certificate.

    Checks: every cell covered exactly once by maps/scalings/offsets, each
    map's image equals its cell to 1e-12 (the images tile the rectangle),
    and every scaling field is certified below 1 (a NaN bound is not).
    """
    cells = set(grid.cells())
    for name, mapping in (("maps", maps), ("scalings", scalings), ("q_fields", q_fields)):
        got = set(mapping)
        if got != cells:
            missing = sorted((c.i, c.j) for c in cells - got)
            extra = sorted((c.i, c.j) for c in got - cells)
            raise InvalidGridError(
                f"{name} do not cover the grid exactly (missing {missing}, extra {extra})")
    x0, x1, y0, y1 = grid.rect
    for cell, dmap in maps.items():
        cx_lo, cx_hi, cy_lo, cy_hi = grid.cell_rect(cell)
        img_x = sorted((float(dmap.axis_x(x0)), float(dmap.axis_x(x1))))
        img_y = sorted((float(dmap.axis_y(y0)), float(dmap.axis_y(y1))))
        err = max(abs(img_x[0] - cx_lo), abs(img_x[1] - cx_hi),
                  abs(img_y[0] - cy_lo), abs(img_y[1] - cy_hi))
        if err > TILING_TOL:
            raise InvalidGridError(
                f"map image for cell ({cell.i},{cell.j}) misses its cell by {err:.3g}")
    c_s = float(np.max([s.sup_bound for s in scalings.values()]))  # NaN wins
    if not c_s < 1.0:
        raise FractsurfError(f"vertical contraction c_s = {c_s!r} is not below 1")
    c_l = float(max(m.contraction for m in maps.values()))
    l_q = float(max(q.lipschitz for q in q_fields.values()))
    l_s = float(max(s.lipschitz for s in scalings.values()))
    cert = ContractionCertificate(c_s=c_s, c_l=c_l, l_q=l_q, l_s=l_s)
    return IfsSystem(grid, dict(maps), dict(scalings), dict(q_fields), cert)


def eval_F(system: IfsSystem, cell: CellIndex, x, y, z):
    """Vertical part of the 3-D map: F(x, y, z) = s(L(x, y)) * z + Q(x, y)."""
    dmap = system.maps[cell]
    lx, ly = dmap((x, y))
    return system.scalings[cell](lx, ly) * np.asarray(z, dtype=float) + system.q_fields[cell](x, y)


def _axis_weights(axis: np.ndarray, t: np.ndarray):
    """Lower index and fractional weight for linear interpolation on an axis."""
    ix = np.clip(np.searchsorted(axis, t, side="right") - 1, 0, len(axis) - 2)
    w = (t - axis[ix]) / (axis[ix + 1] - axis[ix])
    return ix, w


def _bilinear_gather(values: np.ndarray, ix, wx, iy, wy) -> np.ndarray:
    """``values`` interpolated at rows ``ix + wx`` and columns ``iy + wy``.

    Two 1-D passes in row blocks: along y on every row,
    ``c = (1 - wy) * values[:, iy] + wy * values[:, iy + 1]``, then along x,
    ``out = (1 - wx) * c[ix] + wx * c[ix + 1]``.  Each element sees the same
    floating-point operations as the four-corner formula
    ``(1 - wx) * ((1 - wy) * v00 + wy * v01) + wx * ((1 - wy) * v10 + wy * v11)``,
    so results are bit-identical to it.  Only ``c`` and ``out`` are full size.
    """
    rows = max(1, _GATHER_CELLS // len(iy))
    spare = np.empty((rows, len(iy)))
    iy1, vy = iy + 1, 1 - wy
    c = np.empty((len(values), len(iy)))
    for r0 in range(0, len(values), rows):
        block, c_blk = values[r0:r0 + rows], c[r0:r0 + rows]
        tmp = spare[:len(c_blk)]
        np.take(block, iy, axis=1, out=c_blk)
        c_blk *= vy
        np.take(block, iy1, axis=1, out=tmp)
        tmp *= wy
        c_blk += tmp
    ix1, vx, wx = ix + 1, (1 - wx)[:, None], wx[:, None]
    out = np.empty((len(ix), len(iy)))
    for r0 in range(0, len(ix), rows):
        sl = slice(r0, r0 + rows)
        o_blk = out[sl]
        tmp = spare[:len(o_blk)]
        np.take(c, ix[sl], axis=0, out=o_blk)
        o_blk *= vx[sl]
        np.take(c, ix1[sl], axis=0, out=tmp)
        tmp *= wx[sl]
        o_blk += tmp
    return out


def _gather(values: np.ndarray, px: np.ndarray, py: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """``out[:] = values[np.ix_(px, py)]``, in row blocks with small temporaries."""
    rows = max(1, _GATHER_CELLS // len(py))
    for r0 in range(0, len(px), rows):
        np.take(values[px[r0:r0 + rows]], py, axis=1, out=out[r0:r0 + rows])
    return out


def _lift(values: np.ndarray, px: np.ndarray, py: np.ndarray, s: np.ndarray,
          b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``s * values[np.ix_(px, py)] + b`` on the nodes ``np.ix_(rows, cols)``, in row blocks.

    Blocks hold as many rows as fit ``_GATHER_CELLS`` at the full width of
    ``s``, because the rows of ``s`` and ``b`` are taken before their
    columns; so no temporary is larger than a block.
    """
    out = np.empty((len(rows), len(cols)))
    step = max(1, _GATHER_CELLS // s.shape[1])
    for r0 in range(0, len(rows), step):
        sl = slice(r0, r0 + step)
        blk = out[sl]
        np.take(values[px[sl]], py, axis=1, out=blk)
        blk *= np.take(s[rows[sl]], cols, axis=1)
        blk += np.take(b[rows[sl]], cols, axis=1)
    return out


def _sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``max |a - b|`` in row blocks, without a full-size temporary."""
    rows = max(1, _GATHER_CELLS // a.shape[1])
    return max(float(np.max(np.abs(a[r0:r0 + rows] - b[r0:r0 + rows])))
               for r0 in range(0, len(a), rows))


def _on_lattice(w: np.ndarray, knots) -> bool:
    """Whether every bilinear weight on an axis with these knots is on a node.

    The bound is ``LATTICE_TOL * (len(w) - 1) * max(1, max|knot| / span)``.
    """
    span = knots[-1] - knots[0]
    scale = max(1.0, max(abs(knots[0]), abs(knots[-1])) / span)
    return bool(np.all(np.minimum(w, 1.0 - w) <= LATTICE_TOL * (len(w) - 1) * scale))


class OperatorGrid:
    """Precomputed sampled form of the surface transform at one resolution.

    All position-dependent quantities (the scaling field, the blend, the
    free field at the pulled-back points, and the bilinear gather indices
    and weights) are fixed across iterations.  One application of a
    bilinear plan is the two-pass :func:`_bilinear_gather` (along y, then
    along x) followed by ``s * (. - g) + h`` in place on its output.

    When every bilinear weight on both axes is within
    ``LATTICE_TOL * (R - 1) * max(1, max|knot| / span)`` of 0 or 1 (rounding
    of the inversion, relative to the coordinates and measured in sample
    intervals), the plan is a *lattice* plan: the weights snap to 0 or 1,
    the integer node indices ``px``, ``py`` (one 1-D array per axis) replace
    indices and weights, and ``b = h - s * g`` replaces ``g``, so that the
    operator is the pure gather ``s * phi[P] + b``.  ``P`` maps every node
    into level 1, ``x_level x y_level`` with ``x_level = image(px)``, and
    level 1 into itself, so a lattice plan holds ``s``, ``h`` and ``b`` on
    level 1 only and ``apply`` is the gather there (``lx``, ``ly``: every
    node's pull-back as a position on level 1; ``level_px``, ``level_py``:
    those of level 1).  :meth:`rows` evaluates them on every node, one row
    block at a time.
    """

    def __init__(self, system: IfsSystem, resolution: int):
        grid = system.grid
        self.system = system
        self.resolution = resolution
        ((self.x_samples, x_blocks), (self.y_samples, y_blocks)) = sample_axes(grid, resolution)
        x_starts = np.concatenate([[0], np.cumsum(x_blocks)])
        y_starts = np.concatenate([[0], np.cumsum(y_blocks)])
        # each cell's first and last node per axis, the knots included
        self._cell_nodes = [(cell, x_starts[cell.i - 1], x_starts[cell.i],
                             y_starts[cell.j - 1], y_starts[cell.j]) for cell in grid.cells()]
        # every node's pull-back per axis; on a shared knot line the later cell wins
        self.x_pre, self.y_pre = x_pre, y_pre = np.empty(resolution), np.empty(resolution)
        for cell, x0, x1, y0, y1 in self._cell_nodes:
            dmap = system.maps[cell]
            x_pre[x0:x1 + 1] = dmap.axis_x.invert(self.x_samples[x0:x1 + 1], tol=1e-9)
            y_pre[y0:y1 + 1] = dmap.axis_y.invert(self.y_samples[y0:y1 + 1], tol=1e-9)
        ix, wx = _axis_weights(self.x_samples, x_pre)
        iy, wy = _axis_weights(self.y_samples, y_pre)
        self.lattice = _on_lattice(wx, grid.x_knots) and _on_lattice(wy, grid.y_knots)
        if self.lattice:
            self.px = ix + (wx > 0.5)
            self.py = iy + (wy > 0.5)
            self.x_level, self.y_level = _image(self.px), _image(self.py)
            self.lx = np.searchsorted(self.x_level, self.px)
            self.ly = np.searchsorted(self.y_level, self.py)
            self.level_px, self.level_py = self.lx[self.x_level], self.ly[self.y_level]
            self.s_values, self.h_values, g = self._fields(self.x_level, self.y_level)
            g *= self.s_values
            self.b_values = np.subtract(self.h_values, g, out=g)
        else:
            nodes = np.arange(resolution)
            self.s_values, self.h_values, self.g_values = self._fields(nodes, nodes)
            self.ix, self.wx, self.iy, self.wy = ix, wx, iy, wy

    def _fields(self, rows: np.ndarray, cols: np.ndarray):
        """``s``, ``h`` and ``g`` at the pulled-back points on the nodes ``np.ix_(rows, cols)``.

        ``rows`` and ``cols`` are ascending node indices.  Cells write in
        ``grid.cells()`` order, so a node on a shared knot line takes the
        values of the later cell, whatever nodes are asked for.
        """
        system = self.system
        shape = (len(rows), len(cols))
        s, h, g = np.empty(shape), np.empty(shape), np.empty(shape)
        for cell, x0, x1, y0, y1 in self._cell_nodes:
            sl_x = slice(*np.searchsorted(rows, (x0, x1 + 1)))
            sl_y = slice(*np.searchsorted(cols, (y0, y1 + 1)))
            if sl_x.start == sl_x.stop or sl_y.start == sl_y.stop:
                continue
            bx = self.x_samples[rows[sl_x]]
            by = self.y_samples[cols[sl_y]]
            qx, qy = self.x_pre[rows[sl_x]], self.y_pre[cols[sl_y]]
            s[sl_x, sl_y] = system.scalings[cell](bx[:, None], by[None, :])
            h[sl_x, sl_y] = system.blend(cell)(bx[:, None], by[None, :])
            g[sl_x, sl_y] = system.free(cell)(qx[:, None], qy[None, :])
        return s, h, g

    def rows(self):
        """Lattice plans: ``(r0, s, b, h)`` on every node of the rows ``r0, r0 + 1, ...``.

        One row block at a time, ``_ROW_CELLS`` nodes each, evaluated as
        on level 1 (``b = h - s * g``).
        """
        nodes = np.arange(self.resolution)
        step = max(1, _ROW_CELLS // self.resolution)
        for r0 in range(0, self.resolution, step):
            s, h, g = self._fields(nodes[r0:r0 + step], nodes)
            g *= s
            yield r0, s, np.subtract(h, g, out=g), h

    def initial(self) -> np.ndarray:
        """Blend patchwork: continuous, interpolates the data, cheap (level 1 on lattice plans)."""
        return self.h_values.copy()

    def release_initial(self) -> np.ndarray:
        """Hand over the blend patchwork; a lattice plan's ``apply`` reads ``b``, not ``h``."""
        h, self.h_values = self.h_values, None
        return h

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """``T phi``: on every node, or on level 1 for lattice plans."""
        phi = np.asarray(phi, dtype=float)
        if self.lattice:
            out = _gather(phi, self.level_px, self.level_py, np.empty_like(phi))
            out *= self.s_values
            out += self.b_values
            return out
        out = _bilinear_gather(phi, self.ix, self.wx, self.iy, self.wy)
        out -= self.g_values
        out *= self.s_values
        out += self.h_values
        return out


@dataclass(frozen=True)
class SurfaceSample:
    """Sampled attractor surface plus convergence bookkeeping."""

    x_samples: np.ndarray = field(compare=False)
    y_samples: np.ndarray = field(compare=False)
    heights: np.ndarray | None = field(compare=False)  # heights[ix, iy]; None when folded
    iterations: int = 0
    sup_diffs: tuple[float, ...] = ()
    error_bound: float = 0.0          # a-posteriori bound at the sample nodes
    bias_estimate: float | None = None  # discretization bias vs half resolution
    contraction: float = 0.0          # c_s used in the bound
    fold: object = field(default=None, compare=False)  # took the rows in place of heights

    @property
    def resolution(self) -> int:
        return len(self.x_samples)

    @property
    def z_min(self) -> float:
        return float(self.heights.min())

    @property
    def z_max(self) -> float:
        return float(self.heights.max())

    def evaluate(self, x, y):
        """Bilinear interpolation between sample nodes (exact on nodes)."""
        xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float),
                                     np.asarray(y, dtype=float))
        ix, wx = _axis_weights(self.x_samples, xa.ravel())
        iy, wy = _axis_weights(self.y_samples, ya.ravel())
        h = self.heights
        flat = ((1 - wx) * ((1 - wy) * h[ix, iy] + wy * h[ix, iy + 1])
                + wx * ((1 - wy) * h[ix + 1, iy] + wy * h[ix + 1, iy + 1]))
        if xa.ndim == 0:
            return float(flat[0])
        return flat.reshape(xa.shape)

    def knot_error(self, grid: DataGrid) -> float:
        """Largest deviation from the data at the grid knots."""
        xs = np.asarray(grid.x_knots)
        ys = np.asarray(grid.y_knots)
        vals = self.evaluate(xs[:, None], ys[None, :])
        return float(np.max(np.abs(vals - grid.z)))

    def lipschitz_slack(self) -> float:
        """Empirical max difference quotient between adjacent sample nodes."""
        dx = np.diff(self.x_samples)[:, None]
        dy = np.diff(self.y_samples)[None, :]
        gx = np.max(np.abs(np.diff(self.heights, axis=0)) / dx)
        gy = np.max(np.abs(np.diff(self.heights, axis=1)) / dy)
        return float(max(gx, gy))


def _half_resolution(plan: OperatorGrid) -> int | None:
    """The resolution whose lattice is every other node of this one, if it exists."""
    if (plan.resolution - 1) % 2:
        return None
    half = (plan.resolution - 1) // 2 + 1
    try:
        sample_axes(plan.system.grid, half)
    except FractsurfError:
        return None
    return half


def _no_convergence(max_iter: int, bound: float, tol: float) -> ConvergenceError:
    return ConvergenceError(
        f"no convergence in {max_iter} iterations; last bound {bound:.3g} "
        f"(tol {tol:.3g})", last_bound=bound)


def _iterate(plan: OperatorGrid, factor: float, tol: float, max_iter: int):
    """Plain fixed-point iteration from the blend patchwork."""
    phi = plan.initial()
    diffs: list[float] = []
    bound = math.inf
    for iterations in range(1, max_iter + 1):
        nxt = plan.apply(phi)
        diff = _sup_distance(nxt, phi)
        diffs.append(diff)
        phi = nxt
        bound = factor * diff
        if bound <= tol:
            return phi, iterations, diffs, bound
    raise _no_convergence(max_iter, bound, tol)


def _double(s: np.ndarray, b: np.ndarray, px: np.ndarray, py: np.ndarray,
            phi: np.ndarray, factor: float, tol: float, max_iter: int):
    """Pointer doubling of the gather ``T phi = s * phi[px, py] + b`` from ``phi_1 = phi``.

    ``(a, c, qx, qy)`` represents ``T^N phi = a * phi[qx, qy] + c`` and
    ``phi`` holds ``phi_N``.  Each round applies ``T`` once to measure the
    residual ``|T phi_N - phi_N|``; unless that meets the bound, it sets
    ``phi_2N = T^N phi_N`` and squares the map: ``c <- a * c[Q] + c``,
    ``a <- a * a[Q]``, ``Q <- Q[Q]``.  Residuals shrink by ``c_s^N`` per
    round.  Returns ``T phi_N`` and ``N + 1`` equivalent applications
    (``phi_1`` counts as one); ``phi`` is reused as scratch.
    """
    a, c, qx, qy = s.copy(), b.copy(), px, py
    n = 1
    diffs: list[float] = []
    while True:
        nxt = _gather(phi, px, py, np.empty_like(phi))
        nxt *= s
        nxt += b
        diff = _sup_distance(nxt, phi)
        diffs.append(diff)
        bound = factor * diff
        if bound <= tol:
            return nxt, n + 1, diffs, bound
        if 2 * n + 1 > max_iter:
            raise _no_convergence(max_iter, bound, tol)
        phi, spare = _gather(phi, qx, qy, out=nxt), phi
        phi *= a
        phi += c
        _gather(c, qx, qy, out=spare)
        spare *= a
        c += spare
        _gather(a, qx, qy, out=spare)
        a *= spare
        del spare  # free it before the next round allocates its output
        qx, qy = qx[qx], qy[qy]
        n *= 2


def _image(p: np.ndarray, nodes=slice(None)) -> np.ndarray:
    """``image(p|nodes)``, ascending.  (A mask, not ``np.unique``, which
    imports ``numpy.ma``: about 1 MB of peak RSS.)"""
    hit = np.zeros(len(p), dtype=bool)
    hit[p[nodes]] = True
    return np.flatnonzero(hit)


def _image_chain(p: np.ndarray) -> list[np.ndarray]:
    """Nodes of all, ``image(p)``, ``image(p|image(p))``, ... down to the core.

    Each entry is ``p`` of the one before and lies inside it, so the chain
    shrinks until ``p`` permutes its last entry, the core.
    """
    chain = [np.arange(len(p))]
    while True:
        image = _image(p, chain[-1])
        if len(image) == len(chain[-1]):
            return chain
        chain.append(image)


def _lift_rows(values: np.ndarray, rx: np.ndarray, ly: np.ndarray, s: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """``s * values[np.ix_(rx, ly)] + b`` for one row block of level 0."""
    out = np.take(values[rx], ly, axis=1)
    out *= s
    out += b
    return out


def _descend(plan: OperatorGrid, factor: float, tol: float, max_iter: int, emit):
    """Fixed point of a lattice plan: doubling on the core of ``P``, one gather per level.

    ``P = (px, py)`` maps every node into ``image(P)``, which ``P`` maps into
    itself, so the fixed point on level ``k`` of the image chain (nodes
    ``X_k x Y_k``, :func:`_image_chain` per axis) follows from the one on
    level ``k + 1`` by one gather, ``phi_k = s * phi_(k+1)[P] + b``.  The
    plan holds level 1; level 0, every node, is visited in row blocks
    (:meth:`OperatorGrid.rows`) and handed to ``emit(r0, rows)``, nothing of
    it kept.

    Round 0 applies the plan to the blend patchwork ``h``: ``T h = s *
    h_1[P] + b`` needs only ``h_1``, ``h`` on level 1.  Its residual ``|T h
    - h|`` is measured on every node: on level 1 first, then on level 0 in
    the last pass below, unless the outcome depends on it now (when the
    level-1 part meets the bound, and before raising at ``max_iter``); when
    the bound is met, a second pass emits ``T h``.  Otherwise
    :func:`_double` solves on the core, where ``P`` is a permutation, from
    ``T h`` restricted to it, and one gather per level lifts the result to
    ``phi_1`` on level 1.  On level 0, ``phi = s * phi_1[P] + b`` and ``T
    phi = s * (T_1 phi_1)[P] + b`` with ``T_1 phi_1`` the plan applied on
    level 1, so one pass over the row blocks measures ``|T phi - phi|`` on
    every node (the last of ``sup_diffs``, which gives the bound) and emits
    ``T phi``.  The count is ``N + 1`` on the core plus one per level plus
    the last application, and stays within ``max_iter``.  Should ``P``
    permute every node (no grid does: a single-cell axis is rejected),
    level 1 is every node and the lift to level 0 is one more gather.
    Returns ``(iterations, sup_diffs, bound)``.
    """
    def sweep():  # per row block of level 0: r0, h, and v -> s * v[P] + b for v on level 1
        for r0, s, b, h in plan.rows():
            yield r0, h, functools.partial(_lift_rows, rx=plan.lx[r0:r0 + len(s)],
                                           ly=plan.ly, s=s, b=b)

    h = plan.release_initial()
    nxt = plan.apply(h)  # T h on level 1
    first = _sup_distance(nxt, h)  # round 0's residual on level 1; level 0 comes later
    xs, ys = _image_chain(plan.level_px), _image_chain(plan.level_py)  # on level 1
    below = max(len(xs), len(ys)) - 1
    if factor * first <= tol or below + 4 > max_iter:  # round 0 on every node decides
        first = max(_sup_distance(lift(h), h0) for _, h0, lift in sweep())
        bound = factor * first
        if bound <= tol:
            for r0, _, lift in sweep():
                emit(r0, lift(h))
            return 1, [first], bound
        if below + 4 > max_iter:  # two applications on the core, the levels, the last one
            raise _no_convergence(max_iter, bound, tol)
        h = None
    xs += xs[-1:] * (below + 2 - len(xs))  # the core maps into itself
    ys += ys[-1:] * (below + 2 - len(ys))
    # P from level k into positions on level k + 1
    lx = [np.searchsorted(xs[k + 1], plan.level_px[xs[k]]) for k in range(below + 1)]
    ly = [np.searchsorted(ys[k + 1], plan.level_py[ys[k]]) for k in range(below + 1)]
    core = np.ix_(xs[-1], ys[-1])
    start = nxt[core]
    del nxt
    phi, n, core_diffs, _ = _double(plan.s_values[core], plan.b_values[core], lx[-1], ly[-1],
                                    start, factor, tol, max_iter - below - 2)
    for k in reversed(range(below)):
        phi = _lift(phi, lx[k], ly[k], plan.s_values, plan.b_values, xs[k], ys[k])
    last = 0.0
    nxt = plan.apply(phi)
    for r0, h0, lift in sweep():
        heights = lift(nxt)
        last = max(last, _sup_distance(heights, lift(phi)))
        if h is not None:  # round 0 on the rest of level 0
            first = max(first, _sup_distance(lift(h), h0))
        emit(r0, heights)
    diffs = [first] + core_diffs + [last]
    bound = factor * last
    if bound > tol:  # at most c_s^(levels + 2) times the core's bound, so only rounding
        raise ConvergenceError(
            f"lifted surface misses the bound by rounding: {bound:.3g} (tol {tol:.3g})",
            last_bound=bound)
    return n + below + 2, diffs, bound


def fold_rows(values: np.ndarray, fold) -> None:
    """Hand ``values`` to ``fold(r0, rows)`` in row blocks of ``_ROW_CELLS`` cells."""
    step = max(1, _ROW_CELLS // values.shape[1])
    for r0 in range(0, len(values), step):
        fold(r0, values[r0:r0 + step])


def solve_fixed_point(system: IfsSystem, resolution: int, tol: float = 1e-6,
                      max_iter: int = 10000, estimate_bias: bool = True,
                      fold=None) -> SurfaceSample:
    """Solve the sampled surface transform until the a-posteriori bound meets tol.

    Lattice plans are solved by :func:`_descend` (doubling on the core of
    the pull-back, one gather per level back to every node), others by
    iteration from the blend patchwork.  Both return ``T phi`` for a
    candidate ``phi`` with ``c_s / (1 - c_s) * |T phi - phi| <= tol``
    measured on every node (after one application, with a zero bound, when
    all scaling fields are zero).  ``iterations`` counts operator
    applications, equivalent ones on lattice plans; ``ConvergenceError`` is
    raised before it would pass ``max_iter``.  ``estimate_bias``
    additionally solves at half resolution and reports the largest
    disagreement after bilinear upsampling, an empirical estimate of the
    discretization bias that roughly halves when resolution doubles.

    With ``fold``, the heights go to ``fold(r0, rows)`` row block by row
    block (rows ``r0, r0 + 1, ...``, in order) instead of into ``heights``,
    which is then None; lattice plans then never hold a full-size array.
    The bias estimate needs the heights, so it cannot be combined with
    ``fold``.
    """
    if fold is not None and estimate_bias:
        raise FractsurfError("the bias estimate needs the heights: pass estimate_bias=False")
    plan = OperatorGrid(system, resolution)
    c_s = system.certificate.c_s
    factor = c_s / (1.0 - c_s)
    if plan.lattice:
        phi = np.empty((resolution, resolution)) if fold is None else None

        def stack(r0, rows):
            phi[r0:r0 + len(rows)] = rows

        iterations, diffs, bound = _descend(plan, factor, tol, max_iter,
                                            stack if fold is None else fold)
    else:
        phi, iterations, diffs, bound = _iterate(plan, factor, tol, max_iter)
        if fold is not None:
            fold_rows(phi, fold)
            phi = None
    x_samples, y_samples = plan.x_samples, plan.y_samples
    half = _half_resolution(plan) if estimate_bias else None
    del plan  # its s, h and b would otherwise outlive the half-resolution solve

    bias = None
    if half is not None:
        coarse = solve_fixed_point(system, half, tol=tol, max_iter=max_iter,
                                   estimate_bias=False)
        ix, wx = _axis_weights(coarse.x_samples, x_samples)
        iy, wy = _axis_weights(coarse.y_samples, y_samples)
        up = _bilinear_gather(coarse.heights, ix, wx, iy, wy)
        bias = _sup_distance(up, phi)
    return SurfaceSample(
        x_samples=x_samples, y_samples=y_samples, heights=phi,
        iterations=iterations, sup_diffs=tuple(diffs), error_bound=bound,
        bias_estimate=bias, contraction=c_s, fold=fold)


def chaos_game(system: IfsSystem, point_count: int, seed: int,
               burn_in: int = 100) -> np.ndarray:
    """Random orbit of the 3-D maps, one map drawn uniformly per step.

    The orbit starts at the first data knot, a point of the attractor, so
    every iterate lies on the surface graph; the burn-in discard is kept
    anyway so arbitrary start points behave.  Returns an (N, 3) array.
    """
    if point_count < 1:
        raise FractsurfError("point_count must be positive")
    rng = np.random.default_rng(seed)
    cells = sorted(system.maps)  # deterministic order
    steps = burn_in + point_count
    picks = rng.integers(0, len(cells), size=steps)

    ax = [system.maps[c].axis_x.scale for c in cells]
    bx = [system.maps[c].axis_x.offset for c in cells]
    ay = [system.maps[c].axis_y.scale for c in cells]
    by = [system.maps[c].axis_y.offset for c in cells]
    xs = np.empty(steps + 1)
    ys = np.empty(steps + 1)
    x = float(system.grid.x_knots[0])
    y = float(system.grid.y_knots[0])
    xs[0], ys[0] = x, y
    # The recursions run on Python floats, _CHAOS_BLOCK steps converted at a
    # time, so no full-length list of Python floats is ever alive.
    for k0 in range(0, steps, _CHAOS_BLOCK):
        k1 = min(k0 + _CHAOS_BLOCK, steps)
        block_x, block_y = [], []
        for c in picks[k0:k1].tolist():
            x = ax[c] * x + bx[c]
            y = ay[c] * y + by[c]
            block_x.append(x)
            block_y.append(y)
        xs[k0 + 1:k1 + 1] = block_x
        ys[k0 + 1:k1 + 1] = block_y

    s_step = np.empty(steps)
    h_step = np.empty(steps)
    g_step = np.empty(steps)
    for ci, cell in enumerate(cells):
        mask = picks == ci
        if not mask.any():
            continue
        new_x, new_y = xs[1:][mask], ys[1:][mask]
        s_step[mask] = system.scalings[cell](new_x, new_y)
        h_step[mask] = system.blend(cell)(new_x, new_y)
        g_step[mask] = system.free(cell)(xs[:-1][mask], ys[:-1][mask])

    zs = np.empty(steps + 1)
    z = float(system.grid.z[0, 0])
    zs[0] = z
    for k0 in range(0, steps, _CHAOS_BLOCK):
        k1 = min(k0 + _CHAOS_BLOCK, steps)
        block_z = []
        for s, g, h in zip(s_step[k0:k1].tolist(), g_step[k0:k1].tolist(),
                           h_step[k0:k1].tolist()):
            z = s * (z - g) + h
            block_z.append(z)
        zs[k0 + 1:k1 + 1] = block_z
    pts = np.column_stack([xs[1:], ys[1:], zs[1:]])
    return pts[burn_in:]


def certify_metric(system: IfsSystem, theta: float | None = None,
                   seed: int = 0) -> MetricReport:
    """Sampled contraction ratios of all 3-D maps under rho_theta.

    ``METRIC_PAIRS`` point pairs are drawn from the rectangle times the slab
    ``[z0, z1]``, the data range padded by 1.  On that slab the admissible
    interval is ``(0, (1 - c_l) / (l_q + c_l * l_s * Z))`` with
    ``Z = max(|z0|, |z1|)`` (:meth:`ContractionCertificate.theta_max`), and
    theta defaults to its midpoint.  A ratio >= 1 for an admissible theta
    falsifies the certificate, so a Lipschitz bound it trusts is false: that
    raises, with the cell and the pair; outside the interval it is only
    reported.  A NaN ratio (a map's height is not a number at a sampled
    point) raises, with the cell and the point.
    """
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = system.grid.rect
    z0 = float(system.grid.z.min()) - 1.0
    z1 = float(system.grid.z.max()) + 1.0
    theta_hi = system.certificate.theta_max(max(abs(z0), abs(z1)))
    if theta is None:
        theta = theta_hi / 2 if math.isfinite(theta_hi) else 1.0
    admissible = 0 < theta < theta_hi
    p = rng.uniform([x0, y0, z0], [x1, y1, z1], size=(METRIC_PAIRS, 3))
    q = rng.uniform([x0, y0, z0], [x1, y1, z1], size=(METRIC_PAIRS, 3))
    dist = (np.abs(p[:, 0] - q[:, 0]) + np.abs(p[:, 1] - q[:, 1])
            + theta * np.abs(p[:, 2] - q[:, 2]))
    keep = dist > 1e-12
    max_ratio = 0.0
    for cell in system.cells():
        dmap = system.maps[cell]
        plx, ply = dmap((p[:, 0], p[:, 1]))
        qlx, qly = dmap((q[:, 0], q[:, 1]))
        plz = eval_F(system, cell, p[:, 0], p[:, 1], p[:, 2])
        qlz = eval_F(system, cell, q[:, 0], q[:, 1], q[:, 2])
        wdist = (np.abs(plx - qlx) + np.abs(ply - qly) + theta * np.abs(plz - qlz))
        ratios = wdist[keep] / dist[keep]
        if np.isnan(ratios).any():
            k = np.flatnonzero(keep)[np.argmax(np.isnan(ratios))]
            x, y, z = map(float, p[k] if np.isnan(plz[k]) else q[k])
            raise FractsurfError(
                f"3-D map of cell ({cell.i},{cell.j}) is not a number at "
                f"({x!r}, {y!r}, {z!r}): sampled contraction ratio nan")
        k = int(np.argmax(ratios))
        if admissible and ratios[k] >= 1.0:
            pair = np.flatnonzero(keep)[k]
            raise FractsurfError(
                f"3-D map of cell ({cell.i},{cell.j}) is not a contraction for the admissible "
                f"theta = {theta!r}: sampled ratio {float(ratios[k])!r} at the pair "
                f"{tuple(p[pair].tolist())}, {tuple(q[pair].tolist())} (a Lipschitz bound is false)")
        max_ratio = max(max_ratio, float(ratios[k]))
    return MetricReport(theta_interval=(0.0, theta_hi), theta=float(theta),
                        admissible=admissible, max_ratio=max_ratio,
                        pairs=METRIC_PAIRS, seed=seed)
