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
  against the exact fixed point at the sample nodes.  The pull-back of
  every node is exact (:func:`~fractsurf.grid.pullback`, in integers), and
  the sampled operator is ``phi -> s * B phi + b``, ``s`` and ``b`` from
  :meth:`~fractsurf.boundary.QField.terms` at the node and its pre-image.
  When every pulled-back node lands on a sample node (every cell spans an
  integer fraction of its axis) the gather ``B`` is ``phi[P]``.  The solver
  descends the image chain of ``P`` (:class:`~fractsurf.grid.Axis`) to the
  core, where ``P`` is a permutation, composes the gather with itself there
  from ``phi_1 = T 0 = b`` (pointer doubling, iterate ``2^k`` in ``k``
  rounds) and lifts the core's fixed point to level 2 with one gather per level.
  ``s`` and ``b`` are held on level 2 only; levels 1 and 0 (every node) go
  by in row blocks (:func:`_descend`), level 0's to a consumer (stacked into
  the heights, or folded into box-count column extrema) while the certifying
  residual is measured on every node.  Otherwise it iterates
  ``s * B phi + b`` from ``phi_1 = b`` too,
  with the streamed bilinear gather :func:`_bilinear` on four full arrays:
  ``s``, ``b``, the iterate and its image.  Either way ``iterations`` counts
  operator applications (equivalent ones on lattice plans) and
  ``sup_diffs`` holds the residuals ``|T phi - phi|``, each on the nodes
  its round computes; the last, measured on every node, gives the bound.
  A residual that is not finite raises at once, naming a node.
  Discretization bias from the bilinear pull-back is estimated separately
  against a half-resolution solve, when ``R - 1`` is even and that solve
  has a sample lattice of its own and converges.
* :func:`chaos_game` drives a random orbit of the 3-D maps from a data knot,
  on the graph; its three affine recursions are scans, run in place on one
  orbit array with no Python loop per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .boundary import QField
from .errors import ConvergenceError, FractsurfError, InvalidGridError
from .grid import CellIndex, DataGrid, DomainMap, sample_axes
from .scaling import ScalingField

TILING_TOL = 1e-12
# Cells per row block of a gather: a 256 KiB temporary (three in _bilinear) stays in cache.
_GATHER_CELLS = 1 << 15
# Nodes per row block of a fill and of level 0: 512 KiB per evaluated field.
_ROW_CELLS = 1 << 16
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


def _map_3d(system: IfsSystem, cell: CellIndex, x, y, z):
    """The 3-D map ``W(x, y, z) = (L(x, y), s * z + b)``, ``(s, b)`` of :meth:`QField.terms`."""
    lx, ly = system.maps[cell]((x, y))
    s, b = system.q_fields[cell].terms(lx, ly, x, y)
    return lx, ly, s * np.asarray(z, dtype=float) + b


def eval_F(system: IfsSystem, cell: CellIndex, x, y, z):
    """Vertical part of the 3-D map: F(x, y, z) = s(L(x, y)) * z + Q(x, y)."""
    return _map_3d(system, cell, x, y, z)[2]


def _axis_weights(axis: np.ndarray, t: np.ndarray):
    """Lower index and fractional weight for linear interpolation on an axis."""
    ix = np.clip(np.searchsorted(axis, t, side="right") - 1, 0, len(axis) - 2)
    w = (t - axis[ix]) / (axis[ix + 1] - axis[ix])
    return ix, w


def _lerp(src: np.ndarray, i, w, axis: int, out: np.ndarray, tmp: np.ndarray):
    """``out = (1 - w) * src[i] + w * src[i + 1]`` along ``axis``; ``tmp`` is shaped as ``out``."""
    np.multiply(np.take(src, i, axis=axis, out=out, mode="clip"), 1 - w, out=out)
    out += np.multiply(np.take(src, i + 1, axis=axis, out=tmp, mode="clip"), w, out=tmp)
    return out


def _bilinear(values: np.ndarray, ix, wx, iy, wy, order, against: np.ndarray, *,
              s=None, b=None, out=None) -> float:
    """``t = s * B values + b`` into ``out``; returns ``max |t - against|``, NaN if any is.

    ``B`` interpolates at rows ``ix + wx`` and columns ``iy + wy`` with the
    four-corner formula's floating-point operations, so bit for bit.  Source
    rows go by in blocks of ``_GATHER_CELLS`` cells: each block's pass along
    y, on its rows and one overlap row, finishes along x the output rows
    whose ``ix`` it holds, in the order of ``order = argsort(ix)`` (stable;
    cells interleave).  Without ``s`` and ``b``, ``t = B values``; without
    ``out`` only the residual is kept.  No temporary is full size.
    """
    rows = max(1, _GATHER_CELLS // len(iy))
    sx = ix[order]
    r0s = np.arange(0, len(values) - 1, rows)
    bounds = np.append(np.searchsorted(sx, r0s), len(sx))
    lx, wx = sx % rows, wx[order][:, None]
    c, blk, spare = (np.empty((max(rows + 1, *np.diff(bounds)), len(iy))) for _ in range(3))
    sups = []
    # ix, iy <= R - 2 (grid.pullback, _axis_weights): no take clips, "clip" skips a buffered out
    for r0, lo, hi in zip(r0s, bounds[:-1], bounds[1:]):
        src, sl, dst, tmp = values[r0:r0 + rows + 1], slice(lo, hi), order[lo:hi], spare[:hi - lo]
        c_blk = _lerp(src, iy, wy, 1, c[:len(src)], spare[:len(src)])  # along y
        t = _lerp(c_blk, lx[sl], wx[sl], 0, blk[:hi - lo], tmp)  # along x
        if s is not None:
            t *= np.take(s, dst, axis=0, out=tmp, mode="clip")
            t += np.take(b, dst, axis=0, out=tmp, mode="clip")
        np.subtract(t, np.take(against, dst, axis=0, out=tmp, mode="clip"), out=tmp)
        sups.append(np.max(np.abs(tmp, out=tmp), initial=0.0))  # a block may finish no row
        if out is not None:
            out[dst] = t
    return float(np.max(sups))


def _gather(values: np.ndarray, px: np.ndarray, py: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """``out[:] = values[np.ix_(px, py)]``, in row blocks with small temporaries."""
    rows = max(1, _GATHER_CELLS // len(py))
    for r0 in range(0, len(px), rows):
        np.take(values[px[r0:r0 + rows]], py, axis=1, out=out[r0:r0 + rows])
    return out


def _lift_rows(values: np.ndarray, rx: np.ndarray, ly: np.ndarray, s: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """``s * values[np.ix_(rx, ly)] + b`` for one row block."""
    out = np.take(values[rx], ly, axis=1)
    out *= s
    out += b
    return out


def _lift(values: np.ndarray, px: np.ndarray, py: np.ndarray, s: np.ndarray,
          b: np.ndarray, nodes=None, out=None) -> np.ndarray:
    """``s * values[np.ix_(px, py)] + b`` on the nodes ``np.ix_(*nodes)``, into ``out``.

    Without ``nodes``, ``s`` and ``b`` hold exactly the output nodes.
    Blocks hold as many rows as fit ``_GATHER_CELLS`` at the full width of
    ``s``; with ``nodes`` the rows of ``s`` and ``b`` are taken before their
    columns, so no temporary is larger than a block and no copy of ``s`` or
    ``b`` on a lower level is made.  A block's rows of ``s`` and ``b`` are
    read before it is written, so ``out`` may be ``b``.
    """
    out = np.empty((len(px), len(py))) if out is None else out
    step = max(1, _GATHER_CELLS // s.shape[1])
    for r0 in range(0, len(px), step):
        sl = slice(r0, r0 + step)
        if nodes is None:
            blk = _lift_rows(values, px[sl], py, s[sl], b[sl])
        else:
            rows, cols = nodes
            blk = np.take(values[px[sl]], py, axis=1)
            blk *= np.take(s[rows[sl]], cols, axis=1)
            blk += np.take(b[rows[sl]], cols, axis=1)
        out[sl] = blk
    return out


def _finite(sup: float, a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """The residual ``sup = max |a - b|``, or an error naming a node where it is not finite."""
    if math.isfinite(sup):
        return sup
    with np.errstate(invalid="ignore"):  # inf - inf: the error below says it, not a warning
        i, j = np.argwhere(~np.isfinite(a - b))[0]
    raise ConvergenceError(f"residual |T phi - phi| is not finite at the node "
                           f"({float(x[i])!r}, {float(y[j])!r})", last_bound=math.nan)


def _sup_distance(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """``max |a - b|`` in row blocks, without a full-size temporary, through :func:`_finite`."""
    rows = max(1, _GATHER_CELLS // a.shape[1])
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which _finite reports
        sups = [np.max(np.abs(a[r0:r0 + rows] - b[r0:r0 + rows]))
                for r0 in range(0, len(a), rows)]
    return _finite(float(np.max(sups)), a, b, x, y)  # np.max, unlike max, keeps a NaN


class OperatorGrid:
    """Precomputed sampled form of the surface transform at one resolution.

    ``axes`` holds the x and y :class:`~fractsurf.grid.Axis`, each node's
    exact pull-back per axis.  Both plans apply ``T phi = s * B phi + b``,
    with ``b = Q`` of the node's pre-image (:meth:`_block`); they differ
    only in the gather ``B``.

    On two lattice axes the plan is a *lattice* plan: ``B phi = phi[P]``
    with ``P = (p_x, p_y)``, level ``k`` is the product of the axes' levels,
    and ``g`` is taken at the sample node itself.  It holds ``s`` and ``b``
    on level 2 only, and ``apply`` is the gather there; :meth:`rows`
    evaluates them on other nodes, one row block at a time.  Otherwise
    ``B`` is the streamed :func:`_bilinear` with the axes' ``ix`` and ``w``
    and ``order = argsort(ix)`` of x, and ``s`` and ``b`` are held on every
    node, filled as level 2 is.
    """

    def __init__(self, system: IfsSystem, resolution: int):
        self.system = system
        self.resolution = resolution
        self.axes = sample_axes(system.grid, resolution)
        self.lattice = all(a.levels for a in self.axes)
        if self.lattice:
            x, y = (a.level(2) for a in self.axes)
        else:
            self.order = np.argsort(self.axes[0].ix, kind="stable")
            x = y = np.arange(resolution)
        # s and b, filled one row block at a time; apply(final=True) overwrites b
        self.s_values, self.b_values = self._terms = np.empty((2, len(x), len(y)))
        for _ in self._level_rows(x, y, self._terms):
            pass

    def _level_rows(self, x: np.ndarray, y: np.ndarray, out=None):
        """:meth:`rows` on the nodes ``np.ix_(x, y)``, raising at the first node where
        ``b = T 0``, the residual of ``phi = 0``, is not finite (:func:`_finite`): there
        ``T phi - phi`` is not finite for any finite ``phi``."""
        ax, ay = self.axes
        for r0, s, b in self.rows((x, y), out):
            _finite(float(np.max(np.abs(b))), b, 0.0, ax.samples[x[r0:r0 + len(b)]],
                    ay.samples[y])
            yield r0, s, b

    def _block(self, rows: np.ndarray, cols: np.ndarray, out=None):
        """``(s, b)`` on the nodes ``np.ix_(rows, cols)``, written into ``out`` if given.

        ``rows`` and ``cols`` are ascending node indices, each cell's part
        is :meth:`~fractsurf.boundary.QField.terms` at the nodes and their
        pulled-back points.  Cells write their parts in ``grid.cells()``
        order, so a node on a shared knot line takes the values of the later
        cell, whatever nodes are asked for.
        """
        s, b = np.empty((2, len(rows), len(cols))) if out is None else out
        ax, ay = self.axes
        for cell in self.system.grid.cells():
            sl_x = slice(*np.searchsorted(rows, ax.starts[cell.i - 1:cell.i + 1] + [0, 1]))
            sl_y = slice(*np.searchsorted(cols, ay.starts[cell.j - 1:cell.j + 1] + [0, 1]))
            if sl_x.start == sl_x.stop or sl_y.start == sl_y.stop:
                continue
            x_nodes, y_nodes = rows[sl_x][:, None], cols[sl_y][None, :]
            s[sl_x, sl_y], b[sl_x, sl_y] = self.system.q_fields[cell].terms(
                ax.samples[x_nodes], ay.samples[y_nodes], ax.pre[x_nodes], ay.pre[y_nodes])
        return s, b

    def rows(self, nodes=None, out=None):
        """``(r0, s, b)`` on the nodes ``np.ix_(*nodes)``, every node by default, one
        block of rows ``r0, r0 + 1, ...`` at a time, ``_ROW_CELLS // R`` rows on every
        level; into ``out[:, r0:]``, shaped ``(2, rows, columns)``, if given."""
        x, y = nodes or (np.arange(self.resolution),) * 2
        step = max(1, _ROW_CELLS // self.resolution)
        for r0 in range(0, len(x), step):
            sl = slice(r0, r0 + step)
            yield r0, *self._block(x[sl], y, None if out is None else out[:, sl])

    def apply(self, phi: np.ndarray, *, out=None, final: bool = False) -> np.ndarray:
        """``T phi = s * B phi + b``: on every node, or on level 2 for lattice plans.

        Into ``out`` if given (not ``phi``); a bilinear plan leaves
        ``max |T phi - phi|`` in ``residual``.  With ``final``, a lattice
        plan's last application writes ``T phi`` over ``b``, and the plan
        cannot apply again: given ``phi_2``, the fixed point on level 2, that
        is ``phi_1 = s * phi_2[P] + b`` on level 2, all that ``T_1 phi_1`` reads.
        """
        phi = np.asarray(phi, dtype=float)
        if self.lattice:
            s, b = self._terms
            if final:
                out, self._terms, self.s_values, self.b_values = b, None, None, None
            return _lift(phi, *(a.at(a.p[a.level(2)], 2) for a in self.axes), s, b, out=out)
        out = np.empty_like(phi) if out is None else out
        ax, ay = self.axes
        self.residual = _bilinear(phi, ax.ix, ax.w, ay.ix, ay.w, self.order, phi,
                                  s=self.s_values, b=self.b_values, out=out)
        return out


@dataclass(frozen=True)
class SurfaceSample:
    """Sampled attractor surface plus convergence bookkeeping."""

    x_samples: np.ndarray = field(compare=False)
    y_samples: np.ndarray = field(compare=False)
    heights: np.ndarray | None = field(compare=False)  # heights[ix, iy]; None when folded
    iterations: int = 0
    sup_diffs: tuple[float, ...] = ()  # residual per round, on its nodes; the last on all
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


def _half_solve(system: IfsSystem, resolution: int, tol: float,
                max_iter: int) -> SurfaceSample | None:
    """The solve on every other node, or None without that lattice or without convergence."""
    if (resolution - 1) % 2:
        return None
    try:
        return solve_fixed_point(system, (resolution - 1) // 2 + 1, tol=tol, max_iter=max_iter,
                                 estimate_bias=False)
    except FractsurfError:  # no sample lattice at half resolution, or no convergence there
        return None


def _no_convergence(max_iter: int, bound: float, tol: float) -> ConvergenceError:
    return ConvergenceError(
        f"no convergence in {max_iter} iterations; last bound {bound:.3g} "
        f"(tol {tol:.3g})", last_bound=bound)


def _iterate(plan: OperatorGrid, factor: float, tol: float, max_iter: int):
    """Plain iteration from ``phi_1 = T 0 = b``, as on lattice plans; one residual per apply."""
    phi = plan.b_values.copy()
    spare = np.empty_like(phi)  # T phi goes into the buffer phi does not hold
    diffs: list[float] = []
    bound = math.inf
    for iterations in range(1, max_iter + 1):
        nxt = plan.apply(phi, out=spare)
        diff = _finite(plan.residual, nxt, phi, *(a.samples for a in plan.axes))
        diffs.append(diff)
        phi, spare = nxt, phi
        bound = factor * diff
        if bound <= tol:
            return phi, iterations, diffs, bound
    raise _no_convergence(max_iter, bound, tol)


def _double(s: np.ndarray, b: np.ndarray, px: np.ndarray, py: np.ndarray,
            phi: np.ndarray, factor: float, tol: float, max_iter: int, nodes):
    """Pointer doubling of the gather ``T phi = s * phi[px, py] + b`` from ``phi_1 = phi``.

    ``(a, c, qx, qy)`` represents ``T^N phi = a * phi[qx, qy] + c`` and
    ``phi`` holds ``phi_N``.  Each round applies ``T`` once to measure the
    residual ``|T phi_N - phi_N|``; unless that meets the bound, it sets
    ``phi_2N = T^N phi_N`` and squares the map: ``c <- a * c[Q] + c``,
    ``a <- a * a[Q]``, ``Q <- Q[Q]``.  Residuals shrink by ``c_s^N`` per
    round.  Returns ``T phi_N`` and ``N + 1`` equivalent applications
    (``phi_1`` counts as one); ``phi`` is reused as scratch.  ``nodes``:
    the sample coordinates ``(x, y)`` of ``phi``'s rows and columns.
    """
    a, c, qx, qy = s.copy(), b.copy(), px, py
    n = 1
    diffs: list[float] = []
    while True:
        nxt = _gather(phi, px, py, np.empty_like(phi))
        nxt *= s
        nxt += b
        diff = _sup_distance(nxt, phi, *nodes)
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


def _descend(plan: OperatorGrid, factor: float, tol: float, max_iter: int, emit):
    """Fixed point of a lattice plan: doubling on the core of ``P``, one gather per level.

    ``P`` maps level ``k`` (:class:`OperatorGrid`) into level ``k + 1``, so
    the fixed point on level ``k`` follows from the one on level ``k + 1``
    by one gather, ``phi_k = s * phi_(k+1)[P] + b``.  The plan holds ``s``
    and ``b`` on level 2, beside which this holds the doubling's arrays on
    the core and at most two more level-2 arrays.  Levels 1 and 0 go by in
    row blocks, level 0's to ``emit(r0, rows)``, each row once, in no fixed
    order.

    :func:`_double` solves on the core, where ``P`` is a permutation, from
    ``phi_1 = T 0 = b``, and one gather per level lifts the result to
    ``phi_2`` on level 2.  The last application writes ``phi_1`` there over
    ``b``.  Each block of level 1 then gives ``phi_1`` and ``T_1 phi_1``
    (:func:`_level_1`), and the level-0 rows that ``P`` takes into it give
    ``phi = s * phi_1[P] + b`` and ``T phi = s * (T_1 phi_1)[P] + b``, so one
    pass measures ``|T phi - phi|`` on every node (the last of ``sup_diffs``,
    which gives the bound) and emits ``T phi``.  Those rows are one block of
    each run of rows on which ``P`` does not decrease, one run per cell
    (:func:`~fractsurf.grid.pullback`).  The count is ``N + 1`` on the core
    plus one per level under level 1 plus the last application, so at least
    four more than those levels; a smaller ``max_iter`` raises before
    solving.  Where ``P`` permutes level 1, level 2 is level 1 and the last
    application gives ``T_1 phi_1``.  Should ``P`` permute every node (no
    grid does: a single-cell axis is rejected), level 1 is every node and
    the lift to level 0 is one more gather.  Returns ``(iterations,
    sup_diffs, bound)``.
    """
    axes = plan.axes
    below = max(len(a.levels) for a in axes) - 2  # levels under level 1; the last is the core
    if below + 4 > max_iter:  # two applications on the core, the levels, the last one
        raise _no_convergence(max_iter, math.inf, tol)
    # P from level k into positions on level k + 1, down to the core, which P permutes
    steps = [[a.at(a.p[a.level(k)], k + 1) for a in axes] for k in range(below + 2)]
    s, b = plan.s_values, plan.b_values
    core = np.ix_(*(a.at(a.level(below + 1), 2) for a in axes))  # as positions on level 2
    phi, n, diffs, _ = _double(s[core], b[core], *steps[below + 1], b[core],  # phi_1 = b
                               factor, tol, max_iter - below - 2,
                               tuple(a.samples[a.level(below + 1)] for a in axes))
    for k in reversed(range(2, below + 1)):  # down to phi_2 on level 2, which the plan holds
        phi = _lift(phi, *steps[k], s, b, nodes=[a.at(a.level(k), 2) for a in axes])
    if below:  # the last application writes phi_1 over b on level 2; level 1 streams
        blocks = _level_1(plan, phi, plan.apply(phi, final=True), *steps[1])
    else:  # level 1 is the core, and phi is phi_1
        blocks = [(0, plan.apply(phi), phi)]
    (lx, ly), (ax, ay) = steps[0], axes
    # level 0 in runs of rows on which lx does not decrease, one per cell (pullback)
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(lx) < 0) + 1, [plan.resolution]])
    cols, last = np.arange(plan.resolution), 0.0
    for w0, t_1, phi_1 in blocks:  # T_1 phi_1 and phi_1 on the level-1 rows w0, w0 + 1, ...
        for a, e in zip(bounds[:-1], bounds[1:]):  # each run's rows that P takes into them
            lo, hi = (a + np.searchsorted(lx[a:e], (w0, w0 + len(t_1)))).tolist()
            for r0, s, b in plan.rows((np.arange(lo, hi), cols)):  # v -> s * v[P] + b
                sl = slice(lo + r0, lo + r0 + len(s))
                rx = lx[sl] - w0
                heights = _lift_rows(t_1, rx, ly, s, b)
                last = max(last, _sup_distance(heights, _lift_rows(phi_1, rx, ly, s, b),
                                               ax.samples[sl], ay.samples))
                emit(sl.start, heights)
                del s, b, heights  # before the next block is evaluated
    diffs.append(last)
    bound = factor * last
    if bound > tol:  # at most c_s^(levels + 2) times the core's bound, so only rounding
        raise ConvergenceError(
            f"lifted surface misses the bound by rounding: {bound:.3g} (tol {tol:.3g})",
            last_bound=bound)
    return n + below + 2, diffs, bound


def _level_1(plan: OperatorGrid, phi_2: np.ndarray, phi_1: np.ndarray, px: np.ndarray,
             py: np.ndarray):
    """``(w0, T_1 phi_1, phi_1)`` on level 1 in blocks of rows ``w0, w0 + 1, ...``, from
    ``phi_2`` and ``phi_1`` on level 2 (``px``, ``py``: ``P`` as positions there)."""
    for w0, s, b in plan._level_rows(*(a.level(1) for a in plan.axes)):
        rx = px[w0:w0 + len(s)]
        gathered = np.take(phi_1[rx], py, axis=1)
        gathered *= s  # s * phi_1[P], before s is overwritten
        s *= np.take(phi_2[rx], py, axis=1)
        s += b  # phi_1, over s
        b += gathered  # T_1 phi_1, over b: + and * commute exactly, so bit for bit
        del gathered
        yield w0, b, s


def fold_rows(values: np.ndarray, fold) -> None:
    """Hand ``values`` to ``fold(r0, rows)``, each row once, in blocks of ``_ROW_CELLS`` cells."""
    step = max(1, _ROW_CELLS // values.shape[1])
    for r0 in range(0, len(values), step):
        fold(r0, values[r0:r0 + step])


def solve_fixed_point(system: IfsSystem, resolution: int, tol: float = 1e-6,
                      max_iter: int = 10000, estimate_bias: bool = True,
                      fold=None) -> SurfaceSample:
    """Solve the sampled surface transform until the a-posteriori bound meets tol.

    Lattice plans are solved by :func:`_descend` (doubling on the core of
    the pull-back, one gather per level back to every node), others by
    iteration, both from ``phi_1 = T 0 = b``.  Each returns ``T phi`` for a
    candidate ``phi`` with ``c_s / (1 - c_s) * |T phi - phi| <= tol``
    measured on every node.  ``iterations`` counts operator applications,
    equivalent ones on lattice plans; ``ConvergenceError`` is raised before
    it would pass ``max_iter``, at the first residual that is not finite,
    with a node, or when rounding keeps a lattice solve's bound above
    ``tol``.  ``estimate_bias``
    additionally solves at half resolution and reports the largest
    disagreement after bilinear upsampling, an empirical estimate of the
    discretization bias that roughly halves when resolution doubles (None
    without a converged half-resolution solve, :func:`_half_solve`).

    With ``fold``, the heights go to ``fold(r0, rows)`` in blocks of rows
    ``r0, r0 + 1, ...``, each row once, in any order, instead of into
    ``heights``, which is then None; lattice plans then never hold a
    full-size array.
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
    x_samples, y_samples = (a.samples for a in plan.axes)
    del plan  # its s and b would otherwise outlive the half-resolution solve

    bias = None
    coarse = _half_solve(system, resolution, tol, max_iter) if estimate_bias else None
    if coarse is not None:
        ix, wx = _axis_weights(coarse.x_samples, x_samples)
        iy, wy = _axis_weights(coarse.y_samples, y_samples)
        bias = _bilinear(coarse.heights, ix, wx, iy, wy, np.argsort(ix, kind="stable"), phi)
    return SurfaceSample(
        x_samples=x_samples, y_samples=y_samples, heights=phi,
        iterations=iterations, sup_diffs=tuple(diffs), error_bound=bound,
        bias_estimate=bias, contraction=c_s, fold=fold)


def _affine_scan(a: np.ndarray, x: np.ndarray) -> None:
    """``x[k] <- a[k-1] * x[k-1] + x[k]`` for every ``k >= 1`` in turn, in place.

    ``x`` holds the start, then the offsets ``b``, one per step; ``a`` one
    multiplier per step.  An inclusive scan of the pairs ``(a, b)`` under
    composition (Blelloch, 1990): after the pass of stride ``d``,
    ``(a[k], b[k])`` composes steps ``k - 2d + 1 .. k``, so ``ceil(log2 N)``
    passes give ``x_k``.  Overwrites ``a``.
    """
    b = x[1:]
    b[0] += a[0] * x[0]
    d = 1
    while d < len(b):
        b[d:] += a[d:] * b[:-d]
        a[d:] *= a[:-d]
        d *= 2


def chaos_game(system: IfsSystem, point_count: int, seed: int,
               burn_in: int = 100) -> np.ndarray:
    """Random orbit of the 3-D maps, one map drawn uniformly per step.

    The orbit starts at the first data knot, a point of the attractor, so
    every iterate lies on the surface graph up to rounding; the burn-in
    discard is kept anyway so arbitrary start points behave.  Each axis is
    one :func:`_affine_scan`, and so is ``z <- s * z + b``, the form of
    :class:`OperatorGrid`.  The scans run in place on the rows of one
    ``(3, steps + 1)`` orbit array, their multipliers in one reused vector;
    the picks are held in the smallest unsigned type that holds a cell
    index.  Returns the (N, 3) view of the kept steps.
    """
    if point_count < 1:
        raise FractsurfError("point_count must be positive")
    if burn_in < 0:
        raise FractsurfError("burn_in must be non-negative")
    rng = np.random.default_rng(seed)
    cells = sorted(system.maps)  # deterministic order
    steps = burn_in + point_count
    picks = rng.integers(0, len(cells), size=steps).astype(np.min_scalar_type(len(cells) - 1))
    xs, ys, zs = orbit = np.empty((3, steps + 1))
    a = np.empty(steps)
    for row, axis, start in ((xs, "axis_x", system.grid.x_knots[0]),
                             (ys, "axis_y", system.grid.y_knots[0])):
        maps = [getattr(system.maps[c], axis) for c in cells]
        row[0] = start  # x <- a * x + b on one axis
        # the picks are in range; mode "raise" would fill a copy of out first
        np.take([m.offset for m in maps], picks, out=row[1:], mode="clip")
        np.take([m.scale for m in maps], picks, out=a, mode="clip")
        _affine_scan(a, row)
    # each cell's steps, ascending: one stable sort by pick, then a slice per cell
    bounds = np.concatenate([[0], np.cumsum(np.bincount(picks, minlength=len(cells)))])
    order = np.argsort(picks, kind="stable")
    del picks
    for ci, cell in enumerate(cells):
        idx = order[bounds[ci]:bounds[ci + 1]]
        if len(idx):  # from the old point to the new one
            a[idx], zs[1:][idx] = system.q_fields[cell].terms(xs[1:][idx], ys[1:][idx],
                                                               xs[:-1][idx], ys[:-1][idx])
    del order, idx  # the last idx views order
    zs[0] = system.grid.z[0, 0]
    _affine_scan(a, zs)
    return orbit[:, burn_in + 1:].T


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
        plx, ply, plz = _map_3d(system, cell, *p.T)
        qlx, qly, qlz = _map_3d(system, cell, *q.T)
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
