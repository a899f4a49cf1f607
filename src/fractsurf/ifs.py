"""Assembled iterated function systems and the surface solvers.

Each cell carries one 3-D map ``W(x, y, z) = (L(x, y), F(x, y, z))`` with
``F(x, y, z) = s(L(x, y)) * z + Q(x, y)``.  Because every scaling field
vanishes on its cell edges, the union of the maps' graph actions glues
continuously and the attractor is the graph of a continuous surface through
the data.

Two ways to materialize the attractor are provided and cross-checked:

* :func:`solve_fixed_point` solves the associated operator on a sampled
  height field; the transform of a surface candidate ``phi`` on cell
  ``E_ij`` is ``s(p) * (phi(L^-1 p) - g(L^-1 p)) + h(p)``, a sup-norm
  contraction with factor ``c_s = max sup|s|``, so the a-posteriori bound
  ``c_s / (1 - c_s) * |T phi - phi|`` controls the error of ``T phi``
  against the exact fixed point at the sample nodes.  When every
  pulled-back node lands on a sample node (uniform, knot-aligned grids) the
  sampled operator is a pure gather ``phi -> s * phi[P] + b`` and the solver
  composes it with itself (pointer doubling), reaching iterate ``2^k`` in
  ``k`` rounds; otherwise it iterates the bilinear pull-back.  Either way
  ``iterations`` counts operator applications (equivalent ones, when
  doubling) and ``sup_diffs`` holds the residuals ``|T phi - phi|`` whose
  last entry gives the bound.  Discretization bias from the bilinear
  pull-back is estimated separately against a half-resolution solve.
* :func:`chaos_game` drives a random orbit of the 3-D maps; started on the
  graph (at a data knot) it stays on the graph exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .boundary import QField
from .errors import ConvergenceError, FractsurfError, InvalidGridError
from .grid import CellIndex, DataGrid, DomainMap
from .scaling import ScalingField

TILING_TOL = 1e-12
# Rounding in the affine inversion leaves on-node weights ~3e-13 off 0 or 1.
LATTICE_TOL = 5e-13
# Cells per row block of a gather: a 256 KiB temporary stays in cache.
_GATHER_CELLS = 1 << 15


@dataclass(frozen=True)
class ContractionCertificate:
    """Constants backing the contraction arguments of an assembled system."""

    c_s: float        # max over cells of the certified sup|s| bound
    c_l: float        # max map contraction in the taxicab metric
    l_q: float        # max Lipschitz bound of the vertical offsets
    theta_max: float  # metric weights 0 < theta < theta_max are admissible


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

    @property
    def contractive(self) -> bool:
        return self.max_ratio < 1.0


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
    and every scaling field is certified below 1.
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
    c_s = float(max(s.sup_bound for s in scalings.values()))
    if c_s >= 1.0:
        raise FractsurfError(f"vertical contraction c_s = {c_s!r} is not below 1")
    c_l = float(max(m.contraction for m in maps.values()))
    l_q = float(max(q.lipschitz for q in q_fields.values()))
    theta_max = (1.0 - c_l) / l_q if l_q > 0 else math.inf
    cert = ContractionCertificate(c_s=c_s, c_l=c_l, l_q=l_q, theta_max=theta_max)
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
    """Separable bilinear gather; wx broadcast over rows, wy over columns."""
    wx = wx[:, None]
    wy = wy[None, :]
    v00 = values[np.ix_(ix, iy)]
    v10 = values[np.ix_(ix + 1, iy)]
    v01 = values[np.ix_(ix, iy + 1)]
    v11 = values[np.ix_(ix + 1, iy + 1)]
    return ((1 - wx) * ((1 - wy) * v00 + wy * v01)
            + wx * ((1 - wy) * v10 + wy * v11))


def _gather(values: np.ndarray, px: np.ndarray, py: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """``out[:] = values[np.ix_(px, py)]``, in row blocks with small temporaries."""
    rows = max(1, _GATHER_CELLS // len(py))
    for r0 in range(0, len(px), rows):
        np.take(values[px[r0:r0 + rows]], py, axis=1, out=out[r0:r0 + rows])
    return out


def _sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``max |a - b|`` in row blocks, without a full-size temporary."""
    rows = max(1, _GATHER_CELLS // a.shape[1])
    return max(float(np.max(np.abs(a[r0:r0 + rows] - b[r0:r0 + rows])))
               for r0 in range(0, len(a), rows))


def _on_lattice(w: np.ndarray) -> bool:
    """Whether every bilinear weight is within LATTICE_TOL of 0 or 1."""
    return bool(np.all(np.minimum(w, 1.0 - w) <= LATTICE_TOL))


def _build_axis(knots: tuple[float, ...], resolution: int):
    """Knot-aligned sample axis: per-cell linspaces with exact knot endpoints.

    Returns (samples, block_sizes) where block_sizes[i] is the number of
    intervals inside cell i+1.  Raises when the resolution cannot place
    every knot exactly on a sample line.
    """
    span = knots[-1] - knots[0]
    sizes = []
    for k in range(len(knots) - 1):
        ideal = (resolution - 1) * (knots[k + 1] - knots[k]) / span
        m = round(ideal)
        if m < 1 or abs(ideal - m) > 1e-9:
            raise FractsurfError(
                f"resolution {resolution} is not knot-aligned: cell {k + 1} would "
                f"need {ideal:.6g} sample intervals; choose R so that (R-1) times "
                "each cell fraction is an integer")
        sizes.append(int(m))
    if sum(sizes) != resolution - 1:
        raise FractsurfError(f"resolution {resolution} does not split across cells")
    parts = [np.linspace(knots[k], knots[k + 1], sizes[k] + 1) for k in range(len(sizes))]
    samples = np.concatenate([parts[0]] + [p[1:] for p in parts[1:]])
    return samples, sizes


class OperatorGrid:
    """Precomputed sampled form of the surface transform at one resolution.

    All position-dependent quantities (the scaling field, the blend, the
    free field at the pulled-back points, and the bilinear gather indices)
    are fixed across iterations, so one application is a gather plus a
    fused multiply-add.

    When every bilinear weight on both axes is within ``LATTICE_TOL`` of 0
    or 1, the plan is a *lattice* plan: the weights snap to 0 or 1, the
    integer node indices ``px``, ``py`` replace indices and weights, and
    ``b = h - s * g`` replaces ``g``, so that ``apply`` is the pure gather
    ``s * phi[P] + b``.
    """

    def __init__(self, system: IfsSystem, resolution: int):
        grid = system.grid
        min_r = 4 * max(grid.n, grid.m) + 1
        if resolution < min_r:
            raise FractsurfError(
                f"resolution {resolution} too coarse; need at least {min_r} "
                f"for a {grid.n}x{grid.m} grid")
        self.system = system
        self.resolution = resolution
        self.x_samples, self.x_blocks = _build_axis(grid.x_knots, resolution)
        self.y_samples, self.y_blocks = _build_axis(grid.y_knots, resolution)

        r = resolution
        self.s_values = np.empty((r, r))
        self.h_values = np.empty((r, r))
        g = np.empty((r, r))
        x_pre = np.empty(r)
        y_pre = np.empty(r)
        x_starts = np.concatenate([[0], np.cumsum(self.x_blocks)])
        y_starts = np.concatenate([[0], np.cumsum(self.y_blocks)])
        for cell in grid.cells():
            dmap = system.maps[cell]
            sl_x = slice(x_starts[cell.i - 1], x_starts[cell.i] + 1)
            sl_y = slice(y_starts[cell.j - 1], y_starts[cell.j] + 1)
            bx = self.x_samples[sl_x]
            by = self.y_samples[sl_y]
            x_pre[sl_x] = dmap.axis_x.invert(bx, tol=1e-9)
            y_pre[sl_y] = dmap.axis_y.invert(by, tol=1e-9)
            self.s_values[sl_x, sl_y] = system.scalings[cell](bx[:, None], by[None, :])
            self.h_values[sl_x, sl_y] = system.blend(cell)(bx[:, None], by[None, :])
            g[sl_x, sl_y] = system.free(cell)(x_pre[sl_x][:, None], y_pre[sl_y][None, :])
        ix, wx = _axis_weights(self.x_samples, x_pre)
        iy, wy = _axis_weights(self.y_samples, y_pre)
        self.lattice = _on_lattice(wx) and _on_lattice(wy)
        if self.lattice:
            self.px = ix + (wx > 0.5)
            self.py = iy + (wy > 0.5)
            g *= self.s_values
            self.b_values = np.subtract(self.h_values, g, out=g)
        else:
            self.g_values = g
            self.ix, self.wx, self.iy, self.wy = ix, wx, iy, wy

    def initial(self) -> np.ndarray:
        """Blend patchwork: continuous, interpolates the data, cheap."""
        return self.h_values.copy()

    def apply(self, phi: np.ndarray) -> np.ndarray:
        if self.lattice:
            phi = np.asarray(phi, dtype=float)
            out = _gather(phi, self.px, self.py, np.empty_like(phi))
            out *= self.s_values
            out += self.b_values
            return out
        pulled = _bilinear_gather(phi, self.ix, self.wx, self.iy, self.wy)
        return self.s_values * (pulled - self.g_values) + self.h_values


def apply_T(system: IfsSystem, phi: np.ndarray) -> np.ndarray:
    """One application of the surface transform to a sampled height field."""
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise FractsurfError("phi must be a square R x R sample grid")
    return OperatorGrid(system, phi.shape[0]).apply(phi)


@dataclass(frozen=True)
class SurfaceSample:
    """Sampled attractor surface plus convergence bookkeeping."""

    x_samples: np.ndarray = field(compare=False)
    y_samples: np.ndarray = field(compare=False)
    heights: np.ndarray = field(compare=False)  # heights[ix, iy]
    iterations: int = 0
    sup_diffs: tuple[float, ...] = ()
    error_bound: float = 0.0          # a-posteriori bound at the sample nodes
    bias_estimate: float | None = None  # discretization bias vs half resolution
    contraction: float = 0.0          # c_s used in the bound

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
    r = plan.resolution
    if (r - 1) % 2 != 0:
        return None
    if any(b % 2 for b in plan.x_blocks) or any(b % 2 for b in plan.y_blocks):
        return None
    half = (r - 1) // 2 + 1
    grid = plan.system.grid
    if half < 4 * max(grid.n, grid.m) + 1:
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


def _double(plan: OperatorGrid, factor: float, tol: float, max_iter: int):
    """Pointer doubling on a lattice plan, from phi_0 = h.

    ``(a, b, px, py)`` represents ``T^N phi = a * phi[px, py] + b`` and
    ``phi`` holds ``phi_N = T^N h``.  Each round applies the plan once to
    measure the residual ``|T phi_N - phi_N|``; unless that meets the bound,
    it sets ``phi_2N = T^N phi_N`` and squares the map: ``b <- a * b[P] + b``,
    ``a <- a * a[P]``, ``P <- P[P]``.  Residuals shrink by ``c_s^N`` per
    round.  Returns ``T phi_N`` and ``N + 1`` equivalent applications.
    """
    phi = plan.h_values
    px, py = plan.px, plan.py
    n = 0
    diffs: list[float] = []
    while True:
        nxt = plan.apply(phi)
        diff = _sup_distance(nxt, phi)
        diffs.append(diff)
        bound = factor * diff
        if bound <= tol:
            return nxt, n + 1, diffs, bound
        if max(2 * n, 1) + 1 > max_iter:
            raise _no_convergence(max_iter, bound, tol)
        if n == 0:  # phi_1 = T h is at hand and (s, b, P) is T^1
            phi, n = nxt, 1
            a, b = plan.s_values.copy(), plan.b_values.copy()
            continue
        phi, spare = _gather(phi, px, py, out=nxt), phi
        phi *= a
        phi += b
        _gather(b, px, py, out=spare)
        spare *= a
        b += spare
        _gather(a, px, py, out=spare)
        a *= spare
        del spare  # free it before the next apply allocates its output
        px, py = px[px], py[py]
        n *= 2


def solve_fixed_point(system: IfsSystem, resolution: int, tol: float = 1e-6,
                      max_iter: int = 10000, estimate_bias: bool = True) -> SurfaceSample:
    """Solve the sampled surface transform until the a-posteriori bound meets tol.

    Lattice plans are solved by pointer doubling, others by iteration from
    the blend patchwork.  Both stop at the first candidate ``phi`` with
    ``c_s / (1 - c_s) * |T phi - phi| <= tol`` and return ``T phi`` (after
    one application, with a zero bound, when all scaling fields are zero).
    ``iterations`` counts operator applications, equivalent ones when
    doubling; ``ConvergenceError`` is raised before it would pass
    ``max_iter``.  ``estimate_bias`` additionally solves at half resolution
    and reports the largest disagreement after bilinear upsampling, an
    empirical estimate of the discretization bias that roughly halves when
    resolution doubles.
    """
    plan = OperatorGrid(system, resolution)
    c_s = system.certificate.c_s
    factor = c_s / (1.0 - c_s)
    solve = _double if plan.lattice else _iterate
    phi, iterations, diffs, bound = solve(plan, factor, tol, max_iter)

    bias = None
    if estimate_bias:
        half = _half_resolution(plan)
        if half is not None:
            coarse = solve_fixed_point(system, half, tol=tol, max_iter=max_iter,
                                       estimate_bias=False)
            ix, wx = _axis_weights(coarse.x_samples, plan.x_samples)
            iy, wy = _axis_weights(coarse.y_samples, plan.y_samples)
            up = _bilinear_gather(coarse.heights, ix, wx, iy, wy)
            bias = float(np.max(np.abs(up - phi)))
    return SurfaceSample(
        x_samples=plan.x_samples, y_samples=plan.y_samples, heights=phi,
        iterations=iterations, sup_diffs=tuple(diffs), error_bound=bound,
        bias_estimate=bias, contraction=c_s)


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
    picks_list = picks.tolist()
    for k, c in enumerate(picks_list):
        x = ax[c] * x + bx[c]
        y = ay[c] * y + by[c]
        xs[k + 1] = x
        ys[k + 1] = y

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
    s_l, g_l, h_l = s_step.tolist(), g_step.tolist(), h_step.tolist()
    for k in range(steps):
        z = s_l[k] * (z - g_l[k]) + h_l[k]
        zs[k + 1] = z
    pts = np.column_stack([xs[1:], ys[1:], zs[1:]])
    return pts[burn_in:]


def certify_metric(system: IfsSystem, theta: float | None = None,
                   pairs: int = 10000, seed: int = 0,
                   z_margin: float = 1.0) -> MetricReport:
    """Sampled contraction ratios of all 3-D maps under rho_theta.

    theta defaults to the midpoint of the admissible interval
    (0, (1 - c_l) / l_q).  Ratios are taken over random point pairs in the
    rectangle times the data range padded by ``z_margin``; a ratio >= 1 for
    an admissible theta would falsify the certificate.
    """
    cert = system.certificate
    theta_hi = cert.theta_max
    if theta is None:
        theta = theta_hi / 2 if math.isfinite(theta_hi) else 1.0
    admissible = 0 < theta < theta_hi
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = system.grid.rect
    z0 = float(system.grid.z.min()) - z_margin
    z1 = float(system.grid.z.max()) + z_margin
    p = rng.uniform([x0, y0, z0], [x1, y1, z1], size=(pairs, 3))
    q = rng.uniform([x0, y0, z0], [x1, y1, z1], size=(pairs, 3))
    dist = (np.abs(p[:, 0] - q[:, 0]) + np.abs(p[:, 1] - q[:, 1])
            + theta * np.abs(p[:, 2] - q[:, 2]))
    keep = dist > 1e-12
    max_ratio = 0.0
    for cell in system.cells():
        dmap = system.maps[cell]
        def w(points):
            lx, ly = dmap((points[:, 0], points[:, 1]))
            fz = (system.scalings[cell](lx, ly) * points[:, 2]
                  + system.q_fields[cell](points[:, 0], points[:, 1]))
            return lx, ly, fz
        plx, ply, plz = w(p)
        qlx, qly, qlz = w(q)
        wdist = (np.abs(plx - qlx) + np.abs(ply - qly) + theta * np.abs(plz - qlz))
        ratios = wdist[keep] / dist[keep]
        max_ratio = max(max_ratio, float(ratios.max()))
    return MetricReport(theta_interval=(0.0, theta_hi), theta=float(theta),
                        admissible=admissible, max_ratio=max_ratio,
                        pairs=pairs, seed=seed)
