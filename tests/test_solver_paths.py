"""The two solver paths: the knot-image descent on lattice plans, iteration otherwise.

Both plans apply ``T phi = s * B phi + b``.  Where every cell spans an
integer fraction of its axis, every pulled-back sample node lands on a node,
so the gather ``B`` is ``phi[P]``; the solver doubles it on the core of the
pull-back and lifts the result to every node.  Grids with other cells take
fractional bilinear weights and keep the plain iteration.
"""
import json
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractsurf import ifs
from fractsurf.boundary import FreeField, PatchBlend
from fractsurf.config import config_document, parse_config_document
from fractsurf.dimension import ColumnExtrema, box_counts, natural_scales
from fractsurf.errors import ConvergenceError
from fractsurf.fixtures import PSI_A, X_KNOTS, Y_KNOTS, Z_ROWS, fixture_config, fixture_names
from fractsurf.grid import pullback, sample_axes
from fractsurf.ifs import OperatorGrid, solve_fixed_point
from fractsurf.pipeline import _dimension_resolution, build_system

from cli_runner import run
from test_ifs import nonuniform_document
from lattice import (force_bilinear, four_corner_gather, full_apply, full_fields, level_2,
                     level_2_nodes, level_nodes, stack_into, traced_peak)

LATTICE_R = 97
TOL = 1e-6


def test_lattice_apply_matches_bilinear_apply(example2a_job, monkeypatch):
    system = example2a_job.system
    lattice = OperatorGrid(system, LATTICE_R)
    force_bilinear(monkeypatch)
    bilinear = ifs.OperatorGrid(system, LATTICE_R)
    assert lattice.lattice and not bilinear.lattice
    phi = np.random.default_rng(7).normal(size=(LATTICE_R, LATTICE_R))
    full = full_apply(lattice, phi)
    gap = float(np.max(np.abs(full - bilinear.apply(phi))))
    assert gap <= 1e-10
    # the same s and b, and weights of 0 and 1 gather each node exactly
    assert np.array_equal(full, bilinear.apply(phi))
    # on level 2, image(P) of level 1, where the plan holds s and b, its own
    # apply is the same gather (it was level 1 while the plan held level 1)
    level = level_2(lattice)
    assert np.array_equal(lattice.apply(phi[level]), full[level])


def whole_grid_fields(system, resolution):
    """Reference: s, h and g on every node, cell by cell in ``grid.cells()`` order.

    On a uniform grid node ``t`` of a cell with ``k`` sample intervals pulls
    back onto node ``t * (R - 1) / k``, where ``g`` is evaluated.
    """
    (xs, x_blocks), (ys, y_blocks) = sample_axes(system.grid, resolution)
    x_starts, y_starts = np.cumsum([0] + x_blocks), np.cumsum([0] + y_blocks)
    s, h, g = (np.empty((resolution, resolution)) for _ in range(3))
    for cell in system.cells():
        sl_x = slice(x_starts[cell.i - 1], x_starts[cell.i] + 1)
        sl_y = slice(y_starts[cell.j - 1], y_starts[cell.j] + 1)
        bx, by = xs[sl_x], ys[sl_y]
        kx, ky = x_blocks[cell.i - 1], y_blocks[cell.j - 1]
        assert (resolution - 1) % kx == 0 and (resolution - 1) % ky == 0
        qx = xs[np.arange(kx + 1) * ((resolution - 1) // kx)]
        qy = ys[np.arange(ky + 1) * ((resolution - 1) // ky)]
        s[sl_x, sl_y] = system.scalings[cell](bx[:, None], by[None, :])
        h[sl_x, sl_y] = system.q_fields[cell].blend(bx[:, None], by[None, :])
        g[sl_x, sl_y] = system.q_fields[cell].free(qx[:, None], qy[None, :])
    return s, h, g


@pytest.mark.parametrize("name", ["example2a", "example2b-sin", "band2x2"])
def test_row_blocks_evaluate_the_fields_of_the_whole_grid(name, monkeypatch):
    # a shared knot line takes the later cell's values, whichever rows a block
    # holds (ragged blocks of 7 rows here) and on level 2, which the plan
    # holds (level 1 until the plan held level 2), as on every node;
    # example2b-sin's free field g is nonzero, taken at the pulled-back node
    monkeypatch.setattr(ifs, "_ROW_CELLS", 7 * LATTICE_R)
    system = build_system(parse_config_document(fixture_config(name))).system
    plan = OperatorGrid(system, LATTICE_R)
    s, h, g = whole_grid_fields(system, LATTICE_R)
    b = h - g * s
    got_s, got_b = full_fields(plan)
    assert np.array_equal(got_s, s) and np.array_equal(got_b, b)
    level = level_2(plan)
    assert np.array_equal(plan.s_values, s[level]) and np.array_equal(plan.b_values, b[level])


def test_doubling_agrees_with_iteration(example2a_job, monkeypatch):
    system = example2a_job.system
    doubled = solve_fixed_point(system, LATTICE_R, tol=TOL, estimate_bias=False)
    force_bilinear(monkeypatch)
    iterated = solve_fixed_point(system, LATTICE_R, tol=1e-10, estimate_bias=False)
    assert iterated.iterations == len(iterated.sup_diffs)
    gap = float(np.max(np.abs(doubled.heights - iterated.heights)))
    assert gap <= doubled.error_bound + iterated.error_bound


def test_doubled_surface_has_a_small_residual(example2a_job):
    system = example2a_job.system
    surface = solve_fixed_point(system, LATTICE_R, tol=TOL, estimate_bias=False)
    assert surface.error_bound <= TOL
    heights = surface.heights
    residual = float(np.max(np.abs(full_apply(OperatorGrid(system, LATTICE_R), heights)
                                   - heights)))
    assert residual <= (1 + surface.contraction) * surface.error_bound


def image_chain(p):
    """Reference: all nodes, then image(p) of the previous entry, until p permutes it."""
    chain = [np.arange(len(p))]
    while len(np.unique(p[chain[-1]])) < len(chain[-1]):
        chain.append(np.unique(p[chain[-1]]))
    return chain


def test_doubling_history_follows_its_definitions(example2a_job):
    system = example2a_job.system
    c = system.certificate.c_s
    surface = solve_fixed_point(system, LATTICE_R, tol=TOL, estimate_bias=False)
    diffs = surface.sup_diffs
    core_rounds = len(diffs) - 1
    assert core_rounds >= 3
    plan = OperatorGrid(system, LATTICE_R)
    s, b = full_fields(plan)
    xs, ys = image_chain(plan.px), image_chain(plan.py)
    # level 1 is image(P); the plan keeps s and b on level 2 of the chain,
    # image(P) of level 1, or level 1 on an axis whose chain ends there (y
    # here).  It kept them on level 1 until level 1 was streamed.
    assert np.array_equal(plan.x_level, xs[1]) and np.array_equal(plan.y_level, ys[1])
    assert len(xs) > 2 and len(ys) == 2
    level = np.ix_(xs[2], ys[1])
    assert np.array_equal(plan.x_level[plan.level_2[0]], xs[2])
    assert np.array_equal(plan.y_level[plan.level_2[1]], ys[1])
    assert np.array_equal(plan.s_values, s[level])
    assert np.array_equal(plan.b_values, b[level])

    def apply(phi):
        return s * phi[np.ix_(plan.px, plan.py)] + b

    levels = max(len(xs), len(ys)) - 1
    xs += xs[-1:] * (levels + 2 - len(xs))  # the core maps into itself
    ys += ys[-1:] * (levels + 2 - len(ys))
    assert levels >= 1 and len(xs[-1]) < LATTICE_R
    # core round j starts from phi_N with N = 2^j, phi_1 = T 0 = b counted as one
    # application; then one gather per level, then T
    assert surface.iterations == 2 ** (core_rounds - 1) + 1 + levels + 1
    # core rounds 0 and 1 equal plain iteration on the core from b
    phi1 = apply(np.zeros_like(b))
    assert np.array_equal(phi1, b)
    phi2 = apply(phi1)
    phi3 = apply(phi2)
    core = np.ix_(xs[-1], ys[-1])
    assert diffs[0] == float(np.max(np.abs(phi2[core] - phi1[core])))
    assert diffs[1] == float(np.max(np.abs(phi3[core] - phi2[core])))
    for j in range(core_rounds - 1):
        assert diffs[j + 1] <= c ** (2 ** j) * diffs[j]
    # the core's result, lifted level by level with s * phi[P] + b, then T once more
    lx = [np.searchsorted(xs[k + 1], plan.px[xs[k]]) for k in range(levels + 1)]
    ly = [np.searchsorted(ys[k + 1], plan.py[ys[k]]) for k in range(levels + 1)]
    phi, *_ = ifs._double(s[core], b[core], lx[-1], ly[-1], phi1[core], c / (1 - c), TOL,
                          10000, (plan.x_samples[xs[-1]], plan.y_samples[ys[-1]]))
    for k in reversed(range(levels)):
        nodes = np.ix_(xs[k], ys[k])
        phi = s[nodes] * phi[np.ix_(lx[k], ly[k])] + b[nodes]
    assert np.array_equal(surface.heights, apply(phi))
    assert diffs[-1] == float(np.max(np.abs(surface.heights - phi)))
    assert surface.error_bound == c / (1 - c) * diffs[-1]
    assert surface.error_bound <= TOL


def test_doubling_stops_before_passing_max_iter(example2a_job):
    system = example2a_job.system
    needed = solve_fixed_point(system, LATTICE_R, tol=TOL, estimate_bias=False).iterations
    exact = solve_fixed_point(system, LATTICE_R, tol=TOL, max_iter=needed,
                              estimate_bias=False)
    assert exact.iterations == needed
    for max_iter in (1, needed - 1):
        with pytest.raises(ConvergenceError) as err:
            solve_fixed_point(system, LATTICE_R, tol=TOL, max_iter=max_iter,
                              estimate_bias=False)
        assert err.value.last_bound > TOL
    # too few for the levels: it raises before solving, with no residual measured
    with pytest.raises(ConvergenceError) as err:
        solve_fixed_point(system, LATTICE_R, tol=TOL, max_iter=1, estimate_bias=False)
    assert err.value.last_bound == float("inf")


@pytest.mark.parametrize("name", fixture_names())
def test_descent_agrees_with_full_grid_doubling(name):
    job = build_system(parse_config_document(fixture_config(name)))
    cfg = job.config.solver
    surface = solve_fixed_point(job.system, cfg.resolution, tol=cfg.tol,
                                max_iter=cfg.max_iter, estimate_bias=False)
    c = surface.contraction
    plan = OperatorGrid(job.system, cfg.resolution)
    s, b = full_fields(plan)
    doubled, _, _, bound = ifs._double(s, b, plan.px, plan.py, b.copy(),  # phi_1 = T 0
                                       c / (1 - c), cfg.tol, cfg.max_iter,
                                       (plan.x_samples, plan.y_samples))
    assert surface.error_bound <= cfg.tol and bound <= cfg.tol
    gap = float(np.max(np.abs(surface.heights - doubled)))
    assert gap <= surface.error_bound + bound
    residual = float(np.max(np.abs(full_apply(plan, surface.heights) - surface.heights)))
    assert residual <= (1 + c) * surface.error_bound


def uniform_pullback(cells: int, resolution: int) -> np.ndarray:
    """Pulled-back node indices on an axis of equal cells; a shared knot goes to the later cell."""
    block = (resolution - 1) // cells
    nodes = np.arange(resolution)
    return (nodes - np.minimum(nodes // block, cells - 1) * block) * cells


def test_uniform_pullback_matches_a_real_plan(example2a_job):
    plan = OperatorGrid(example2a_job.system, LATTICE_R)
    assert np.array_equal(plan.px, uniform_pullback(4, LATTICE_R))
    assert np.array_equal(plan.py, uniform_pullback(3, LATTICE_R))


class GatherPlan(ifs.OperatorGrid):
    """A lattice plan whose fields come from bare full-size arrays: ``T phi = s * phi[P] + b``.

    ``cells`` holds the number of equal cells per axis.  Only the evaluation
    of ``s`` and ``b`` on a row block is its own; the pull-back, level 2,
    ``image(P)`` of level 1, and its fill, ``apply`` (the last one over
    ``b``) and the row blocks of levels 1 and 0 are the plan's.
    """

    def __init__(self, s, b, cells):
        self.s, self.b = s, b
        # node coordinates, which name the node of a residual that is not finite
        nodes = np.arange(len(s), dtype=float)
        axes = tuple((nodes, [(len(s) - 1) // k] * k) for k in cells)
        with mock.patch.object(ifs, "sample_axes", lambda grid, resolution: axes):
            super().__init__(SimpleNamespace(grid=SimpleNamespace(cells=list)), len(s))

    def _block(self, rows, cols, out=None):
        nodes = np.ix_(rows, cols)
        fields = np.stack((self.s[nodes], self.b[nodes]))
        if out is None:
            return tuple(fields)
        out[...] = fields
        return tuple(out)

    def full_apply(self, phi):
        return self.s * phi[np.ix_(self.px, self.py)] + self.b

    def descend(self, factor, tol, max_iter):
        heights = np.empty_like(self.s)
        return (heights, *ifs._descend(self, factor, tol, max_iter, stack_into(heights)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 12),
       st.floats(0.05, 0.95), st.integers(0, 2 ** 32 - 1), st.integers(1, 7))
def test_descent_agrees_with_doubling_on_uniform_pullbacks(n, m, k, c, seed, block):
    # one cell on an axis is the identity pull-back; R - 1 off a power of the cell
    # count leaves a core that P permutes in cycles; level 2 is filled and levels
    # 1 and 0 go by in blocks of any number of rows, the same on every level
    resolution = n * m * k + 1
    rng = np.random.default_rng(seed)
    shape = (resolution, resolution)
    factor, tol = c / (1 - c), 1e-9
    with mock.patch.object(ifs, "_ROW_CELLS", block * resolution):
        plan = GatherPlan(rng.uniform(-c, c, shape), rng.normal(size=shape), (n, m))
        heights, iterations, diffs, bound = plan.descend(factor, tol, 10000)
    assert plan.lattice and np.array_equal(plan.px, uniform_pullback(n, resolution))
    assert np.array_equal(plan.py, uniform_pullback(m, resolution))
    nodes = np.arange(resolution, dtype=float)  # coordinates, for a residual's witness
    doubled, _, _, doubled_bound = ifs._double(plan.s, plan.b, plan.px, plan.py,
                                               plan.b.copy(), factor, tol, 10000,  # phi_1
                                               (nodes, nodes))
    assert bound <= tol and bound == factor * diffs[-1] and iterations <= 10000
    # the bounds hold in exact arithmetic; each floating-point application adds
    # rounding of an ulp or two, which the contraction sums to at most
    # 1 / (1 - c) times that (seen: one ulp when the bounds are 3e-17)
    rounding = 4 * np.finfo(float).eps * float(np.max(np.abs(heights))) / (1 - c)
    assert float(np.max(np.abs(heights - doubled))) <= bound + doubled_bound + rounding
    residual = float(np.max(np.abs(plan.full_apply(heights) - heights)))
    assert residual <= (1 + c) * bound + rounding


def test_descent_raises_when_rounding_keeps_the_lifted_bound_above_tol():
    # on the core the bound meets tol = 1e-16; the lifted surface's residual
    # on every node is one rounding step, which the bound must not hide
    rng = np.random.default_rng(459)  # one of 14 such seeds below 3000
    shape = (5, 5)
    plan = GatherPlan(rng.uniform(-0.5, 0.5, shape), rng.normal(size=shape), (2, 2))
    with pytest.raises(ConvergenceError, match="rounding") as err:
        plan.descend(1.0, 1e-16, 10000)
    assert err.value.last_bound > 1e-16


def test_b_not_finite_on_level_one_outside_level_two_names_its_node():
    # the plan fills s and b on level 2 only; level 1 streams, and each of its
    # blocks checks b = T 0 as the fill does, so a node of level 1 that level 2
    # lacks is still named.  On a 2 x 2 grid at R = 17 level 1 is the even
    # nodes and level 2 the multiples of 4 on each axis.
    rng = np.random.default_rng(2)
    shape = (17, 17)
    s, b = rng.uniform(-0.5, 0.5, shape), rng.normal(size=shape)
    b[6, 12] = np.nan
    with mock.patch.object(ifs, "_ROW_CELLS", 3 * 17):  # level 1 in blocks of 3 rows
        plan = GatherPlan(s, b, (2, 2))
        assert np.array_equal(plan.x_level[plan.level_2[0]], np.arange(0, 17, 4))
        assert 6 in plan.x_level and 6 not in plan.x_level[plan.level_2[0]]
        with pytest.raises(ConvergenceError, match=r"not finite at the node \(6\.0, 12\.0\)"):
            plan.descend(1.0, 1e-9, 10000)


def recorded_rows(system, resolution):
    """The surface, solved once with and once without a fold that records every block."""
    calls = []
    solve_fixed_point(system, resolution, estimate_bias=False,
                      fold=lambda r0, rows: calls.append((r0, rows.copy())))
    return solve_fixed_point(system, resolution, estimate_bias=False), calls


@pytest.mark.parametrize("name", ["band2x2", "example2a", "quarter-cells"])
def test_a_fold_receives_every_row_exactly_once(name, monkeypatch):
    # level 0's rows go to the fold cell by cell within each block of level 1,
    # so the blocks of different cells interleave; every row still comes once,
    # as the heights have it.  "quarter-cells": cells of 1/4, 1/4 and 1/2 of
    # the x axis and 1/2, 1/4 and 1/4 of the y axis
    monkeypatch.setattr(ifs, "_ROW_CELLS", 5 * LATTICE_R)
    if name == "quarter-cells":
        system = knot_job([0.0, 0.25, 0.5, 1.0], [0.0, 0.5, 0.75, 1.0],
                          [[0.0, 0.4, 0.1, 0.8], [0.6, 1.0, 0.2, 0.3], [0.3, 0.9, 0.5, 0.0],
                           [0.1, 0.2, 0.7, 0.4]]).system
    else:
        system = build_system(parse_config_document(fixture_config(name))).system
    assert OperatorGrid(system, LATTICE_R).lattice
    surface, calls = recorded_rows(system, LATTICE_R)
    starts = [r0 for r0, _ in calls]
    assert starts != sorted(starts)  # the cells interleave
    seen = np.zeros(LATTICE_R, dtype=int)
    for r0, rows in calls:
        assert rows.shape[1] == LATTICE_R and len(rows) <= 5
        seen[r0:r0 + len(rows)] += 1
        assert np.array_equal(rows, surface.heights[r0:r0 + len(rows)])
    assert np.all(seen == 1)


MEMORY_R = 1025  # band2x2: level 1 holds 513 x 513 nodes, a quarter of R^2


def band_surface_solve(band_job):
    return solve_fixed_point(band_job.system, MEMORY_R, estimate_bias=False)


def test_lattice_solve_peak_memory_stays_below_six_grids(band_job):
    # arrays live at the call do not count; the heights, s and b on level 2
    # and the row blocks of levels 1 and 0
    _, peak = traced_peak(lambda: band_surface_solve(band_job), MEMORY_R ** 2)
    assert peak < 6
    # the heights are one R^2 array and three level-2 arrays 0.19 of one; at
    # R = 1025 the last pass's row blocks of every node set the peak (1.58
    # arrays measured; 1.95 with s and b on level 1, 2.07 when each block
    # also evaluated h, 2.76 with s, b, h and two iterates on level 1)
    assert peak < 1.8


def test_lattice_solve_holds_no_blend_patchwork(band_job):
    # the plan evaluates h in row blocks only and keeps none of it, so no
    # full-size patchwork is ever kept (5.07 arrays with a full-size h kept)
    _, peak = traced_peak(lambda: band_surface_solve(band_job), MEMORY_R ** 2)
    assert peak < 4.5


def band_dimension_solve_and_count(band_job):
    deltas = natural_scales(band_job.grid, 6)
    fold = ColumnExtrema(MEMORY_R, (band_job.grid.x_span, band_job.grid.y_span), deltas)
    surface = solve_fixed_point(band_job.system, MEMORY_R, estimate_bias=False, fold=fold)
    return surface, box_counts(surface, deltas), fold


def test_dimension_solve_and_count_peak_at_about_two_grids(band_job):
    # with a fold nothing is full size: level 2 holds s and b, R^2 / 16 each
    # on a 2x2 grid, and levels 1 and 0 go by in row blocks, level 0's into
    # the column extrema
    (surface, counts, fold), peak = traced_peak(
        lambda: band_dimension_solve_and_count(band_job), MEMORY_R ** 2)
    assert surface.heights is None and surface.fold is fold
    assert peak < 2
    # s, b and phi_2 on level 2 are 0.19 R^2 arrays; at R = 1025 the last
    # pass's row blocks set the peak (0.58 measured; 0.96 with s and b on
    # level 1, 1.08 when each block also evaluated h, 1.77 with five level-1
    # arrays)
    assert peak < 0.8
    materialised = band_surface_solve(band_job)
    deltas = natural_scales(band_job.grid, 6)
    assert counts == box_counts(materialised, deltas)
    assert (surface.iterations, surface.sup_diffs, surface.error_bound) == \
        (materialised.iterations, materialised.sup_diffs, materialised.error_bound)


def test_last_sweep_starts_with_two_level_arrays_and_row_blocks(band_job):
    # by the first block of level 0, phi_1 on level 2 is written over b, and
    # the first block of level 1 holds T_1 phi_1 over its b and phi_1 over
    # its s: phi_2, s and phi_1 on level 2 (three quarters of a level-1 array
    # at R = 1025), two level-1 blocks of 63 rows and one level-0 block of s,
    # b and the heights are alive (1.81 level-1 arrays measured; 2.80 with s
    # and b on level 1, 3.05 when the block also held h, 6.05 with s, b, h
    # and two iterates)
    alive = []

    def first_block(r0, rows):
        if not alive:
            alive.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        solve_fixed_point(band_job.system, MEMORY_R, estimate_bias=False, fold=first_block)
    finally:
        tracemalloc.stop()
    level = level_nodes(OperatorGrid(band_job.system, MEMORY_R))
    assert alive[0] / (level * np.dtype(float).itemsize) < 1.9


def test_lattice_solve_evaluates_the_blend_once_per_node_per_pass(band_job, monkeypatch):
    # the plan evaluates h on level 2 as it fills s and b (b = h - s * g), the
    # stream of level 1 on level 1 (level 2 a second time) and the last pass on
    # every node; knot lines shared by two cells are evaluated by both (1.0026
    # of the bound's nodes measured; 1.404 of R^2 + L1 when the last pass
    # evaluated the level-1 rows of h a second time).  The bound counted
    # R^2 + L1 while the plan held level 1; now it counts level 2 too.
    evaluated = []
    call = PatchBlend.__call__

    def counted(blend, x, y):
        out = call(blend, x, y)
        evaluated.append(np.size(out))
        return out

    monkeypatch.setattr(PatchBlend, "__call__", counted)
    plan = OperatorGrid(band_job.system, MEMORY_R)
    evaluated.clear()
    solve_fixed_point(band_job.system, MEMORY_R, estimate_bias=False, fold=lambda r0, rows: None)
    assert sum(evaluated) <= 1.01 * (MEMORY_R ** 2 + level_nodes(plan) + level_2_nodes(plan))


@pytest.mark.parametrize("name, resolution, slack", [("band2x2", MEMORY_R, 1.01),
                                                     ("flat2x2", 257, 1.02)],
                         ids=["band2x2", "flat2x2"])
def test_lattice_solve_evaluates_the_free_field_once_per_node_per_pass(name, resolution, slack,
                                                                      monkeypatch):
    # g is evaluated at the pre-image of each level-2 node once while the plan
    # fills s and b, then of each level-1 node once as level 1 streams (level
    # 2 a second time) and of each node once in the last pass; knot lines
    # shared by two cells are evaluated by both, 2 / n of an n x n level on a
    # 2 x 2 grid (1.008 of level 2 for the plan and 1.0026 of the solve's
    # nodes measured on band2x2; 1.031 and 1.0104 on flat2x2 at R = 257,
    # whose c_s = 0 takes the same path: 2.02 when an early exit measured
    # every node's residual in one pass and emitted the heights in a second).
    # The bounds counted level 1 for the plan and R^2 + L1 for the solve, by
    # 1.05, while the plan held level 1; now they count level 2 too.
    system = build_system(parse_config_document(fixture_config(name))).system
    evaluated = []
    call = FreeField.__call__

    def counted(free, x, y):
        evaluated.append(np.broadcast(x, y).size)
        return call(free, x, y)

    monkeypatch.setattr(FreeField, "__call__", counted)
    plan = OperatorGrid(system, resolution)
    assert sum(evaluated) <= 1.05 * level_2_nodes(plan)
    evaluated.clear()
    solve_fixed_point(system, resolution, estimate_bias=False, fold=lambda r0, rows: None)
    assert sum(evaluated) <= slack * (resolution ** 2 + level_nodes(plan) + level_2_nodes(plan))


DIMENSION_R = 4097  # band2x2's dimension resolution: level 1 holds 2049 x 2049 nodes


def test_folded_solve_holds_s_b_and_level_two_at_the_dimension_resolution(band_job):
    # s and b on level 2 throughout, a quarter of a level-1 array each;
    # besides them phi_2 on level 2, and phi_1 there over b, while level 1
    # streams in row blocks of 0.7 % of a level-1 array and level 0 in blocks
    # of 1.5 % (0.86 level-1 arrays measured; 2.535 with s and b on level 1,
    # 2.59 when the fill kept the blend patchwork h on the rows P reaches for
    # a round 0, 3.29 when it kept h on all of level 1 and the last lift made
    # phi_1 whole beside s and b)
    level = len(ifs._image(uniform_pullback(2, DIMENSION_R))) ** 2
    surface, peak = traced_peak(
        lambda: solve_fixed_point(band_job.system, DIMENSION_R, estimate_bias=False,
                                  fold=lambda r0, rows: None), level)
    assert surface.error_bound <= 1e-6
    assert peak < 0.95


@pytest.mark.parametrize("name", ["flat2x2", "bilinear2x2"])
def test_round_zero_that_meets_the_bound_on_every_node_ends_the_solve(name):
    # c_s = 0 takes the one path: the doubling's round 0, from phi_1 = T 0 = b
    # on the core, meets the bound, and each lift and the last application
    # give b again, so every residual is zero and the heights are b bit for bit
    job = build_system(parse_config_document(fixture_config(name)))
    cfg = job.config.solver
    surface = solve_fixed_point(job.system, cfg.resolution, tol=cfg.tol, estimate_bias=False)
    plan = OperatorGrid(job.system, cfg.resolution)
    below = max(len(chain) for chain in plan.chains) - 1  # levels under level 1
    # two applications on the core, one gather per level, the last application
    assert surface.iterations == below + 4 == 11
    assert surface.error_bound == 0.0 and set(surface.sup_diffs) == {0.0}
    assert np.array_equal(surface.heights, full_fields(plan)[1])


def test_bias_estimate_does_not_raise_the_solver_peak(example2a_job):
    # the half-resolution solve runs after the main plan is dropped, and the
    # disagreement is measured in row blocks; the heights and the main solve's
    # last pass set the peak (1.71 arrays measured; 1.95 with s and b on
    # level 1, when the half-resolution solve beside the heights set it; 2.17
    # when each row block also evaluated h)
    resolution = 769
    surface, peak = traced_peak(lambda: solve_fixed_point(example2a_job.system, resolution),
                                resolution ** 2)
    assert surface.bias_estimate is not None
    assert peak < 6
    assert peak < 1.85


def shifted_example2a_job(shift: float):
    """example2a's grid moved by ``shift``: its heights and quartic fields, linear curves."""
    doc = {
        "name": "example2a-shifted",
        "grid": {"source": "inline", "x_knots": [x + shift for x in X_KNOTS],
                 "y_knots": [y + shift for y in Y_KNOTS], "z_rows": Z_ROWS},
        "scaling": {"fields": [{"cell": [i, j], "form": "separable-quartic", "psi": psi}
                               for (i, j), psi in sorted(PSI_A.items())]},
        "boundary": {"method": "linear"},
        "blend": {"mode": "coons"},
        "free_field": {"expr": "0", "lipschitz": 0.0, "sup_abs": 0.0},
        "solver": {"resolution": LATTICE_R, "tol": TOL, "max_iter": 10000},
        "chaos": {"points": 1000, "seed": 1, "burn_in": 100},
        "dimension": {"depth": 3, "epsilon": None, "resolution": None},
        "output": {"directory": None, "stem": "example2a-shifted"},
    }
    return build_system(parse_config_document(doc))


def test_knots_away_from_the_origin_keep_the_lattice_path():
    # the pull-back is computed in integers from the sample intervals per cell,
    # so knots near 1000 decide the path as knots near 0 do; the fields see
    # the shifted coordinates, so the heights agree within the two bounds
    near, far = shifted_example2a_job(0.0), shifted_example2a_job(1000.0)
    for resolution in (LATTICE_R, 769):
        assert OperatorGrid(far.system, resolution).lattice, resolution
        a = solve_fixed_point(near.system, resolution, tol=TOL, estimate_bias=False)
        b = solve_fixed_point(far.system, resolution, tol=TOL, estimate_bias=False)
        gap = float(np.max(np.abs(a.heights - b.heights)))
        assert gap <= a.error_bound + b.error_bound, resolution


def knot_job(x_knots, y_knots, z_rows, psi_sup: float = 0.6, shift: float = 0.0,
             resolution: int = 65):
    """Separable-quartic fields of sup|s| = ``psi_sup``, linear curves, knots plus shift."""
    fields = []
    for i in range(1, len(x_knots)):
        for j in range(1, len(y_knots)):
            dx = x_knots[i] - x_knots[i - 1]
            dy = y_knots[j] - y_knots[j - 1]
            sign = 1.0 if (i + j) % 2 else -1.0
            # separable quartic: sup|s| = |psi| * (dx/2)^2 * (dy/2)^2
            fields.append({"cell": [i, j], "form": "separable-quartic",
                           "psi": sign * psi_sup / ((dx / 2) ** 2 * (dy / 2) ** 2)})
    doc = {
        "name": "nonuniform-small",
        "grid": {"source": "inline", "x_knots": [x + shift for x in x_knots],
                 "y_knots": [y + shift for y in y_knots], "z_rows": z_rows},
        "scaling": {"fields": fields},
        "boundary": {"method": "linear"},
        "blend": {"mode": "coons"},
        "free_field": {"expr": "0", "lipschitz": 0.0, "sup_abs": 0.0},
        "solver": {"resolution": resolution, "tol": 1e-8, "max_iter": 10000},
        "chaos": {"points": 1000, "seed": 1, "burn_in": 100},
        "dimension": {"depth": 3, "epsilon": None, "resolution": None},
        "output": {"directory": None, "stem": "nonuniform-small"},
    }
    return build_system(parse_config_document(doc))


def nonuniform_job(psi_sup: float = 0.6, shift: float = 0.0):
    """Knot-aligned but non-uniform: x knots [0, .25, 1], y knots [0, .375, .75, 1], plus shift."""
    return knot_job([0.0, 0.25, 1.0], [0.0, 0.375, 0.75, 1.0],
                    [[0.0, 0.4, 0.1], [0.6, 1.0, 0.2], [0.3, 0.9, 0.5], [0.1, 0.2, 0.7]],
                    psi_sup, shift)


def test_nonuniform_grid_takes_the_bilinear_path():
    job = nonuniform_job()
    cfg = job.config.solver
    assert not OperatorGrid(job.system, cfg.resolution).lattice
    surface = solve_fixed_point(job.system, cfg.resolution, tol=cfg.tol)
    c = surface.contraction
    assert c == pytest.approx(0.6)
    assert surface.iterations == len(surface.sup_diffs)
    assert surface.error_bound <= cfg.tol
    assert surface.knot_error(job.grid) <= surface.error_bound
    assert surface.error_bound == c / (1 - c) * surface.sup_diffs[-1]
    assert surface.bias_estimate is not None


@pytest.mark.parametrize("name", fixture_names())
def test_fixtures_take_the_lattice_path_at_both_resolutions(name):
    # every cell spans span / k: on the lattice at every aligned resolution
    job = build_system(parse_config_document(fixture_config(name)))
    for resolution in (job.config.solver.resolution, _dimension_resolution(job)):
        assert OperatorGrid(job.system, resolution).lattice, resolution


def test_bilinear_solve_holds_four_grids():
    # s, b, the iterate and its image, plus the streamed gather's blocks: the
    # first iterate is a copy of b, the plan keeps no g or h, and no pass
    # along y is full size (4.44 arrays measured at R = 513, where a block
    # buffer holds 63 rows; 5.27 with the full-size pass along y, 6.27 with
    # g kept and h copied)
    job, resolution = nonuniform_job(), 513
    _, peak = traced_peak(lambda: solve_fixed_point(job.system, resolution, tol=1e-8,
                                                    estimate_bias=False), resolution ** 2)
    assert peak < 4.5


def test_bilinear_plan_holds_s_and_b_after_set_up():
    # the plan keeps s and b on every node, no blend patchwork h beside them
    # (2.02 arrays measured at R = 513; 3.02 with h kept for the first iterate)
    resolution = 513
    system = build_system(parse_config_document(nonuniform_document(7))).system
    tracemalloc.start()
    try:
        plan = OperatorGrid(system, resolution)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not plan.lattice
    assert held / (resolution ** 2 * np.dtype(float).itemsize) < 2.1


def test_bilinear_iteration_starts_from_b():
    # phi_1 = T 0 = b, as on lattice plans: the first residual is |T b - b|.
    # With g != 0, b = h - s * g is not the blend patchwork h, the old start
    # (sup_diffs[0] was 1.2783 from h, 1.3809 from b)
    doc = nonuniform_document(7)
    doc["free_field"] = {"expr": "0.1*sin(7*x*y)", "lipschitz": 0.7, "sup_abs": 0.1}
    system = build_system(parse_config_document(doc)).system
    surface = solve_fixed_point(system, 513, tol=1e-8, estimate_bias=False)
    plan = OperatorGrid(system, 513)
    b = plan.b_values
    first = plan.s_values * four_corner_gather(b, plan.ix, plan.wx, plan.iy, plan.wy) + b
    assert surface.sup_diffs[0] == float(np.max(np.abs(first - b)))


def test_nonuniform_grid_stays_bilinear_at_both_resolutions():
    job = nonuniform_job()
    for resolution in (job.config.solver.resolution, _dimension_resolution(job)):
        assert not OperatorGrid(job.system, resolution).lattice, resolution


def test_nonuniform_grid_away_from_the_origin_stays_bilinear():
    job = nonuniform_job(shift=1000.0)
    for resolution in (job.config.solver.resolution, _dimension_resolution(job)):
        assert not OperatorGrid(job.system, resolution).lattice, resolution


def test_cells_spanning_integer_fractions_take_the_descent(monkeypatch):
    # x cells span 1/4, 1/4 and 1/2 of the axis, y cells 1/2, 1/4 and 1/4: a
    # non-uniform grid on which every node still pulls back onto a node
    job = knot_job([0.0, 0.25, 0.5, 1.0], [0.0, 0.5, 0.75, 1.0],
                   [[0.0, 0.4, 0.1, 0.8], [0.6, 1.0, 0.2, 0.3], [0.3, 0.9, 0.5, 0.0],
                    [0.1, 0.2, 0.7, 0.4]])
    cfg = job.config.solver
    for resolution in (cfg.resolution, _dimension_resolution(job)):
        assert OperatorGrid(job.system, resolution).lattice, resolution
        descended = solve_fixed_point(job.system, resolution, tol=cfg.tol, estimate_bias=False)
        with monkeypatch.context() as patch:
            force_bilinear(patch)
            iterated = solve_fixed_point(job.system, resolution, tol=cfg.tol,
                                         estimate_bias=False)
        assert iterated.iterations == len(iterated.sup_diffs)
        assert descended.iterations > len(descended.sup_diffs)  # equivalent applications
        gap = float(np.max(np.abs(descended.heights - iterated.heights)))
        assert gap <= descended.error_bound + iterated.error_bound, resolution


def test_level_one_that_is_the_core_takes_the_plain_last_application(monkeypatch):
    # three equal cells per axis at R = 97: each spans 32 sample intervals, prime
    # to 3, so P permutes level 1 on both axes; the doubling runs on all of
    # level 1, no level lies below it, and the last application is the plain one
    third = [0.0, 1 / 3, 2 / 3, 1.0]
    job = knot_job(third, third, [[0.0, 0.4, 0.1, 0.8], [0.6, 1.0, 0.2, 0.3],
                                  [0.3, 0.9, 0.5, 0.0], [0.1, 0.2, 0.7, 0.4]], resolution=97)
    plan = OperatorGrid(job.system, 97)
    assert [len(chain) for chain in plan.chains] == [1, 1]
    descended = solve_fixed_point(job.system, 97, tol=1e-8, estimate_bias=False)
    force_bilinear(monkeypatch)
    iterated = solve_fixed_point(job.system, 97, tol=1e-8, estimate_bias=False)
    # N + 1 on the core, one gather to every node and the last application;
    # every residual but the last is a core round's
    assert descended.iterations == 2 ** (len(descended.sup_diffs) - 2) + 3
    gap = float(np.max(np.abs(descended.heights - iterated.heights)))
    assert gap <= descended.error_bound + iterated.error_bound


def streamed(values, ix, wx, iy, wy, against, **fields):
    """``ifs._bilinear`` into a new array: ``(t, max |t - against|)``."""
    out = np.empty((len(ix), len(iy)))
    residual = ifs._bilinear(values, ix, wx, iy, wy, np.argsort(ix, kind="stable"), against,
                             out=out, **fields)
    return out, residual


@pytest.mark.parametrize("block_cells", [ifs._GATHER_CELLS, 1000],
                         ids=["one-block", "ragged-blocks"])
def test_two_pass_gather_equals_the_four_corner_formula(block_cells, monkeypatch):
    monkeypatch.setattr(ifs, "_GATHER_CELLS", block_cells)  # 1000: 15 source rows per block
    job = nonuniform_job()
    plan = OperatorGrid(job.system, job.config.solver.resolution)
    rng = np.random.default_rng(11)
    phi = rng.normal(size=(plan.resolution, plan.resolution))
    square = (plan.ix, plan.wx, plan.iy, plan.wy)
    gathered, _ = streamed(phi, *square, phi)
    assert np.array_equal(gathered, four_corner_gather(phi, *square))
    expected = plan.s_values * four_corner_gather(phi, *square) + plan.b_values
    assert np.array_equal(plan.apply(phi), expected)
    assert plan.residual == float(np.max(np.abs(expected - phi)))
    assert np.array_equal(full_apply(plan, phi), expected)
    # coarse -> fine, as in the bias estimate: 33 x 17 values onto 65 x 65 nodes,
    # with the residual taken against the fine values
    coarse_x, coarse_y = plan.x_samples[::2], plan.y_samples[::4]
    coarse = rng.normal(size=(len(coarse_x), len(coarse_y)))
    up = (*ifs._axis_weights(coarse_x, plan.x_samples),
          *ifs._axis_weights(coarse_y, plan.y_samples))
    upsampled, residual = streamed(coarse, *up, phi)
    assert np.array_equal(upsampled, four_corner_gather(coarse, *up))
    assert residual == float(np.max(np.abs(four_corner_gather(coarse, *up) - phi)))
    order = np.argsort(up[0], kind="stable")
    assert ifs._bilinear(coarse, *up, order, phi) == residual  # no output kept


def test_pre_image_on_the_last_row_of_a_source_block_reads_the_overlap_row(monkeypatch):
    # blocks of 4 source rows at width 5: ix = 3 and 7 end a block, and their
    # x pass reads rows 4 and 8, which open the next block
    monkeypatch.setattr(ifs, "_GATHER_CELLS", 4 * 5)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(13, 5))
    ix, wx = np.array([3, 7, 11, 3, 0, 7]), np.array([0.25, 0.5, 0.75, 1.0, 0.5, 0.125])
    iy, wy = np.array([0, 3, 1, 2, 3]), np.array([0.5, 0.25, 1.0, 0.0, 0.75])
    assert np.any((ix % 4 == 3) & (wx > 0))
    out, residual = streamed(values, ix, wx, iy, wy, np.zeros((6, 5)))
    expected = four_corner_gather(values, ix, wx, iy, wy)
    assert np.array_equal(out, expected)
    assert residual == float(np.max(np.abs(expected)))


@pytest.mark.parametrize("rows", [1, 3, 40])
def test_interleaved_pre_images_of_five_unequal_cells(rows, monkeypatch):
    # the cells of 3, 7, 2, 11 and 5 sample intervals pull back onto the whole
    # axis each, so consecutive output rows jump back and forth between source
    # blocks; 1, 3 and 40 source rows per block (40: one block)
    blocks = [3, 7, 2, 11, 5]
    resolution = sum(blocks) + 1
    monkeypatch.setattr(ifs, "_GATHER_CELLS", rows * resolution)
    ix, wx = pullback(blocks)
    iy, wy = pullback([4, 13, 11])
    assert np.any(np.diff(ix) < 0) and np.any((wx > 0) & (wx < 1))
    rng = np.random.default_rng(rows)
    phi, s, b = (rng.normal(size=(resolution, resolution)) for _ in range(3))
    out, residual = streamed(phi, ix, wx, iy, wy, phi, s=s, b=b)
    expected = s * four_corner_gather(phi, ix, wx, iy, wy) + b
    assert np.array_equal(out, expected)
    assert residual == float(np.max(np.abs(expected - phi)))


def test_bilinear_apply_leaves_its_input_alone():
    # two applications to the same phi agree, into new arrays or given buffers
    job = nonuniform_job()
    plan = OperatorGrid(job.system, job.config.solver.resolution)
    phi = np.random.default_rng(5).normal(size=(plan.resolution, plan.resolution))
    kept = phi.copy()
    first = plan.apply(phi)
    residual = plan.residual
    buffer = np.empty_like(phi)
    second = plan.apply(phi, out=buffer)
    assert second is buffer and first is not phi
    assert np.array_equal(first, second) and plan.residual == residual
    assert np.array_equal(phi, kept)


def test_bilinear_solve_matches_the_four_corner_iteration():
    job = nonuniform_job()
    cfg = job.config.solver
    surface = solve_fixed_point(job.system, cfg.resolution, tol=cfg.tol)
    c = surface.contraction

    def reference_solve(resolution):
        plan = OperatorGrid(job.system, resolution)
        phi, diffs = plan.b_values, []  # phi_1 = T 0
        while True:
            nxt = plan.s_values * four_corner_gather(phi, plan.ix, plan.wx, plan.iy,
                                                     plan.wy) + plan.b_values
            diffs.append(float(np.max(np.abs(nxt - phi))))
            phi = nxt
            if c / (1 - c) * diffs[-1] <= cfg.tol:
                return plan, phi, diffs

    plan, heights, diffs = reference_solve(cfg.resolution)
    assert surface.sup_diffs == tuple(diffs)
    assert np.array_equal(surface.heights, heights)
    half, coarse, _ = reference_solve((cfg.resolution - 1) // 2 + 1)
    up = four_corner_gather(coarse, *ifs._axis_weights(half.x_samples, plan.x_samples),
                            *ifs._axis_weights(half.y_samples, plan.y_samples))
    assert surface.bias_estimate == float(np.max(np.abs(up - heights)))


@pytest.mark.parametrize("case", ["lattice", "bilinear"])
def test_a_residual_that_is_not_a_number_fails_at_once_with_its_node(case, tmp_path,
                                                                     monkeypatch):
    # the free field is not a number at some pre-images, so some heights are
    # NaN.  The lattice solve printed "error bound 0.0" and exited 0, because
    # max(0.0, nan) is 0.0; the bilinear iteration ran to max_iter (202 s at
    # R = 1025).  Now the first residual that is not finite raises, with a node.
    # g is NaN only next to one line, which the metric check's pairs miss
    if case == "lattice":
        doc = fixture_config("example2a")
        expr, resolution = "sqrt(abs(x - 0.08333333333333333) - 1e-9)", 97
        node = "(0.020833333333333332, 0.0)"  # pulls back onto x = 1/12
    else:
        doc = config_document(nonuniform_job().config)
        expr, resolution = "sqrt(abs(x - 0.6015625) - 1e-12)", 1025
        node = "(0.150390625, 0.0)"  # the first node that pulls back onto x = 0.6015625
    doc["free_field"] = {"expr": expr, "lipschitz": 1.0, "sup_abs": 1.0}
    doc["solver"]["resolution"] = resolution
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    applied = []
    apply = OperatorGrid.apply

    def counted(plan, phi, **kwargs):
        applied.append(plan.resolution)
        return apply(plan, phi, **kwargs)

    monkeypatch.setattr(OperatorGrid, "apply", counted)
    result = run("surface", "--config", str(path), "--out", str(tmp_path / "out"))
    assert result.exit_code == 1
    assert f"residual |T phi - phi| is not finite at the node {node}" in result.stderr
    assert "error bound" not in result.output
    assert len(applied) <= 1
