"""The two solver paths: the knot-image descent on lattice plans, iteration otherwise.

On uniform, knot-aligned grids every pulled-back sample node lands on a node,
so the sampled operator is a pure gather; the solver doubles it on the core of
the pull-back and lifts the result to every node.  Grids with non-uniform
knots take fractional bilinear weights and keep the plain iteration.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractsurf import ifs
from fractsurf.config import parse_config_document
from fractsurf.dimension import ColumnExtrema, box_counts, natural_scales
from fractsurf.errors import ConvergenceError
from fractsurf.fixtures import PSI_A, X_KNOTS, Y_KNOTS, Z_ROWS, fixture_config, fixture_names
from fractsurf.grid import sample_axes
from fractsurf.ifs import OperatorGrid, solve_fixed_point
from fractsurf.pipeline import _dimension_resolution, build_system

from lattice import full_apply, full_fields, stack_into

LATTICE_R = 97
TOL = 1e-6


def no_lattice_plans(monkeypatch):
    """From here on, build every plan with bilinear weights, as on a non-uniform grid."""
    monkeypatch.setattr(ifs, "LATTICE_TOL", -1.0)


def test_lattice_apply_matches_bilinear_apply(example2a_job, monkeypatch):
    system = example2a_job.system
    lattice = OperatorGrid(system, LATTICE_R)
    no_lattice_plans(monkeypatch)
    bilinear = OperatorGrid(system, LATTICE_R)
    assert lattice.lattice and not bilinear.lattice
    phi = np.random.default_rng(7).normal(size=(LATTICE_R, LATTICE_R))
    full = full_apply(lattice, phi)
    gap = float(np.max(np.abs(full - bilinear.apply(phi))))
    assert gap <= 1e-10
    # on level 1, image(P), the plan's own apply is the same gather
    level = np.ix_(lattice.x_level, lattice.y_level)
    assert np.array_equal(lattice.apply(phi[level]), full[level])


def whole_grid_fields(system, resolution):
    """Reference: s, h and g on every node, cell by cell in ``grid.cells()`` order."""
    (xs, x_blocks), (ys, y_blocks) = sample_axes(system.grid, resolution)
    x_starts, y_starts = np.cumsum([0] + x_blocks), np.cumsum([0] + y_blocks)
    s, h, g = (np.empty((resolution, resolution)) for _ in range(3))
    for cell in system.cells():
        sl_x = slice(x_starts[cell.i - 1], x_starts[cell.i] + 1)
        sl_y = slice(y_starts[cell.j - 1], y_starts[cell.j] + 1)
        bx, by = xs[sl_x], ys[sl_y]
        qx, qy = system.maps[cell].invert((bx, by), tol=1e-9)
        s[sl_x, sl_y] = system.scalings[cell](bx[:, None], by[None, :])
        h[sl_x, sl_y] = system.blend(cell)(bx[:, None], by[None, :])
        g[sl_x, sl_y] = system.free(cell)(qx[:, None], qy[None, :])
    return s, h, g


@pytest.mark.parametrize("name", ["example2a", "band2x2"])
def test_row_blocks_evaluate_the_fields_of_the_whole_grid(name, monkeypatch):
    # a shared knot line takes the later cell's values, whichever rows a block
    # holds (ragged blocks of 7 rows here) and on level 1 as on every node
    monkeypatch.setattr(ifs, "_ROW_CELLS", 7 * LATTICE_R)
    system = build_system(parse_config_document(fixture_config(name))).system
    plan = OperatorGrid(system, LATTICE_R)
    s, h, g = whole_grid_fields(system, LATTICE_R)
    b = h - g * s
    assert all(np.array_equal(x, y) for x, y in zip(full_fields(plan), (s, b, h)))
    level = np.ix_(plan.x_level, plan.y_level)
    assert np.array_equal(plan.s_values, s[level]) and np.array_equal(plan.b_values, b[level])
    assert np.array_equal(plan.h_values, h[level])


def test_doubling_agrees_with_iteration(example2a_job, monkeypatch):
    system = example2a_job.system
    doubled = solve_fixed_point(system, LATTICE_R, tol=TOL, estimate_bias=False)
    no_lattice_plans(monkeypatch)
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
    core_rounds = len(diffs) - 2
    assert core_rounds >= 3
    plan = OperatorGrid(system, LATTICE_R)
    s, b, h = full_fields(plan)
    xs, ys = image_chain(plan.px), image_chain(plan.py)
    # the plan keeps s, b and h on level 1 of the chain, image(P)
    level = np.ix_(xs[1], ys[1])
    assert np.array_equal(plan.x_level, xs[1]) and np.array_equal(plan.y_level, ys[1])
    assert np.array_equal(plan.s_values, s[level])
    assert np.array_equal(plan.b_values, b[level])
    assert np.array_equal(plan.h_values, h[level])

    def apply(phi):
        return s * phi[np.ix_(plan.px, plan.py)] + b

    levels = max(len(xs), len(ys)) - 1
    xs += xs[-1:] * (levels + 2 - len(xs))  # the core maps into itself
    ys += ys[-1:] * (levels + 2 - len(ys))
    assert levels >= 1 and len(xs[-1]) < LATTICE_R
    # core round j starts from phi_N with N = 2^j; then one gather per level, then T
    assert surface.iterations == 2 ** (core_rounds - 1) + 1 + levels + 1
    # round 0 is T h on every node; core rounds 0 and 1 equal plain iteration on the core
    phi0 = h
    phi1 = apply(phi0)
    phi2 = apply(phi1)
    phi3 = apply(phi2)
    core = np.ix_(xs[-1], ys[-1])
    assert diffs[0] == float(np.max(np.abs(phi1 - phi0)))
    assert diffs[1] == float(np.max(np.abs(phi2[core] - phi1[core])))
    assert diffs[2] == float(np.max(np.abs(phi3[core] - phi2[core])))
    assert diffs[1] <= c * diffs[0]
    for j in range(core_rounds - 1):
        assert diffs[j + 2] <= c ** (2 ** j) * diffs[j + 1]
    # the core's result, lifted level by level with s * phi[P] + b, then T once more
    lx = [np.searchsorted(xs[k + 1], plan.px[xs[k]]) for k in range(levels + 1)]
    ly = [np.searchsorted(ys[k + 1], plan.py[ys[k]]) for k in range(levels + 1)]
    phi, *_ = ifs._double(s[core], b[core], lx[-1], ly[-1],
                          phi1[core], c / (1 - c), TOL, 10000)
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


@pytest.mark.parametrize("name", fixture_names())
def test_descent_agrees_with_full_grid_doubling(name):
    job = build_system(parse_config_document(fixture_config(name)))
    cfg = job.config.solver
    surface = solve_fixed_point(job.system, cfg.resolution, tol=cfg.tol,
                                max_iter=cfg.max_iter, estimate_bias=False)
    c = surface.contraction
    plan = OperatorGrid(job.system, cfg.resolution)
    s, b, h = full_fields(plan)
    doubled, _, _, bound = ifs._double(s, b, plan.px, plan.py, full_apply(plan, h),
                                       c / (1 - c), cfg.tol, cfg.max_iter)
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


class GatherPlan:
    """A lattice plan from bare full-size arrays: ``T phi = s * phi[P] + b``.

    Like ``OperatorGrid`` it keeps ``s``, ``b`` and ``h`` on level 1,
    ``image(P)``, where ``apply`` gathers, and hands out every node in row
    blocks of ``block`` rows.
    """

    lattice = True

    def __init__(self, s, b, h, px, py, block=3):
        self.s, self.b, self.h, self.px, self.py, self.block = s, b, h, px, py, block
        self.x_level, self.y_level = np.unique(px), np.unique(py)
        level = np.ix_(self.x_level, self.y_level)
        self.s_values, self.b_values, self.h_values = s[level], b[level], h[level]
        self.lx = np.searchsorted(self.x_level, px)
        self.ly = np.searchsorted(self.y_level, py)
        self.level_px, self.level_py = self.lx[self.x_level], self.ly[self.y_level]

    def rows(self):
        for r0 in range(0, len(self.s), self.block):
            sl = slice(r0, r0 + self.block)
            yield r0, self.s[sl], self.b[sl], self.h[sl]

    def release_initial(self):
        return self.h_values

    def apply(self, phi):
        return self.s_values * phi[np.ix_(self.level_px, self.level_py)] + self.b_values

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
    # count leaves a core that P permutes in cycles; level 0 goes by in blocks of
    # any number of rows
    resolution = n * m * k + 1
    rng = np.random.default_rng(seed)
    shape = (resolution, resolution)
    plan = GatherPlan(rng.uniform(-c, c, shape), rng.normal(size=shape), rng.normal(size=shape),
                      uniform_pullback(n, resolution), uniform_pullback(m, resolution), block)
    factor, tol = c / (1 - c), 1e-9
    heights, iterations, diffs, bound = plan.descend(factor, tol, 10000)
    doubled, _, _, doubled_bound = ifs._double(plan.s, plan.b, plan.px, plan.py,
                                               plan.full_apply(plan.h), factor, tol, 10000)
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
    plan = GatherPlan(rng.uniform(-0.5, 0.5, shape), rng.normal(size=shape),
                      rng.normal(size=shape), uniform_pullback(2, 5), uniform_pullback(2, 5))
    with pytest.raises(ConvergenceError, match="rounding") as err:
        plan.descend(1.0, 1e-16, 10000)
    assert err.value.last_bound > 1e-16


def test_lattice_solve_peak_memory_stays_below_six_grids(band_job):
    # arrays live at the call do not count; the heights, plus s, b, h and two
    # iterates on level 1 (R^2 / 4 each on a 2x2 grid) and the row blocks
    # (2.76 arrays measured)
    resolution = 1025
    tracemalloc.start()
    try:
        solve_fixed_point(band_job.system, resolution, estimate_bias=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * resolution ** 2 * np.dtype(float).itemsize


def test_lattice_solve_frees_the_blend_patchwork_after_round_zero(band_job):
    # the plan holds h on level 1 only and hands it to the descent, so no
    # full-size patchwork is ever kept (5.07 arrays with a full-size h kept)
    resolution = 1025
    tracemalloc.start()
    try:
        solve_fixed_point(band_job.system, resolution, estimate_bias=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * resolution ** 2 * np.dtype(float).itemsize


def test_dimension_solve_and_count_peak_at_about_two_grids(band_job):
    # with a fold nothing is full size: level 1 holds s, b, h and two
    # iterates, R^2 / 4 each on a 2x2 grid, and every node goes by in row
    # blocks into the column extrema (1.77 arrays measured)
    resolution = 1025
    deltas = natural_scales(band_job.grid, 6)
    tracemalloc.start()
    try:
        fold = ColumnExtrema(resolution, (band_job.grid.x_span, band_job.grid.y_span), deltas)
        surface = solve_fixed_point(band_job.system, resolution, estimate_bias=False, fold=fold)
        counts = box_counts(surface, deltas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert surface.heights is None and surface.fold is fold
    assert peak < 2 * resolution ** 2 * np.dtype(float).itemsize
    materialised = solve_fixed_point(band_job.system, resolution, estimate_bias=False)
    assert counts == box_counts(materialised, deltas)
    assert (surface.iterations, surface.sup_diffs, surface.error_bound) == \
        (materialised.iterations, materialised.sup_diffs, materialised.error_bound)


def test_bias_estimate_does_not_raise_the_solver_peak(example2a_job):
    # the half-resolution solve runs after the main plan is dropped, and the
    # disagreement is measured in row blocks
    resolution = 769
    tracemalloc.start()
    try:
        surface = solve_fixed_point(example2a_job.system, resolution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert surface.bias_estimate is not None
    assert peak < 6 * resolution ** 2 * np.dtype(float).itemsize


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
    # the inversion's rounding is relative to |x|: 3.5e-10 of a sample interval
    # at R = 1537 for knots near 1000
    near, far = shifted_example2a_job(0.0), shifted_example2a_job(1000.0)
    for resolution in (LATTICE_R, 769):
        assert OperatorGrid(far.system, resolution).lattice, resolution
        a = solve_fixed_point(near.system, resolution, tol=TOL, estimate_bias=False)
        b = solve_fixed_point(far.system, resolution, tol=TOL, estimate_bias=False)
        gap = float(np.max(np.abs(a.heights - b.heights)))
        assert gap <= a.error_bound + b.error_bound, resolution


def nonuniform_job(psi_sup: float = 0.6, shift: float = 0.0):
    """Knot-aligned but non-uniform: x knots [0, .25, 1], y knots [0, .375, .75, 1], plus shift."""
    x_knots = [0.0, 0.25, 1.0]
    y_knots = [0.0, 0.375, 0.75, 1.0]
    z_rows = [[0.0, 0.4, 0.1], [0.6, 1.0, 0.2], [0.3, 0.9, 0.5], [0.1, 0.2, 0.7]]
    fields = []
    for i in (1, 2):
        for j in (1, 2, 3):
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
        "solver": {"resolution": 65, "tol": 1e-8, "max_iter": 10000},
        "chaos": {"points": 1000, "seed": 1, "burn_in": 100},
        "dimension": {"depth": 3, "epsilon": None, "resolution": None},
        "output": {"directory": None, "stem": "nonuniform-small"},
    }
    return build_system(parse_config_document(doc))


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
    # rounding of the inversion grows with R; it must not push an aligned grid off
    job = build_system(parse_config_document(fixture_config(name)))
    for resolution in (job.config.solver.resolution, _dimension_resolution(job)):
        assert OperatorGrid(job.system, resolution).lattice, resolution


def test_nonuniform_grid_stays_bilinear_at_both_resolutions():
    job = nonuniform_job()
    for resolution in (job.config.solver.resolution, _dimension_resolution(job)):
        assert not OperatorGrid(job.system, resolution).lattice, resolution


def test_nonuniform_grid_away_from_the_origin_stays_bilinear():
    job = nonuniform_job(shift=1000.0)
    for resolution in (job.config.solver.resolution, _dimension_resolution(job)):
        assert not OperatorGrid(job.system, resolution).lattice, resolution


def four_corner_gather(values, ix, wx, iy, wy):
    """Reference bilinear gather: all four corners at once."""
    wx = wx[:, None]
    wy = wy[None, :]
    v00 = values[np.ix_(ix, iy)]
    v10 = values[np.ix_(ix + 1, iy)]
    v01 = values[np.ix_(ix, iy + 1)]
    v11 = values[np.ix_(ix + 1, iy + 1)]
    return ((1 - wx) * ((1 - wy) * v00 + wy * v01)
            + wx * ((1 - wy) * v10 + wy * v11))


@pytest.mark.parametrize("block_cells", [ifs._GATHER_CELLS, 1000],
                         ids=["one-block", "ragged-blocks"])
def test_two_pass_gather_equals_the_four_corner_formula(block_cells, monkeypatch):
    monkeypatch.setattr(ifs, "_GATHER_CELLS", block_cells)  # 1000: 15 rows per block
    job = nonuniform_job()
    plan = OperatorGrid(job.system, job.config.solver.resolution)
    rng = np.random.default_rng(11)
    phi = rng.normal(size=(plan.resolution, plan.resolution))
    square = (plan.ix, plan.wx, plan.iy, plan.wy)
    assert np.array_equal(ifs._bilinear_gather(phi, *square),
                          four_corner_gather(phi, *square))
    expected = plan.s_values * (four_corner_gather(phi, *square) - plan.g_values) \
        + plan.h_values
    assert np.array_equal(plan.apply(phi), expected)
    # coarse -> fine, as in the bias estimate: 33 x 17 values onto 65 x 65 nodes
    coarse_x, coarse_y = plan.x_samples[::2], plan.y_samples[::4]
    coarse = rng.normal(size=(len(coarse_x), len(coarse_y)))
    up = (*ifs._axis_weights(coarse_x, plan.x_samples),
          *ifs._axis_weights(coarse_y, plan.y_samples))
    assert np.array_equal(ifs._bilinear_gather(coarse, *up),
                          four_corner_gather(coarse, *up))


def test_bilinear_solve_matches_the_four_corner_iteration():
    job = nonuniform_job()
    cfg = job.config.solver
    surface = solve_fixed_point(job.system, cfg.resolution, tol=cfg.tol)
    c = surface.contraction

    def reference_solve(resolution):
        plan = OperatorGrid(job.system, resolution)
        phi, diffs = plan.initial(), []
        while True:
            nxt = plan.s_values * (four_corner_gather(phi, plan.ix, plan.wx, plan.iy, plan.wy)
                                   - plan.g_values) + plan.h_values
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
