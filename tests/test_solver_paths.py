"""The two solver paths: pointer doubling on lattice plans, iteration otherwise.

On uniform, knot-aligned grids every pulled-back sample node lands on a node,
so the sampled operator is a pure gather and the solver doubles it.  Grids
with non-uniform knots take fractional bilinear weights and keep the plain
iteration.
"""
import numpy as np
import pytest

from fractsurf import ifs
from fractsurf.config import parse_config_document
from fractsurf.errors import ConvergenceError
from fractsurf.fixtures import fixture_config, fixture_names
from fractsurf.ifs import OperatorGrid, solve_fixed_point
from fractsurf.pipeline import _dimension_resolution, build_system

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
    gap = float(np.max(np.abs(lattice.apply(phi) - bilinear.apply(phi))))
    assert gap <= 1e-10


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
    residual = float(np.max(np.abs(OperatorGrid(system, LATTICE_R).apply(heights) - heights)))
    assert residual <= (1 + surface.contraction) * surface.error_bound


def test_doubling_history_follows_its_definitions(example2a_job):
    system = example2a_job.system
    c = system.certificate.c_s
    surface = solve_fixed_point(system, LATTICE_R, tol=TOL, estimate_bias=False)
    diffs = surface.sup_diffs
    rounds = len(diffs)
    assert rounds >= 3
    # round k >= 1 starts from phi_N with N = 2^(k-1); the result is T phi_N
    assert surface.iterations == 2 ** (rounds - 2) + 1
    plan = OperatorGrid(system, LATTICE_R)
    phi0 = plan.initial()
    phi1 = plan.apply(phi0)
    phi2 = plan.apply(phi1)
    assert diffs[0] == float(np.max(np.abs(phi1 - phi0)))
    assert diffs[1] == float(np.max(np.abs(phi2 - phi1)))
    for k in range(1, rounds - 1):
        assert diffs[k + 1] <= c ** (2 ** (k - 1)) * diffs[k]
    assert surface.error_bound == pytest.approx(c / (1 - c) * diffs[-1], rel=1e-12)


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


def nonuniform_job(psi_sup: float = 0.6):
    """Knot-aligned but non-uniform: x knots [0, .25, 1], y knots [0, .375, .75, 1]."""
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
        "grid": {"source": "inline", "x_knots": x_knots, "y_knots": y_knots,
                 "z_rows": z_rows},
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
