import numpy as np
import pytest

from fractsurf.config import parse_config_document
from fractsurf.errors import ConvergenceError, FractsurfError, InvalidGridError
from fractsurf.fixtures import fixture_config
from fractsurf.grid import CellIndex
from fractsurf.ifs import (OperatorGrid, assemble_ifs, certify_metric, chaos_game,
                           eval_F, solve_fixed_point)
from fractsurf.pipeline import build_system, certificate_text

from lattice import full_apply


def small_fractal_job(psi=150.0):
    doc = fixture_config("bilinear2x2")
    for f in doc["scaling"]["fields"]:
        f["psi"] = psi
    return build_system(parse_config_document(doc))


def test_certificate_of_example2a(example2a_job):
    cert = example2a_job.system.certificate
    assert cert.c_s == pytest.approx(0.9982638888888888, abs=1e-15)
    assert cert.c_l == pytest.approx(1 / 3, abs=1e-15)
    assert cert.l_q > 0 and cert.l_s > 0
    for z_bound in (0.0, 5.5):
        assert 0 < cert.theta_max(z_bound) < np.inf
        assert cert.theta_max(z_bound) == pytest.approx(
            (1 - cert.c_l) / (cert.l_q + cert.c_l * cert.l_s * z_bound), rel=1e-12)


def test_zero_scaling_certificate_is_trivial(flat_job):
    cert = flat_job.system.certificate
    assert cert.c_s == 0.0
    assert cert.c_l == 0.5
    assert cert.l_q == 0.0
    assert cert.l_s == 0.0
    assert cert.theta_max(1e6) == np.inf


def test_assembly_rejects_swapped_maps(example2a_job):
    system = example2a_job.system
    maps = dict(system.maps)
    a, b = CellIndex(1, 1), CellIndex(2, 1)
    maps[a], maps[b] = maps[b], maps[a]
    with pytest.raises(InvalidGridError):
        assemble_ifs(example2a_job.grid, maps, system.scalings, system.q_fields)


def test_eval_F_is_affine_in_z(example2a_job):
    system = example2a_job.system
    cell = CellIndex(3, 2)
    x, y = 0.4, 0.8
    f0 = eval_F(system, cell, x, y, 0.0)
    f1 = eval_F(system, cell, x, y, 1.0)
    f7 = eval_F(system, cell, x, y, 7.0)
    slope = f1 - f0
    assert f7 == pytest.approx(f0 + 7.0 * slope, rel=1e-12)
    m = system.maps[cell]
    s_val = float(system.scalings[cell](m.axis_x(x), m.axis_y(y)))
    assert slope == pytest.approx(s_val, abs=1e-13)


def test_eval_F_constant_in_z_on_cell_edges(example2a_job):
    # the domain corner maps onto a cell corner, where s vanishes
    system = example2a_job.system
    vals = {eval_F(system, CellIndex(1, 1), 0.0, 0.0, z) for z in (-5.0, 0.0, 11.0)}
    assert len({round(v, 14) for v in vals}) == 1
    assert vals.pop() == pytest.approx(0.3, abs=1e-12)


def test_apply_T_interpolates_knots_for_any_field():
    job = small_fractal_job()
    rng = np.random.default_rng(5)
    phi = rng.normal(size=(13, 13))
    out = full_apply(OperatorGrid(job.system, 13), phi)
    knot_ids = [0, 6, 12]
    for a, xi in enumerate(knot_ids):
        for b, yj in enumerate(knot_ids):
            assert out[xi, yj] == pytest.approx(job.grid.z[a, b], abs=1e-12)


def test_apply_T_with_zero_scaling_is_constant(flat_job):
    rng = np.random.default_rng(6)
    plan = OperatorGrid(flat_job.system, 13)
    out1 = full_apply(plan, rng.normal(size=(13, 13)))
    out2 = full_apply(plan, rng.normal(size=(13, 13)) * 100)
    np.testing.assert_array_equal(out1, out2)
    np.testing.assert_allclose(out1, 0.7, atol=1e-12)


def test_apply_T_rejects_misaligned_resolution(example2a_job):
    # above the floor 17, but R - 1 = 29 is not a multiple of the alignment base 12
    with pytest.raises(FractsurfError, match="knot-aligned"):
        OperatorGrid(example2a_job.system, 30)


def test_solver_enforces_minimum_resolution(example2a_job):
    with pytest.raises(FractsurfError):
        solve_fixed_point(example2a_job.system, 13)


def test_solver_reports_nonconvergence_with_last_bound(example2a_job):
    with pytest.raises(ConvergenceError) as err:
        solve_fixed_point(example2a_job.system, 97, tol=1e-6, max_iter=1)
    assert err.value.last_bound > 1e-6


def test_surface_interpolates_knots(example2a_solved, example2a_job):
    surface = example2a_solved.surface
    assert surface.knot_error(example2a_job.grid) <= surface.error_bound


def test_error_bound_formula(example2a_solved):
    s = example2a_solved.surface
    c = s.contraction
    assert s.error_bound == pytest.approx(c / (1 - c) * s.sup_diffs[-1], rel=1e-12)


def test_continuity_across_interior_knot_lines(example2a_solved, example2a_job):
    surface = example2a_solved.surface
    grid = example2a_job.grid
    system = example2a_job.system
    t = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for i in range(1, grid.n):          # interior x-knot lines
        x_edge = grid.x_knots[i]
        for j in range(1, grid.m + 1):
            y0, y1 = grid.y_knots[j - 1], grid.y_knots[j]
            for y in y0 + t * (y1 - y0):
                left, right = CellIndex(i, j), CellIndex(i + 1, j)
                vals = []
                for cell in (left, right):
                    px, py = system.maps[cell].invert((x_edge, y))
                    z = surface.evaluate(px, py)
                    vals.append(eval_F(system, cell, px, py, z))
                worst = max(worst, abs(vals[0] - vals[1]))
    assert worst < 1e-8


def test_chaos_game_flat_data_is_constant(flat_job):
    pts = chaos_game(flat_job.system, 3000, seed=11)
    assert pts.shape == (3000, 3)
    assert np.max(np.abs(pts[:, 2] - 0.7)) < 1e-9


def test_chaos_game_is_deterministic(example2a_job):
    a = chaos_game(example2a_job.system, 500, seed=42)
    b = chaos_game(example2a_job.system, 500, seed=42)
    np.testing.assert_array_equal(a, b)
    c = chaos_game(example2a_job.system, 500, seed=43)
    assert not np.array_equal(a, c)


def test_chaos_game_covers_the_domain(example2a_job):
    pts = chaos_game(example2a_job.system, 1_000_000, seed=3)
    ix = np.minimum((pts[:, 0] * 64).astype(int), 63)
    iy = np.minimum((pts[:, 1] * 64).astype(int), 63)
    hit = np.zeros((64, 64), dtype=bool)
    hit[ix, iy] = True
    assert hit.all()


def test_chaos_game_stays_in_the_bounding_box(example2a_job, example2a_solved):
    surface = example2a_solved.surface
    pts = chaos_game(example2a_job.system, 100_000, seed=2026)
    assert pts[:, 0].min() >= -1e-12 and pts[:, 0].max() <= 1 + 1e-12
    assert pts[:, 1].min() >= -1e-12 and pts[:, 1].max() <= 1 + 1e-12
    slack = surface.error_bound + 2 / surface.resolution * surface.lipschitz_slack()
    assert pts[:, 2].min() >= surface.z_min - slack
    assert pts[:, 2].max() <= surface.z_max + slack


def test_metric_certificate_with_zero_offsets(flat_job):
    report = certify_metric(flat_job.system, seed=1)
    assert report.theta == 1.0          # all theta admissible, default probe
    assert report.admissible
    assert report.max_ratio == pytest.approx(0.5, abs=1e-3)


def test_metric_midpoint_contracts(example2a_job):
    report = certify_metric(example2a_job.system, seed=1)
    assert report.admissible
    assert report.max_ratio < 1.0


def test_metric_flags_theta_outside_interval(example2a_job):
    theta_max = certify_metric(example2a_job.system, seed=1).theta_interval[1]
    report = certify_metric(example2a_job.system, theta=10 * theta_max, seed=1)
    assert not report.admissible


@pytest.mark.parametrize("height_scale", [1.0, 2.0, 5.0])
def test_metric_interval_contracts_on_the_sampled_slab(height_scale):
    # the z * (s(Lp) - s(Lp')) term of F grows with the slab; an interval
    # from (1 - c_l) / l_q alone admitted band2x2 with doubled heights at a
    # sampled ratio of 1.05
    doc = fixture_config("band2x2")
    doc["grid"]["z_rows"] = [[height_scale * z for z in row] for row in doc["grid"]["z_rows"]]
    job = build_system(parse_config_document(doc))
    report = certify_metric(job.system, seed=0)
    z_bound = float(np.max(np.abs(job.grid.z))) + 1.0  # heights >= 0, z_margin 1
    theta_max = job.system.certificate.theta_max(z_bound)
    assert report.theta_interval == (0.0, theta_max)
    assert f"theta_max={theta_max!r}\n" in certificate_text(job, report)
    assert report.admissible
    assert report.max_ratio < 1.0


def test_bias_shrinks_with_resolution_on_a_mild_surface():
    job = small_fractal_job(psi=20.0)
    biases = [solve_fixed_point(job.system, r, tol=1e-10).bias_estimate
              for r in (65, 129, 257)]
    assert biases[1] <= 0.6 * biases[0]
    assert biases[2] <= 0.6 * biases[1]
