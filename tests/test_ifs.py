import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fractsurf.config import parse_config_document
from fractsurf.errors import ConvergenceError, FractsurfError, InvalidGridError
from fractsurf.fixtures import fixture_config
from fractsurf.grid import CellIndex
from fractsurf.ifs import (OperatorGrid, _affine_scan, assemble_ifs, certify_metric,
                           chaos_game, eval_F, solve_fixed_point)
from fractsurf.pipeline import build_system, certificate_text
from fractsurf.scaling import ScalingField

from lattice import full_apply
from sampling import lipschitz_slack


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


@pytest.mark.parametrize("point_count, burn_in, message", [
    (0, 100, "point_count must be positive"), (10, -5, "burn_in must be non-negative")])
def test_chaos_game_refuses_counts_below_their_floor(flat_job, point_count, burn_in, message):
    with pytest.raises(FractsurfError, match=message):
        chaos_game(flat_job.system, point_count, seed=11, burn_in=burn_in)


def scalar_chaos_game(system, steps, seed):
    """The chaos game step by step on Python floats: the orbit from its start, every step.

    Returns ``xs``, ``ys``, ``zs`` (``steps + 1`` points, the start first) and
    each step's ``s`` and ``h`` at the new point and ``g`` at the old one.
    """
    rng = np.random.default_rng(seed)
    cells = sorted(system.maps)
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
    for k, c in enumerate(picks.tolist()):
        x = ax[c] * x + bx[c]
        y = ay[c] * y + by[c]
        xs[k + 1] = x
        ys[k + 1] = y
    s_step = np.empty(steps)
    h_step = np.empty(steps)
    g_step = np.empty(steps)
    for ci, cell in enumerate(cells):
        mask = picks == ci
        new_x, new_y = xs[1:][mask], ys[1:][mask]
        s_step[mask] = system.scalings[cell](new_x, new_y)
        h_step[mask] = system.q_fields[cell].blend(new_x, new_y)
        g_step[mask] = system.q_fields[cell].free(xs[:-1][mask], ys[:-1][mask])
    zs = np.empty(steps + 1)
    z = float(system.grid.z[0, 0])
    zs[0] = z
    s_l, g_l, h_l = s_step.tolist(), g_step.tolist(), h_step.tolist()
    for k in range(steps):
        z = s_l[k] * (z - g_l[k]) + h_l[k]
        zs[k + 1] = z
    return xs, ys, zs, s_step, g_step, h_step


def reference_scan(a, b, start):
    """``_affine_scan``'s passes spelled out element by element on Python floats."""
    a, b = a.tolist(), b.tolist()
    b[0] = b[0] + a[0] * start
    d = 1
    while d < len(b):
        b = b[:d] + [b[k] + a[k] * b[k - d] for k in range(d, len(b))]
        a = a[:d] + [a[k] * a[k - d] for k in range(d, len(a))]
        d *= 2
    return [start] + b


def rounding_bound(steps, z_max, c, local):
    """First-order rounding bound on an orbit of ``steps`` affine steps against the exact one.

    ``|x_k| <= z_max`` on the orbit and every step's inputs are at most
    ``z_max``, every multiplier at most ``c < 1``, and ``u = 2**-53``.  A
    partial composition of the scan is ``x_k - (prod a) x_j``, at most
    ``2 z_max``, so each of its ``L = ceil(log2 steps)`` passes rounds one
    product and one sum of that size per element, ``4 u z_max``.  The pass of
    stride ``d`` reaches ``x_k`` through the elements ``k, k - 2d, ...`` with
    weights at most ``c^(2dj)``, summing to at most ``1 / (1 - c)``: ``4 L``.
    A multiplier after ``p`` passes carries ``p u`` relative error on a term
    of at most ``2 z_max c^(2^p)`` that reaches ``x_k`` with weight
    ``1 / (1 - c^(2^(p+1)))``; since ``c^n / (1 - c^(2n)) <= 1 / (2n (1 - c))``
    and ``sum p / 2^(p+1) = 1``, that adds 2, and folding in the start 2
    more: the scan is within ``(4 L + 4) u z_max / (1 - c)`` of exact
    arithmetic.  ``local`` adds each step's own rounding outside the scan,
    also carried with weight ``1 / (1 - c)``.
    """
    return (4 * math.ceil(math.log2(steps)) + 4 + local) * 2.0 ** -53 * z_max / (1 - c)


def nonuniform_document(seed: int) -> dict:
    """The benchmark's generated non-uniform grid drawn from ``seed``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import nonuniform_config
    finally:
        sys.path.pop(0)
    return nonuniform_config(seed)


def nonuniform_system(seed: int):
    return build_system(parse_config_document(nonuniform_document(seed))).system


def test_bias_solve_that_needs_more_iterations_leaves_no_estimate():
    # at R = 1025 the requested solve converges in exactly 28 iterations; the
    # half-resolution solve behind the bias estimate needs 32
    system = nonuniform_system(7)
    capped = solve_fixed_point(system, 1025, tol=1e-6, max_iter=28)
    free = solve_fixed_point(system, 1025, tol=1e-6, estimate_bias=False)
    assert capped.iterations == free.iterations == 28
    assert np.array_equal(capped.heights, free.heights)
    assert capped.bias_estimate is None


@pytest.mark.parametrize("length", [1, 2, 3, 15, 16, 17, 1023, 1024, 1025])
def test_affine_scan_runs_its_passes_bit_for_bit(length):
    rng = np.random.default_rng(length)
    a, b, start = rng.uniform(-1, 1, length), rng.normal(size=length), float(rng.normal())
    expected = reference_scan(a, b, start)
    x = np.concatenate(([start], b))
    _affine_scan(a.copy(), x)
    assert x.tolist() == expected


@pytest.mark.parametrize("seed", range(4))
def test_affine_scan_is_within_its_rounding_bound_of_exact_arithmetic(seed):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(1, 40))
    a, b, start = rng.uniform(-0.99, 0.99, length), rng.normal(size=length), float(rng.normal())
    exact = [Fraction(start)]
    for ak, bk in zip(a.tolist(), b.tolist()):
        exact.append(Fraction(ak) * exact[-1] + Fraction(bk))
    scan = np.concatenate(([start], b))
    _affine_scan(a.copy(), scan)
    z_max = max(max(abs(v) for v in exact), float(np.max(np.abs(b))))
    bound = rounding_bound(max(length, 2), z_max, float(np.max(np.abs(a))), local=0)
    assert max(abs(Fraction(v) - e) for v, e in zip(scan.tolist(), exact)) <= bound


@pytest.mark.parametrize("name", ["example2a", "example2b-sin", "band2x2", "nonuniform"])
def test_chaos_game_is_within_the_rounding_bound_of_the_scalar_loop(name, example2a_job,
                                                                    example2b_job, band_job):
    # example2b-sin has a nonzero free field g, band2x2 four cells and the
    # non-uniform grid cells of unequal sizes.  Both orbits draw the same
    # picks; each lies within its rounding of the exact orbit.  Beyond the
    # scan (rounding_bound), z's scan input b = h - s*g rounds twice, 2 u Z,
    # and the loop's step s*(z - g) + h three times on terms of at most
    # 2 Z, Z and 2 Z, 5 u Z; x and y's loop rounds 2 u Z per step.
    system = (nonuniform_system(7) if name == "nonuniform" else
              {"example2a": example2a_job, "example2b-sin": example2b_job,
               "band2x2": band_job}[name].system)
    steps = 100_100
    points = chaos_game(system, 100_000, seed=5, burn_in=100)
    xs, ys, zs, s, g, h = scalar_chaos_game(system, steps, seed=5)
    assert points.shape == (100_000, 3)
    for col, orbit, axis in ((0, xs, "axis_x"), (1, ys, "axis_y")):
        maps = [getattr(m, axis) for m in system.maps.values()]
        z_max = max(np.max(np.abs(orbit)), max(abs(m.offset) for m in maps))
        c = max(abs(m.scale) for m in maps)
        bound = rounding_bound(steps, z_max, c, local=2)
        assert np.max(np.abs(points[:, col] - orbit[101:])) <= bound
    z_max = max(np.max(np.abs(v)) for v in (zs, h, s * g, h - s * g))
    bound = rounding_bound(steps, z_max, system.certificate.c_s, local=7)
    assert np.max(np.abs(points[:, 2] - zs[101:])) <= bound


def test_chaos_game_peak_memory_stays_below_five_and_a_half_megabytes(example2a_job):
    # 100k points: the orbit array, which the result views, is 2.4 MB, the
    # scans' multipliers and the cells' sort order 0.8 MB each, and one
    # cell's terms set the peak at 4.75 MB; separate coordinate arrays beside
    # a stacked copy took it to 7.2 MB, and the scalar loop's three full
    # lists of Python floats to 19 MB.  The first game of a process also
    # imports numpy.random (0.7 MB traced), which is not the game's memory.
    chaos_game(example2a_job.system, 1, seed=2026, burn_in=0)
    tracemalloc.start()
    try:
        chaos_game(example2a_job.system, 100_000, seed=2026, burn_in=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5e6


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
    slack = surface.error_bound + 2 / surface.resolution * lipschitz_slack(surface)
    assert pts[:, 2].min() >= surface.z_min - slack
    assert pts[:, 2].max() <= surface.z_max + slack


def test_metric_certificate_with_zero_offsets(flat_job):
    report = certify_metric(flat_job.system)
    assert report.theta == 1.0          # all theta admissible, default probe
    assert report.admissible
    assert report.max_ratio == pytest.approx(0.5, abs=1e-3)


def test_metric_midpoint_contracts(example2a_job):
    report = certify_metric(example2a_job.system)
    assert report.admissible
    assert report.max_ratio < 1.0


def test_metric_check_and_eval_F_evaluate_each_scaling_field_once_per_map(example2a_job,
                                                                          monkeypatch):
    # QField.terms takes s at the image point it is given: the metric check maps
    # each of its two point sets once per cell, and eval_F evaluates s once
    calls = []
    call = ScalingField.__call__
    monkeypatch.setattr(ScalingField, "__call__",
                        lambda field, x, y: calls.append(field.cell) or call(field, x, y))
    system = example2a_job.system
    certify_metric(system)
    assert sorted(calls) == sorted(2 * system.cells())
    calls.clear()
    eval_F(system, CellIndex(2, 2), 0.3, 0.7, 1.5)
    assert calls == [CellIndex(2, 2)]


@pytest.mark.parametrize("height_scale", [1.0, 2.0, 5.0])
def test_metric_interval_contracts_on_the_sampled_slab(height_scale):
    # the z * (s(Lp) - s(Lp')) term of F grows with the slab; an interval
    # from (1 - c_l) / l_q alone admitted band2x2 with doubled heights at a
    # sampled ratio of 1.05
    doc = fixture_config("band2x2")
    doc["grid"]["z_rows"] = [[height_scale * z for z in row] for row in doc["grid"]["z_rows"]]
    job = build_system(parse_config_document(doc))
    report = certify_metric(job.system)
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
