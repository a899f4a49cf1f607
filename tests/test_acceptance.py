"""Acceptance gate: the ten product-level checks, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` — each test name carries its
criterion number, and each test prints a one-line verdict with the measured
margin (visible with ``-s`` or on failure).
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from fractsurf.config import parse_config, parse_config_document, serialize_config
from fractsurf.dimension import (
    bounds_from_fields,
    box_counts,
    estimate_dimension,
    natural_scales,
)
from fractsurf.fixtures import fixture_config, fixture_names
from fractsurf.ifs import chaos_game, eval_F, solve_fixed_point
from fractsurf.pipeline import build_system
from cli_runner import run
from sampling import polished_sup

TABLE_KNOT_HEIGHTS = {
    # (x, y) -> z for the 4x3-cell data set driving the worked example
    (0.00, 0.0): 0.3, (0.25, 0.0): 1.1, (0.50, 0.0): 0.2, (0.75, 0.0): 1.5, (1.00, 0.0): 2.0,
    (0.00, 1 / 3): 0.3, (0.25, 1 / 3): 2.0, (0.50, 1 / 3): 1.8, (0.75, 1 / 3): 1.5, (1.00, 1 / 3): 2.0,
    (0.00, 2 / 3): 3.0, (0.25, 2 / 3): 2.0, (0.50, 2 / 3): 3.0, (0.75, 2 / 3): 3.3, (1.00, 2 / 3): 3.0,
    (0.00, 1.0): 2.0, (0.25, 1.0): 3.0, (0.50, 1.0): 2.5, (0.75, 1.0): 4.0, (1.00, 1.0): 4.5,
}


def verdict(number: int, detail: str):
    print(f"criterion {number}: PASS — {detail}")


def piecewise_polys(coeff_lists, knots, t):
    """Evaluate a piecewise polynomial given per-interval ascending coefficients."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    for j, coeffs in enumerate(coeff_lists):
        m = (t >= knots[j] - 1e-12) & (t <= knots[j + 1] + 1e-12)
        out[m] = sum(c * t[m] ** k for k, c in enumerate(coeffs))
    return out


def test_criterion_01_knot_interpolation(example2a_solved):
    surface = example2a_solved.surface
    assert surface.resolution == 769
    worst = 0.0
    for (x, y), z in TABLE_KNOT_HEIGHTS.items():
        worst = max(worst, abs(surface.evaluate(x, y) - z))
    assert worst <= 1e-5
    assert example2a_solved.seconds < 60.0
    verdict(1, f"all 20 knot heights within {worst:.3g} "
               f"(solve took {example2a_solved.seconds:.1f} s)")


def test_criterion_02_boundary_restrictions(example2a_job, example2a_solved):
    surface = example2a_solved.surface
    doc = fixture_config("example2a")
    grid = example2a_job.grid
    R = surface.resolution
    idx = np.unique(np.linspace(0, R - 1, 256).round().astype(int))
    assert len(idx) == 256
    worst = 0.0
    t = surface.y_samples[idx]
    for a, curve in enumerate(doc["boundary"]["q"]):
        ix = round(
            (grid.x_knots[a] - grid.x_knots[0]) / grid.x_span * (R - 1))
        got = surface.heights[ix, idx]
        worst = max(worst, float(np.max(np.abs(
            got - piecewise_polys(curve, grid.y_knots, t)))))
    t = surface.x_samples[idx]
    for b, curve in enumerate(doc["boundary"]["r"]):
        iy = round(
            (grid.y_knots[b] - grid.y_knots[0]) / grid.y_span * (R - 1))
        got = surface.heights[idx, iy]
        worst = max(worst, float(np.max(np.abs(
            got - piecewise_polys(curve, grid.x_knots, t)))))
    assert worst <= 1e-5
    verdict(2, f"9 knot-line restrictions match their curves within {worst:.3g} "
               "at 256 samples each")


@pytest.mark.parametrize("name", ["example2a", "example2a-explicit"])
def test_criterion_03_zero_scaling_degenerates_to_blends(name):
    doc = fixture_config(name)
    for spec in doc["scaling"]["fields"]:
        spec["psi"] = 0.0
    job = build_system(parse_config_document(doc))
    surface = solve_fixed_point(job.system, 97, tol=1e-6)
    assert surface.iterations == 1
    grid, xs, ys = job.grid, surface.x_samples, surface.y_samples
    worst = 0.0
    for cell, blend in job.blends.items():
        mx = (xs >= grid.x_knots[cell.i - 1] - 1e-12) & (xs <= grid.x_knots[cell.i] + 1e-12)
        my = (ys >= grid.y_knots[cell.j - 1] - 1e-12) & (ys <= grid.y_knots[cell.j] + 1e-12)
        X, Y = np.meshgrid(xs[mx], ys[my], indexing="ij")
        worst = max(worst, float(np.max(np.abs(
            blend(X, Y) - surface.heights[np.ix_(mx, my)]))))
    assert worst <= 1e-12
    verdict(3, f"{job.config.blend.mode} blends: one application, "
               f"patchwork deviation {worst:.3g}")


def _self_affinity_residual(job, surface, seed=11):
    rng = np.random.default_rng(seed)
    grid = job.grid
    n = 10_000
    x = rng.uniform(grid.x_knots[0], grid.x_knots[-1], n)
    y = rng.uniform(grid.y_knots[0], grid.y_knots[-1], n)
    cells = list(job.system.maps)
    choice = rng.integers(0, len(cells), n)
    worst = 0.0
    for k, cell in enumerate(cells):
        m = choice == k
        if not m.any():
            continue
        u, v = job.system.maps[cell]((x[m], y[m]))
        lhs = surface.evaluate(u, v)
        rhs = eval_F(job.system, cell, x[m], y[m], surface.evaluate(x[m], y[m]))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@pytest.mark.parametrize("solved", ["example2a_solved", "example2b_solved"])
def test_criterion_04_self_affinity(solved, example2a_job, example2b_job, request):
    bundle = request.getfixturevalue(solved)
    job = example2a_job if solved == "example2a_solved" else example2b_job
    surface = bundle.surface
    budget = 3.0 * (surface.error_bound + surface.bias_estimate)
    residual = _self_affinity_residual(job, surface)
    assert residual <= budget
    verdict(4, f"{job.config.name}: fixed-point residual {residual:.3g} "
               f"<= {budget:.3g} at 10^4 points")


def test_criterion_05_contraction_ratio(example2a_job, example2a_solved):
    diffs = example2a_solved.surface.sup_diffs
    c_s = example2a_job.system.certificate.c_s
    assert c_s == pytest.approx(0.9982638888888888)
    ratios = [b / a for a, b in zip(diffs[2:], diffs[3:])]
    worst = max(ratios)
    assert worst <= c_s + 0.01
    verdict(5, f"sup-difference ratios peak at {worst:.6f} <= "
               f"c_s + 0.01 = {c_s + 0.01:.6f} over {len(ratios)} steps")


def test_criterion_06_magnitude_certification(example2a_job, example2b_job):
    fields = list(example2a_job.system.scalings.values())
    fields += list(example2b_job.system.scalings.values())
    assert len(fields) == 24
    worst_gap = 0.0
    for field in fields:
        # the certificate is the closed form; sample it here to check it
        assert field.sup_bound < 1.0
        worst_gap = max(worst_gap, abs(field.sup_bound - polished_sup(field)[0]))
    assert worst_gap <= 1e-6
    verdict(6, f"24 fields certified below 1; analytic vs sampled sup gap "
               f"{worst_gap:.3g}")


@pytest.mark.parametrize("fixture_name", ["flat2x2", "bilinear2x2"])
def test_criterion_07_smooth_baseline_dimension(fixture_name, request):
    job = request.getfixturevalue(fixture_name.replace("2x2", "") + "_job")
    cfg = job.config
    surface = solve_fixed_point(job.system, cfg.dimension.resolution,
                                tol=cfg.solver.tol, estimate_bias=False)
    deltas = natural_scales(job.grid, cfg.dimension.depth)
    assert len(deltas) == 5
    est = estimate_dimension(deltas, box_counts(surface, deltas))
    assert est.dimension == pytest.approx(2.0, abs=0.05)
    verdict(7, f"{fixture_name}: estimate {est.dimension:.4f} within 2.0 +/- 0.05 "
               "over 5 scales")


def test_criterion_08_fractal_band(band_job):
    started = time.perf_counter()
    cfg = band_job.config
    bounds = bounds_from_fields(band_job.grid, band_job.system.scalings)
    sup_sum = sum(f.sup_bound for f in band_job.system.scalings.values())
    assert bounds.lower == 2.0
    assert bounds.upper == pytest.approx(1 + np.log2(sup_sum))
    surface = solve_fixed_point(band_job.system, cfg.dimension.resolution,
                                tol=cfg.solver.tol, estimate_bias=False)
    deltas = natural_scales(band_job.grid, cfg.dimension.depth)
    est = estimate_dimension(deltas, box_counts(surface, deltas))
    elapsed = time.perf_counter() - started
    assert bounds.lower - 0.15 <= est.dimension <= bounds.upper + 0.15
    assert elapsed < 300.0
    verdict(8, f"estimate {est.dimension:.4f} inside "
               f"[{bounds.lower - 0.15:.4f}, {bounds.upper + 0.15:.4f}] "
               f"around the band [{bounds.lower:.4f}, {bounds.upper:.4f}]; {elapsed:.0f} s")


def test_criterion_09_chaos_game_cross_validation(example2a_job, example2a_solved):
    surface = example2a_solved.surface
    cfg = example2a_job.config.chaos
    points = chaos_game(example2a_job.system, 100_000, seed=cfg.seed,
                        burn_in=cfg.burn_in)
    ix = np.searchsorted(surface.x_samples, points[:, 0]).clip(0, surface.resolution - 1)
    iy = np.searchsorted(surface.y_samples, points[:, 1]).clip(0, surface.resolution - 1)
    nx = np.abs(surface.x_samples[ix] - points[:, 0]) > np.abs(
        surface.x_samples[ix - 1] - points[:, 0])
    ny = np.abs(surface.y_samples[iy] - points[:, 1]) > np.abs(
        surface.y_samples[iy - 1] - points[:, 1])
    ix = np.where(nx & (ix > 0), ix - 1, ix)
    iy = np.where(ny & (iy > 0), iy - 1, iy)
    residual = float(np.max(np.abs(points[:, 2] - surface.heights[ix, iy])))
    slack = surface.error_bound + 2.0 / surface.resolution * surface.lipschitz_slack()
    assert residual <= slack
    verdict(9, f"10^5 orbit heights within {residual:.3g} of the field "
               f"(allowed {slack:.3g})")


def test_criterion_10_determinism_and_round_trips(tmp_path):
    for name in fixture_names():
        cfg = parse_config_document(fixture_config(name))
        assert parse_config(serialize_config(cfg)) == cfg

    fast = {"example2a": "97", "example2a-explicit": "97",
            "example2b-sin": "97", "band2x2": "257"}
    for name in fixture_names():
        pair = []
        for run_dir in ("first", "second"):
            out = tmp_path / name / run_dir
            args = ["surface", "--fixture", name, "--out", str(out)]
            if name in fast:
                args += ["--resolution", fast[name]]
            result = run(*args)
            assert result.exit_code == 0, result.output
            pair.append(out)
        for suffix in (".heightmap.csv", ".xyz"):
            a = (pair[0] / f"{name}{suffix}").read_bytes()
            b = (pair[1] / f"{name}{suffix}").read_bytes()
            assert a == b, f"{name}{suffix} differs between runs"

    counts = []
    for run_dir in ("c1", "c2"):
        out = tmp_path / "flat-dim" / run_dir
        result = run("dimension", "--fixture", "flat2x2", "--out", str(out))
        assert result.exit_code == 0, result.output
        counts.append((out / "flat2x2.counts.csv").read_bytes())
    assert counts[0] == counts[1]
    verdict(10, "byte-identical surface artifacts for all 6 fixtures; "
                "configs round-trip; box counts reproducible")
