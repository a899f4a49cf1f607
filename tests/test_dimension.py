import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractsurf.config import parse_config_document
from fractsurf.dimension import (alignment_base, box_count, box_count_points,
                                 box_counts, bounds_from_fields, check_hypotheses,
                                 default_epsilon, dimension_report,
                                 dimension_resolution, estimate_dimension,
                                 natural_scales, theoretical_bounds)
from fractsurf.errors import FractsurfError, ScaleResolutionError
from fractsurf.fixtures import fixture_config
from fractsurf.grid import DataGrid
from fractsurf.ifs import SurfaceSample, solve_fixed_point
from fractsurf.pipeline import build_system


def sample_surface(heights: np.ndarray) -> SurfaceSample:
    r = heights.shape[0]
    axis = np.linspace(0.0, 1.0, r)
    return SurfaceSample(x_samples=axis, y_samples=axis, heights=heights)


def brute_force_count(heights: np.ndarray, delta: float) -> int:
    """Reference box count: inclusive column extrema, python loops."""
    r = heights.shape[0]
    w = round((r - 1) * delta)
    assert abs((r - 1) * delta - w) < 1e-9
    boxes = (r - 1) // w
    total = 0
    for a in range(boxes):
        for b in range(boxes):
            block = heights[a * w:(a + 1) * w + 1, b * w:(b + 1) * w + 1]
            span = (block.max() - block.min()) / delta
            total += math.ceil(span - 1e-9) + 1
    return total


# --- hypothesis checks -------------------------------------------------------

def test_non_square_grid_is_flagged(example2a_job):
    hyp = check_hypotheses(example2a_job.grid)
    assert not hyp.square
    assert not hyp.applicable
    assert any("not square" in r for r in hyp.reasons)


def test_flat_grid_has_no_bent_witness(flat_job):
    hyp = check_hypotheses(flat_job.grid)
    assert hyp.square and hyp.uniform_x and hyp.uniform_y
    assert hyp.applicable
    assert hyp.witness is None


def test_bilinear_grid_has_bent_witness(bilinear_job):
    hyp = check_hypotheses(bilinear_job.grid)
    assert hyp.applicable
    assert hyp.witness is not None


# --- theoretical bounds ------------------------------------------------------

def test_zero_scaling_gives_exactly_two():
    z = np.zeros((2, 2))
    b = theoretical_bounds(z, z, 2, epsilon=0.01)
    assert b.case == "exactly-two"
    assert b.lower == b.upper == 2.0
    assert b.exact


def test_constant_scaling_band_is_a_point():
    s = np.full((2, 2), 0.9)
    b = theoretical_bounds(s, s, 2, epsilon=0.015625)
    assert b.case == "bounds"
    assert not b.gap
    assert b.lower == pytest.approx(1 + math.log2(3.6), abs=1e-12)
    assert b.upper == pytest.approx(1 + math.log2(3.6), abs=1e-12)
    assert b.lower == pytest.approx(2.84799690655495, abs=1e-12)


def test_straddling_sums_report_a_gap():
    upper = np.full((2, 2), 0.9)           # sum 3.6 > 2
    lower = np.full((2, 2), 0.3)           # sum 1.2 <= 2
    b = theoretical_bounds(upper, lower, 2, epsilon=0.01)
    assert b.gap
    assert b.lower == 2.0                  # trivial surface bound
    assert b.upper == pytest.approx(1 + math.log2(3.6), abs=1e-12)
    assert any("gap" in note for note in b.notes)


def test_missing_bent_witness_weakens_the_lower_bound():
    s = np.full((2, 2), 0.9)
    b = theoretical_bounds(s, s, 2, epsilon=0.01, bent_witness=False)
    assert b.lower == 2.0
    assert b.upper == pytest.approx(1 + math.log2(3.6), abs=1e-12)


def test_upper_bound_clamps_at_three():
    s = np.full((3, 3), 0.99)              # 1 + log3(8.91) = 2.99...
    huge = np.full((3, 3), 0.999999)
    b = theoretical_bounds(huge, s, 3, epsilon=0.01)
    assert b.upper <= 3.0


def test_non_square_matrix_is_inapplicable():
    s = np.full((4, 3), 0.5)
    b = theoretical_bounds(s, s, 4, epsilon=0.01)
    assert b.case == "inapplicable"
    assert (b.lower, b.upper) == (2.0, 3.0)


def test_bounds_from_fields_note_epsilon_collapse(band_job):
    b = bounds_from_fields(band_job.grid, band_job.system.scalings,
                           epsilon=0.015625)
    assert b.sum_lower == pytest.approx(3.6, abs=1e-9)
    assert b.sum_upper == pytest.approx(3.6, abs=1e-9)
    assert any("epsilon" in note for note in b.notes)


def test_bounds_from_fields_rejects_non_square_grids(example2a_job):
    with pytest.raises(FractsurfError):
        bounds_from_fields(example2a_job.grid, example2a_job.system.scalings)


def test_default_epsilon_is_a_sixty_fourth_of_the_cell(flat_job, example2a_job):
    assert default_epsilon(flat_job.grid) == pytest.approx(0.5 / 64)
    assert default_epsilon(example2a_job.grid) == pytest.approx(0.25 / 64)


# --- scales and resolutions --------------------------------------------------

def test_natural_scales_follow_the_grid_order(flat_job, example2a_job):
    assert natural_scales(flat_job.grid, 3) == pytest.approx([1 / 2, 1 / 4, 1 / 8])
    assert natural_scales(example2a_job.grid, 2) == pytest.approx([1 / 4, 1 / 16])


def test_alignment_base(flat_job, example2a_job):
    assert alignment_base(flat_job.grid) == 2
    assert alignment_base(example2a_job.grid) == 12


def test_dimension_resolution_rule(flat_job, example2a_job):
    assert dimension_resolution(flat_job.grid, 5) == 129
    # lcm(12, 4^4) = 768; first multiple >= 4*256 = 1024 is 1536
    assert dimension_resolution(example2a_job.grid, 4) == 1537
    # 2x4 cells: 4 * 2^1 = 8 intervals resolve the boxes, the 4 y cells need 16
    tall = DataGrid((0.0, 0.5, 1.0), (0.0, 0.25, 0.5, 0.75, 1.0), np.zeros((3, 5)))
    assert dimension_resolution(tall, 1) == 17


# --- box counting ------------------------------------------------------------

def test_box_count_matches_brute_force():
    rng = np.random.default_rng(0)
    heights = np.cumsum(np.cumsum(rng.normal(size=(33, 33)), axis=0), axis=1) / 10
    surf = sample_surface(heights)
    for delta in (0.5, 0.25, 0.125):
        assert box_count(surf, delta) == brute_force_count(heights, delta)


def test_box_count_of_a_flat_surface_is_the_grid_count():
    surf = sample_surface(np.full((65, 65), 1.23))
    assert box_count(surf, 0.25) == 16
    assert box_count(surf, 0.125) == 64


def test_box_counts_increase_as_scale_shrinks():
    rng = np.random.default_rng(1)
    heights = rng.normal(size=(129, 129))
    counts = box_counts(sample_surface(heights), [0.5, 0.25, 0.125, 0.0625])
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_too_fine_scale_is_rejected():
    surf = sample_surface(np.zeros((17, 17)))
    with pytest.raises(ScaleResolutionError):
        box_count(surf, 1 / 16)  # only one sample interval per box


def test_box_count_points_on_a_plane():
    xs, ys = np.meshgrid(np.linspace(0, 1, 40), np.linspace(0, 1, 40))
    pts = np.column_stack([xs.ravel(), ys.ravel(), np.full(1600, 0.37)])
    n = box_count_points(pts, 0.25, (0.0, 1.0, 0.0, 1.0))
    assert n == 16


# --- slope estimation --------------------------------------------------------

@settings(max_examples=25)
@given(st.floats(1.2, 2.9))
def test_estimate_recovers_exact_power_laws(d):
    deltas = [2.0 ** -k for k in range(1, 9)]
    counts = [max(1, round((1 / delta) ** d)) for delta in deltas]
    # rounding breaks the law for tiny counts; rebuild exactly on log-grid
    est = estimate_dimension(deltas, [(1 / delta) ** d for delta in deltas])
    assert est.dimension == pytest.approx(d, abs=1e-9)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)


def test_estimate_requires_three_scales():
    with pytest.raises(FractsurfError):
        estimate_dimension([0.5, 0.25], [4, 16])


def test_constant_counts_warn():
    est = estimate_dimension([0.5, 0.25, 0.125], [7, 7, 7])
    assert est.dimension == pytest.approx(0.0, abs=1e-12)
    assert any("constant" in w for w in est.warnings)


def test_outlier_coarsest_scale_is_excluded():
    # An endpoint outlier has high leverage, so the tilted fit smears its
    # error across every residual; seven scales leave enough of a majority
    # for the coarsest point to stand out past the 3x-median rule.
    deltas = [2.0 ** -k for k in range(1, 8)]
    counts = [(1 / d) ** 2.5 for d in deltas]
    counts[0] *= 40.0                      # corrupt the coarsest scale
    est = estimate_dimension(deltas, counts)
    assert est.excluded is not None
    assert est.excluded[0] == pytest.approx(0.5)
    assert est.dimension == pytest.approx(2.5, abs=1e-9)
    assert any("dropped coarsest" in w for w in est.warnings)


def test_mild_coarse_deviation_is_kept():
    deltas = [2.0 ** -k for k in range(1, 7)]
    counts = [(1 / d) ** 2.5 for d in deltas]
    counts[0] *= 1.3                       # within the boundary-effect noise
    est = estimate_dimension(deltas, counts)
    assert est.excluded is None
    assert len(est.deltas) == 6


# --- end-to-end invariants ---------------------------------------------------

def test_estimate_is_consistent_across_resolution_doubling(band_job):
    deltas = natural_scales(band_job.grid, 6)
    estimates = []
    for r in (513, 1025):
        surf = solve_fixed_point(band_job.system, r, tol=1e-4, max_iter=10000,
                                 estimate_bias=False)
        est = estimate_dimension(deltas, box_counts(surf, deltas))
        estimates.append(est.dimension)
    assert abs(estimates[1] - estimates[0]) < 0.05


def test_estimate_is_invariant_under_similarity():
    base_doc = fixture_config("bilinear2x2")
    for f in base_doc["scaling"]["fields"]:
        f["psi"] = 200.0
    base = build_system(parse_config_document(base_doc))

    twin_doc = fixture_config("bilinear2x2")
    twin_doc["grid"]["x_knots"] = [0.0, 1.0, 2.0]
    twin_doc["grid"]["y_knots"] = [0.0, 1.0, 2.0]
    twin_doc["grid"]["z_rows"] = [[2 * v for v in row]
                                  for row in twin_doc["grid"]["z_rows"]]
    for f in twin_doc["scaling"]["fields"]:
        f["psi"] = 200.0 / 16.0            # quartic form scales by the 4th power
    twin = build_system(parse_config_document(twin_doc))

    depth = 5
    base_surf = solve_fixed_point(base.system, 257, tol=1e-8, estimate_bias=False)
    twin_surf = solve_fixed_point(twin.system, 257, tol=1e-8, estimate_bias=False)
    base_deltas = natural_scales(base.grid, depth)
    twin_deltas = natural_scales(twin.grid, depth)
    base_counts = box_counts(base_surf, base_deltas)
    twin_counts = box_counts(twin_surf, twin_deltas)
    assert base_counts == twin_counts
    e1 = estimate_dimension(base_deltas, base_counts).dimension
    e2 = estimate_dimension(twin_deltas, twin_counts).dimension
    assert abs(e1 - e2) < 1e-9


def test_dimension_report_annotations(example2a_job, bilinear_job):
    surf = solve_fixed_point(bilinear_job.system, 257, tol=1e-6)
    rep = dimension_report(bilinear_job.grid, bilinear_job.system.scalings, surf, 5)
    assert rep.bounds is not None
    assert rep.annotation == "theoretical band available"
    assert rep.applicable

    surf2 = solve_fixed_point(example2a_job.system, 385, tol=1e-4,
                              estimate_bias=False)
    rep2 = dimension_report(example2a_job.grid, example2a_job.system.scalings,
                            surf2, 3)
    assert rep2.bounds is None
    assert "no theoretical band" in rep2.annotation
    assert rep2.lower_bound == 2.0 and rep2.upper_bound == 3.0
