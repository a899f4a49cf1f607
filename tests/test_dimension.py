import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractsurf.config import parse_config_document
from fractsurf.dimension import (ColumnExtrema, alignment_base, box_count_points,
                                 box_counts, bounds_from_fields, check_hypotheses,
                                 default_epsilon, dimension_report,
                                 dimension_resolution, estimate_dimension,
                                 natural_scales, theoretical_bounds)
from fractsurf.errors import FractsurfError, ScaleResolutionError
from fractsurf.fixtures import fixture_config
from fractsurf.grid import DataGrid
from fractsurf.ifs import SurfaceSample, solve_fixed_point
from fractsurf.pipeline import build_system, run_pipeline
from fractsurf.utils import format_float


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
    assert b.lower == b.upper


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
        assert box_counts(surf, [delta])[0] == brute_force_count(heights, delta)


def test_box_count_of_a_flat_surface_is_the_grid_count():
    surf = sample_surface(np.full((65, 65), 1.23))
    assert box_counts(surf, [0.25])[0] == 16
    assert box_counts(surf, [0.125])[0] == 64


def test_box_counts_increase_as_scale_shrinks():
    rng = np.random.default_rng(1)
    heights = rng.normal(size=(129, 129))
    counts = box_counts(sample_surface(heights), [0.5, 0.25, 0.125, 0.0625])
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_too_fine_scale_is_rejected():
    surf = sample_surface(np.zeros((17, 17)))
    with pytest.raises(ScaleResolutionError):
        box_counts(surf, [1 / 16])[0]  # only one sample interval per box


def column_extrema(h: np.ndarray, bx: int, wx: int, by: int, wy: int):
    """Reference: inclusive per-column extrema of the whole array at one layout.

    Column (a, b) covers samples [a*wx, (a+1)*wx] x [b*wy, (b+1)*wy], boundary
    samples shared.
    """
    core = h[:-1, :-1].reshape(bx, wx, by, wy)
    right = h[wx::wx, :-1].reshape(bx, by, wy)
    top = h[:-1, wy::wy].reshape(bx, wx, by)
    corner = h[wx::wx, wy::wy]
    col_max = np.maximum.reduce([core.max(axis=(1, 3)), right.max(axis=2),
                                 top.max(axis=1), corner])
    col_min = np.minimum.reduce([core.min(axis=(1, 3)), right.min(axis=2),
                                 top.min(axis=1), corner])
    return col_max, col_min


@st.composite
def nested_scales(draw):
    """Heights on an R x R lattice over [0, 1] x [0, q] and a chain of nested scales.

    The finest layout has ``bx`` boxes along x and ``q * bx`` along y, so
    ``bx != by`` whenever ``q > 1``; every coarser scale merges whole columns.
    Some heights on shared boundary rows and columns are spikes, so a column
    that missed its shared samples would show.
    """
    q = draw(st.integers(1, 3))
    factors = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3))
    bx = draw(st.integers(1, 2)) * math.prod(factors)
    wx = q * draw(st.integers(4, 6))
    resolution = bx * wx + 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        heights = rng.normal(size=(resolution, resolution))
    else:  # many ties
        heights = rng.integers(-2, 3, size=(resolution, resolution)).astype(float)
    wy = wx // q
    for _ in range(draw(st.integers(0, 6))):
        r = wx * int(rng.integers(0, bx + 1))
        c = wy * int(rng.integers(0, q * bx + 1))
        heights[r, int(rng.integers(0, resolution))] = rng.choice([-10.0, 10.0])
        heights[int(rng.integers(0, resolution)), c] = rng.choice([-10.0, 10.0])
    boxes = [bx]
    for f in factors:
        boxes.append(boxes[-1] // f)
    return heights, (1.0, float(q)), [1.0 / b for b in boxes]


@settings(max_examples=60, deadline=None)
@given(nested_scales())
def test_finest_fold_reduces_to_the_extrema_of_every_scale(case):
    heights, spans, deltas = case
    resolution = len(heights)
    fold = ColumnExtrema(resolution, spans, deltas)
    assert len(fold.folded) == 1  # nested scales: only the finest is folded
    fold(0, heights)
    for delta in deltas:
        bx, wx, by, wy = fold.layout(delta)
        col_max, col_min = fold.extrema(delta)
        ref_max, ref_min = column_extrema(heights, bx, wx, by, wy)
        assert np.array_equal(col_max, ref_max) and np.array_equal(col_min, ref_min)
        ref_count = int(np.sum(np.ceil((ref_max - ref_min) / delta - 1e-9)) + bx * by)
        assert fold.count(delta) == ref_count


@settings(max_examples=60, deadline=None)
@given(nested_scales(), st.lists(st.integers(1, 40), min_size=1, max_size=40))
def test_folding_in_row_blocks_of_any_size_equals_one_fold(case, sizes):
    heights, spans, deltas = case
    resolution = len(heights)
    whole = ColumnExtrema(resolution, spans, deltas)
    whole(0, heights)
    blocks = ColumnExtrema(resolution, spans, deltas)
    r0, k = 0, 0
    while r0 < resolution:  # the drawn sizes, cycled; rarely aligned with box rows
        size = sizes[k % len(sizes)]
        blocks(r0, heights[r0:r0 + size])
        r0, k = r0 + size, k + 1
    for layout, (col_max, col_min) in whole.folded.items():
        assert np.array_equal(blocks.folded[layout][0], col_max)
        assert np.array_equal(blocks.folded[layout][1], col_min)


def test_box_counts_fold_unnested_scales_separately():
    # R - 1 = 48: 4 and 6 boxes (12 and 8 intervals) do not nest; 12 boxes refine both
    rng = np.random.default_rng(4)
    heights = np.cumsum(rng.normal(size=(49, 49)), axis=1)
    surf = sample_surface(heights)
    deltas = [1 / 4, 1 / 6]
    fold = ColumnExtrema(49, (1.0, 1.0), deltas)
    assert len(fold.folded) == 2
    assert len(ColumnExtrema(49, (1.0, 1.0), deltas + [1 / 12]).folded) == 1
    assert box_counts(surf, deltas) == [brute_force_count(heights, d) for d in deltas]


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


# Box counts of ``dimension`` on every fixture, recorded before the heights
# were folded into the column extrema in row blocks.
PINNED_COUNTS = {
    "band2x2": [32, 220, 1464, 9852, 66272, 436860, 2789348],
    "bilinear2x2": [12, 49, 198, 794, 3193],
    "example2a": [859, 10635, 153761, 2330410],
    "example2a-explicit": [859, 10635, 153761, 2330410],
    "example2b-sin": [541, 13134, 278735, 5810749],
    "flat2x2": [4, 16, 64, 256, 1024],
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_dimension_counts_are_pinned(name, tmp_path):
    cfg = parse_config_document(fixture_config(name))
    result = run_pipeline(cfg, "dimension", out=str(tmp_path))
    deltas = natural_scales(result.job.grid, cfg.dimension.depth)
    expected = "delta,count\n" + "".join(
        f"{format_float(d)},{c}\n" for d, c in zip(deltas, PINNED_COUNTS[name]))
    assert (tmp_path / f"{name}.counts.csv").read_text(encoding="utf-8") == expected
