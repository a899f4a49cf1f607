import numpy as np
import pytest
from hypothesis import given, strategies as st

from fractsurf.errors import FractsurfError, InvalidGridError, OutOfDomainError
from fractsurf.fixtures import X_KNOTS, Y_KNOTS, Z_ROWS
from fractsurf.grid import (AxisMap, CellIndex, DataGrid, build_domain_maps,
                            load_grid_text, locate_cell, sample_axes)


@pytest.fixture(scope="module")
def grid():
    return DataGrid.from_y_rows(X_KNOTS, Y_KNOTS, Z_ROWS)


@pytest.fixture(scope="module")
def maps(grid):
    return build_domain_maps(grid)


def test_grid_shape(grid):
    assert grid.n == 4 and grid.m == 3
    assert grid.z.shape == (5, 4)
    # z is x-major: z[i, j] = height at (x_knots[i], y_knots[j])
    assert grid.z[0, 3] == 2.0
    assert grid.z[4, 0] == 2.0


def test_grid_rejects_non_increasing_knots():
    with pytest.raises(InvalidGridError):
        DataGrid.from_y_rows([0.0, 0.5, 0.5, 1.0], [0.0, 1.0],
                             [[0.0] * 4, [0.0] * 4])


def test_grid_rejects_shape_mismatch():
    with pytest.raises(InvalidGridError):
        DataGrid.from_y_rows([0.0, 1.0], [0.0, 0.5, 1.0], [[0.0, 1.0], [2.0, 3.0]])


def test_single_cell_grid_has_no_contractive_maps():
    g = DataGrid.from_y_rows([0.0, 1.0], [0.0, 1.0], [[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(InvalidGridError):
        build_domain_maps(g)


def test_domain_maps_cover_all_cells(grid, maps):
    assert set(maps) == set(grid.cells())
    assert len(maps) == 12


def test_first_column_map_is_quarter_scale(grid, maps):
    m = maps[CellIndex(1, 1)]
    # x part: x -> x/4, y part: y -> y/3
    for x in (0.0, 0.25, 1.0):
        assert m.axis_x(x) == pytest.approx(x / 4, abs=1e-15)
    for y in (0.0, 0.5, 1.0):
        assert m.axis_y(y) == pytest.approx(y / 3, abs=1e-15)


def test_maps_send_domain_corners_onto_cell_corners(grid, maps):
    x0, x1, y0, y1 = grid.rect
    for cell, m in maps.items():
        cx0, cx1, cy0, cy1 = grid.cell_rect(cell)
        images = {(m.axis_x(x), m.axis_y(y)) for x in (x0, x1) for y in (y0, y1)}
        expected = {(cx0, cy0), (cx0, cy1), (cx1, cy0), (cx1, cy1)}
        for img in images:
            assert min(abs(img[0] - e[0]) + abs(img[1] - e[1]) for e in expected) < 1e-12


def test_contraction_factors(grid, maps):
    for cell, m in maps.items():
        assert m.contraction == pytest.approx(max(1 / 4, 1 / 3))
        assert abs(m.axis_x.scale) < 1
        assert abs(m.axis_y.scale) < 1


def test_locate_cell_examples(grid):
    assert locate_cell(grid, (0.3, 0.5)) == CellIndex(2, 2)
    assert locate_cell(grid, (0.0, 0.0)) == CellIndex(1, 1)
    # shared edges resolve to the lower-index cell
    assert locate_cell(grid, (0.25, 0.5)) == CellIndex(1, 2)
    with pytest.raises(OutOfDomainError):
        locate_cell(grid, (1.5, 0.0))


def test_invert_map_example(grid, maps):
    x, y = maps[CellIndex(2, 1)].invert((0.375, 1 / 6))
    assert (x, y) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_invert_rejects_points_off_image(grid, maps):
    with pytest.raises(OutOfDomainError):
        maps[CellIndex(1, 1)].invert((0.9, 0.9))


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_locate_after_mapping_recovers_cell(x, y):
    grid = DataGrid.from_y_rows(X_KNOTS, Y_KNOTS, Z_ROWS)
    maps = build_domain_maps(grid)
    for cell, m in maps.items():
        px, py = m.axis_x(x), m.axis_y(y)
        found = locate_cell(grid, (px, py))
        # interior points must land in the defining cell; edge points may
        # resolve to the lower neighbour by the tie-break rule
        rect = grid.cell_rect(cell)
        if rect[0] < px < rect[1] and rect[2] < py < rect[3]:
            assert found == cell


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_invert_round_trip(x, y):
    grid = DataGrid.from_y_rows(X_KNOTS, Y_KNOTS, Z_ROWS)
    maps = build_domain_maps(grid)
    for m in maps.values():
        px, py = m.axis_x(x), m.axis_y(y)
        rx, ry = m.invert((px, py))
        assert abs(rx - x) < 1e-12 and abs(ry - y) < 1e-12


def test_axis_map_rejects_expansion():
    with pytest.raises(InvalidGridError):
        AxisMap.build((0.0, 1.0), (0.0, 1.0), orientation=1)


def test_orientation_reversing_axis_map():
    m = AxisMap.build((0.0, 1.0), (0.25, 0.5), orientation=-1)
    assert m(0.0) == pytest.approx(0.5)
    assert m(1.0) == pytest.approx(0.25)
    assert abs(m.scale) == pytest.approx(0.25)


def test_load_grid_text_round_trip(grid):
    text = "x: 0 0.25 0.5 0.75 1\ny: 0 0.3333333333333333 0.6666666666666666 1\n"
    text += "\n".join(" ".join(repr(v) for v in row) for row in Z_ROWS)
    g = load_grid_text(text)
    assert g.n == 4 and g.m == 3
    np.testing.assert_allclose(g.z, grid.z, atol=1e-15)


def test_sample_axes_put_every_knot_on_a_sample(grid):
    # alignment base 12: x fractions are quarters, y fractions thirds
    (xs, x_blocks), (ys, y_blocks) = sample_axes(grid, 25)
    assert x_blocks == [6, 6, 6, 6] and y_blocks == [8, 8, 8]
    assert len(xs) == len(ys) == 25
    assert [xs[6 * k] for k in range(5)] == list(grid.x_knots)
    assert [ys[8 * k] for k in range(4)] == list(grid.y_knots)
    nonuniform = DataGrid((0.0, 0.25, 1.0), (0.0, 0.375, 0.75, 1.0), np.zeros((3, 4)))
    (_, x_blocks), (_, y_blocks) = sample_axes(nonuniform, 17)
    assert x_blocks == [4, 12] and y_blocks == [6, 6, 4]


@pytest.mark.parametrize("resolution, message", [(13, "at least 17"),
                                                 (24, "knot-aligned"),
                                                 (31, "knot-aligned"),
                                                 (2 ** 64 - 1, "above the ceiling"),
                                                 (2 ** 63 + 1, "above the ceiling")])
def test_sample_axes_reject_coarse_or_misaligned_resolutions(grid, resolution, message):
    with pytest.raises(FractsurfError, match=message):
        sample_axes(grid, resolution)
