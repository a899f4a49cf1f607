import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractsurf.errors import FractsurfError, InvalidGridError, OutOfDomainError
from fractsurf.fixtures import X_KNOTS, Y_KNOTS, Z_ROWS
from fractsurf.grid import (Axis, AxisMap, CellIndex, DataGrid, build_domain_maps,
                            load_grid_text, min_resolution, pullback, sample_axes)

from test_solver_paths import image_chain


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


@pytest.mark.parametrize("x_knots, y_knots", [
    ((0.0, math.nan, 1.0), (0.0, 1.0)),
    ((0.0, 0.5, math.inf), (0.0, 1.0)),
    ((-1e308, 0.0, 1e308), (0.0, 1.0)),  # each knot finite, the span not
    ((0.0, 1.0), (-math.inf, 0.0, 1.0)),
], ids=["nan-knot", "infinite-knot", "infinite-span", "infinite-y-knot"])
def test_grid_rejects_knots_or_spans_that_are_not_finite(x_knots, y_knots):
    with pytest.raises(InvalidGridError, match="must be finite"):
        DataGrid(x_knots, y_knots, np.zeros((len(x_knots), len(y_knots))))


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
        # an image point interior to its cell lies in no other cell's closed
        # rectangle, so the cell it is found in is the cell it was mapped into
        rect = grid.cell_rect(cell)
        if rect[0] < px < rect[1] and rect[2] < py < rect[3]:
            hits = [c for c in grid.cells()
                    if (r := grid.cell_rect(c))[0] <= px <= r[1] and r[2] <= py <= r[3]]
            assert hits == [cell]


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
        AxisMap.build((0.0, 1.0), (0.0, 1.0))


def test_load_grid_text_round_trip(grid):
    text = "x: 0 0.25 0.5 0.75 1\ny: 0 0.3333333333333333 0.6666666666666666 1\n"
    text += "\n".join(" ".join(repr(v) for v in row) for row in Z_ROWS)
    g = load_grid_text(text)
    assert g.n == 4 and g.m == 3
    np.testing.assert_allclose(g.z, grid.z, atol=1e-15)


@pytest.mark.parametrize("text, line", [
    ("x: 0 1\ny: 0 1\nx: 0 0.5 1\n1 2 3\n4 5 6\n", 3),
    ("# heights\ny: 0 1\nx: 0 1\n1 2\ny: 0 0.5 1\n3 4\n", 5)], ids=["x", "y"])
def test_load_grid_text_rejects_a_second_knot_line(text, line):
    axis = text.splitlines()[line - 1][:2]
    with pytest.raises(InvalidGridError, match=f"line {line}: a second '{axis}' knot line"):
        load_grid_text(text)


def blocks(axis) -> list[int]:
    """The sample intervals per cell of an axis."""
    return np.diff(axis.starts).tolist()


def test_sample_axes_put_every_knot_on_a_sample(grid):
    # alignment base 12: x fractions are quarters, y fractions thirds
    ax, ay = sample_axes(grid, 25)
    assert blocks(ax) == [6, 6, 6, 6] and blocks(ay) == [8, 8, 8]
    xs, ys = ax.samples, ay.samples
    assert len(xs) == len(ys) == 25
    assert [xs[6 * k] for k in range(5)] == list(grid.x_knots)
    assert [ys[8 * k] for k in range(4)] == list(grid.y_knots)
    nonuniform = DataGrid((0.0, 0.25, 1.0), (0.0, 0.375, 0.75, 1.0), np.zeros((3, 4)))
    ax, ay = sample_axes(nonuniform, 17)
    assert blocks(ax) == [4, 12] and blocks(ay) == [6, 6, 4]


@pytest.mark.parametrize("resolution, message", [(13, "at least 17"),
                                                 (24, "knot-aligned"),
                                                 (31, "knot-aligned"),
                                                 (2 ** 64 - 1, "above the ceiling"),
                                                 (2 ** 63 + 1, "above the ceiling")])
def test_sample_axes_reject_coarse_or_misaligned_resolutions(grid, resolution, message):
    with pytest.raises(FractsurfError, match=message):
        sample_axes(grid, resolution)


def test_sample_axes_reject_a_knot_without_a_sample_interval():
    # 1e-10 rounds to the fraction 0 of the span, so the alignment base is 2
    # and at R = 9 the blocks would be [0, 8]: the knot gets no sample
    grid = DataGrid((0.0, 1e-10, 1.0), (0.0, 0.5, 1.0), np.zeros((3, 3)))
    with pytest.raises(FractsurfError, match=r"x knot 1e-10 gets no sample interval"):
        sample_axes(grid, 9)


def test_resolution_floor_is_on_the_whole_axis_not_per_cell():
    # 4 * max(n, m) + 1 = 9 samples per axis; the alignment base is 100, and
    # at R = 101 the short first cell gets one sample interval, not four
    grid = DataGrid((0.0, 0.01, 1.0), (0.0, 0.5, 1.0), np.zeros((3, 3)))
    assert min_resolution(grid) == 9
    ax, ay = sample_axes(grid, 101)
    assert blocks(ax) == [1, 99] and blocks(ay) == [50, 50]
    square = DataGrid((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.5, 1.0), np.zeros((5, 3)))
    with pytest.raises(FractsurfError,
                       match=r"need at least 17 \(4 \* max\(n, m\) \+ 1 samples per axis\)"):
        sample_axes(square, 13)


@settings(deadline=None)
@given(st.lists(st.integers(1, 40), min_size=2, max_size=8))
def test_pullback_stays_inside_the_lattice(blocks):
    # every pre-image lies in [0, R - 1]: ix in [0, R - 2] and w in [0, 1], so
    # the bilinear kernel's "clip" takes never clip
    ix, w = pullback(blocks)
    resolution = sum(blocks) + 1
    assert len(ix) == len(w) == resolution
    assert ix.min() >= 0 and ix.max() <= resolution - 2
    assert np.all((0 <= w) & (w <= 1))


@settings(deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.tuples(
           st.just(d), st.sets(st.integers(1, d - 1), min_size=1))),
       st.sampled_from([0.0, -1.0, 1000.0]), st.sampled_from([1.0, 3.0]), st.integers(1, 3))
def test_pullback_is_the_exact_pre_image_of_every_node(knots_over_d, x0, span, multiple):
    # knots at x0 + span * j / d: each cell spans span / k exactly when its
    # j-width divides d, and then every node pulls back onto a node
    d, inner = knots_over_d
    js = [0, *sorted(inner), d]
    knots = [x0 + span * j / d for j in js]
    grid = DataGrid(knots, knots, np.zeros((len(knots), len(knots))))
    base = math.lcm(*(d // math.gcd(j, d) for j in js))
    resolution = base * math.ceil(4 * grid.n / base) * multiple + 1
    axis, _ = sample_axes(grid, resolution)
    xs, ix, w, starts = axis.samples, axis.ix, axis.w, axis.starts
    assert np.array_equal(ix, pullback(blocks(axis))[0])
    maps = build_domain_maps(grid)
    expected, pre = np.empty(resolution), np.empty(resolution)
    for i in range(1, grid.n + 1):  # in order: a knot node takes the later cell
        nodes = slice(starts[i - 1], starts[i] + 1)
        pre[nodes] = maps[CellIndex(i, 1)].axis_x.invert(xs[nodes], tol=1e-9)
        expected[nodes] = (pre[nodes] - x0) * (resolution - 1) / span
    assert float(np.max(np.abs(ix + w - expected))) <= 1e-9
    # the pre-image's coordinate, where the free field is evaluated
    assert float(np.max(np.abs(axis.pre - pre))) <= 1e-9 * span
    assert np.all(ix[starts[1:-1]] == 0) and np.all(w[starts[1:-1]] == 0)
    assert ix[-1] == resolution - 2 and w[-1] == 1
    assert ix.max() <= resolution - 2 and np.all((0 <= w) & (w <= 1))
    on_nodes = bool(np.all((w == 0) | (w == 1)))
    assert on_nodes == all(d % (b - a) == 0 for a, b in zip(js, js[1:]))


@st.composite
def lattice_blocks(draw):
    """Blocks that each divide their sum: one block of N, split into 2 or 3 equal ones."""
    blocks = [draw(st.sampled_from([12, 36, 48, 72, 96, 100]))]
    for _ in range(draw(st.integers(0, 5))):
        k, q = draw(st.integers(0, len(blocks) - 1)), draw(st.sampled_from([2, 3]))
        if blocks[k] % q == 0:
            blocks[k:k + 1] = [blocks[k] // q] * q
    return blocks


@settings(deadline=None)
@given(st.one_of(lattice_blocks(), st.lists(st.integers(1, 40), min_size=1, max_size=8)))
def test_axis_levels_are_the_image_chain_of_its_pullback(blocks):
    # one block is the one-cell axis, whose p permutes every node: level 1 is
    # every node then, and the chain ends there
    starts = np.cumsum([0] + blocks)
    axis = Axis.build(np.linspace(-1.0, 3.0, starts[-1] + 1), starts)
    ix, w = pullback(blocks)
    assert np.array_equal(axis.ix, ix) and np.array_equal(axis.w, w)
    if not np.all((w == 0) | (w == 1)):
        assert axis.p is None and axis.levels == ()
        return
    p, levels = axis.p, axis.levels
    assert np.array_equal(p, ix + w) and np.array_equal(axis.pre, axis.samples[p])
    assert np.array_equal(levels[0], np.arange(len(p)))
    assert np.array_equal(levels[1], np.unique(p))
    for above, below in zip(levels[1:], levels[2:]):
        assert np.array_equal(below, np.unique(p[above])) and len(below) < len(above)
    core = levels[-1]
    assert np.array_equal(np.sort(p[core]), core)  # p permutes the core
    for k in range(len(levels) + 2):  # clamped at the core below it
        nodes = axis.level(k)
        assert np.array_equal(nodes, levels[min(k, len(levels) - 1)])
        assert np.array_equal(axis.level(k + 1)[axis.at(p[nodes], k + 1)], p[nodes])
    chain = image_chain(p)
    if len(chain) == 1:  # p permutes every node, which the reference stops at
        chain.append(chain[0])
    assert len(levels) == len(chain) and all(map(np.array_equal, levels, chain))
