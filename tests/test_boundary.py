import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from fractsurf.boundary import (EDGE_MATCH_TOL, build_boundary_curves,
                                build_coons_blend, build_free_field, build_Q,
                                load_explicit_blend)
from fractsurf.errors import (BlendValidationError, CurveValidationError,
                              FractsurfError)
from fractsurf.fixtures import H_TABLES, Q_PIECES, R_PIECES, X_KNOTS, Y_KNOTS, Z_ROWS
from fractsurf.grid import CellIndex, DataGrid, build_domain_maps
from fractsurf.scaling import build_quartic_field

GRID = DataGrid.from_y_rows(X_KNOTS, Y_KNOTS, Z_ROWS)
# a third piece for q[3] that misses its data column (the valid piece differs
# in the sign of the quadratic coefficient)
Q3_VARIANT_REJECTED = [4.9, -5.4, -4.5]
# the (1, 3) table offered for cell (4, 1): its edge restrictions do not match
# the curves around that cell
H41_VARIANT_REJECTED = [row[:] for row in H_TABLES[(1, 3)]]
# example2a's knots moved away from the origin, where native coordinates
# lose digits: with its own heights and linear curves, and with the heights
# of one bilinear polynomial (exact native coefficients, a small twist), so
# that its native table is every cell's explicit blend
SHIFT = 1000.0
SHIFTED_X = [x + SHIFT for x in X_KNOTS]
SHIFTED_Y = [y + SHIFT for y in Y_KNOTS]
SHIFTED_GRID = DataGrid.from_y_rows(SHIFTED_X, SHIFTED_Y, Z_ROWS)
# 0.5 + 2 (x - 1000) - 3 (y - 1000) + (x - 1000) (y - 1000) / 128, expanded
PLANE_TABLE = [[8813.0, -10.8125], [-5.8125, 0.0078125]]
PLANE_GRID = DataGrid(tuple(SHIFTED_X), tuple(SHIFTED_Y),
                      npp.polyval2d(*np.meshgrid(SHIFTED_X, SHIFTED_Y, indexing="ij"),
                                    PLANE_TABLE))


@pytest.fixture(scope="module")
def network():
    return build_boundary_curves(GRID, method="quadratic",
                                 q_coeffs=Q_PIECES, r_coeffs=R_PIECES)


def grid_and_curves(case, network):
    """(grid, curve network, explicit table per cell or None) for one named input."""
    if case == "quadratic":
        return GRID, network, {CellIndex(*c): t for c, t in H_TABLES.items()}
    if case == "linear":
        return GRID, build_boundary_curves(GRID, method="linear"), None
    if case == "shifted":
        return SHIFTED_GRID, build_boundary_curves(SHIFTED_GRID, method="linear"), None
    return (PLANE_GRID, build_boundary_curves(PLANE_GRID, method="linear"),
            {cell: PLANE_TABLE for cell in PLANE_GRID.cells()})


def test_quadratic_network_has_all_curves(network):
    assert len(network.q) == 5
    assert len(network.r) == 4


def test_curves_interpolate_the_data(network):
    for i, curve in enumerate(network.q):
        for j, y in enumerate(Y_KNOTS):
            assert float(curve(y)) == pytest.approx(GRID.z[i, j], abs=1e-12)
    for j, curve in enumerate(network.r):
        for i, x in enumerate(X_KNOTS):
            assert float(curve(x)) == pytest.approx(GRID.z[i, j], abs=1e-12)


def test_curves_are_continuous_at_junctions(network):
    for curve in list(network.q) + list(network.r):
        assert max(curve.junction_gaps(), default=0.0) < 1e-12


def test_curve_call_is_its_pieces_pointwise(network):
    # an array call evaluates only the pieces that occur in it; each point must
    # get exactly what a scalar call and its own piece's Horner pass give, the
    # lower piece at an interior knot and the end pieces outside the knots
    for curve in network.q + network.r:
        ts = np.concatenate([np.linspace(curve.knots[0] - 0.1, curve.knots[-1] + 0.1, 41),
                             curve.knots])
        values = curve(ts[:, None])
        assert values.shape == (ts.size, 1)
        for t, v in zip(ts, values[:, 0]):
            k = min(max(int(np.searchsorted(curve.knots, t)) - 1, 0), len(curve.coeffs) - 1)
            assert v == curve(float(t)) == npp.polyval(t, curve.coeffs[k])


def test_linear_method_interpolates_any_grid():
    net = build_boundary_curves(GRID, method="linear")
    for i, curve in enumerate(net.q):
        for j, y in enumerate(Y_KNOTS):
            assert float(curve(y)) == pytest.approx(GRID.z[i, j], abs=1e-12)


def test_non_interpolating_piece_is_rejected_with_details():
    bad_q = [list(c) for c in Q_PIECES]
    bad_q[3] = [bad_q[3][0], bad_q[3][1], Q3_VARIANT_REJECTED]
    with pytest.raises(CurveValidationError) as err:
        build_boundary_curves(GRID, method="quadratic",
                              q_coeffs=bad_q, r_coeffs=R_PIECES)
    message = str(err.value)
    assert "q[3]" in message          # which curve
    assert "-5.0" in message          # what the curve gives
    assert "4.0" in message           # what the data says


def test_junction_discontinuity_is_rejected():
    bad_q = [list(c) for c in Q_PIECES]
    # middle piece hits its right data point (3.0 at y=2/3) but jumps away
    # from the lower piece's value 0.3 at the shared knot y=1/3
    bad_q[0] = [bad_q[0][0], [3.0, 0.0, 0.0], bad_q[0][2]]
    with pytest.raises(CurveValidationError):
        build_boundary_curves(GRID, method="quadratic",
                              q_coeffs=bad_q, r_coeffs=R_PIECES)


def assert_tensor_call_is_pointwise(blend, xs, ys):
    tensor = blend(xs[:, None], ys[None, :])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    assert np.array_equal(tensor, blend(gx, gy))
    assert tensor[3, 5] == blend(xs[3], ys[5])


def assert_edges_reproduce_the_curves(grid, curves, blend, atol):
    cell = blend.cell
    x0, x1, y0, y1 = grid.cell_rect(cell)
    z_ll, z_hl, z_lh, z_hh = grid.corner_values(cell)
    assert float(blend(x0, y0)) == pytest.approx(z_ll, abs=atol)
    assert float(blend(x1, y0)) == pytest.approx(z_hl, abs=atol)
    assert float(blend(x0, y1)) == pytest.approx(z_lh, abs=atol)
    assert float(blend(x1, y1)) == pytest.approx(z_hh, abs=atol)
    t = np.linspace(0.0, 1.0, 257)
    ys = y0 + t * (y1 - y0)
    xs = x0 + t * (x1 - x0)
    assert np.max(np.abs(blend(np.full_like(ys, x0), ys) - curves.q[cell.i - 1](ys))) < atol
    assert np.max(np.abs(blend(np.full_like(ys, x1), ys) - curves.q[cell.i](ys))) < atol
    assert np.max(np.abs(blend(xs, np.full_like(xs, y0)) - curves.r[cell.j - 1](xs))) < atol
    assert np.max(np.abs(blend(xs, np.full_like(xs, y1)) - curves.r[cell.j](xs))) < atol


def test_coons_blend_matches_corners_and_edges(network):
    for case in ("quadratic", "shifted", "plane"):
        grid, curves, _ = grid_and_curves(case, network)
        for cell in grid.cells():
            blend = build_coons_blend(grid, curves, cell)
            assert_edges_reproduce_the_curves(grid, curves, blend, 1e-12)
            x0, x1, y0, y1 = grid.cell_rect(cell)
            assert_tensor_call_is_pointwise(blend, np.linspace(x0, x1, 33),
                                            np.linspace(y0, y1, 29))


def test_explicit_tables_reproduce_the_transfinite_blend(network):
    for case in ("quadratic", "plane"):
        grid, curves, tables = grid_and_curves(case, network)
        for cell, coeffs in tables.items():
            explicit = load_explicit_blend(grid, curves, cell, coeffs)
            coons = build_coons_blend(grid, curves, cell)
            x0, x1, y0, y1 = grid.cell_rect(cell)
            xs = np.linspace(x0, x1, 33)
            ys = np.linspace(y0, y1, 29)
            np.testing.assert_allclose(explicit(xs[:, None], ys[None, :]),
                                       coons(xs[:, None], ys[None, :]), atol=1e-11)
            assert_edges_reproduce_the_curves(grid, curves, explicit, EDGE_MATCH_TOL)
            assert_tensor_call_is_pointwise(explicit, xs, ys)


def test_mismatched_explicit_table_is_rejected(network):
    with pytest.raises(BlendValidationError) as err:
        load_explicit_blend(GRID, network, CellIndex(4, 1), H41_VARIANT_REJECTED)
    assert "(4,1)" in str(err.value).replace(" ", "")


def test_blend_lipschitz_bound_dominates_finite_differences(network):
    for case, explicit in (("quadratic", False), ("quadratic", True), ("linear", False),
                           ("shifted", False), ("plane", True)):
        grid, curves, tables = grid_and_curves(case, network)
        for cell in grid.cells():
            if explicit:
                blend = load_explicit_blend(grid, curves, cell, tables[cell])
            else:
                blend = build_coons_blend(grid, curves, cell)
            bound = blend.lipschitz_bound()
            x0, x1, y0, y1 = grid.cell_rect(cell)
            xs = np.linspace(x0, x1, 101)
            ys = np.linspace(y0, y1, 101)
            vals = blend(xs[:, None], ys[None, :])
            gx = np.max(np.abs(np.diff(vals, axis=0))) / (xs[1] - xs[0])
            gy = np.max(np.abs(np.diff(vals, axis=1))) / (ys[1] - ys[0])
            assert max(gx, gy) <= bound + 1e-9


def test_free_field_compilation_and_sup():
    g = build_free_field((0.0, 1.0, 0.0, 1.0), "sin(pi**2*x*y)",
                         lipschitz=np.pi ** 2, sup_abs=1.0)
    assert float(g(0.5, 0.5)) == pytest.approx(np.sin(np.pi ** 2 * 0.25), abs=1e-15)
    assert g.sup_abs == 1.0
    zero = build_free_field((0.0, 1.0, 0.0, 1.0), "0", 0.0, sup_abs=0.0)
    assert zero.lipschitz == 0.0 and zero.sup_abs == 0.0


def test_free_field_rejects_unknown_names():
    with pytest.raises(ValueError):
        build_free_field((0.0, 1.0, 0.0, 1.0), "__import__('os')", lipschitz=0.0)


def test_q_field_combines_blend_scaling_and_free_term(network):
    maps = build_domain_maps(GRID)
    cell = CellIndex(2, 2)
    scaling = build_quartic_field(cell, GRID.cell_rect(cell), 2300.0)
    blend = build_coons_blend(GRID, network, cell)
    free = build_free_field(GRID.rect, "sin(pi**2*x*y)", lipschitz=np.pi ** 2,
                            sup_abs=1.0)
    q = build_Q(maps[cell], scaling, free, blend)
    x, y = 0.3, 0.7
    lx, ly = maps[cell].axis_x(x), maps[cell].axis_y(y)
    expected = -float(scaling(lx, ly)) * float(free(x, y)) + float(blend(lx, ly))
    assert float(q(x, y)) == pytest.approx(expected, abs=1e-13)
    assert q.lipschitz > 0


def test_q_field_rejects_cell_mismatch(network):
    maps = build_domain_maps(GRID)
    scaling = build_quartic_field(CellIndex(1, 1), GRID.cell_rect(CellIndex(1, 1)), 100.0)
    blend = build_coons_blend(GRID, network, CellIndex(1, 1))
    with pytest.raises(FractsurfError):
        build_Q(maps[CellIndex(2, 1)], scaling,
                build_free_field(GRID.rect, "0", 0.0, sup_abs=0.0), blend)
