import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fractsurf.errors import FractsurfError, MagnitudeError
from fractsurf.fixtures import PSI_A, PSI_B, X_KNOTS, Y_KNOTS, Z_ROWS
from fractsurf.grid import CellIndex, DataGrid
from fractsurf.scaling import (build_expression_field, build_product_field,
                               build_quartic_field, certify_magnitude,
                               interior_extrema)

GRID = DataGrid.from_y_rows(X_KNOTS, Y_KNOTS, Z_ROWS)


def quartic(cell, psi):
    return build_quartic_field(cell, GRID.cell_rect(cell), psi)


def test_quartic_sup_closed_form():
    # width-1/4 x interval and 1/3 y interval: sup = |psi| (1/8)^2 (1/6)^2
    fld = quartic(CellIndex(1, 1), PSI_A[(1, 1)])
    assert fld.certificate.sup_exact == pytest.approx(0.9201388888888888, abs=1e-15)
    assert fld.certificate.witness == pytest.approx((0.125, 1 / 6), abs=1e-9)


def test_dominant_cell_of_family_a():
    sups = {cell: quartic(CellIndex(*cell), psi).sup_bound
            for cell, psi in PSI_A.items()}
    assert max(sups.values()) == pytest.approx(0.9982638888888888, abs=1e-15)
    assert max(sups, key=sups.get) == (2, 2)


def test_all_fields_of_both_families_certify():
    for family in (PSI_A, PSI_B):
        for cell, psi in family.items():
            fld = quartic(CellIndex(*cell), psi)
            cert = fld.certificate
            assert cert.sup_bound < 1.0
            # closed-form and sampled sup agree tightly
            assert abs(cert.sup_exact - cert.sup_sampled) <= 1e-6


def test_magnitude_violation_carries_witness():
    with pytest.raises(MagnitudeError) as err:
        quartic(CellIndex(2, 2), 2305.0)
    assert err.value.value == pytest.approx(1.0004340277777777, abs=1e-12)
    # witness near the cell midpoint (0.375, 0.5)
    wx, wy = err.value.witness
    assert abs(wx - 0.375) < 1e-3 and abs(wy - 0.5) < 1e-3


def test_fields_vanish_on_cell_edges():
    fld = quartic(CellIndex(3, 2), PSI_A[(3, 2)])
    x0, x1, y0, y1 = GRID.cell_rect(CellIndex(3, 2))
    t = np.linspace(0.0, 1.0, 97)
    for xs, ys in (((x0 + t * (x1 - x0)), np.full_like(t, y0)),
                   ((x0 + t * (x1 - x0)), np.full_like(t, y1)),
                   (np.full_like(t, x0), (y0 + t * (y1 - y0))),
                   (np.full_like(t, x1), (y0 + t * (y1 - y0)))):
        assert np.max(np.abs(fld(xs, ys))) == 0.0


@given(st.floats(1.5, 40.0))
def test_sup_scales_linearly_with_psi(k):
    base = build_quartic_field(CellIndex(1, 1), (0.0, 0.25, 0.0, 1 / 3), 20.0)
    scaled = build_quartic_field(CellIndex(1, 1), (0.0, 0.25, 0.0, 1 / 3), 20.0 * k)
    assert scaled.certificate.sup_exact == pytest.approx(
        k * base.certificate.sup_exact, rel=1e-12)


def test_product_form_reproduces_quartic():
    cell = CellIndex(2, 2)
    rect = GRID.cell_rect(cell)
    q = quartic(cell, PSI_A[(2, 2)])
    p = build_product_field(cell, rect, PSI_A[(2, 2)])
    xs = np.linspace(rect[0], rect[1], 37)[:, None]
    ys = np.linspace(rect[2], rect[3], 41)[None, :]
    np.testing.assert_allclose(p(xs, ys), q(xs, ys), atol=1e-15)
    assert p.certificate.sup_bound == pytest.approx(q.certificate.sup_bound, abs=1e-12)


def test_product_rejects_exponents_below_one():
    cell = CellIndex(1, 1)
    with pytest.raises(FractsurfError):
        build_product_field(cell, GRID.cell_rect(cell), 10.0,
                            exponents=(0.5, 1.0, 1.0, 1.0))


def test_outer_map_squashes_large_psi():
    cell = CellIndex(2, 2)
    rect = GRID.cell_rect(cell)
    # raw product with this psi would exceed 1; tanh keeps it strictly below
    fld = build_product_field(cell, rect, 5000.0, outer="tanh")
    assert fld.certificate.sup_bound < 1.0
    mid = fld(sum(rect[:2]) / 2, sum(rect[2:]) / 2)
    assert 0.9 < abs(float(mid)) < 1.0


def test_expression_field_plateau_extrema():
    rect = (0.0, 0.5, 0.0, 0.5)
    ramp = 0.015625
    expr = (f"0.9*minimum(1.0, minimum(minimum(x-0.0, 0.5-x), "
            f"minimum(y-0.0, 0.5-y))/{ramp!r})")
    fld = build_expression_field(CellIndex(1, 1), rect, expr, lipschitz=0.9 / ramp)
    assert fld.certificate.sup_bound < 1.0
    ex = interior_extrema(fld, epsilon=ramp)
    assert ex.s_max == pytest.approx(0.9, abs=1e-12)
    assert ex.s_min == pytest.approx(0.9, abs=1e-12)
    assert ex.boundary_vanishing
    # shrinking less than the ramp width exposes the linear descent to 0
    narrow = interior_extrema(fld, epsilon=ramp / 4)
    assert narrow.s_min == pytest.approx(0.225, abs=1e-9)


def test_expression_field_must_vanish_on_edges():
    with pytest.raises(MagnitudeError):
        build_expression_field(CellIndex(1, 1), (0.0, 0.5, 0.0, 0.5),
                               "0.5 + 0*x*y", lipschitz=0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_on_one_edge_fails_the_edge_check():
    # NaN on the disk of radius 0.1 around (0.5, 0.25): on the edge x = 0.5, the
    # last of the four edges sampled, and on no corner
    with pytest.raises(MagnitudeError, match="does not vanish on its edges"):
        build_expression_field(CellIndex(1, 1), (0.0, 0.5, 0.0, 0.5),
                               "x*(0.5-x)*y*(0.5-y) + 0*sqrt((x-0.5)**2 + (y-0.25)**2 - 0.01)",
                               lipschitz=1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_inside_the_cell_fails_at_a_nan_sample():
    # NaN on the disk of radius 0.1 around the midpoint, 0 on the edges
    with pytest.raises(MagnitudeError) as err:
        build_expression_field(CellIndex(1, 1), (0.0, 0.5, 0.0, 0.5),
                               "x*(0.5-x)*y*(0.5-y) + 0*sqrt((x-0.25)**2 + (y-0.25)**2 - 0.01)",
                               lipschitz=1.0)
    assert math.isnan(err.value.value)
    wx, wy = err.value.witness
    assert math.hypot(wx - 0.25, wy - 0.25) < 0.1


def test_interior_extrema_quartic_midpoint():
    fld = quartic(CellIndex(2, 2), PSI_A[(2, 2)])
    ex = interior_extrema(fld, epsilon=1e-3)
    assert ex.s_max == pytest.approx(fld.certificate.sup_exact, rel=1e-6)
    assert ex.s_min < 0.1  # near the edges (minus epsilon) the field is tiny


def test_recertification_matches_build_time_certificate():
    fld = quartic(CellIndex(4, 3), PSI_A[(4, 3)])
    again = certify_magnitude(fld)
    assert again.sup_bound == fld.certificate.sup_bound
    assert again.sup_exact == fld.certificate.sup_exact


def test_psi_expression_product_field():
    cell = CellIndex(1, 2)
    rect = GRID.cell_rect(cell)
    fld = build_product_field(cell, rect, "100*(1+x*y)", psi_lipschitz=100 * math.sqrt(2),
                              psi_sup=200.0)
    assert fld.certificate.sup_bound < 1.0
    x = 0.1
    y = 0.4
    x0, x1, y0, y1 = rect
    expected = 100 * (1 + x * y) * (x - x0) * (x1 - x) * (y - y0) * (y1 - y)
    assert float(fld(x, y)) == pytest.approx(expected, rel=1e-12)
