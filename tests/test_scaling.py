import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fractsurf import scaling
from fractsurf.errors import FractsurfError, MagnitudeError
from fractsurf.fixtures import PSI_A, PSI_B, X_KNOTS, Y_KNOTS, Z_ROWS
from fractsurf.grid import CellIndex, DataGrid
from fractsurf.scaling import (EDGE_SAMPLES, OuterMap, build_expression_field,
                               build_product_field, build_quartic_field,
                               certify_magnitude)
from sampling import polished_sup

GRID = DataGrid.from_y_rows(X_KNOTS, Y_KNOTS, Z_ROWS)


def quartic(cell, psi):
    return build_quartic_field(cell, GRID.cell_rect(cell), psi)


def test_quartic_sup_closed_form():
    # width-1/4 x interval and 1/3 y interval: sup = |psi| (1/8)^2 (1/6)^2
    fld = quartic(CellIndex(1, 1), PSI_A[(1, 1)])
    assert fld.certificate.sup_bound == pytest.approx(0.9201388888888888, abs=1e-15)
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
            assert fld.sup_bound < 1.0
            # closed-form and sampled sup agree tightly
            assert abs(fld.sup_bound - polished_sup(fld)[0]) <= 1e-6


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
    assert scaled.sup_bound == pytest.approx(k * base.sup_bound, rel=1e-12)


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
    # the sample finds the plateau's 0.9; the bound pads it by lipschitz * half the spacing
    slack = fld.lipschitz * (0.5 / (scaling.CERT_SAMPLES - 1))
    assert fld.certificate.sup_bound == pytest.approx(0.9 + slack, abs=1e-12)


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


def test_recertification_matches_build_time_certificate():
    fld = quartic(CellIndex(4, 3), PSI_A[(4, 3)])
    assert certify_magnitude(fld) == fld.certificate


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


def _seed_quartic(rect, psi):
    """The separable quartic as it was written before it became a product field."""
    x_lo, x_hi, y_lo, y_hi = rect
    dx, dy = x_hi - x_lo, y_hi - y_lo
    psi = float(psi)

    def fn(x, y):
        return psi * (x - x_lo) * (x - x_hi) * (y - y_lo) * (y - y_hi)

    sup = abs(psi) * (dx / 2) ** 2 * (dy / 2) ** 2
    lip = abs(psi) * max(dx * (dy / 2) ** 2, (dx / 2) ** 2 * dy)
    return fn, sup, lip, ((x_lo + x_hi) / 2, (y_lo + y_hi) / 2)


@given(st.one_of(st.floats(-2.0, 2.0), st.floats(999.0, 1001.0)),
       st.one_of(st.floats(-2.0, 2.0), st.floats(999.0, 1001.0)),
       st.floats(1e-3, 4.0), st.floats(1e-3, 4.0), st.floats(-1.5, 1.5))
def test_constant_psi_product_is_the_quartic_bit_for_bit(x_lo, y_lo, dx, dy, target):
    rect = (x_lo, x_lo + dx, y_lo, y_lo + dy)
    dx, dy = rect[1] - rect[0], rect[3] - rect[2]
    psi = target / ((dx / 2) ** 2 * (dy / 2) ** 2)
    fn, sup, lip, mid = _seed_quartic(rect, psi)
    if not sup < 1.0:
        with pytest.raises(MagnitudeError) as err:
            build_product_field(CellIndex(1, 1), rect, psi)
        assert err.value.value == sup and err.value.witness == mid
        return
    fld = build_product_field(CellIndex(1, 1), rect, psi)
    assert fld.sup_bound == sup and fld.lipschitz == lip and fld.certificate.witness == mid
    xs = np.linspace(rect[0], rect[1], 257)[:, None]
    ys = np.linspace(rect[2], rect[3], 129)[None, :]
    assert fld(xs, ys).tobytes() == fn(xs, ys).tobytes()


def test_closed_form_fields_certify_without_sampling(monkeypatch):
    shapes = []

    def counted(t):
        shapes.append(np.shape(t))
        return np.asarray(t, dtype=float)

    monkeypatch.setitem(scaling.OUTER_MAPS, "identity",
                        OuterMap("identity", counted, 1.0, lambda t_bound: t_bound))
    cell = CellIndex(2, 3)
    fld = quartic(cell, PSI_A[(2, 3)])
    product = build_product_field(cell, GRID.cell_rect(cell), 100.0, exponents=(1, 2, 2, 1))
    assert shapes == [(4 * EDGE_SAMPLES,)] * 2  # the edge checks, nothing else

    def unreachable(x, y):
        raise AssertionError("a closed-form field was sampled")

    for built in (fld, product):
        assert certify_magnitude(replace(built, fn=unreachable)) == built.certificate


def test_product_closed_form_matches_a_sample():
    # unequal exponents move the peak off the midpoint: to lo + a/(a+b) * width
    cell = CellIndex(2, 3)
    rect = GRID.cell_rect(cell)
    fld = build_product_field(cell, rect, -3000.0, exponents=(1, 2, 2, 1), outer="tanh")
    sampled, where = polished_sup(fld)
    assert fld.sup_bound == pytest.approx(sampled, rel=1e-9)
    assert fld.certificate.witness == pytest.approx(where, abs=1e-6)
    xs = np.linspace(rect[0], rect[1], 65)[:, None]
    ys = np.linspace(rect[2], rect[3], 65)[None, :]
    s = fld(xs, ys)
    steps = np.abs(np.diff(s, axis=0)).max() / (xs[1, 0] - xs[0, 0])
    steps = max(steps, np.abs(np.diff(s, axis=1)).max() / (ys[0, 1] - ys[0, 0]))
    assert steps <= fld.lipschitz


def test_a_false_psi_sup_is_refuted_by_the_sample():
    # s = 1000 (1 + x) x (x - 1) y (y - 1) peaks at x = 1/sqrt(3), y = 1/2 with
    # |s| = 96.2, but psi_sup = 1 would bound it by 1/16
    with pytest.raises(MagnitudeError, match="psi_sup") as err:
        build_product_field(CellIndex(1, 1), (0.0, 1.0, 0.0, 1.0), "1000*(1+x)",
                            psi_lipschitz=1000.0, psi_sup=1.0)
    assert err.value.value == pytest.approx(250 * (2 / 3) / math.sqrt(3), rel=1e-9)
    wx, wy = err.value.witness
    assert abs(wx - 1 / math.sqrt(3)) < 1e-6 and abs(wy - 0.5) < 1e-6


def test_an_edge_failure_is_reported_where_it_is_largest():
    # s = x (0.5 - x) y is 0 on three edges and peaks at (0.25, 0.5) on the fourth
    with pytest.raises(MagnitudeError) as err:
        build_expression_field(CellIndex(1, 1), (0.0, 0.5, 0.0, 0.5),
                               "x*(0.5-x)*y + 0*x", 1.0)
    wx, wy = err.value.witness
    spacing = 0.5 / (EDGE_SAMPLES - 1)
    assert abs(wx - 0.25) <= spacing and wy == 0.5
    assert err.value.value == pytest.approx(0.03125, rel=1e-5)
