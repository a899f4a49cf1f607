"""Vertical scaling fields that vanish on cell edges.

The vertical contraction of each IFS map is a function ``s(x, y)`` on the
image cell, not a constant.  Continuity of the glued attractor needs two
properties, both certified here:

* ``|s| < 1`` everywhere on the cell (sup certified analytically for the
  separable product-of-linear-factors form, by dense sampling plus a
  Lipschitz slack term otherwise);
* ``s = 0`` on all four cell edges, which decouples neighbouring cells and
  makes the construction work for arbitrary data.

Three forms are supported:

``separable-quartic``
    ``psi * (x - x_lo)(x - x_hi)(y - y_lo)(y - y_hi)`` with constant psi.
    Sup and Lipschitz constants are exact closed forms.
``polynomial-product``
    ``d(psi(x, y) * |x - x_lo|^a |x - x_hi|^b |y - y_lo|^c |y - y_hi|^e)``
    with a Lipschitz outer map ``d`` fixing 0.  Exponents >= 1 are required
    so the certified Lipschitz bound stays sound; factors with integer
    exponents keep their sign, fractional ones use absolute values.
``expression``
    An arbitrary vectorized expression with a caller-supplied Lipschitz
    bound.  The edge-vanishing property is checked by sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .errors import MagnitudeError, FractsurfError
from .grid import CellIndex
from .utils import compile_xy_expression, golden_section_min

EDGE_TOL = 1e-10
EDGE_SAMPLES = 1024
CERT_SAMPLES = 512
EXTREMA_SAMPLES = 256
# product-field exponents below this make the field non-Lipschitz at the edges
PRODUCT_EXPONENT_MIN = 1

Rect = tuple[float, float, float, float]


@dataclass(frozen=True)
class OuterMap:
    """Named scalar map d with d(0) = 0, |d| < 1 bounded or benign."""

    name: str
    fn: Callable = field(compare=False, repr=False)
    lipschitz: float
    # sound bound for |d(t)| given |t| <= t_bound
    bound: Callable = field(compare=False, repr=False)


OUTER_MAPS: Mapping[str, OuterMap] = {
    "identity": OuterMap("identity", lambda t: np.asarray(t, dtype=float), 1.0,
                         lambda t_bound: t_bound),
    "tanh": OuterMap("tanh", np.tanh, 1.0, lambda t_bound: math.tanh(t_bound)),
    "atan": OuterMap("atan", lambda t: (2 / math.pi) * np.arctan(t), 2 / math.pi,
                     lambda t_bound: (2 / math.pi) * math.atan(t_bound)),
}


@dataclass(frozen=True)
class MagnitudeCertificate:
    """Outcome of the |s| < 1 certification for one field."""

    sup_exact: float | None      # closed-form sup, when the form admits one
    sup_sampled: float           # best |s| found by sampling + local polish
    sup_bound: float             # sound upper bound actually certified
    witness: tuple[float, float]  # where the sampled sup was attained
    slack: float                 # Lipschitz slack added to the sampled sup
    samples: int


@dataclass(frozen=True)
class InteriorExtrema:
    """max/min of |s| over the cell shrunk by epsilon on every side.

    The infimum over the open cell is always 0 for an edge-vanishing field,
    so bounds that need a positive minimum quote the shrunk-cell value and
    set ``boundary_vanishing`` to make the limitation explicit.
    """

    s_max: float
    s_min: float
    epsilon: float
    argmax: tuple[float, float]
    argmin: tuple[float, float]
    boundary_vanishing: bool


@dataclass(frozen=True)
class ScalingField:
    cell: CellIndex
    rect: Rect
    form: str
    params: tuple[tuple[str, object], ...]  # serialized spec, sorted items
    fn: Callable = field(compare=False, repr=False)
    lipschitz: float = 0.0
    analytic_sup: float | None = None
    analytic_argmax: tuple[float, float] | None = None
    form_bound: float | None = None  # extra sound sup bound (outer-map based)
    certificate: MagnitudeCertificate | None = None

    def __call__(self, x, y):
        return self.fn(x, y)

    @property
    def sup_bound(self) -> float:
        if self.certificate is None:
            raise FractsurfError("field has not been certified")
        return self.certificate.sup_bound


def _finish(raw: ScalingField, samples: int = CERT_SAMPLES) -> ScalingField:
    """Run edge and magnitude certification before handing the field out."""
    edge = edge_max(raw)
    if edge >= EDGE_TOL:
        raise MagnitudeError(
            f"scaling field on cell ({raw.cell.i},{raw.cell.j}) does not vanish "
            f"on its edges (max |s| = {edge:.3g} sampled on the boundary)",
            witness=(raw.rect[0], raw.rect[2]), value=edge)
    cert = certify_magnitude(raw, samples=samples)
    return replace(raw, certificate=cert)


def build_quartic_field(cell: CellIndex, rect: Rect, psi: float,
                        samples: int = CERT_SAMPLES) -> ScalingField:
    """Separable quartic: psi * (x-x_lo)(x-x_hi)(y-y_lo)(y-y_hi).

    The 1-D factor |(t-lo)(t-hi)| peaks at the midpoint with value
    (width/2)**2, so sup|s| = |psi| * (dx/2)**2 * (dy/2)**2 exactly, at the
    cell midpoint.
    """
    x_lo, x_hi, y_lo, y_hi = rect
    dx, dy = x_hi - x_lo, y_hi - y_lo
    psi = float(psi)

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return psi * (x - x_lo) * (x - x_hi) * (y - y_lo) * (y - y_hi)

    sup = abs(psi) * (dx / 2) ** 2 * (dy / 2) ** 2
    # |d/dx| <= |psi| * dx * (dy/2)^2 (factor derivative peaks at the ends)
    lip = abs(psi) * max(dx * (dy / 2) ** 2, (dx / 2) ** 2 * dy)
    raw = ScalingField(
        cell=cell, rect=rect, form="separable-quartic",
        params=(("psi", psi),), fn=fn, lipschitz=lip,
        analytic_sup=sup, analytic_argmax=((x_lo + x_hi) / 2, (y_lo + y_hi) / 2))
    return _finish(raw, samples)


def _factor_peak(width: float, a: float, b: float) -> float:
    """Max of |t-lo|^a * |hi-t|^b over [lo, hi] (closed form)."""
    if a == 0 and b == 0:
        return 1.0
    return width ** (a + b) * (a ** a * b ** b) / (a + b) ** (a + b)


def build_product_field(cell: CellIndex, rect: Rect, psi,
                        exponents: tuple[float, float, float, float] = (1, 1, 1, 1),
                        outer: str = "identity",
                        psi_lipschitz: float | None = None,
                        psi_sup: float | None = None,
                        samples: int = CERT_SAMPLES) -> ScalingField:
    """General vanishing-product form wrapped by a named outer map.

    ``psi`` may be a constant or an expression string in x and y; for an
    expression, ``psi_lipschitz`` (and ideally ``psi_sup``) must be given.
    ``exponents`` orders the factors (x_lo, x_hi, y_lo, y_hi).  Exponents
    below 1 would make the field non-Lipschitz at the edges and are
    rejected.
    """
    x_lo, x_hi, y_lo, y_hi = rect
    dx, dy = x_hi - x_lo, y_hi - y_lo
    ax, bx, ay, by = (float(e) for e in exponents)
    if min(ax, bx, ay, by) < PRODUCT_EXPONENT_MIN:
        raise FractsurfError(f"product-field exponents must be >= {PRODUCT_EXPONENT_MIN} "
                             "to keep the Lipschitz certification sound")
    if outer not in OUTER_MAPS:
        raise FractsurfError(f"unknown outer map {outer!r}; options: {sorted(OUTER_MAPS)}")
    omap = OUTER_MAPS[outer]

    if isinstance(psi, str):
        if psi_lipschitz is None:
            raise FractsurfError("expression psi needs an explicit psi_lipschitz bound")
        psi_fn = compile_xy_expression(psi)
        psi_param: object = psi
        psi_lip = float(psi_lipschitz)
        if psi_sup is None:
            psi_sup = _sampled_sup(psi_fn, rect, 256) + psi_lip * _sample_slack(rect, 256)
        psi_sup = float(psi_sup)
    else:
        c = float(psi)
        psi_fn = lambda x, y: np.broadcast_to(
            np.float64(c), np.broadcast_shapes(np.shape(x), np.shape(y))).copy()
        psi_param = c
        psi_lip = 0.0
        psi_sup = abs(c)

    def power(base, expo):
        if float(expo).is_integer():
            return base ** int(expo)
        return np.abs(base) ** expo

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = (psi_fn(x, y)
             * power(x - x_lo, ax) * power(x - x_hi, bx)
             * power(y - y_lo, ay) * power(y - y_hi, by))
        return omap.fn(t)

    ux = _factor_peak(dx, ax, bx)
    vy = _factor_peak(dy, ay, by)
    # d/dx of the x-factor is bounded by (ax+bx) * dx^(ax+bx-1) for exponents >= 1
    dux = (ax + bx) * dx ** (ax + bx - 1)
    dvy = (ay + by) * dy ** (ay + by - 1)
    t_sup = psi_sup * ux * vy
    t_lip = max(psi_lip * ux * vy + psi_sup * dux * vy,
                psi_lip * ux * vy + psi_sup * ux * dvy)
    raw = ScalingField(
        cell=cell, rect=rect, form="polynomial-product",
        params=(("exponents", (ax, bx, ay, by)), ("outer", outer),
                ("psi", psi_param), ("psi_lipschitz", psi_lip), ("psi_sup", psi_sup)),
        fn=fn, lipschitz=omap.lipschitz * t_lip,
        analytic_sup=None, form_bound=omap.bound(t_sup))
    return _finish(raw, samples)


def build_expression_field(cell: CellIndex, rect: Rect, expr: str,
                           lipschitz: float,
                           samples: int = CERT_SAMPLES) -> ScalingField:
    """Free-form field from an expression plus a caller-asserted Lipschitz bound."""
    fn = compile_xy_expression(expr)
    raw = ScalingField(
        cell=cell, rect=rect, form="expression",
        params=(("expr", expr), ("lipschitz", float(lipschitz))),
        fn=fn, lipschitz=float(lipschitz))
    return _finish(raw, samples)


def edge_max(fld: ScalingField, samples_per_edge: int = EDGE_SAMPLES) -> float:
    """Largest |s| sampled on the four cell edges."""
    x_lo, x_hi, y_lo, y_hi = fld.rect
    xs = np.linspace(x_lo, x_hi, samples_per_edge)
    ys = np.linspace(y_lo, y_hi, samples_per_edge)
    vals = [fld.fn(xs, np.full_like(xs, y_lo)), fld.fn(xs, np.full_like(xs, y_hi)),
            fld.fn(np.full_like(ys, x_lo), ys), fld.fn(np.full_like(ys, x_hi), ys)]
    return float(max(np.max(np.abs(v)) for v in vals))


def _sample_slack(rect: Rect, samples: int) -> float:
    """Taxicab distance from any cell point to the nearest sample node."""
    x_lo, x_hi, y_lo, y_hi = rect
    hx = (x_hi - x_lo) / (samples - 1)
    hy = (y_hi - y_lo) / (samples - 1)
    return (hx + hy) / 2


def _sampled_sup(fn, rect: Rect, samples: int) -> float:
    x_lo, x_hi, y_lo, y_hi = rect
    xs = np.linspace(x_lo, x_hi, samples)
    ys = np.linspace(y_lo, y_hi, samples)
    return float(np.max(np.abs(fn(xs[:, None], ys[None, :]))))


def _polish(fn, rect: Rect, start: tuple[float, float], spacing: tuple[float, float],
            rounds: int = 3) -> tuple[tuple[float, float], float]:
    """Coordinate-wise golden-section refinement of a sampled minimum of fn."""
    x_lo, x_hi, y_lo, y_hi = rect
    px, py = start
    hx, hy = spacing
    best = fn(px, py)
    for _ in range(rounds):
        px, best = golden_section_min(lambda t: fn(t, py),
                                      max(x_lo, px - hx), min(x_hi, px + hx))
        py, best = golden_section_min(lambda t: fn(px, t),
                                      max(y_lo, py - hy), min(y_hi, py + hy))
    return (px, py), best


def certify_magnitude(fld: ScalingField, samples: int = CERT_SAMPLES) -> MagnitudeCertificate:
    """Certify sup|s| < 1, or raise MagnitudeError with the offending point.

    The sampled estimate is always computed (dense grid plus golden-section
    polish) so forms with a closed-form sup can be cross-checked against it.
    The certified bound is the closed form when available; otherwise the
    polished sample plus ``lipschitz * (half sample spacing)`` slack,
    tightened by any outer-map bound.
    """
    x_lo, x_hi, y_lo, y_hi = fld.rect
    xs = np.linspace(x_lo, x_hi, samples)
    ys = np.linspace(y_lo, y_hi, samples)
    grid_abs = np.abs(fld.fn(xs[:, None], ys[None, :]))
    flat = int(np.argmax(grid_abs))
    ia, ja = np.unravel_index(flat, grid_abs.shape)
    spacing = (xs[1] - xs[0] if samples > 1 else 0.0,
               ys[1] - ys[0] if samples > 1 else 0.0)
    neg_abs = lambda px, py: -abs(float(fld.fn(px, py)))
    witness, neg_best = _polish(neg_abs, fld.rect, (float(xs[ia]), float(ys[ja])), spacing)
    sup_sampled = -neg_best
    slack = fld.lipschitz * _sample_slack(fld.rect, samples)

    if fld.analytic_sup is not None:
        sup_bound = fld.analytic_sup
        slack = 0.0
        if fld.analytic_argmax is not None and fld.analytic_sup > sup_sampled:
            witness = fld.analytic_argmax
    else:
        sup_bound = sup_sampled + slack
        if fld.form_bound is not None:
            sup_bound = min(sup_bound, fld.form_bound)
    cert = MagnitudeCertificate(
        sup_exact=fld.analytic_sup, sup_sampled=sup_sampled, sup_bound=sup_bound,
        witness=witness, slack=slack, samples=samples)
    if sup_bound >= 1.0:
        raise MagnitudeError(
            f"scaling field on cell ({fld.cell.i},{fld.cell.j}) violates |s| < 1: "
            f"certified bound {sup_bound:.9g} at/near ({witness[0]:.9g}, {witness[1]:.9g})",
            witness=witness, value=sup_bound)
    return cert


def interior_extrema(fld: ScalingField, epsilon: float,
                     samples: int = EXTREMA_SAMPLES) -> InteriorExtrema:
    """Extrema of |s| over the cell shrunk by epsilon on every side.

    Dense sampling plus golden-section polish; for an edge-vanishing field
    the reported minimum tends to 0 as epsilon does, which is what the
    ``boundary_vanishing`` flag records.
    """
    x_lo, x_hi, y_lo, y_hi = fld.rect
    half = min(x_hi - x_lo, y_hi - y_lo) / 2
    if not (0 < epsilon < half):
        raise FractsurfError(f"epsilon must be in (0, {half}); got {epsilon}")
    shrunk = (x_lo + epsilon, x_hi - epsilon, y_lo + epsilon, y_hi - epsilon)
    xs = np.linspace(shrunk[0], shrunk[1], samples)
    ys = np.linspace(shrunk[2], shrunk[3], samples)
    grid_abs = np.abs(fld.fn(xs[:, None], ys[None, :]))
    spacing = (xs[1] - xs[0], ys[1] - ys[0])

    ia, ja = np.unravel_index(int(np.argmax(grid_abs)), grid_abs.shape)
    argmax, neg_max = _polish(lambda px, py: -abs(float(fld.fn(px, py))),
                              shrunk, (float(xs[ia]), float(ys[ja])), spacing)
    ia, ja = np.unravel_index(int(np.argmin(grid_abs)), grid_abs.shape)
    argmin, s_min = _polish(lambda px, py: abs(float(fld.fn(px, py))),
                            shrunk, (float(xs[ia]), float(ys[ja])), spacing)
    return InteriorExtrema(
        s_max=-neg_max, s_min=s_min, epsilon=float(epsilon),
        argmax=argmax, argmin=argmin,
        boundary_vanishing=edge_max(fld) < EDGE_TOL)
