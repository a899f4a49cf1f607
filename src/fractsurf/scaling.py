"""Vertical scaling fields that vanish on cell edges.

The vertical contraction of each IFS map is a function ``s(x, y)`` on the
image cell, not a constant.  Continuity of the glued attractor needs
``|s| < 1`` on the cell and ``s = 0`` on its four edges, which decouples
neighbouring cells so that any data works.  Both are certified here, the
edges by sampling.

One family has a closed form, the product
``d(psi * (x - x_lo)^a (x - x_hi)^b (y - y_lo)^c (y - y_hi)^e)`` with
exponents >= 1 (integer ones keep the factor's sign, fractional ones act on
its absolute value) and a named Lipschitz outer map ``d`` fixing 0.
``polynomial-product`` spells it in full, psi a constant or an expression
in x and y; ``separable-quartic`` is constant psi, unit exponents and the
identity map.  With constant psi the exact sup and its argmax are the
certificate, and nothing is sampled.  The ``expression`` form (any
vectorized expression with a caller-supplied Lipschitz bound) and products
whose psi is an expression have no closed form: their sup is sampled,
polished and padded by a Lipschitz slack term.
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
ROUNDING_RTOL = 1e-12  # relative rounding a sample may exceed psi_sup's bound by

Rect = tuple[float, float, float, float]


@dataclass(frozen=True)
class OuterMap:
    """Named scalar map d with d(0) = 0, |d| < 1 bounded or benign."""

    name: str
    fn: Callable = field(compare=False, repr=False)
    lipschitz: float
    # sup of |d(t)| over |t| <= t_bound (|d| is even and increasing in |t|)
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

    sup_bound: float              # sound upper bound of sup |s|
    witness: tuple[float, float]  # where |s| is largest, as far as known


@dataclass(frozen=True)
class ScalingField:
    cell: CellIndex
    rect: Rect
    fn: Callable = field(compare=False, repr=False)
    lipschitz: float = 0.0
    closed_form: MagnitudeCertificate | None = None  # the exact sup and its argmax
    form_bound: float | None = None  # sound sup bound of a product with expression psi
    certificate: MagnitudeCertificate | None = None

    def __call__(self, x, y):
        return self.fn(x, y)

    @property
    def sup_bound(self) -> float:
        if self.certificate is None:
            raise FractsurfError("field has not been certified")
        return self.certificate.sup_bound


def _finish(raw: ScalingField) -> ScalingField:
    """Run edge and magnitude certification before handing the field out."""
    edge, where = edge_max(raw)
    if not edge < EDGE_TOL:  # NaN fails too
        raise MagnitudeError(
            f"scaling field on cell ({raw.cell.i},{raw.cell.j}) does not vanish "
            f"on its edges (max |s| = {edge:.3g} sampled on the boundary)",
            witness=where, value=edge)
    return replace(raw, certificate=certify_magnitude(raw))


def build_quartic_field(cell: CellIndex, rect: Rect, psi: float) -> ScalingField:
    """Separable quartic: psi * (x-x_lo)(x-x_hi)(y-y_lo)(y-y_hi).

    The constant-psi product with unit exponents and the identity outer
    map: sup|s| = |psi| * (dx/2)**2 * (dy/2)**2 exactly, at the cell
    midpoint.
    """
    return build_product_field(cell, rect, psi)


def _factor_peak(lo: float, hi: float, a: float, b: float) -> tuple[float, float]:
    """Max of |t-lo|^a * |hi-t|^b over [lo, hi] and its argmax, the midpoint when a == b."""
    width = hi - lo
    if a == b:
        return (width / 2) ** (a + b), (lo + hi) / 2
    return width ** (a + b) * (a ** a * b ** b) / (a + b) ** (a + b), lo + a / (a + b) * width


def build_product_field(cell: CellIndex, rect: Rect, psi,
                        exponents: tuple[float, float, float, float] = (1, 1, 1, 1),
                        outer: str = "identity",
                        psi_lipschitz: float | None = None,
                        psi_sup: float | None = None) -> ScalingField:
    """General vanishing-product form wrapped by a named outer map.

    ``psi`` may be a constant or an expression string in x and y, which
    comes with ``psi_lipschitz`` (and ideally ``psi_sup``).  ``exponents``
    orders the factors (x_lo, x_hi, y_lo, y_hi), each at least
    ``config.PRODUCT_EXPONENT_MIN``; the configuration checks both.

    The x-factor ``u(t) = |t-lo|^a |hi-t|^b`` on a cell of width ``w`` has
    ``|u'| <= max(a, b) * w^(a+b-1)``: on the cell,
    ``|u'| = (t-lo)^(a-1) (hi-t)^(b-1) |a(hi-t) - b(t-lo)|``; both terms of
    the difference are >= 0, so it is at most ``max(a, b) * w`` in absolute
    value, and the prefactor is at most ``w^(a+b-2)``.  With constant psi
    the sup is ``d(|psi| * sup u * sup v)``, attained at the factors'
    peaks, and certifies the field without sampling.
    """
    x_lo, x_hi, y_lo, y_hi = rect
    ax, bx, ay, by = (float(e) for e in exponents)
    omap = OUTER_MAPS[outer]

    if isinstance(psi, str):
        psi_fn = compile_xy_expression(psi)
        psi_lip = float(psi_lipschitz)
        if psi_sup is None:
            psi_sup = _sampled_sup(psi_fn, rect, 256) + psi_lip * _sample_slack(rect, 256)
        psi_sup = float(psi_sup)
    else:
        c = float(psi)
        psi_fn = lambda x, y: c
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

    ux, peak_x = _factor_peak(x_lo, x_hi, ax, bx)
    vy, peak_y = _factor_peak(y_lo, y_hi, ay, by)
    dux = max(ax, bx) * (x_hi - x_lo) ** (ax + bx - 1)
    dvy = max(ay, by) * (y_hi - y_lo) ** (ay + by - 1)
    t_sup = psi_sup * ux * vy
    t_lip = psi_lip * ux * vy + psi_sup * max(dux * vy, ux * dvy)
    sup = omap.bound(t_sup)
    closed = None if isinstance(psi, str) else MagnitudeCertificate(sup, (peak_x, peak_y))
    raw = ScalingField(cell=cell, rect=rect, fn=fn, lipschitz=omap.lipschitz * t_lip,
                       closed_form=closed, form_bound=sup if closed is None else None)
    return _finish(raw)


def build_expression_field(cell: CellIndex, rect: Rect, expr: str,
                           lipschitz: float) -> ScalingField:
    """Free-form field from an expression plus a caller-asserted Lipschitz bound."""
    raw = ScalingField(cell=cell, rect=rect, fn=compile_xy_expression(expr),
                       lipschitz=float(lipschitz))
    return _finish(raw)


def edge_max(fld: ScalingField) -> tuple[float, tuple[float, float]]:
    """Largest |s| sampled on the four cell edges and where (the first NaN, if any)."""
    x_lo, x_hi, y_lo, y_hi = fld.rect
    xs = np.linspace(x_lo, x_hi, EDGE_SAMPLES)
    ys = np.linspace(y_lo, y_hi, EDGE_SAMPLES)
    px = np.concatenate([xs, xs, np.full_like(ys, x_lo), np.full_like(ys, x_hi)])
    py = np.concatenate([np.full_like(xs, y_lo), np.full_like(xs, y_hi), ys, ys])
    vals = np.abs(fld.fn(px, py))
    k = int(np.argmax(vals))  # NaN wins
    return float(vals[k]), (float(px[k]), float(py[k]))


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


def _polish(fn, rect: Rect, start: tuple[float, float],
            spacing: tuple[float, float]) -> tuple[tuple[float, float], float]:
    """Coordinate-wise golden-section refinement of a sampled minimum of fn, three rounds."""
    x_lo, x_hi, y_lo, y_hi = rect
    px, py = start
    hx, hy = spacing
    best = fn(px, py)
    for _ in range(3):
        px, best = golden_section_min(lambda t: fn(t, py),
                                      max(x_lo, px - hx), min(x_hi, px + hx))
        py, best = golden_section_min(lambda t: fn(px, t),
                                      max(y_lo, py - hy), min(y_hi, py + hy))
    return (px, py), best


def _sampled_certificate(fld: ScalingField) -> MagnitudeCertificate:
    """Polished sample sup plus ``lipschitz * (half sample spacing)``, tightened by ``form_bound``.

    A sample above ``form_bound`` (beyond rounding) refutes the ``psi_sup``
    behind it and raises, with the sample as the witness.
    """
    x_lo, x_hi, y_lo, y_hi = fld.rect
    xs = np.linspace(x_lo, x_hi, CERT_SAMPLES)
    ys = np.linspace(y_lo, y_hi, CERT_SAMPLES)
    grid_abs = np.abs(fld.fn(xs[:, None], ys[None, :]))
    ia, ja = np.unravel_index(int(np.argmax(grid_abs)), grid_abs.shape)  # the first NaN, if any
    witness = (float(xs[ia]), float(ys[ja]))
    if np.isnan(grid_abs[ia, ja]):
        return MagnitudeCertificate(math.nan, witness)
    neg_abs = lambda px, py: -abs(float(fld.fn(px, py)))
    witness, neg_best = _polish(neg_abs, fld.rect, witness, (xs[1] - xs[0], ys[1] - ys[0]))
    sup = -neg_best
    bound = sup + fld.lipschitz * _sample_slack(fld.rect, CERT_SAMPLES)
    if fld.form_bound is not None:
        if sup > fld.form_bound * (1 + ROUNDING_RTOL):
            raise MagnitudeError(
                f"scaling field on cell ({fld.cell.i},{fld.cell.j}) reaches |s| = {sup:.9g}, "
                f"above the bound {fld.form_bound:.9g} from its psi_sup: psi_sup is false",
                witness=witness, value=sup)
        bound = min(bound, fld.form_bound)
    return MagnitudeCertificate(bound, witness)


def certify_magnitude(fld: ScalingField) -> MagnitudeCertificate:
    """Certify sup|s| < 1, or raise MagnitudeError with the offending point.

    A field with a closed form is certified by it; any other is sampled on
    a ``CERT_SAMPLES`` grid and polished.  A NaN sample makes the bound NaN,
    which is not below 1: the field fails there.
    """
    cert = fld.closed_form or _sampled_certificate(fld)
    if not cert.sup_bound < 1.0:
        witness = cert.witness
        raise MagnitudeError(
            f"scaling field on cell ({fld.cell.i},{fld.cell.j}) violates |s| < 1: "
            f"certified bound {cert.sup_bound:.9g} at/near ({witness[0]:.9g}, {witness[1]:.9g})",
            witness=witness, value=cert.sup_bound)
    return cert

