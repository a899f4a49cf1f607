"""Small numeric helpers shared by the geometry modules.

Nothing here knows about grids or surfaces: restricted ``(x, y)``
expression compilation, piecewise polynomials in one variable, the
affine change of variable of monomial coefficients, and a scalar
golden-section search.
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npp

_ALLOWED_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "arctan": np.arctan,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "sign": np.sign,
}
_ALLOWED_CONSTS = {"pi": math.pi, "e": math.e}


def compile_xy_expression(expr: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compile an arithmetic expression in ``x`` and ``y`` to a vectorized callable.

    Only arithmetic operators, a small whitelist of numpy functions
    (sin, cos, tan, tanh, exp, log, sqrt, abs, arctan, minimum, maximum,
    sign) and the constants ``pi``/``e`` are accepted.  Anything else is
    rejected with ValueError so config files cannot smuggle arbitrary code.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {expr!r}: {exc}") from None
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id not in ("x", "y") and node.id not in _ALLOWED_FUNCS and node.id not in _ALLOWED_CONSTS:
                raise ValueError(f"name {node.id!r} not allowed in expression {expr!r}")
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ValueError(f"only whitelisted calls allowed in expression {expr!r}")
        elif isinstance(node, (ast.Attribute, ast.Subscript, ast.Lambda)):
            raise ValueError(f"construct not allowed in expression {expr!r}")
    code = compile(tree, "<xy-expression>", "eval")
    env: dict = {"__builtins__": {}}
    env.update(_ALLOWED_FUNCS)
    env.update(_ALLOWED_CONSTS)

    def fn(x, y):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):  # a value that is not finite fails at its witness check
            val = np.asarray(eval(code, env, {"x": xa, "y": ya}), dtype=float)
        shape = np.broadcast_shapes(xa.shape, ya.shape)
        if val.shape != shape:
            val = np.broadcast_to(val, shape).copy()
        return val

    return fn


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial over a strictly increasing knot vector.

    ``coeffs[k]`` holds ascending-order coefficients for the piece on
    ``[knots[k], knots[k+1]]``.  At an interior knot the lower piece wins,
    matching the cell tie-breaking convention used elsewhere.
    """

    knots: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...]
    _knots: np.ndarray = field(init=False, repr=False, compare=False)
    _pieces: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) != len(self.knots) - 1:
            raise ValueError("need exactly one coefficient list per knot interval")
        ks = np.asarray(self.knots, dtype=float)
        if not np.all(np.diff(ks) > 0):
            raise ValueError("piecewise knots must be strictly increasing")
        object.__setattr__(self, "_knots", ks)
        object.__setattr__(self, "_pieces", tuple(np.asarray(c, dtype=float)
                                                  for c in self.coeffs))

    def piece_index(self, t) -> np.ndarray:
        return np.clip(np.searchsorted(self._knots, np.asarray(t, dtype=float), side="left") - 1,
                       0, len(self.coeffs) - 1)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        idx = self.piece_index(arr)
        if arr.ndim == 0:
            return float(npp.polyval(arr, self._pieces[int(idx)]))
        flat, idx = arr.ravel(), idx.ravel()
        out = np.empty_like(flat)
        for k in np.flatnonzero(np.bincount(idx)):  # only the pieces that occur
            mask = idx == k
            out[mask] = npp.polyval(flat[mask], self._pieces[k])
        return out.reshape(arr.shape)

    def junction_gaps(self) -> list[float]:
        """Absolute jumps at interior knots (lower piece end vs upper piece start)."""
        return [abs(float(npp.polyval(t, lo)) - float(npp.polyval(t, hi)))
                for t, lo, hi in zip(self.knots[1:-1], self._pieces, self._pieces[1:])]


def substitution_matrix(lo: float, width: float, size: int) -> np.ndarray:
    """``M[k, j]``: the coefficient of ``t**j`` in ``(lo + width * t)**k``, for k, j < size.

    A polynomial with ascending coefficients ``c`` in ``x`` has the
    coefficients ``M.T @ c`` in ``t = (x - lo) / width``; a table ``c[k, l]``
    in ``(x, y)`` has ``Mx.T @ c @ My``.
    """
    m = np.zeros((size, size))
    for k in range(size):
        for j in range(k + 1):
            m[k, j] = math.comb(k, j) * lo ** (k - j) * width ** j
    return m


_INV_PHI = (math.sqrt(5) - 1) / 2


def golden_section_min(fn: Callable[[float], float], lo: float,
                       hi: float) -> tuple[float, float]:
    """Golden-section minimization of a scalar function on [lo, hi].

    Stops once the bracket is narrower than 1e-12, or after 200 steps.
    Returns (argmin, min).  Also checks the interval endpoints so minima
    on the boundary are not missed.
    """
    a, b = float(lo), float(hi)
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = fn(c), fn(d)
    for _ in range(200):
        if abs(b - a) < 1e-12:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = fn(d)
    candidates = [(fn(lo), lo), (fn(hi), hi), (fc, c), (fd, d)]
    fbest, tbest = min(candidates)
    return tbest, fbest


def format_float(v: float) -> str:
    """Shortest round-trip decimal representation (deterministic exports)."""
    return repr(float(v))
