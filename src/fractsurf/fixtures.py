"""Built-in named configurations.

Each fixture is a complete, JSON-serializable configuration document in
the schema of :mod:`fractsurf.config`:

* ``example2a`` — the 5x4-knot demonstration data set with quadratic
  boundary curves, Coons blends, one separable-quartic scaling field per
  cell, and no free field.
* ``example2b-sin`` — the same grid and curves with the alternative psi
  family and the free field g(x, y) = sin(pi^2 x y).
* ``example2a-explicit`` — like ``example2a`` but with the blends given
  as explicit bivariate polynomial tables instead of Coons patches.
* ``flat2x2`` / ``bilinear2x2`` — zero-scaling smooth baselines on a
  uniform 2x2 partition (flat plane / bilinear patchwork).
* ``band2x2`` — a fractal configuration on the uniform 2x2 partition
  whose fields are 0.9 on a plateau and ramp to 0 within 1/64 of the cell
  edges.  Its reported band is [2, 1 + log2(sum of the four certified
  sups)] ~ [2, 2.936]: each sampled certificate pads the plateau's 0.9 by
  its Lipschitz slack.  The spectral radius of the sup-weighted transfer
  matrix on 256 x 256 boxes bounds the dimension above by 2.822, given the
  fields' Lipschitz constants; the box-count estimate is 2.737.

Two deliberately inconsistent variants are also exported for validator
tests: a third piece for the x = 0.75 column curve that fails to
interpolate its data, and a blend table for cell (4, 1) whose edge
restrictions do not match the boundary curves.
"""
from __future__ import annotations

import copy
import math

from .errors import FractsurfError

X_KNOTS = [0.0, 0.25, 0.5, 0.75, 1.0]
Y_KNOTS = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]

# One row per y knot (y ascending), x ascending within each row.
Z_ROWS = [
    [0.3, 1.1, 0.2, 1.5, 2.0],
    [0.3, 2.0, 1.8, 1.5, 2.0],
    [3.0, 2.0, 3.0, 3.3, 3.0],
    [2.0, 3.0, 2.5, 4.0, 4.5],
]

# Column curves q[i] along y at x = X_KNOTS[i]; ascending coefficients
# (c0 + c1*y + c2*y^2) per piece, one piece per y interval.
Q_PIECES = [
    [[0.3, -6.0, 18.0], [1.6, -9.9, 18.0], [-7.0, 27.0, -18.0]],
    [[1.1, 1.2, 4.5], [4.0, -9.0, 9.0], [12.0, -27.0, 18.0]],
    [[0.2, 2.1, 8.1], [2.6, -5.4, 9.0], [-2.0, 13.5, -9.0]],
    [[1.5, -3.0, 9.0], [1.7, -3.6, 9.0], [4.9, -5.4, 4.5]],
    [[2.0, -3.0, 9.0], [5.0, -15.0, 18.0], [6.0, -10.5, 9.0]],
]

# Row curves r[j] along x at y = Y_KNOTS[j].
R_PIECES = [
    [[0.3, 1.6, 6.4], [0.0, 8.4, -16.0], [3.6, -14.8, 16.0], [3.6, -6.4, 4.8]],
    [[0.3, 4.8, 8.0], [0.2, 11.2, -16.0], [-1.2, 10.8, -9.6], [3.6, -6.4, 4.8]],
    [[3.0, 4.0, -32.0], [5.0, -20.0, 32.0], [3.6, -2.8, 3.2], [-7.8, 26.8, -16.0]],
    [[2.0, -4.0, 32.0], [1.5, 10.0, -16.0], [5.5, -14.0, 16.0], [14.5, -26.0, 16.0]],
]

# Per-cell blend tables c[k][l] * x^k * y^l (ascending powers); each table's
# edge restrictions reproduce the four surrounding curves above.
H_TABLES = {
    (1, 1): [[0.3, -6.0, 18.0], [1.6, 27.6, -54.0], [6.4, 4.8, 0.0]],
    (1, 2): [[1.6, -9.9, 18.0], [-2.4, 33.6, -36.0], [48.0, -120.0, 0.0]],
    (1, 3): [[-7.0, 27.0, -18.0], [116.0, -264.0, 144.0], [-160.0, 192.0, 0.0]],
    (2, 1): [[0.0, 0.3, 0.9], [8.4, 3.6, 14.4], [-16.0, 0.0, 0.0]],
    (2, 2): [[-2.6, 5.4, 9.0], [42.4, -93.6, 0.0], [-64.0, 144.0, 0.0]],
    (2, 3): [[42.0, -85.5, 45.0], [-152.0, 270.0, -108.0], [128.0, -144.0, 0.0]],
    (3, 1): [[3.6, -16.5, 6.3], [-14.8, 75.6, 3.6], [16.0, -76.8, 0.0]],
    (3, 2): [[-4.0, 5.4, 9.0], [24.4, -40.8, 0.0], [-22.4, 38.4, 0.0]],
    (3, 3): [[-24.2, 65.7, -36.0], [55.6, -123.6, 54.0], [-22.4, 38.4, 0.0]],
    (4, 1): [[3.6, -3.0, 9.0], [-6.4, 0.0, 0.0], [4.8, 0.0, 0.0]],
    (4, 2): [[11.0, -16.2, -18.0], [-31.6, 63.6, 36.0], [25.6, -62.4, 0.0]],
    (4, 3): [[-58.4, 81.9, -9.0], [144.4, -188.4, 18.0], [-80.0, 96.0, 0.0]],
}

# Per-cell psi constants for the separable-quartic scaling fields; family A
# drives the zero-free-field surface, family B the sin free-field one.
PSI_A = {
    (1, 1): 2120.0, (1, 2): 150.0, (1, 3): 400.0,
    (2, 1): -2111.0, (2, 2): 2300.0, (2, 3): -950.0,
    (3, 1): 333.0, (3, 2): -1903.0, (3, 3): 435.0,
    (4, 1): -2123.0, (4, 2): 666.0, (4, 3): -2119.0,
}
PSI_B = {
    (1, 1): 2119.0, (1, 2): 1580.0, (1, 3): -2111.0,
    (2, 1): 1888.0, (2, 2): 2300.0, (2, 3): -2103.0,
    (3, 1): 1989.0, (3, 2): -1903.0, (3, 3): 2003.0,
    (4, 1): -2123.0, (4, 2): 1673.0, (4, 3): -2118.0,
}

SIN_FREE_FIELD = {
    "expr": "sin(pi**2*x*y)",
    "lipschitz": math.pi ** 2,
    "sup_abs": 1.0,
}

_BAND_RAMP = 0.015625  # 1/64: ramp width of the plateau fields


def _quartic_fields(psi_by_cell) -> list[dict]:
    return [{"cell": [i, j], "form": "separable-quartic", "psi": psi_by_cell[(i, j)]}
            for (i, j) in sorted(psi_by_cell)]


def _example2_config(psi_by_cell, free_field, blend) -> dict:
    return {
        "name": "example2a",
        "grid": {
            "source": "inline",
            "x_knots": list(X_KNOTS),
            "y_knots": list(Y_KNOTS),
            "z_rows": [row[:] for row in Z_ROWS],
        },
        "scaling": {"fields": _quartic_fields(psi_by_cell)},
        "boundary": {
            "method": "quadratic",
            "q": copy.deepcopy(Q_PIECES),
            "r": copy.deepcopy(R_PIECES),
        },
        "blend": blend,
        "free_field": dict(free_field),
        "solver": {"resolution": 769, "tol": 1e-6, "max_iter": 10000},
        "chaos": {"points": 100000, "seed": 2026, "burn_in": 100},
        "dimension": {"depth": 4, "resolution": None},
        "output": {"directory": None, "stem": "example2a"},
    }


def _fixture_example2a() -> dict:
    return _example2_config(PSI_A, {"expr": "0", "lipschitz": 0.0, "sup_abs": 0.0},
                            {"mode": "coons"})


def _fixture_example2b_sin() -> dict:
    cfg = _example2_config(PSI_B, SIN_FREE_FIELD, {"mode": "coons"})
    cfg["name"] = "example2b-sin"
    cfg["output"]["stem"] = "example2b-sin"
    return cfg


def _fixture_example2a_explicit() -> dict:
    cfg = _fixture_example2a()
    cfg["name"] = "example2a-explicit"
    cfg["output"]["stem"] = "example2a-explicit"
    cfg["blend"] = {
        "mode": "explicit",
        "tables": [{"cell": [i, j], "coeffs": copy.deepcopy(H_TABLES[(i, j)])}
                   for (i, j) in sorted(H_TABLES)],
    }
    return cfg


def _square2x2(name: str, z_rows, scaling_fields, solver_resolution: int,
               tol: float, depth: int, dim_resolution) -> dict:
    return {
        "name": name,
        "grid": {
            "source": "inline",
            "x_knots": [0.0, 0.5, 1.0],
            "y_knots": [0.0, 0.5, 1.0],
            "z_rows": [row[:] for row in z_rows],
        },
        "scaling": {"fields": scaling_fields},
        "boundary": {"method": "linear"},
        "blend": {"mode": "coons"},
        "free_field": {"expr": "0", "lipschitz": 0.0, "sup_abs": 0.0},
        "solver": {"resolution": solver_resolution, "tol": tol, "max_iter": 10000},
        "chaos": {"points": 100000, "seed": 2026, "burn_in": 100},
        "dimension": {"depth": depth, "resolution": dim_resolution},
        "output": {"directory": None, "stem": name},
    }


def _fixture_flat2x2() -> dict:
    fields = [{"cell": [i, j], "form": "separable-quartic", "psi": 0.0}
              for i in (1, 2) for j in (1, 2)]
    return _square2x2("flat2x2", [[0.7] * 3] * 3, fields,
                      solver_resolution=257, tol=1e-6, depth=5, dim_resolution=257)


def _fixture_bilinear2x2() -> dict:
    fields = [{"cell": [i, j], "form": "separable-quartic", "psi": 0.0}
              for i in (1, 2) for j in (1, 2)]
    z_rows = [[0.0, 0.2, 0.1], [0.5, 1.0, 0.3], [0.2, 0.4, 0.8]]
    return _square2x2("bilinear2x2", z_rows, fields,
                      solver_resolution=257, tol=1e-6, depth=5, dim_resolution=257)


def _band_expr(x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> str:
    """Plateau field: 0.9 inside, linear ramp of width 1/64 to 0 at edges."""
    edge = (f"minimum(minimum(x-{x_lo!r}, {x_hi!r}-x), "
            f"minimum(y-{y_lo!r}, {y_hi!r}-y))")
    return f"0.9*minimum(1.0, {edge}/{_BAND_RAMP!r})"


def _fixture_band2x2() -> dict:
    knots = [0.0, 0.5, 1.0]
    fields = []
    for i in (1, 2):
        for j in (1, 2):
            expr = _band_expr(knots[i - 1], knots[i], knots[j - 1], knots[j])
            fields.append({"cell": [i, j], "form": "expression", "expr": expr,
                           "lipschitz": 0.9 / _BAND_RAMP})
    z_rows = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    return _square2x2("band2x2", z_rows, fields,
                      solver_resolution=1025, tol=1e-4, depth=7, dim_resolution=4097)


_FIXTURES = {
    "example2a": _fixture_example2a,
    "example2b-sin": _fixture_example2b_sin,
    "example2a-explicit": _fixture_example2a_explicit,
    "flat2x2": _fixture_flat2x2,
    "bilinear2x2": _fixture_bilinear2x2,
    "band2x2": _fixture_band2x2,
}


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


def fixture_config(name: str) -> dict:
    """A fresh copy of the named configuration document."""
    try:
        builder = _FIXTURES[name]
    except KeyError:
        raise FractsurfError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}") from None
    return builder()
