"""A scaling field's sup found by dense sampling and golden-section polish.

Fields with a closed form are certified without sampling; tests compare
the closed form with this independent estimate.
"""
import numpy as np

from fractsurf.utils import golden_section_min

SAMPLES = 512


def polished_sup(fld):
    """``(sup |s|, argmax)`` from a ``SAMPLES``² grid, refined by three golden-section rounds."""
    x_lo, x_hi, y_lo, y_hi = fld.rect
    xs = np.linspace(x_lo, x_hi, SAMPLES)
    ys = np.linspace(y_lo, y_hi, SAMPLES)
    grid_abs = np.abs(fld(xs[:, None], ys[None, :]))
    ia, ja = np.unravel_index(int(np.argmax(grid_abs)), grid_abs.shape)
    px, py = float(xs[ia]), float(ys[ja])
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    neg_abs = lambda x, y: -abs(float(fld(x, y)))
    best = neg_abs(px, py)
    for _ in range(3):
        px, best = golden_section_min(lambda t: neg_abs(t, py),
                                      max(x_lo, px - hx), min(x_hi, px + hx))
        py, best = golden_section_min(lambda t: neg_abs(px, t),
                                      max(y_lo, py - hy), min(y_hi, py + hy))
    return -best, (px, py)
