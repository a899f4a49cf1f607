"""Text writers: byte-for-byte the per-element ``format_float`` formula, streamed."""
import numpy as np

from fractsurf.exports import heightmap_csv, xyz_text
from fractsurf.ifs import SurfaceSample
from fractsurf.utils import format_float

EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e22, 1e-5, -1.5, 0.1, 2.0 / 3.0]


def edge_heights(r: int) -> np.ndarray:
    heights = np.random.default_rng(3).normal(size=(r, r))
    heights.ravel()[:len(EDGE_VALUES)] = EDGE_VALUES
    return heights


def test_heightmap_csv_matches_the_per_element_formula():
    r = 5
    axis = np.linspace(0.0, 1.0, r)
    heights = edge_heights(r)
    surface = SurfaceSample(x_samples=axis, y_samples=axis, heights=heights)
    expected = ",".join([str(r), format_float(0.0), format_float(1.0),
                         format_float(0.0), format_float(1.0)]) + "\n"
    for iy in range(r - 1, -1, -1):
        expected += ",".join(format_float(v) for v in heights[:, iy]) + "\n"
    assert "".join(heightmap_csv(surface)) == expected
    assert "-0.0" in expected and "5e-324" in expected and "1e+22" in expected


def test_xyz_text_matches_the_per_element_formula():
    points = edge_heights(6).reshape(-1, 3)
    expected = "".join(f"{format_float(x)} {format_float(y)} {format_float(z)}\n"
                       for x, y, z in points)
    assert "".join(xyz_text(points)) == expected
    assert "1e+16" in expected and "1e-05" in expected
