"""Writers: byte-for-byte the per-element formulas, in-process or through the pool."""
import multiprocessing
import os

import numpy as np
import pytest

from fractsurf import exports
from fractsurf.errors import FractsurfError
from fractsurf.exports import heightmap_csv, heightmap_pgm, xyz_text
from fractsurf.ifs import SurfaceSample
from fractsurf.utils import format_float

EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e22, 1e-5, -1.5, 0.1, 2.0 / 3.0]


def edge_heights(r: int, spread: int = 1) -> np.ndarray:
    """Random heights with EDGE_VALUES every ``spread`` values from the start."""
    heights = np.random.default_rng(3).normal(size=(r, r))
    heights.ravel()[:len(EDGE_VALUES) * spread:spread] = EDGE_VALUES
    return heights


# (values per block, usable CPUs, spread of the edge values): one block; one
# row or point per block with a ragged last block; several rows or points per
# block, the edge values over several blocks, in-process and through the pool
BLOCKINGS = [(2 ** 15, 1, 1), (2 ** 15, 2, 1), (1, 2, 1), (7, 2, 5), (7, 1, 5),
             (20, 2, 3)]


def use_blocking(monkeypatch, block_floats, cpus, spread):
    """Format in blocks of ``block_floats`` values as if ``cpus`` were usable."""
    monkeypatch.setattr(exports, "_BLOCK_FLOATS", block_floats)
    monkeypatch.setattr(exports, "_usable_cpus", lambda: cpus)
    return spread


def test_heightmap_csv_matches_the_per_element_formula(monkeypatch):
    r = 9
    axis = np.linspace(0.0, 1.0, r)
    for blocking in BLOCKINGS:
        heights = edge_heights(r, use_blocking(monkeypatch, *blocking))
        surface = SurfaceSample(x_samples=axis, y_samples=axis, heights=heights)
        expected = ",".join([str(r), format_float(0.0), format_float(1.0),
                             format_float(0.0), format_float(1.0)]) + "\n"
        for iy in range(r - 1, -1, -1):
            expected += ",".join(format_float(v) for v in heights[:, iy]) + "\n"
        assert "".join(heightmap_csv(surface)) == expected, blocking
        assert "-0.0" in expected and "5e-324" in expected and "1e+22" in expected


def test_xyz_text_matches_the_per_element_formula(monkeypatch):
    for blocking in BLOCKINGS:
        points = edge_heights(9, use_blocking(monkeypatch, *blocking)).reshape(-1, 3)
        expected = "".join(f"{format_float(x)} {format_float(y)} {format_float(z)}\n"
                           for x, y, z in points)
        assert "".join(xyz_text(points)) == expected, blocking
        assert "1e+16" in expected and "1e-05" in expected


def _fail_on_a_negative_first_value(rows):
    if rows[0, 0] < 0:
        raise ValueError(f"negative first value {float(rows[0, 0])!r}")
    return exports._format_rows(rows)


def _die_in_a_worker(rows):
    if multiprocessing.parent_process() is None:
        raise RuntimeError("expected to run in a pool worker")
    os._exit(1)


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(exports, "_BLOCK_FLOATS", 4)
    monkeypatch.setattr(exports, "_usable_cpus", lambda: 2)


def test_the_pool_leaves_no_worker_behind(two_workers):
    rows = np.arange(40.0).reshape(10, 4)
    text = list(exports._formatted(exports._format_rows, rows, "rows"))
    assert len(text) == 10 and multiprocessing.active_children() == []

    halfway = exports._formatted(exports._format_rows, rows, "rows")
    assert [next(halfway) for _ in range(5)] == text[:5]
    halfway.close()
    assert multiprocessing.active_children() == []

    rows[6, 0] = -1.0
    with pytest.raises(ValueError, match="negative first value -1.0"):
        list(exports._formatted(_fail_on_a_negative_first_value, rows, "rows"))
    assert multiprocessing.active_children() == []


def test_a_dead_worker_fails_the_write_with_the_artifact_name(two_workers):
    rows = np.arange(40.0).reshape(10, 4)
    with pytest.raises(FractsurfError, match="test rows"):
        list(exports._formatted(_die_in_a_worker, rows, "test rows"))
    assert multiprocessing.active_children() == []


def old_heightmap_pgm_pixels(z: np.ndarray) -> bytes:
    lo, hi = float(z.min()), float(z.max())
    span = hi - lo
    if span > 0:
        gray = np.rint((z - lo) / span * 65535.0).astype(np.uint16)
    else:
        gray = np.zeros(z.shape, dtype=np.uint16)
    return gray.T[::-1].astype(">u2").tobytes()


@pytest.mark.parametrize("heights", [np.random.default_rng(5).normal(size=(17, 33)),
                                     np.full((17, 33), 0.7)], ids=["random", "flat"])
def test_heightmap_pgm_pixels_match_the_old_formula(heights):
    surface = SurfaceSample(x_samples=np.linspace(0.0, 1.0, heights.shape[0]),
                            y_samples=np.linspace(0.0, 1.0, heights.shape[1]),
                            heights=heights)
    blob = heightmap_pgm(surface)
    pixels = old_heightmap_pgm_pixels(heights)
    assert blob.endswith(pixels)
    assert blob[:-len(pixels)].endswith(
        f"\n{heights.shape[0]} {heights.shape[1]}\n65535\n".encode("ascii"))
