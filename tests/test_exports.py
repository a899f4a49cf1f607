"""Writers: byte-for-byte the per-element formulas, block by block, and atomic writes."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractsurf import exports
from fractsurf.errors import FractsurfError
from fractsurf.exports import heightmap_csv, heightmap_pgm, write_bytes, xyz_text
from fractsurf.ifs import SurfaceSample, solve_fixed_point
from fractsurf.utils import format_float

from lattice import traced_peak

EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e22, 1e-5, -1.5, 0.1, 2.0 / 3.0]


def edge_heights(r: int, spread: int = 1) -> np.ndarray:
    """Random heights with EDGE_VALUES every ``spread`` values from the start."""
    heights = np.random.default_rng(3).normal(size=(r, r))
    heights.ravel()[:len(EDGE_VALUES) * spread:spread] = EDGE_VALUES
    return heights


# (values per block, spread of the edge values): one block; one row or point
# per block with a ragged last block; several rows or points per block, the
# edge values over several blocks
BLOCKINGS = [(2 ** 15, 1), (1, 1), (7, 5), (20, 3)]


def use_blocking(monkeypatch, block_floats, spread):
    """Format in blocks of ``block_floats`` values."""
    monkeypatch.setattr(exports, "_BLOCK_FLOATS", block_floats)
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
        assert b"".join(heightmap_csv(surface)).decode("ascii") == expected, blocking
        assert "-0.0" in expected and "5e-324" in expected and "1e+22" in expected


def test_xyz_text_matches_the_per_element_formula(monkeypatch):
    for blocking in BLOCKINGS:
        points = edge_heights(9, use_blocking(monkeypatch, *blocking)).reshape(-1, 3)
        expected = "".join(f"{format_float(x)} {format_float(y)} {format_float(z)}\n"
                           for x, y, z in points)
        chunks = list(xyz_text(points))
        assert b"".join(chunks).decode("ascii") == expected, blocking
        assert len(chunks) == -(-len(points) // max(1, blocking[0] // 3)), blocking
        assert "1e+16" in expected and "1e-05" in expected


# where repr's spelling of a float changes form: zeros, the smallest
# subnormal, both sides of 1e-4 and of 1e16, a large power of ten, a value
# with all seventeen digits, and the non-finite values
PINNED = [0.0, -0.0, 5e-324, 1e-4, float(np.nextafter(1e-4, 0)), 1e15, 1e16,
          float(np.nextafter(1e16, 0)), 1e22, 2.0 / 3.0, float("nan"), float("inf"),
          float("-inf")]

# one pinned value per row, next to two plain ones
PINNED_ROWS = np.array([[v, 0.5, -1.25] for v in PINNED])

# values orjson spells differently from repr, spliced in one at a time: in
# the first, middle and last column of a wide row, and a row of nothing else
ODD = [1e-5, float("nan"), float("inf"), float("-inf"), 1e22, 5e-324,
       float(np.nextafter(1e-4, 0)), 1e16, -3e-300]
EDGE_ROWS = np.full((4, len(ODD)), 0.5)
EDGE_ROWS[0, 0], EDGE_ROWS[1, len(ODD) // 2], EDGE_ROWS[2, -1] = ODD[:3]
EDGE_ROWS[3] = ODD


@st.composite
def float64_arrays(draw):
    """2-D arrays of arbitrary float64 bit patterns."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    bits = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=rows * cols,
                         max_size=rows * cols))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)


@settings(max_examples=60, deadline=None)
@given(float64_arrays(), st.sampled_from([1, 7, 2 ** 15]), st.sampled_from([",", " "]))
@example(PINNED_ROWS, 7, ",")
@example(PINNED_ROWS, 2 ** 15, " ")
@example(EDGE_ROWS, 1, ",")
@example(EDGE_ROWS, len(ODD), " ")
@example(EDGE_ROWS, 2 * len(ODD), ",")
@example(EDGE_ROWS, 2 ** 15, " ")
def test_formatting_matches_repr_on_any_float64(values, block_floats, sep):
    # an orjson release that spells a float differently from repr fails here;
    # the heightmap passes a transposed, reversed view, not C-contiguous
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exports, "_BLOCK_FLOATS", block_floats)
        for array in (values, values[:, ::-1].T):
            expected = "".join(sep.join(map(repr, row)) + "\n" for row in array.tolist())
            assert b"".join(exports._formatted(array, sep)).decode("ascii") == expected


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
def test_heightmap_pgm_pixels_match_the_old_formula(heights, monkeypatch):
    surface = SurfaceSample(x_samples=np.linspace(0.0, 1.0, heights.shape[0]),
                            y_samples=np.linspace(0.0, 1.0, heights.shape[1]),
                            heights=heights)
    pixels = old_heightmap_pgm_pixels(heights)
    # image rows of 17 pixels: one row per block (blocks of 1 and of 7
    # values), two rows with a partial last block, and a single block
    for block_floats in (1, 7, 40, 2 ** 15):
        monkeypatch.setattr(exports, "_BLOCK_FLOATS", block_floats)
        blob = b"".join(heightmap_pgm(surface))
        assert blob.endswith(pixels), block_floats
        assert blob[:-len(pixels)].endswith(
            f"\n{heights.shape[0]} {heights.shape[1]}\n65535\n".encode("ascii"))


def test_heightmap_pgm_writes_in_blocks_of_a_fraction_of_the_image(band_job, tmp_path):
    # the scaled image, its 16-bit pixels and their bytes were 1.50 R^2
    # arrays while the whole image was built before writing
    resolution = 513
    surface = solve_fixed_point(band_job.system, resolution, estimate_bias=False)
    _, peak = traced_peak(lambda: write_bytes(tmp_path / "band.pgm", heightmap_pgm(surface)),
                          resolution ** 2)
    assert peak < 0.4


def test_heightmap_csv_holds_each_block_text_once(example2a_solved, tmp_path):
    # a block's text is orjson's bytes copied once and edited in place, joined
    # anew only when a value needs repr's spelling, and a block's arrays go
    # before the next block is formatted (0.41 R^2 arrays measured at R = 769;
    # 0.65 when the text was held three times, as orjson's bytes, their copy
    # and the join, and the last block's arrays lived on)
    surface = example2a_solved.surface
    assert surface.resolution == 769
    write_bytes(tmp_path / "warm.csv", heightmap_csv(surface))  # imports orjson
    _, peak = traced_peak(lambda: write_bytes(tmp_path / "example2a.csv", heightmap_csv(surface)),
                          surface.resolution ** 2)
    assert peak < 0.45


def blocks_then(fault):
    yield b"1,2,3\n"
    raise fault


@pytest.mark.parametrize("fault, raised", [
    (MemoryError(), MemoryError),
    (OSError(28, "No space left on device"), FractsurfError)], ids=["memory", "disk"])
@pytest.mark.parametrize("earlier", [None, b"an earlier artifact\n"], ids=["new", "replaced"])
def test_a_write_that_fails_part_way_leaves_no_partial_file(tmp_path, fault, raised, earlier):
    path = tmp_path / "out" / "surface.heightmap.csv"
    if earlier is not None:
        write_bytes(path, earlier)
    with pytest.raises(raised) as err:
        write_bytes(path, blocks_then(fault))
    if raised is FractsurfError:
        assert str(err.value) == f"cannot write {path}: {fault}"
    assert (path.read_bytes() if path.exists() else None) == earlier
    assert [p.name for p in path.parent.iterdir()] == ([path.name] if earlier else [])
