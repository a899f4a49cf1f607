"""The correctness gate counts a failure for each fault it is meant to catch."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fractsurf import fixture_config, parse_config_document
from fractsurf.pipeline import apply_overrides
from gate import Gate, Op, parse_heightmap

ROOT = Path(__file__).resolve().parents[2]
RESOLUTION = 97  # knot-aligned for example2a and quick to solve


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One real CLI run of example2a at a small resolution."""
    out = tmp_path_factory.mktemp("cli") / "op0"
    proc = subprocess.run(
        [sys.executable, "-m", "fractsurf.cli", "surface", "--fixture", "example2a",
         "--resolution", str(RESOLUTION), "--out", str(out)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cfg = apply_overrides(parse_config_document(fixture_config("example2a")),
                          resolution=RESOLUTION)
    return cfg, Op(out, proc.returncode, proc.stdout)


def _copy(op: Op, tmp_path: Path, name: str) -> Op:
    out = tmp_path / name
    shutil.copytree(op.out_dir, out)
    return Op(out, op.status, op.stdout)


def test_clean_repeats_pass(solved, tmp_path):
    cfg, op = solved
    ops = [_copy(op, tmp_path, "a"), _copy(op, tmp_path, "b")]
    Gate(cfg, "surface").check(ops)
    assert [o.failures for o in ops] == [[], []]


def test_perturbed_height_fails(solved, tmp_path):
    cfg, op = solved
    bad = _copy(op, tmp_path, "bad")
    path = bad.out_dir / "example2a.heightmap.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    ix, iy = 13, 17  # an interior node of cell (1, 1), not a knot
    row = lines[RESOLUTION - iy].split(",")
    row[ix] = repr(float(row[ix]) + 10 * cfg.solver.tol)
    lines[RESOLUTION - iy] = ",".join(row)
    path.write_text("\n".join(lines), encoding="utf-8")
    assert parse_heightmap(path.read_text(encoding="utf-8"))[1][ix, iy] != \
        parse_heightmap((op.out_dir / path.name).read_text(encoding="utf-8"))[1][ix, iy]

    Gate(cfg, "surface").check([bad])
    assert len(bad.failures) == 1
    assert bad.failures[0].startswith("operator residual")


def test_differing_repeat_fails(solved, tmp_path):
    cfg, op = solved
    first, second = _copy(op, tmp_path, "a"), _copy(op, tmp_path, "b")
    cloud = second.out_dir / "example2a.xyz"
    cloud.write_bytes(cloud.read_bytes() + b"0 0 0\n")
    Gate(cfg, "surface").check([first, second])
    assert first.failures == []
    assert second.failures == ["artifacts differ from the first repeat: ['example2a.xyz']"]


def test_failed_exit_and_missing_artifacts(solved, tmp_path):
    cfg, op = solved
    crashed = Op(tmp_path / "none", 2, "")
    partial = _copy(op, tmp_path, "partial")
    (partial.out_dir / "example2a.pgm").unlink()
    truncated = _copy(op, tmp_path, "truncated")
    heightmap = truncated.out_dir / "example2a.heightmap.csv"
    heightmap.write_text(heightmap.read_text(encoding="utf-8")[:1000], encoding="utf-8")
    Gate(cfg, "surface").check([crashed, partial, truncated])
    assert crashed.failures == ["exit status 2"]
    assert partial.failures == ["missing artifacts: pgm"]
    assert truncated.failures[-1].startswith("heightmap does not parse")


def test_dimension_outside_band_fails(tmp_path):
    cfg = parse_config_document(fixture_config("band2x2"))
    ops = []
    for name, estimate in (("inside", "2.75"), ("outside", "2.6")):
        out = tmp_path / name
        out.mkdir()
        (out / "band2x2.counts.csv").write_text("delta,count\n", encoding="utf-8")
        (out / "band2x2.dimension.txt").write_text(
            f"estimate={estimate}\nlower_bound=2.8\nupper_bound=2.9\n", encoding="utf-8")
        ops.append(Op(out, 0, ""))
    Gate(cfg, "dimension").check(ops)
    assert ops[0].failures == []
    assert ops[1].failures[0] == "artifacts differ from the first repeat: ['band2x2.dimension.txt']"
    assert ops[1].failures[1].startswith("dimension estimate 2.6 outside")
