"""End-to-end command-line behaviour via click's test runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from fractsurf.cli import main
from fractsurf.config import parse_config_document, serialize_config
from fractsurf.fixtures import X_KNOTS, Y_KNOTS, Z_ROWS, fixture_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args))


def test_help_lists_all_commands(runner):
    result = run(runner, "--help")
    assert result.exit_code == 0
    for command in ("validate", "build", "surface", "dimension", "report"):
        assert command in result.output


def test_validate_fixture(runner):
    result = run(runner, "validate", "--fixture", "flat2x2")
    assert result.exit_code == 0
    assert "'flat2x2': valid" in result.output
    assert "fields certified" in result.output
    assert "admissible" in result.output


def test_validate_config_file_matches_fixture(runner, tmp_path):
    cfg = parse_config_document(fixture_config("flat2x2"))
    path = tmp_path / "job.json"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    via_file = run(runner, "validate", "--config", str(path))
    via_name = run(runner, "validate", "--fixture", "flat2x2")
    assert via_file.exit_code == via_name.exit_code == 0
    assert via_file.output == via_name.output


def test_config_and_fixture_are_mutually_exclusive(runner, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(serialize_config(parse_config_document(fixture_config("flat2x2"))),
                    encoding="utf-8")
    neither = run(runner, "validate")
    both = run(runner, "validate", "--config", str(path), "--fixture", "flat2x2")
    assert neither.exit_code == 2
    assert both.exit_code == 2
    assert "exactly one of --config or --fixture" in neither.output + neither.stderr
    assert "exactly one of --config or --fixture" in both.output + both.stderr


def test_unknown_fixture_is_rejected_by_the_option(runner):
    result = run(runner, "validate", "--fixture", "nonesuch")
    assert result.exit_code == 2
    assert "nonesuch" in result.output + result.stderr


def test_build_writes_certificate(runner, tmp_path):
    result = run(runner, "build", "--fixture", "flat2x2", "--out", str(tmp_path))
    assert result.exit_code == 0
    text = (tmp_path / "flat2x2.certificate.txt").read_text(encoding="utf-8")
    assert "c_s=0" in text
    assert "theta_max=inf" in text


def test_surface_writes_heightmap_image_and_cloud(runner, tmp_path):
    result = run(runner, "surface", "--fixture", "flat2x2",
                 "--out", str(tmp_path), "--resolution", "17")
    assert result.exit_code == 0
    csv_text = (tmp_path / "flat2x2.heightmap.csv").read_text(encoding="utf-8")
    header = csv_text.splitlines()[0]
    assert header.split(",")[0] == "17"
    rows = csv_text.splitlines()[1:]
    assert len(rows) == 17
    assert all(len(row.split(",")) == 17 for row in rows)
    pgm = (tmp_path / "flat2x2.pgm").read_bytes()
    assert pgm.startswith(b"P5")
    xyz = (tmp_path / "flat2x2.xyz").read_text(encoding="utf-8")
    assert len(xyz.splitlines()) == 100000


def test_same_seed_is_byte_identical_and_new_seed_moves_points(runner, tmp_path):
    out_a, out_b, out_c = (tmp_path / k for k in "abc")
    run(runner, "surface", "--fixture", "bilinear2x2", "--out", str(out_a),
        "--resolution", "17", "--seed", "7")
    run(runner, "surface", "--fixture", "bilinear2x2", "--out", str(out_b),
        "--resolution", "17", "--seed", "7")
    run(runner, "surface", "--fixture", "bilinear2x2", "--out", str(out_c),
        "--resolution", "17", "--seed", "8")
    name = "bilinear2x2.xyz"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (out_a / name).read_bytes() != (out_c / name).read_bytes()
    heightmap = "bilinear2x2.heightmap.csv"
    assert (out_a / heightmap).read_bytes() == (out_c / heightmap).read_bytes()


def test_dimension_writes_counts_and_report(runner, tmp_path):
    result = run(runner, "dimension", "--fixture", "flat2x2", "--out", str(tmp_path))
    assert result.exit_code == 0
    counts = (tmp_path / "flat2x2.counts.csv").read_text(encoding="utf-8")
    assert counts.splitlines()[0] == "delta,count"
    assert len(counts.splitlines()) == 1 + 5
    report = (tmp_path / "flat2x2.dimension.txt").read_text(encoding="utf-8")
    assert "estimate=2" in report
    assert "applicable=" in report


def test_dimension_never_imports_the_formatting_pool(tmp_path):
    # the pool's modules cost about 30 ms and 1 MB at import; only the large
    # text writers may pay that
    code = ("import sys\n"
            "from fractsurf.cli import main\n"
            "try:\n"
            "    main(['dimension', '--fixture', 'flat2x2', '--out', sys.argv[1]])\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "flat2x2.counts.csv").exists()


def test_report_writes_every_artifact(runner, tmp_path):
    result = run(runner, "report", "--fixture", "flat2x2",
                 "--out", str(tmp_path), "--resolution", "17")
    assert result.exit_code == 0
    for suffix in (".certificate.txt", ".heightmap.csv", ".pgm", ".xyz",
                   ".counts.csv", ".dimension.txt", ".config.json", ".summary.txt"):
        assert (tmp_path / f"flat2x2{suffix}").exists(), suffix
    saved = json.loads((tmp_path / "flat2x2.config.json").read_text(encoding="utf-8"))
    assert saved["name"] == "flat2x2"
    summary = (tmp_path / "flat2x2.summary.txt").read_text(encoding="utf-8")
    assert "elapsed" not in summary     # on-disk outputs stay deterministic


def test_magnitude_violation_exits_two_with_witness(runner, tmp_path):
    doc = fixture_config("example2a")
    doc["scaling"]["fields"][0]["psi"] = 2305.0
    path = tmp_path / "too_steep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run(runner, "validate", "--config", str(path))
    assert result.exit_code == 2
    err = result.output + result.stderr
    assert "magnitude violation" in err
    assert "witness" in err


def _run_config(runner, tmp_path, doc, command="validate"):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run(runner, command, "--config", str(path), "--out", str(tmp_path))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_scaling_field_exits_two_with_witness(runner, tmp_path):
    # cell (1,1) is NaN on a disk of radius 0.1 around its midpoint, 0 on its edges
    doc = fixture_config("band2x2")
    doc["scaling"]["fields"][0]["expr"] += " + 0*sqrt((x-0.25)**2 + (y-0.25)**2 - 0.01)"
    result = _run_config(runner, tmp_path, doc)
    assert result.exit_code == 2
    err = result.output + result.stderr
    assert "magnitude violation: scaling field on cell (1,1)" in err
    assert "witness" in err and "value nan" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sup_abs, message", [
    (None, "free field 'sqrt(x - 2)' is not finite"),
    (0.0, "is not a number at"),
], ids=["sampled-sup", "given-sup"])
def test_nan_free_field_exits_one(runner, tmp_path, sup_abs, message):
    doc = fixture_config("band2x2")
    doc["free_field"] = {"expr": "sqrt(x - 2)", "lipschitz": 0.0, "sup_abs": sup_abs}
    result = _run_config(runner, tmp_path, doc)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # reported, not a traceback
    assert message in result.output + result.stderr


def test_invalid_config_file_exits_one(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run(runner, "validate", "--config", str(path))
    assert result.exit_code == 1
    assert "not valid JSON" in result.output + result.stderr


def test_misaligned_resolution_override_exits_one(runner, tmp_path):
    # every command checks the override against the grid, validate included
    for command, fixture, resolution in (("surface", "flat2x2", "18"),
                                         ("validate", "example2a", "100")):
        result = run(runner, command, "--fixture", fixture,
                     "--out", str(tmp_path), "--resolution", resolution)
        assert result.exit_code == 1
        err = result.output + result.stderr
        assert "error: invalid configuration" in err
        assert "solver.resolution" in err
        assert "knot-aligned" in err


def _example2a_on_a_file_grid(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("x: " + " ".join(map(repr, X_KNOTS)) + "\n"
                    + "y: " + " ".join(map(repr, Y_KNOTS)) + "\n"
                    + "".join(" ".join(map(repr, row)) + "\n" for row in Z_ROWS),
                    encoding="utf-8")
    doc = fixture_config("example2a")
    doc["grid"] = {"source": "file", "path": str(grid)}
    return doc


def _file_grid_missing_cell(tmp_path):
    doc = _example2a_on_a_file_grid(tmp_path)
    doc["scaling"]["fields"].pop()  # cell [4, 3]
    return doc


def _file_grid_short_curve(tmp_path):
    doc = _example2a_on_a_file_grid(tmp_path)
    doc["boundary"]["r"][0].pop()
    return doc


def _file_grid_missing_file(tmp_path):
    doc = _example2a_on_a_file_grid(tmp_path)
    doc["grid"]["path"] = str(tmp_path / "no-such-grid.txt")
    return doc


def _file_grid_short_row(tmp_path):
    doc = _example2a_on_a_file_grid(tmp_path)
    grid = tmp_path / "grid.txt"
    lines = grid.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0]  # last height row one value short
    grid.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return doc


def _file_grid_bad_knot(tmp_path):
    doc = _example2a_on_a_file_grid(tmp_path)
    grid = tmp_path / "grid.txt"
    text = grid.read_text(encoding="utf-8")
    grid.write_text(text.replace("x: ", "x: zero ", 1), encoding="utf-8")
    return doc


def _dimension_below_floor(tmp_path):
    doc = fixture_config("flat2x2")
    doc["dimension"]["resolution"] = 5
    return doc


def _dimension_too_coarse_for_depth(tmp_path):
    doc = fixture_config("flat2x2")  # 2^5 boxes per axis at depth 5: 2 intervals each at 65
    doc["dimension"].update(resolution=65, depth=5)
    return doc


@pytest.mark.parametrize("make_doc, path", [
    (_file_grid_missing_cell, "scaling.fields"),
    (_file_grid_short_curve, "boundary.r[0]"),
    (_file_grid_missing_file, "grid.path"),
    (_file_grid_short_row, "grid"),
    (_file_grid_bad_knot, "grid"),
    (_dimension_below_floor, "dimension.resolution"),
    (_dimension_too_coarse_for_depth, "dimension.resolution"),
], ids=["file-grid-missing-cell", "file-grid-short-curve", "file-grid-missing-file",
        "file-grid-short-row", "file-grid-bad-knot", "dimension-below-floor",
        "dimension-too-coarse-for-depth"])
def test_grid_rule_violations_exit_one_with_their_path(runner, tmp_path, make_doc, path):
    config = tmp_path / "job.json"
    config.write_text(json.dumps(make_doc(tmp_path)), encoding="utf-8")
    for command in ("validate", "dimension"):
        result = run(runner, command, "--config", str(config), "--out", str(tmp_path))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # reported, not a traceback
        err = result.output + result.stderr
        assert "error: invalid configuration" in err
        assert f"  {path}: " in err
