"""End-to-end command-line behaviour: ``main`` run in process, and as a module."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractsurf.config import parse_config_document, serialize_config
from fractsurf.fixtures import X_KNOTS, Y_KNOTS, Z_ROWS, fixture_config
from cli_runner import run

ROOT = Path(__file__).resolve().parents[1]


def test_help_lists_all_commands():
    result = run("--help")
    assert result.exit_code == 0
    for command in ("validate", "build", "surface", "dimension", "report"):
        assert command in result.output


def test_validate_fixture():
    result = run("validate", "--fixture", "flat2x2")
    assert result.exit_code == 0
    assert "'flat2x2': valid" in result.output
    assert "fields certified" in result.output
    assert "admissible" in result.output


def test_validate_config_file_matches_fixture(tmp_path):
    cfg = parse_config_document(fixture_config("flat2x2"))
    path = tmp_path / "job.json"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    via_file = run("validate", "--config", str(path))
    via_name = run("validate", "--fixture", "flat2x2")
    assert via_file.exit_code == via_name.exit_code == 0
    assert via_file.output == via_name.output


def test_config_and_fixture_are_mutually_exclusive(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(serialize_config(parse_config_document(fixture_config("flat2x2"))),
                    encoding="utf-8")
    neither = run("validate")
    both = run("validate", "--config", str(path), "--fixture", "flat2x2")
    assert neither.exit_code == 2
    assert both.exit_code == 2
    assert "exactly one of --config or --fixture" in neither.output + neither.stderr
    assert "exactly one of --config or --fixture" in both.output + both.stderr


def test_unknown_fixture_is_rejected_by_the_option():
    result = run("validate", "--fixture", "nonesuch")
    assert result.exit_code == 2
    assert "nonesuch" in result.output + result.stderr


@pytest.mark.parametrize("args, option", [
    (["--seed", "-1"], "--seed"),
    (["--seed", str(2 ** 64)], "--seed"),
    (["--resolution", "4"], "--resolution"),
    (["--tol", "0"], "--tol"),
    (["--config", "{tmp}/missing.json"], "--config"),
    (["--config", "{tmp}"], "--config"),
    (["--out", "{tmp}/job.json"], "--out"),
    ([], "command"),
], ids=["seed-negative", "seed-2^64", "resolution-4", "tol-0", "config-missing",
        "config-directory", "out-file", "no-command"])
def test_usage_errors_exit_two_and_name_their_option(tmp_path, args, option):
    (tmp_path / "job.json").write_text("{}", encoding="utf-8")
    args = [a.format(tmp=tmp_path) for a in args]
    if args:  # a command, with a job unless the option under test names one
        args = ["validate"] + ([] if option == "--config" else ["--fixture", "flat2x2"]) + args
    result = run(*args)
    assert result.exit_code == 2
    assert option in result.stderr


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_version_runs_from_a_checkout(tmp_path):
    result = subprocess.run([sys.executable, "-m", "fractsurf.cli", "--version"],
                            env=_src_env(), cwd=tmp_path, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "fractsurf 0.1.0"


def test_build_writes_certificate(tmp_path):
    result = run("build", "--fixture", "flat2x2", "--out", str(tmp_path))
    assert result.exit_code == 0
    text = (tmp_path / "flat2x2.certificate.txt").read_text(encoding="utf-8")
    assert "c_s=0" in text
    assert "theta_max=inf" in text


def test_surface_writes_heightmap_image_and_cloud(tmp_path):
    result = run("surface", "--fixture", "flat2x2",
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


def test_same_seed_is_byte_identical_and_new_seed_moves_points(tmp_path):
    out_a, out_b, out_c = (tmp_path / k for k in "abc")
    run("surface", "--fixture", "bilinear2x2", "--out", str(out_a),
        "--resolution", "17", "--seed", "7")
    run("surface", "--fixture", "bilinear2x2", "--out", str(out_b),
        "--resolution", "17", "--seed", "7")
    run("surface", "--fixture", "bilinear2x2", "--out", str(out_c),
        "--resolution", "17", "--seed", "8")
    name = "bilinear2x2.xyz"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (out_a / name).read_bytes() != (out_c / name).read_bytes()
    heightmap = "bilinear2x2.heightmap.csv"
    assert (out_a / heightmap).read_bytes() == (out_c / heightmap).read_bytes()


def test_dimension_writes_counts_and_report(tmp_path):
    result = run("dimension", "--fixture", "flat2x2", "--out", str(tmp_path))
    assert result.exit_code == 0
    counts = (tmp_path / "flat2x2.counts.csv").read_text(encoding="utf-8")
    assert counts.splitlines()[0] == "delta,count"
    assert len(counts.splitlines()) == 1 + 5
    report = (tmp_path / "flat2x2.dimension.txt").read_text(encoding="utf-8")
    assert "estimate=2" in report
    assert "applicable=" in report


# (command, modules it must not import, modules it must import): orjson costs
# about 15 ms at import, which only the large text writers may pay; nothing
# forks a process, and the parser is the standard library's
TEXT_WRITER_IMPORTS = [("dimension", ("orjson", "click"), ()),
                       ("validate", ("orjson", "click"), ()),
                       ("surface", ("multiprocessing", "concurrent", "click"), ("orjson",))]


@pytest.mark.parametrize("command, absent, present", TEXT_WRITER_IMPORTS,
                         ids=[c[0] for c in TEXT_WRITER_IMPORTS])
def test_text_writer_imports(tmp_path, command, absent, present):
    args = [command, "--fixture", "flat2x2"]
    if command != "validate":
        args += ["--out", str(tmp_path)]
    if command == "surface":
        args += ["--resolution", "17"]
    code = ("import sys\n"
            "from fractsurf.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(sorted({m.split('.')[0] for m in sys.modules}))\n")
    result = subprocess.run([sys.executable, "-c", code, *args], env=_src_env(),
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    modules = set(ast.literal_eval(result.stdout.splitlines()[-1]))
    assert not modules & set(absent)
    assert set(present) <= modules
    assert command == "validate" or any(tmp_path.glob("flat2x2.*"))


def test_report_writes_every_artifact(tmp_path):
    result = run("report", "--fixture", "flat2x2",
                 "--out", str(tmp_path), "--resolution", "17")
    assert result.exit_code == 0
    for suffix in (".certificate.txt", ".heightmap.csv", ".pgm", ".xyz",
                   ".counts.csv", ".dimension.txt", ".config.json", ".summary.txt"):
        assert (tmp_path / f"flat2x2{suffix}").exists(), suffix
    saved = json.loads((tmp_path / "flat2x2.config.json").read_text(encoding="utf-8"))
    assert saved["name"] == "flat2x2"
    summary = (tmp_path / "flat2x2.summary.txt").read_text(encoding="utf-8")
    assert "elapsed" not in summary     # on-disk outputs stay deterministic


def test_magnitude_violation_exits_two_with_witness(tmp_path):
    doc = fixture_config("example2a")
    doc["scaling"]["fields"][0]["psi"] = 2305.0
    path = tmp_path / "too_steep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run("validate", "--config", str(path))
    assert result.exit_code == 2
    err = result.output + result.stderr
    assert "magnitude violation" in err
    assert "witness" in err


def _run_config(tmp_path, doc, command="validate"):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run(command, "--config", str(path), "--out", str(tmp_path))


@pytest.mark.parametrize("command", ["validate", "surface"])
def test_a_false_psi_sup_exits_two_with_witness(tmp_path, command):
    # |1000 (1 + x)| reaches 1500 on the unit square, not the asserted 1
    doc = fixture_config("flat2x2")
    for fld in doc["scaling"]["fields"]:
        fld.update(form="polynomial-product", psi="1000*(1+x)", psi_lipschitz=1000.0,
                   psi_sup=1.0)
    result = _run_config(tmp_path, doc, command)
    assert result.exit_code == 2
    err = result.output + result.stderr
    assert "magnitude violation: scaling field on cell (1,1)" in err
    assert "psi_sup" in err and "witness" in err


def test_a_false_lipschitz_bound_fails_the_metric_check(tmp_path):
    # the ramps of band2x2 climb 0.9 in 1/64: a Lipschitz bound of 0 is false
    doc = fixture_config("band2x2")
    for fld in doc["scaling"]["fields"]:
        fld["lipschitz"] = 0.0
    result = _run_config(tmp_path, doc)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    err = result.output + result.stderr
    assert "is not a contraction for the admissible theta" in err
    assert "3-D map of cell (" in err and "at the pair (" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_scaling_field_exits_two_with_witness(tmp_path):
    # cell (1,1) is NaN on a disk of radius 0.1 around its midpoint, 0 on its edges
    doc = fixture_config("band2x2")
    doc["scaling"]["fields"][0]["expr"] += " + 0*sqrt((x-0.25)**2 + (y-0.25)**2 - 0.01)"
    result = _run_config(tmp_path, doc)
    assert result.exit_code == 2
    err = result.output + result.stderr
    assert "magnitude violation: scaling field on cell (1,1)" in err
    assert "witness" in err and "value nan" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sup_abs, message", [
    (None, "free field 'sqrt(x - 2)' is not finite"),
    (0.0, "is not a number at"),
], ids=["sampled-sup", "given-sup"])
def test_nan_free_field_exits_one(tmp_path, sup_abs, message):
    doc = fixture_config("band2x2")
    doc["free_field"] = {"expr": "sqrt(x - 2)", "lipschitz": 0.0, "sup_abs": sup_abs}
    result = _run_config(tmp_path, doc)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # reported, not a traceback
    assert message in result.output + result.stderr


def test_invalid_config_file_exits_one(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run("validate", "--config", str(path))
    assert result.exit_code == 1
    assert "not valid JSON" in result.output + result.stderr


def test_misaligned_resolution_override_exits_one(tmp_path):
    # every command checks the override against the grid, validate included
    for command, fixture, resolution in (("surface", "flat2x2", "18"),
                                         ("validate", "example2a", "100")):
        result = run(command, "--fixture", fixture,
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
def test_grid_rule_violations_exit_one_with_their_path(tmp_path, make_doc, path):
    config = tmp_path / "job.json"
    config.write_text(json.dumps(make_doc(tmp_path)), encoding="utf-8")
    for command in ("validate", "dimension"):
        result = run(command, "--config", str(config), "--out", str(tmp_path))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # reported, not a traceback
        err = result.output + result.stderr
        assert "error: invalid configuration" in err
        assert f"  {path}: " in err
