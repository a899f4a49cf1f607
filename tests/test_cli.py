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
from test_ifs import nonuniform_document

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
    (["--tol", "inf"], "--tol"),
    (["--config", "{tmp}/missing.json"], "--config"),
    (["--config", "{tmp}"], "--config"),
    (["--out", "{tmp}/job.json"], "--out"),
    ([], "command"),
], ids=["seed-negative", "seed-2^64", "resolution-4", "tol-0", "tol-inf", "config-missing",
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


def test_nan_scaling_field_exits_two_with_witness(tmp_path):
    # cell (1,1) is NaN on a disk of radius 0.1 around its midpoint, 0 on its edges
    doc = fixture_config("band2x2")
    doc["scaling"]["fields"][0]["expr"] += " + 0*sqrt((x-0.25)**2 + (y-0.25)**2 - 0.01)"
    result = _run_config(tmp_path, doc)
    assert result.exit_code == 2
    err = result.output + result.stderr
    assert "magnitude violation: scaling field on cell (1,1)" in err
    assert "witness" in err and "value nan" in err
    assert len(result.stderr.splitlines()) == 1  # no numpy warning ahead of it


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
    assert len(result.stderr.splitlines()) == 1  # no numpy warning ahead of it


@pytest.mark.parametrize("fixture, expr, node", [
    # g is not finite only at one pre-image, so the metric check's pairs pass
    ("example2a", "0/x", "(0.0, 0.0)"),  # NaN in the expression itself
    # g is infinite at x = 0.5, the pre-image of the nodes x = 0.25, and s
    # vanishes on the edge y = 0: b = h - s*g is inf * 0 there
    ("band2x2", "1e-300/(x - 0.5)", "(0.25, 0.0)"),
    # g is infinite at the pre-image of the node x = 1/1024, off level 1, so
    # the residual there is inf - inf on both sides: no numpy warning either
    ("band2x2", "1e-300/(x - 0.001953125)", "(0.0009765625, 0.0)"),
])
def test_a_free_field_that_is_not_finite_prints_one_error_line(tmp_path, fixture, expr, node):
    # a child process: in process, pytest captures a warning before it prints
    doc = fixture_config(fixture)
    doc["free_field"] = {"expr": expr, "lipschitz": 0.0, "sup_abs": 1.0}
    result = _child("surface", doc, tmp_path)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"error: residual |T phi - phi| is not finite at the node {node}"]


def _child(command: str, doc: dict, tmp_path) -> subprocess.CompletedProcess:
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "fractsurf.cli", command, "--config", str(path),
         "--out", str(tmp_path)], env=_src_env(), cwd=tmp_path, capture_output=True,
        text=True, timeout=120)


@pytest.mark.parametrize("source, expr", [
    ("nonuniform", "1/(x-0.6)"),  # |g| reaches 2560 at the sample nodes, not the asserted 1
    ("example2a", "sqrt(x - 0.5)"),  # NaN on half the square
    ("band2x2", "1/(x - 0.5)"),
])
def test_every_command_runs_the_metric_check_validate_runs(tmp_path, source, expr):
    # surface and dimension never ran the check: on nonuniform_config(7) they
    # exited 0, surface with a bias estimate of 3692.47, and surface solved the
    # others up to a residual that is not finite.  Child processes: one error
    # line, no warning, nothing written
    doc = nonuniform_document(7) if source == "nonuniform" else fixture_config(source)
    doc["free_field"] = {"expr": expr, "lipschitz": 1.0, "sup_abs": 1.0}
    results = {command: _child(command, doc, tmp_path)
               for command in ("validate", "build", "surface", "dimension", "report")}
    (line,) = results["validate"].stderr.splitlines()
    assert line.startswith("error: 3-D map of cell (1,1) is not a")
    for command, result in results.items():
        assert (result.returncode, result.stderr.splitlines()) == (1, [line]), command
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


def test_a_ragged_blend_table_exits_one_with_one_error_line(tmp_path):
    # numpy refused to build the table and validate printed its traceback
    doc = fixture_config("example2a-explicit")
    doc["blend"]["tables"][0]["coeffs"] = [[0.3, -6.0, 18.0], [1.6, 27.6], [6.4, 4.8, 0.0]]
    result = _child("validate", doc, tmp_path)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "error: cell (1,1): coefficient table must be 2-D, its rows of one length"]


def test_validate_refuses_an_implicit_dimension_resolution_above_the_ceiling(tmp_path):
    # example2a at depth 8 implies R = 393217; dimension died allocating 32 GiB
    doc = fixture_config("example2a")
    doc["dimension"]["depth"] = 8
    result = _child("validate", doc, tmp_path)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "error: invalid configuration:",
        "  dimension.depth: depth 8 needs a dimension resolution of at least 393217: "
        "resolution 393217 is above the ceiling 65537"]


def test_a_failed_allocation_exits_one_with_one_error_line(monkeypatch):
    # the pipeline raises what a failed numpy allocation raises; nothing is allocated
    text = ("Unable to allocate 11.9 GiB for an array with shape (40001, 40001) "
            "and data type float64")

    def refuse(*args, **kwargs):
        raise MemoryError(text)

    monkeypatch.setattr("fractsurf.cli.run_pipeline", refuse)
    result = run("dimension", "--fixture", "flat2x2")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # reported, not a traceback
    assert result.stderr.splitlines() == [f"error: dimension ran out of memory: {text}"]


def test_invalid_config_file_exits_one(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run("validate", "--config", str(path))
    assert result.exit_code == 1
    assert "not valid JSON" in result.output + result.stderr


@pytest.mark.parametrize("fault", ["not-utf-8", "unreadable"])
def test_a_config_file_that_cannot_be_read_exits_one(tmp_path, monkeypatch, fault):
    path = tmp_path / "job.json"
    path.write_bytes(b'{"name": "\xff"}')
    if fault == "unreadable":  # chmod does not stop a superuser, so refuse the read itself
        read_text = Path.read_text

        def refuse(self, *args, **kwargs):
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return read_text(self, *args, **kwargs)
        monkeypatch.setattr(Path, "read_text", refuse)
    result = run("validate", "--config", str(path))
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: cannot read --config {str(path)!r}: ")
    assert ("codec can't decode" if fault == "not-utf-8" else "Permission denied") in result.stderr


def test_an_out_directory_under_a_regular_file_exits_one(tmp_path):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    out = tmp_path / "afile" / "sub"
    result = run("build", "--fixture", "flat2x2", "--out", str(out))
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: cannot write {out / 'flat2x2.certificate.txt'}: ")
    assert "Not a directory" in result.stderr


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


def _file_grid_x_knots(knots: str):
    def make_doc(tmp_path):
        doc = _example2a_on_a_file_grid(tmp_path)
        grid = tmp_path / "grid.txt"
        lines = grid.read_text(encoding="utf-8").splitlines()
        grid.write_text("\n".join([f"x: {knots}", *lines[1:]]) + "\n", encoding="utf-8")
        return doc
    return make_doc


def _inline_grid_infinite_span(tmp_path):
    doc = fixture_config("example2a")  # the span 2e308 overflows to inf
    doc["grid"] = {"source": "inline", "x_knots": [-1e308, -5e307, 0.0, 5e307, 1e308],
                   "y_knots": Y_KNOTS, "z_rows": Z_ROWS}
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
    (_file_grid_x_knots("zero 0.0 0.25 0.5 0.75 1.0"), "grid"),
    (_file_grid_x_knots("0.0 nan 0.5 0.75 1.0"), "grid"),
    (_file_grid_x_knots("0.0 0.25 0.5 0.75 inf"), "grid"),
    (_inline_grid_infinite_span, "grid"),
    (_dimension_below_floor, "dimension.resolution"),
    (_dimension_too_coarse_for_depth, "dimension.resolution"),
], ids=["file-grid-missing-cell", "file-grid-short-curve", "file-grid-missing-file",
        "file-grid-short-row", "file-grid-bad-knot", "file-grid-nan-knot",
        "file-grid-infinite-knot", "inline-grid-infinite-span", "dimension-below-floor",
        "dimension-too-coarse-for-depth"])
def test_grid_rule_violations_exit_one_with_their_path(tmp_path, make_doc, path):
    config = tmp_path / "job.json"
    config.write_text(json.dumps(make_doc(tmp_path)), encoding="utf-8")
    for command in ("validate", "dimension"):
        result = run(command, "--config", str(config), "--out", str(tmp_path))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # reported, not a traceback
        err = result.output + result.stderr
        assert "error: invalid configuration" in err and "Traceback" not in err
        assert f"  {path}: " in err
