"""Configuration parsing, validation, and serialization."""

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from fractsurf.config import (
    ConfigurationError,
    config_document,
    parse_config,
    parse_config_document,
    realize_grid,
    serialize_config,
)
from fractsurf.fixtures import fixture_config, fixture_names
from fractsurf.pipeline import build_system


def error_paths(excinfo):
    return [path for path, _ in excinfo.value.errors]


def parse_fixture(name):
    return parse_config_document(fixture_config(name))


# --- happy paths --------------------------------------------------------------


@pytest.mark.parametrize("name", fixture_names())
def test_every_fixture_parses(name):
    cfg = parse_fixture(name)
    assert cfg.name == name
    assert cfg.solver.resolution >= 17


@pytest.mark.parametrize("name", fixture_names())
def test_serialize_parse_round_trip(name):
    cfg = parse_fixture(name)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_serialized_document_is_stable_json():
    cfg = parse_fixture("example2a")
    text = serialize_config(cfg)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert json.loads(serialize_config(parse_config_document(doc))) == doc


def test_document_lists_every_section():
    doc = config_document(parse_fixture("flat2x2"))
    for section in ("name", "grid", "scaling", "boundary", "blend",
                    "free_field", "solver", "chaos", "dimension", "output"):
        assert section in doc


def test_defaults_fill_optional_sections():
    doc = fixture_config("flat2x2")
    for key in ("free_field", "chaos", "dimension", "output"):
        doc.pop(key, None)
    cfg = parse_config_document(doc)
    assert cfg.free_field.expr == "0"
    assert cfg.chaos.points == 100000
    assert cfg.chaos.burn_in == 100
    assert cfg.dimension.depth == 4
    assert cfg.output.stem == cfg.name


def test_realize_grid_inline_and_fixture_sources():
    inline = realize_grid(parse_fixture("example2a").grid)
    doc = fixture_config("example2a")
    doc["grid"] = {"source": "fixture", "name": "example2a"}
    via_fixture = realize_grid(parse_config_document(doc).grid)
    assert inline.x_knots == via_fixture.x_knots
    assert (inline.z == via_fixture.z).all()


def test_file_grid_defers_grid_dependent_checks(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text(
        "# knots then one height row per y knot\n"
        "x: 0 0.5 1\n"
        "y: 0 0.5 1\n"
        "0 1 0\n"
        "1 2 1\n"
        "0 1 0\n",
        encoding="utf-8",
    )
    doc = fixture_config("flat2x2")
    doc["grid"] = {"source": "file", "path": str(path)}
    doc["solver"]["resolution"] = 100  # misaligned, but unknowable until the file loads
    cfg = parse_config_document(doc)
    assert cfg.grid.source == "file"
    grid = realize_grid(cfg.grid)
    assert grid.n == grid.m == 2
    # ... and are run when the job is built
    with pytest.raises(ConfigurationError) as excinfo:
        build_system(cfg)
    assert error_paths(excinfo) == ["solver.resolution"]


# --- structural errors --------------------------------------------------------


def test_empty_document_names_every_required_section():
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document({})
    paths = error_paths(excinfo)
    for section in ("grid", "scaling", "boundary", "blend", "solver"):
        assert section in paths


def test_non_object_document_is_rejected():
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document([1, 2, 3])
    assert "JSON object" in str(excinfo.value)


def test_invalid_json_text():
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config("{not json")
    assert "not valid JSON" in str(excinfo.value)


def test_all_errors_are_collected_not_just_the_first():
    doc = fixture_config("example2a")
    doc["grid"]["x_knots"] = [0.0, 0.5, 0.25, 1.0]       # not increasing
    doc["solver"]["tol"] = -1.0                          # not positive
    doc["chaos"]["seed"] = 2 ** 64                       # too wide
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    paths = error_paths(excinfo)
    assert "grid.x_knots" in paths
    assert "solver.tol" in paths
    assert "chaos.seed" in paths


@pytest.mark.parametrize(
    "mutate, expected_path",
    [
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d["grid"].update(shape="wide"), "grid.shape"),
        (lambda d: d["scaling"]["fields"][0].update(gain=2), "scaling.fields[0].gain"),
        (lambda d: d["boundary"].update(smoothing=True), "boundary.smoothing"),
        (lambda d: d["free_field"].update(period=3), "free_field.period"),
        (lambda d: d["solver"].update(scheme="jacobi"), "solver.scheme"),
        (lambda d: d["chaos"].update(jitter=0.1), "chaos.jitter"),
        (lambda d: d["dimension"].update(window=2), "dimension.window"),
        (lambda d: d["output"].update(format="npz"), "output.format"),
    ],
)
def test_unknown_keys_are_located(mutate, expected_path):
    doc = fixture_config("example2a")
    mutate(doc)
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert expected_path in error_paths(excinfo)
    assert any("unknown key" in msg for _, msg in excinfo.value.errors)


def test_unknown_key_in_explicit_blend_table():
    doc = fixture_config("example2a-explicit")
    doc["blend"]["tables"][0]["weight"] = 1.0
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert "blend.tables[0].weight" in error_paths(excinfo)


# --- grid section ---------------------------------------------------------


def test_grid_knots_must_increase():
    doc = fixture_config("flat2x2")
    doc["grid"]["y_knots"] = [0.0, 0.5, 0.5]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert ("grid.y_knots", "knots must be strictly increasing") in excinfo.value.errors


def test_grid_row_shape_mismatch():
    doc = fixture_config("flat2x2")
    doc["grid"]["z_rows"] = doc["grid"]["z_rows"][:-1]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert any(p.startswith("grid.z_rows") for p in error_paths(excinfo))


def test_grid_bad_source():
    doc = fixture_config("flat2x2")
    doc["grid"] = {"source": "database"}
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert "grid.source" in error_paths(excinfo)


def test_grid_unknown_fixture_name():
    doc = fixture_config("flat2x2")
    doc["grid"] = {"source": "fixture", "name": "nonesuch"}
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert "grid.name" in error_paths(excinfo)


# --- scaling section --------------------------------------------------------


def test_duplicate_scaling_cell():
    doc = fixture_config("example2a")
    doc["scaling"]["fields"].append(dict(doc["scaling"]["fields"][0]))
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    k = len(doc["scaling"]["fields"]) - 1
    assert f"scaling.fields[{k}].cell" in error_paths(excinfo)
    assert any("duplicate" in msg for _, msg in excinfo.value.errors)


def test_scaling_cell_outside_grid():
    doc = fixture_config("flat2x2")
    doc["scaling"]["fields"][0]["cell"] = [7, 1]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert any("outside" in msg for _, msg in excinfo.value.errors)


def test_missing_scaling_cells_are_reported_together():
    doc = fixture_config("example2a")
    doc["scaling"]["fields"] = doc["scaling"]["fields"][:10]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    [(path, msg)] = excinfo.value.errors
    assert path == "scaling.fields"
    assert msg.count("[") >= 2          # message lists every missing cell


def test_psi_expression_needs_a_lipschitz_bound():
    doc = fixture_config("flat2x2")
    doc["scaling"]["fields"][0] = {
        "cell": [1, 1], "form": "polynomial-product", "psi": "1 + x*y",
    }
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert "scaling.fields[0].psi_lipschitz" in error_paths(excinfo)


def test_scaling_expression_must_compile():
    doc = fixture_config("flat2x2")
    doc["scaling"]["fields"][0] = {
        "cell": [1, 1], "form": "expression", "expr": "x **", "lipschitz": 1.0,
    }
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert "scaling.fields[0].expr" in error_paths(excinfo)


def test_scaling_bad_form():
    doc = fixture_config("flat2x2")
    doc["scaling"]["fields"][0]["form"] = "wavelet"
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert "scaling.fields[0].form" in error_paths(excinfo)


# --- boundary and blend sections ---------------------------------------------


def test_boundary_curve_count_must_match_grid():
    doc = fixture_config("example2a")
    doc["boundary"]["q"] = doc["boundary"]["q"][:-1]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert ("boundary.q", "need 5 curves, got 4") in excinfo.value.errors


def test_boundary_piece_count_must_match_grid():
    doc = fixture_config("example2a")
    doc["boundary"]["r"][0] = doc["boundary"]["r"][0][:-1]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert ("boundary.r[0]", "need 4 pieces, got 3") in excinfo.value.errors


def test_quadratic_method_caps_piece_degree():
    doc = fixture_config("example2a")
    doc["boundary"]["q"][0][0] = [0.3, 0.0, 0.0, 5.0]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert any("degree <= 2" in msg for _, msg in excinfo.value.errors)


def test_duplicate_blend_table():
    doc = fixture_config("example2a-explicit")
    doc["blend"]["tables"].append(dict(doc["blend"]["tables"][0]))
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert any("duplicate blend table" in msg for _, msg in excinfo.value.errors)


def test_blend_tables_must_cover_the_grid():
    doc = fixture_config("example2a-explicit")
    doc["blend"]["tables"] = doc["blend"]["tables"][1:]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert "blend.tables" in error_paths(excinfo)


# --- solver and analysis sections ----------------------------------------------


def test_solver_resolution_must_be_knot_aligned():
    doc = fixture_config("example2a")
    doc["solver"]["resolution"] = 100
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert "solver.resolution" in error_paths(excinfo)
    assert any("knot-aligned" in msg for _, msg in excinfo.value.errors)


def test_solver_resolution_floor_scales_with_the_grid():
    doc = fixture_config("example2a")
    doc["solver"]["resolution"] = 13
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert any("at least 17" in msg for _, msg in excinfo.value.errors)


@pytest.mark.parametrize("eps", [0.2, -0.01, 0.125])
def test_dimension_epsilon_must_fit_inside_a_cell(eps):
    doc = fixture_config("example2a")
    doc["dimension"]["epsilon"] = eps
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert "dimension.epsilon" in error_paths(excinfo)


def test_dimension_resolution_alignment_is_checked():
    for name, resolution, message in (("example2a", 100, "knot-aligned"),
                                      ("flat2x2", 5, "at least 9")):
        doc = fixture_config(name)
        doc["dimension"]["resolution"] = resolution
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config_document(doc)
        assert "dimension.resolution" in error_paths(excinfo)
        assert any(message in msg for _, msg in excinfo.value.errors)


@given(
    aligned=st.integers(min_value=2, max_value=120),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    points=st.integers(min_value=1, max_value=10 ** 6),
)
def test_round_trip_survives_parameter_choices(aligned, seed, points):
    doc = fixture_config("example2a")
    doc["solver"]["resolution"] = 12 * aligned + 1
    doc["chaos"]["seed"] = seed
    doc["chaos"]["points"] = points
    cfg = parse_config_document(doc)
    assert parse_config(serialize_config(cfg)) == cfg
    assert cfg.chaos.seed == seed


def test_config_objects_are_immutable():
    cfg = parse_fixture("flat2x2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.name = "other"
