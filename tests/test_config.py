"""Configuration parsing, validation, and serialization."""

import dataclasses
import hashlib
import json
import math

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
from fractsurf.grid import MAX_RESOLUTION
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


CELL_RECORDS = pytest.mark.parametrize("name, records", [
    ("example2a", "scaling.fields"), ("example2a-explicit", "blend.tables")],
    ids=["scaling", "blend"])


@CELL_RECORDS
@pytest.mark.parametrize("cell, shown", [([10 ** 400, -1], "[<1329-bit integer>, -1]"),
                                         ([0, 1], "[0, 1]")], ids=["huge-negative", "zero"])
def test_cell_indices_below_one_are_rejected_at_their_path(name, records, cell, shown):
    doc = fixture_config(name)
    section, key = records.split(".")
    doc[section][key][0]["cell"] = cell
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    missing = "missing scaling specs" if section == "scaling" else "missing blend tables"
    assert excinfo.value.errors == [(f"{records}[0].cell", f"cell indices start at 1, got {shown}"),
                                    (records, f"{missing} for cells [[1, 1]]")]


@CELL_RECORDS
def test_a_huge_cell_index_gives_a_short_message(name, records):
    doc = fixture_config(name)
    section, key = records.split(".")
    doc[section][key][0]["cell"] = [10 ** 400, 1]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    [(path, message)] = excinfo.value.errors
    assert path == records
    assert message.startswith("cell [<1329-bit integer>, 1] is outside the")
    assert len(message) < 200


def test_an_integer_literal_beyond_the_digit_limit_is_a_configuration_error():
    doc = fixture_config("flat2x2")
    doc["chaos"]["seed"] = "SEED"
    text = json.dumps(doc).replace('"SEED"', "9" * 5000)
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config(text)
    [(path, message)] = excinfo.value.errors
    assert path == "" and message.startswith("not valid JSON: ")


def test_a_malformed_cell_holding_a_huge_integer_gives_a_short_message():
    doc = fixture_config("example2a")
    doc["scaling"]["fields"][0]["cell"] = [10 ** 5000, True]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert excinfo.value.errors[0] == (
        "scaling.fields[0].cell",
        "expected a cell index pair [i, j], got [<16610-bit integer>, True]")


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


def test_product_outer_map_and_exponents_are_checked_with_their_paths():
    doc = fixture_config("flat2x2")
    doc["scaling"]["fields"][0] = {
        "cell": [1, 1], "form": "polynomial-product", "psi": 0.0,
        "exponents": [0.5, 1, 1, 1], "outer": "nope",
    }
    doc["scaling"]["fields"][1] = {
        "cell": [1, 2], "form": "polynomial-product", "psi": 0.0, "outer": 3,
    }
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert excinfo.value.errors == [
        ("scaling.fields[0].exponents", "must be >= 1 to keep the Lipschitz "
                                        "certification sound, got [0.5, 1.0, 1.0, 1.0]"),
        ("scaling.fields[0].outer", "must be one of identity/tanh/atan, got 'nope'"),
        ("scaling.fields[1].outer", "must be one of identity/tanh/atan, got 3"),
    ]


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


RETIRED_EPSILON = "retired: the dimension band no longer shrinks cells, so only null is accepted"

FLAT_KEY_ERRORS = [
    ("free_field", "expr", 5, "expected an expression string"),
    ("free_field", "expr", None, "expected an expression string"),
    ("free_field", "expr", "foo(x)", "only whitelisted calls allowed in expression 'foo(x)'"),
    ("free_field", "lipschitz", "1", "expected a number, got '1'"),
    ("free_field", "lipschitz", True, "expected a number, got True"),
    ("free_field", "lipschitz", -1, "must be >= 0.0, got -1"),
    ("free_field", "lipschitz", None, "expected a number, got None"),
    ("free_field", "sup_abs", [0.5], "expected a number, got [0.5]"),
    ("free_field", "sup_abs", -0.5, "must be >= 0.0, got -0.5"),
    ("solver", "resolution", "257", "expected a number, got '257'"),
    ("solver", "resolution", 257.5, "expected an integer, got 257.5"),
    ("solver", "resolution", 4, "must be >= 5, got 4"),
    ("solver", "resolution", None, "expected a number, got None"),
    ("solver", "tol", "small", "expected a number, got 'small'"),
    ("solver", "tol", 0, "must be > 0.0, got 0"),
    ("solver", "tol", math.inf, "must be finite"),
    ("solver", "tol", None, "expected a number, got None"),
    ("solver", "max_iter", 2.5, "expected an integer, got 2.5"),
    ("solver", "max_iter", 0, "must be >= 1, got 0"),
    ("solver", "max_iter", None, "expected a number, got None"),
    ("chaos", "points", "many", "expected a number, got 'many'"),
    ("chaos", "points", 0, "must be >= 1, got 0"),
    ("chaos", "points", None, "expected a number, got None"),
    ("chaos", "seed", 1.5, "expected an integer, got 1.5"),
    ("chaos", "seed", -1, "must be >= 0, got -1"),
    ("chaos", "seed", 2 ** 64, "must fit in 64 bits"),
    ("chaos", "seed", None, "expected a number, got None"),
    ("chaos", "burn_in", False, "expected a number, got False"),
    ("chaos", "burn_in", -1, "must be >= 0, got -1"),
    ("chaos", "burn_in", None, "expected a number, got None"),
    ("dimension", "depth", "4", "expected a number, got '4'"),
    ("dimension", "depth", 0, "must be >= 1, got 0"),
    ("dimension", "depth", None, "expected a number, got None"),
    ("dimension", "epsilon", "tiny", RETIRED_EPSILON),
    ("dimension", "epsilon", 0, RETIRED_EPSILON),
    ("dimension", "epsilon", math.nan, RETIRED_EPSILON),
    ("dimension", "resolution", 257.5, "expected an integer, got 257.5"),
    ("dimension", "resolution", 3, "must be >= 5, got 3"),
    ("output", "directory", 5, "expected a path string or null"),
    ("output", "directory", ["out"], "expected a path string or null"),
    ("output", "stem", 5, "expected a non-empty string"),
    ("output", "stem", "", "expected a non-empty string"),
    ("output", "stem", None, "expected a non-empty string"),
]


@pytest.mark.parametrize("section, key, value, message", FLAT_KEY_ERRORS)
def test_flat_key_errors_are_exact(section, key, value, message):
    doc = fixture_config("flat2x2")
    doc[section][key] = value
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert excinfo.value.errors == [(f"{section}.{key}", message)]


@pytest.mark.parametrize("section, key", [("solver", "tol"), ("chaos", "seed"),
                                          ("grid", "x_knots")])
def test_integers_beyond_the_float_range_are_located(section, key):
    doc = fixture_config("example2a")
    doc[section][key] = 10 ** 400 if key != "x_knots" else [0.0, 10 ** 400]
    path = f"{section}.{key}" if key != "x_knots" else "grid.x_knots[1]"
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert (path, "must be finite") in excinfo.value.errors


def test_missing_solver_resolution_is_required():
    doc = fixture_config("flat2x2")
    del doc["solver"]["resolution"]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert excinfo.value.errors == [("solver.resolution", "expected a number, got None")]


@pytest.mark.parametrize("section", ["free_field", "solver", "chaos", "dimension", "output"])
def test_flat_sections_must_be_objects(section):
    doc = fixture_config("flat2x2")
    doc[section] = [1]
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert excinfo.value.errors == [(section, "expected an object")]


@pytest.mark.parametrize("section, key", [("free_field", "sup_abs"), ("dimension", "epsilon"),
                                          ("dimension", "resolution"), ("output", "directory")])
def test_null_is_accepted_where_the_default_is_none(section, key):
    doc = fixture_config("flat2x2")
    doc[section][key] = None
    cfg = parse_config_document(doc)
    assert getattr(getattr(cfg, section), key) is None


def test_flat_sections_serialize_their_keys_in_order():
    cfg = parse_fixture("flat2x2")
    doc = config_document(cfg)
    assert {section: list(doc[section]) for section in
            ("free_field", "solver", "chaos", "dimension", "output")} == {
        "free_field": ["expr", "lipschitz", "sup_abs"],
        "solver": ["resolution", "tol", "max_iter"],
        "chaos": ["points", "seed", "burn_in"],
        "dimension": ["depth", "resolution"],
        "output": ["directory", "stem"],
    }
    without_sup = dataclasses.replace(cfg, free_field=dataclasses.replace(cfg.free_field,
                                                                          sup_abs=None))
    assert list(config_document(without_sup)["free_field"]) == ["expr", "lipschitz"]


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


@pytest.mark.parametrize("section", ["solver", "dimension"])
@pytest.mark.parametrize("resolution", [MAX_RESOLUTION + 2, 2 ** 63 + 1, 2 ** 64 - 1])
def test_resolutions_above_the_ceiling_are_located(section, resolution):
    doc = fixture_config("flat2x2")  # alignment base 2: every odd resolution is aligned
    doc[section]["resolution"] = resolution
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert excinfo.value.errors == [
        (f"{section}.resolution",
         f"resolution {resolution} is above the ceiling {MAX_RESOLUTION}")]
    doc[section]["resolution"] = MAX_RESOLUTION
    parse_config_document(doc)


@pytest.mark.parametrize("eps", [0.01, 0.2, -0.01, 0.125])
def test_dimension_epsilon_is_retired(eps):
    doc = fixture_config("example2a")
    doc["dimension"]["epsilon"] = None
    assert list(config_document(parse_config_document(doc))["dimension"]) == [
        "depth", "resolution"]
    doc["dimension"]["epsilon"] = eps
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert excinfo.value.errors == [("dimension.epsilon", RETIRED_EPSILON)]


@pytest.mark.parametrize("depth", [18, 2 ** 64])
def test_a_depth_too_deep_for_the_explicit_resolution_is_located(depth):
    doc = fixture_config("band2x2")  # 2x2 cells, dimension.resolution 4097
    doc["dimension"]["depth"] = depth
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert excinfo.value.errors == [
        ("dimension.resolution", "scale 0.00048828125 too fine for resolution 4097: only 2 "
                                 "sample intervals per box edge, need at least 4")]


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


# --- variant sections: one bad value per key ------------------------------------


PRODUCT = {"cell": [1, 1], "form": "polynomial-product", "psi": 2.0, "exponents": [1, 2, 2, 1],
           "outer": "tanh", "psi_lipschitz": 0.0, "psi_sup": 2.0}
EXPRESSION = {"cell": [1, 1], "form": "expression", "expr": "0*x", "lipschitz": 0.0}
FIXTURE_LIST = "band2x2, bilinear2x2, example2a, example2a-explicit, example2b-sin, flat2x2"


def variant_document(variant):
    """A valid document that uses ``variant`` of one of the sections with variants."""
    name = {"quadratic": "example2a", "pieces": "example2a",
            "explicit": "example2a-explicit"}.get(variant, "flat2x2")
    doc = fixture_config(name)
    if variant == "file":
        doc["grid"] = {"source": "file", "path": "grid.txt"}
    elif variant == "fixture":
        doc["grid"] = {"source": "fixture", "name": "flat2x2"}
    elif variant == "product":
        doc["scaling"]["fields"][0] = dict(PRODUCT)
    elif variant == "bare-product":  # defaults filled in, no optional bounds
        doc["scaling"]["fields"][0] = {"cell": [1, 1], "form": "polynomial-product", "psi": 2}
    elif variant == "expression":
        doc["scaling"]["fields"][0] = dict(EXPRESSION)
    elif variant == "pieces":
        doc["boundary"]["method"] = "pieces"
    return doc


def set_at(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


MISSING_CELL = ("scaling.fields", "missing scaling specs for cells [[1, 1]]")
MISSING_TABLE = ("blend.tables", "missing blend tables for cells [[1, 1]]")
F0 = ("scaling", "fields", 0)
T0 = ("blend", "tables", 0)

VARIANT_KEY_ERRORS = [
    # grid: inline / file / fixture
    ("inline", ("grid", "source"), "database",
     [("grid.source", "must be one of inline/file/fixture, got 'database'")]),
    ("inline", ("grid", "source"), 5, [("grid.source", "must be one of inline/file/fixture, got 5")]),
    ("inline", ("grid", "x_knots"), "0 1",
     [("grid.x_knots", "expected a non-empty list of numbers")]),
    ("inline", ("grid", "x_knots"), [0.0, "a", 1.0],
     [("grid.x_knots[1]", "expected a number, got 'a'")]),
    ("inline", ("grid", "x_knots"), [0.0, 0.5, 0.5],
     [("grid.x_knots", "knots must be strictly increasing")]),
    ("inline", ("grid", "y_knots"), [], [("grid.y_knots", "expected a non-empty list of numbers")]),
    ("inline", ("grid", "y_knots"), [1.0, 0.5, 0.0],
     [("grid.y_knots", "knots must be strictly increasing")]),
    ("inline", ("grid", "z_rows"), [[0.0, 0.0, 0.0]] * 2,
     [("grid.z_rows", "need 3 rows of 3 heights for these knots")]),
    ("inline", ("grid", "z_rows"), [[0.0, 0.0, 0.0]] * 2 + [[0.0, 0.0]],
     [("grid.z_rows", "need 3 rows of 3 heights for these knots")]),
    ("inline", ("grid", "z_rows"), {}, [("grid.z_rows", "expected a list of height rows "
                                                       "(one per y knot)")]),
    ("inline", ("grid", "z_rows", 1), [0.0, None, 0.0],
     [("grid.z_rows[1][1]", "expected a number, got None")]),
    ("inline", ("grid", "path"), "grid.txt", [("grid.path", "unknown key")]),
    ("file", ("grid", "path"), "", [("grid.path", "expected a file path string")]),
    ("file", ("grid", "path"), ["grid.txt"], [("grid.path", "expected a file path string")]),
    ("file", ("grid", "x_knots"), [0.0, 1.0], [("grid.x_knots", "unknown key")]),
    ("fixture", ("grid", "name"), "nonesuch",
     [("grid.name", f"unknown fixture 'nonesuch'; available: {FIXTURE_LIST}")]),
    ("fixture", ("grid", "name"), [1], [("grid.name", f"unknown fixture [1]; available: "
                                                      f"{FIXTURE_LIST}")]),
    ("fixture", ("grid", "path"), "grid.txt", [("grid.path", "unknown key")]),
    ("inline", ("grid",), [], [("grid", "expected an object")]),
    # scaling: the section, then separable-quartic / polynomial-product / expression entries
    ("quartic", ("scaling",), 5, [("scaling", "expected an object")]),
    ("quartic", ("scaling", "weights"), [], [("scaling.weights", "unknown key")]),
    ("quartic", ("scaling", "fields"), [],
     [("scaling.fields", "expected a non-empty list of field specs")]),
    ("quartic", F0, "psi", [("scaling.fields[0]", "expected an object"), MISSING_CELL]),
    ("quartic", F0 + ("cell",), [1], [("scaling.fields[0].cell", "expected a cell index pair "
                                                                 "[i, j], got [1]"), MISSING_CELL]),
    ("quartic", F0 + ("cell",), [1, True],
     [("scaling.fields[0].cell", "expected a cell index pair [i, j], got [1, True]"),
      MISSING_CELL]),
    ("quartic", F0 + ("cell",), [1, 2],
     [("scaling.fields[1].cell", "duplicate scaling spec for cell [1, 2]"), MISSING_CELL]),
    ("quartic", F0 + ("form",), "wavelet",
     [("scaling.fields[0].form", "must be one of separable-quartic/polynomial-product/"
                                 "expression, got 'wavelet'"), MISSING_CELL]),
    ("quartic", F0 + ("psi",), True,
     [("scaling.fields[0].psi", "expected a number, got True"), MISSING_CELL]),
    ("quartic", F0 + ("psi",), "1 + x",
     [("scaling.fields[0].psi", "expected a number, got '1 + x'"), MISSING_CELL]),
    ("quartic", F0 + ("psi",), 10 ** 400, [("scaling.fields[0].psi", "must be finite"),
                                           MISSING_CELL]),
    ("quartic", F0 + ("expr",), "x", [("scaling.fields[0].expr", "unknown key")]),
    ("product", F0 + ("psi",), [2.0], [("scaling.fields[0].psi", "expected a number, got [2.0]"),
                                       MISSING_CELL]),
    ("product", F0 + ("psi",), "foo(x)",
     [("scaling.fields[0].psi", "only whitelisted calls allowed in expression 'foo(x)'"),
      MISSING_CELL]),
    ("product", F0 + ("psi_lipschitz",), -1,
     [("scaling.fields[0].psi_lipschitz", "must be >= 0.0, got -1")]),
    ("product", F0 + ("psi_sup",), "a", [("scaling.fields[0].psi_sup", "expected a number, "
                                                                       "got 'a'")]),
    ("product", F0 + ("exponents",), [1, 1, 1, 0.5],
     [("scaling.fields[0].exponents", "must be >= 1 to keep the Lipschitz certification "
                                      "sound, got [1.0, 1.0, 1.0, 0.5]")]),
    ("product", F0 + ("outer",), "sigmoid",
     [("scaling.fields[0].outer", "must be one of identity/tanh/atan, got 'sigmoid'")]),
    ("product", F0 + ("expr",), "x", [("scaling.fields[0].expr", "unknown key")]),
    ("expression", F0 + ("expr",), "x **",
     [("scaling.fields[0].expr", "cannot parse expression 'x **': invalid syntax "
                                 "(<unknown>, line 1)"), MISSING_CELL]),
    ("expression", F0 + ("expr",), 5, [("scaling.fields[0].expr", "expected an expression "
                                                                  "string"), MISSING_CELL]),
    ("expression", F0 + ("lipschitz",), -1,
     [("scaling.fields[0].lipschitz", "must be >= 0.0, got -1"), MISSING_CELL]),
    ("expression", F0 + ("lipschitz",), None,
     [("scaling.fields[0].lipschitz", "expected a number, got None"), MISSING_CELL]),
    ("expression", F0 + ("psi",), 1.0, [("scaling.fields[0].psi", "unknown key")]),
    # boundary: linear / quadratic / pieces
    ("linear", ("boundary",), "linear", [("boundary", "expected an object")]),
    ("linear", ("boundary", "method"), "spline",
     [("boundary.method", "must be one of linear/quadratic/pieces, got 'spline'")]),
    ("linear", ("boundary", "q"), [], [("boundary.q", "unknown key")]),
    ("quadratic", ("boundary", "q", 0), 5,
     [("boundary.q[0]", "expected a list of coefficient lists")]),
    ("quadratic", ("boundary", "q", 1, 2), [0.2, "a"],
     [("boundary.q[1][2][1]", "expected a number, got 'a'")]),
    ("quadratic", ("boundary", "r", 0, 0), [0.3, 3.2, 0.0, 1.0],
     [("boundary.r[0]", "quadratic method allows degree <= 2 pieces only")]),
    ("quadratic", ("boundary", "smooth"), True, [("boundary.smooth", "unknown key")]),
    ("pieces", ("boundary", "r", 2), [], [("boundary.r[2]", "expected a list of coefficient "
                                                            "lists")]),
    ("pieces", ("boundary", "q", 4, 0), [4.5, math.inf],
     [("boundary.q[4][0][1]", "must be finite")]),
    # blend: coons / explicit
    ("coons", ("blend",), None, [("blend", "expected an object")]),
    ("coons", ("blend", "mode"), "bicubic",
     [("blend.mode", "must be one of coons/explicit, got 'bicubic'")]),
    ("coons", ("blend", "tables"), [], [("blend.tables", "unknown key")]),
    ("explicit", ("blend", "tables"), {},
     [("blend.tables", "explicit mode requires a list of cell tables")]),
    ("explicit", T0, [1, 1], [("blend.tables[0]", "expected an object"), MISSING_TABLE]),
    ("explicit", T0 + ("cell",), "11",
     [("blend.tables[0].cell", "expected a cell index pair [i, j], got '11'"), MISSING_TABLE]),
    ("explicit", T0 + ("cell",), [1, 2],
     [("blend.tables[1].cell", "duplicate blend table for cell [1, 2]"), MISSING_TABLE]),
    ("explicit", T0 + ("coeffs",), [[0.3, "a"]],
     [("blend.tables[0].coeffs[0][1]", "expected a number, got 'a'"), MISSING_TABLE]),
    ("explicit", T0 + ("coeffs",), [], [("blend.tables[0].coeffs", "expected a list of "
                                                                   "coefficient lists"),
                                        MISSING_TABLE]),
    ("explicit", T0 + ("weight",), 1.0, [("blend.tables[0].weight", "unknown key")]),
]


@pytest.mark.parametrize("variant", ["inline", "file", "fixture", "quartic", "product",
                                     "bare-product", "expression", "linear", "quadratic", "pieces", "coons",
                                     "explicit"])
def test_variant_documents_parse(variant):
    parse_config_document(variant_document(variant))


@pytest.mark.parametrize("variant, path, value, errors", VARIANT_KEY_ERRORS)
def test_variant_key_errors_are_exact(variant, path, value, errors):
    doc = variant_document(variant)
    set_at(doc, path, value)
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_document(doc)
    assert excinfo.value.errors == errors


# sha256 of serialize_config: the bytes of the canonical document are part of the schema
SERIALIZED_DIGESTS = {
    "band2x2": "8be1b8b91c5a970fbee83a23135532597aa0614484ccbf2b56823ecb8f6cc1e6",
    "bilinear2x2": "636ab53634ea06da63320ff6c6702a79aaa9a39f50c1034b1d772445b881ae96",
    "example2a": "42e2418d2fef91457bcdc35f9d7f726488bb7533ad8417eb92c1a0085f4994e4",
    "example2a-explicit": "dbb4043588483ae313046638ceb9150139f018aca04a0bf0e7cd4402d790c694",
    "example2b-sin": "b3ed48e4b9fd5887fdd2e953df58e43adf109579dba05010fba1a13089281505",
    "flat2x2": "9666381d1efe9e987e48a8dab1c0f4fb4848cbca3225950ce774c979c6b0787e",
    "file": "c1084d7b2ac0f31a01725a0bfa8b0c1fbfddcca9bd29c45e60c87bed719646ae",
    "fixture": "84c7ae8e5c23358b54643eddcda7c36e4930c353f7bb935a19e18301010ebf3e",
    "product": "6b6fd8c4d2dea512f411c696f5ec702baac1fbeafdaf6f309dda7b55e09cbf98",
    "bare-product": "e96c69d55d760c6d728fd4b2bceb13e08447908052228daf4a34f37b33825cc5",
    "expression": "2a931865953fc189992d3b17208a1add30f4485108e4197169b7d737b333a519",
}


@pytest.mark.parametrize("variant", sorted(SERIALIZED_DIGESTS))
def test_serialized_bytes_are_pinned(variant):
    doc = fixture_config(variant) if variant in fixture_names() else variant_document(variant)
    text = serialize_config(parse_config_document(doc))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SERIALIZED_DIGESTS[variant]


MUTATION_POOL = (None, True, 0, -1, 2.5, 10 ** 400, 2 ** 64, math.inf, math.nan, "", "x",
                 "nonesuch", "linear", "explicit", "expression", [], [1], [1, 1], [[0.5]],
                 {}, {"cell": [1, 1]})


def key_paths(doc, prefix=()):
    """The path of every value inside ``doc``: object keys and list positions."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


@given(data=st.data(), name=st.sampled_from(fixture_names()),
       value=st.sampled_from(MUTATION_POOL))
def test_one_mutated_key_parses_or_raises_a_configuration_error(data, name, value):
    doc = fixture_config(name)
    path = data.draw(st.sampled_from(sorted(key_paths(doc), key=repr)))
    set_at(doc, path, value)
    try:
        cfg = parse_config_document(doc)
    except ConfigurationError:
        return
    assert parse_config(serialize_config(cfg)) == cfg
