"""Job configuration: a validated, immutable view of one JSON document.

The schema (documented in the README) has sections ``grid``, ``scaling``,
``boundary``, ``blend``, ``free_field``, ``solver``, ``chaos``,
``dimension`` and ``output``.  Parsing validates everything it can decide
without running the pipeline — unknown keys, duplicate cells,
non-increasing knots — and reports *all* problems at once, each with a
path-like locator, rather than stopping at the first.

Every section, and every entry of ``scaling.fields`` and ``blend.tables``,
is defined once, by the fields of its ``*Spec`` dataclass: each field (see
:func:`_key`) gives a key, its default and its check.  The sections with
variants (``grid.source``, ``scaling.fields[k].form``, ``boundary.method``,
``blend.mode``) also have a key table (``GRID_SOURCES``, ``SCALING_FORMS``,
``BOUNDARY_METHODS``, ``BLEND_MODES``) that lists the keys of each variant
in document order.  One parser (:func:`_parse`), the unknown-key check and
one serializer (:func:`_document`) read those fields and tables; only the
rules that span several keys are written out, as ``cross_check`` methods
and the duplicate-cell check of :func:`_records`.

The rules that need the realized grid (cell coverage, curve and piece
counts, resolutions on the sample lattice) live in :func:`grid_errors`.
Parsing runs it for inline and fixture grids; file grids are not read at
parse time, so :func:`~fractsurf.pipeline.build_system` runs it again on
every job, after any command-line override.

``parse_config(serialize_config(cfg)) == cfg`` holds for every valid
configuration: serialization writes the canonical complete document with
shortest round-trip float representation (the ``json`` module's default).
"""
from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import MISSING, dataclass
from pathlib import Path

from .dimension import MIN_SCALES, box_layout, dimension_resolution, natural_scales
from .errors import ConfigurationError, FractsurfError
from .fixtures import fixture_config, fixture_names
from .grid import MAX_RESOLUTION, DataGrid, load_grid_text, sample_axes
from .scaling import OUTER_MAPS
from .utils import compile_xy_expression

_REQUIRED_SECTIONS = ("grid", "scaling", "boundary", "blend", "solver")
_ALL_SECTIONS = _REQUIRED_SECTIONS + ("name", "free_field", "chaos", "dimension", "output")

# the keys each variant takes, in document order; the keys of other variants read as None
GRID_SOURCES = {"inline": ("source", "x_knots", "y_knots", "z_rows"),
                "file": ("source", "path"), "fixture": ("source", "name")}
SCALING_FORMS = {
    "separable-quartic": ("cell", "form", "psi"),
    "polynomial-product": ("cell", "form", "psi", "exponents", "outer",
                           "psi_lipschitz", "psi_sup"),
    "expression": ("cell", "form", "expr", "lipschitz"),
}
BOUNDARY_METHODS = {"linear": ("method",), "quadratic": ("method", "q", "r"),
                    "pieces": ("method", "q", "r")}
BLEND_MODES = {"coons": ("mode",), "explicit": ("mode", "tables")}
#: highest piece degree that boundary method 'quadratic' accepts
QUADRATIC_MAX_DEGREE = 2
# product-field exponents below this make the field non-Lipschitz at the edges
PRODUCT_EXPONENT_MIN = 1


class _Collector:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def add(self, path: str, message: str):
        self.errors.append((path, message))

    def raise_if_any(self):
        if self.errors:
            raise ConfigurationError(self.errors)


def _check_unknown(err: _Collector, path: str, doc: dict, allowed):
    for key in doc:
        if key not in allowed:
            err.add(f"{path}.{key}" if path else key, "unknown key")


def _number(err: _Collector, path: str, value, *, minimum=None, strict_min=None,
            integer=False, bits=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        err.add(path, f"expected a number, got {_shown(value)}")
        return None
    if integer and isinstance(value, float) and not value.is_integer():
        err.add(path, f"expected an integer, got {value!r}")
        return None
    if not abs(value) <= sys.float_info.max:  # also an int that float() cannot hold
        err.add(path, "must be finite")
        return None
    if minimum is not None and value < minimum:
        err.add(path, f"must be >= {minimum}, got {_shown(value)}")
        return None
    if strict_min is not None and value <= strict_min:
        err.add(path, f"must be > {strict_min}, got {_shown(value)}")
        return None
    if bits is not None and value >= 2 ** bits:
        err.add(path, f"must fit in {bits} bits")
        return None
    return int(value) if integer else float(value)


def _expression(err: _Collector, path: str, value) -> str | None:
    if not isinstance(value, str):
        err.add(path, "expected an expression string")
        return None
    try:
        compile_xy_expression(value)
    except ValueError as exc:
        err.add(path, str(exc))
        return None
    return value


def _psi(err: _Collector, path: str, value) -> float | str | None:
    """A number, or a string that :meth:`ScalingSpec.cross_check` reads as an expression."""
    return value if isinstance(value, str) else _number(err, path, value)


def _text(message: str):
    """A check for a non-empty string."""
    def check(err: _Collector, path: str, value) -> str | None:
        if not isinstance(value, str) or not value:
            err.add(path, message)
            return None
        return value
    return check


_nonempty = _text("expected a non-empty string")


def _path(err: _Collector, path: str, value) -> str | None:
    if not isinstance(value, str):
        err.add(path, "expected a path string or null")
        return None
    return value


def _one_of(err: _Collector, path: str, value, *, options) -> str | None:
    if not isinstance(value, str) or value not in options:
        err.add(path, f"must be one of {'/'.join(options)}, got {_shown(value)}")
        return None
    return value


def _fixture(err: _Collector, path: str, value) -> str | None:
    if value not in fixture_names():
        err.add(path, f"unknown fixture {_shown(value)}; available: {', '.join(fixture_names())}")
        return None
    return value


def _shown(value) -> str:
    """``repr(value)``, but a tuple written as a list and an int wider than 64
    bits as its width: messages stay short, and within Python's limit on the
    digits of an int converted to text."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"<{value.bit_length()}-bit integer>"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_shown, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
    return repr(value)


def _cell(err: _Collector, path: str, value) -> tuple[int, int] | None:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in value)):
        err.add(path, f"expected a cell index pair [i, j], got {_shown(value)}")
        return None
    if min(value) < 1:
        err.add(path, f"cell indices start at 1, got {_shown(value)}")
        return None
    return int(value[0]), int(value[1])


def _retired(message: str):
    """A check for a key kept only so that documents spelling it as null still parse."""
    def check(err: _Collector, path: str, value) -> None:
        err.add(path, message)
    return check


def _list_of(item, message: str):
    """A check for a non-empty list whose entries pass ``item``; it stops at the first bad one."""
    def check(err: _Collector, path: str, value) -> tuple | None:
        if not isinstance(value, (list, tuple)) or not value:
            err.add(path, message)
            return None
        out = []
        for k, v in enumerate(value):
            parsed = item(err, f"{path}[{k}]", v)
            if parsed is None:
                return None
            out.append(parsed)
        return tuple(out)
    return check


_float_list = _list_of(_number, "expected a non-empty list of numbers")
_height_rows = _list_of(_float_list, "expected a list of height rows (one per y knot)")
# a list of per-interval ascending coefficient lists
_pieces = _list_of(_float_list, "expected a list of coefficient lists")
_curves = _list_of(_pieces, "expected a list of per-curve piece coefficients")


def _knots(err: _Collector, path: str, value) -> tuple[float, ...] | None:
    knots = _float_list(err, path, value)
    if knots is None:
        return None
    if len(knots) < 2:
        err.add(path, "need at least two knots")
        return None
    if any(b <= a for a, b in zip(knots, knots[1:])):
        err.add(path, "knots must be strictly increasing")
        return None
    return knots


def _exponents(err: _Collector, path: str, value) -> tuple[float, ...] | None:
    exps = _float_list(err, path, value)
    if exps is None or len(exps) != 4:
        err.add(path, "expected four exponents")
        return None
    if min(exps) < PRODUCT_EXPONENT_MIN:
        err.add(path, f"must be >= {PRODUCT_EXPONENT_MIN} to keep the Lipschitz "
                      f"certification sound, got {list(exps)}")
        return None
    return exps


def _records(spec, message: str, duplicate: str):
    """A check for a non-empty list of ``spec`` objects, one per cell.

    An entry that fails to parse is left out, and so is a later entry for
    a cell already taken, which is reported as a duplicate.
    """
    def check(err: _Collector, path: str, value) -> tuple | None:
        if not isinstance(value, (list, tuple)) or not value:
            err.add(path, message)
            return None
        out, seen = [], set()
        for k, entry in enumerate(value):
            record = _parse(err, f"{path}[{k}]", entry, spec)
            if record is not None and record.cell in seen:
                err.add(f"{path}[{k}].cell", f"{duplicate} for cell {_shown(record.cell)}")
            elif record is not None:
                seen.add(record.cell)
                out.append(record)
        return tuple(out)
    return check


def _key(default=MISSING, check=_number, *, omit_null=False, **bounds):
    """A key: required without a default, nullable when it is ``None``.

    ``check(err, path, value, **bounds)`` returns the parsed value, or
    ``None`` after reporting the problem.  An ``omit_null`` key is left out
    of the document while it is null.
    """
    return dataclasses.field(default=default, metadata={
        "check": check, "bounds": bounds, "omit_null": omit_null})


def _selector(variants: dict[str, tuple[str, ...]]):
    """The required key whose value picks a variant of the key table ``variants``."""
    return dataclasses.field(metadata={"check": _one_of, "bounds": {"options": tuple(variants)},
                                       "variants": variants})


@dataclass(frozen=True, kw_only=True)
class GridSpec:
    source: str = _selector(GRID_SOURCES)
    x_knots: tuple[float, ...] | None = _key(check=_knots)
    y_knots: tuple[float, ...] | None = _key(check=_knots)
    z_rows: tuple[tuple[float, ...], ...] | None = _key(check=_height_rows)  # one per y knot
    path: str | None = _key(check=_text("expected a file path string"))
    name: str | None = _key(check=_fixture)

    def cross_check(self, err: _Collector, path: str) -> bool:
        xs, ys, z = self.x_knots, self.y_knots, self.z_rows
        if self.source == "inline" and (len(z) != len(ys) or any(len(r) != len(xs) for r in z)):
            err.add(f"{path}.z_rows", f"need {len(ys)} rows of {len(xs)} heights for these knots")
            return False
        return True


@dataclass(frozen=True, kw_only=True)
class ScalingSpec:
    cell: tuple[int, int] = _key(check=_cell)
    form: str = _selector(SCALING_FORMS)
    psi: float | str | None = _key(check=_psi)
    exponents: tuple[float, float, float, float] | None = _key((1.0, 1.0, 1.0, 1.0), _exponents)
    outer: str | None = _key("identity", _one_of, options=tuple(OUTER_MAPS))
    psi_lipschitz: float | None = _key(None, omit_null=True, minimum=0.0)
    psi_sup: float | None = _key(None, omit_null=True, minimum=0.0)
    expr: str | None = _key(check=_expression)
    lipschitz: float | None = _key(minimum=0.0)

    def cross_check(self, err: _Collector, path: str) -> bool:
        """A string psi is an expression that needs ``psi_lipschitz``; the quartic's is a number."""
        if not isinstance(self.psi, str):
            return True
        if self.form == "separable-quartic":
            err.add(f"{path}.psi", f"expected a number, got {self.psi!r}")
            return False
        if _expression(err, f"{path}.psi", self.psi) is None:
            return False
        if self.psi_lipschitz is None:
            err.add(f"{path}.psi_lipschitz", "required when psi is an expression")
            return False
        return True


@dataclass(frozen=True, kw_only=True)
class BoundarySpec:
    method: str = _selector(BOUNDARY_METHODS)
    q: tuple[tuple[tuple[float, ...], ...], ...] | None = _key(check=_curves)
    r: tuple[tuple[tuple[float, ...], ...], ...] | None = _key(check=_curves)

    def cross_check(self, err: _Collector, path: str) -> bool:
        if self.method != "quadratic":
            return True
        over = [f"{path}.{label}[{k}]" for label in ("q", "r")
                for k, curve in enumerate(getattr(self, label))
                if any(len(c) > QUADRATIC_MAX_DEGREE + 1 for c in curve)]
        for where in over:
            err.add(where, f"quadratic method allows degree <= {QUADRATIC_MAX_DEGREE} pieces only")
        return not over


@dataclass(frozen=True, kw_only=True)
class BlendTable:
    """One cell's monomial table: ``coeffs[k][l]`` multiplies ``x**k * y**l``."""
    cell: tuple[int, int] = _key(check=_cell)
    coeffs: tuple[tuple[float, ...], ...] = _key(check=_pieces)


@dataclass(frozen=True, kw_only=True)
class BlendSpec:
    mode: str = _selector(BLEND_MODES)
    tables: tuple[BlendTable, ...] | None = _key(check=_records(
        BlendTable, "explicit mode requires a list of cell tables", "duplicate blend table"))


@dataclass(frozen=True)
class _ScalingSection:
    fields: tuple[ScalingSpec, ...] = _key(check=_records(
        ScalingSpec, "expected a non-empty list of field specs", "duplicate scaling spec"))


@dataclass(frozen=True)
class FreeFieldSpec:
    expr: str = _key("0", _expression)
    lipschitz: float = _key(0.0, minimum=0.0)
    sup_abs: float | None = _key(None, omit_null=True, minimum=0.0)


@dataclass(frozen=True)
class SolverSpec:
    resolution: int = _key(integer=True)
    tol: float = _key(1e-6, strict_min=0.0)
    max_iter: int = _key(10000, integer=True, minimum=1)


@dataclass(frozen=True)
class ChaosSpec:
    points: int = _key(100000, integer=True, minimum=1, bits=32)
    seed: int = _key(0, integer=True, minimum=0, bits=64)
    burn_in: int = _key(100, integer=True, minimum=0, bits=32)


@dataclass(frozen=True)
class DimensionSpec:
    depth: int = _key(4, integer=True, minimum=MIN_SCALES)
    epsilon: None = _key(None, _retired("retired: the dimension band no longer shrinks cells, "
                                        "so only null is accepted"), omit_null=True)
    resolution: int | None = _key(None, integer=True)


@dataclass(frozen=True)
class OutputSpec:
    directory: str | None = _key(None, _path)
    stem: str = _key("surface", _nonempty)


@dataclass(frozen=True)
class JobConfig:
    name: str
    grid: GridSpec
    scaling: tuple[ScalingSpec, ...]
    boundary: BoundarySpec
    blend: BlendSpec
    free_field: FreeFieldSpec
    solver: SolverSpec
    chaos: ChaosSpec
    dimension: DimensionSpec
    output: OutputSpec


def _selector_of(spec) -> dataclasses.Field | None:
    return next((f for f in dataclasses.fields(spec) if "variants" in f.metadata), None)


def _parse(err: _Collector, path: str, doc, spec, **defaults):
    """Parse the object ``doc`` at ``path`` into ``spec``, whose fields are its keys.

    ``defaults`` override field defaults; ``doc`` is ``MISSING`` for an
    absent section.  A key that fails its check reads as null, so
    :func:`grid_errors` still sees the other keys.  An object that is
    absent or not an object, names no known variant, or fails a required
    key or its ``cross_check`` reads as its fallback: its defaults when
    every key has one, else ``None``.
    """
    fields = {f.name: f for f in dataclasses.fields(spec)}
    fallback = None if any(f.default is MISSING for f in fields.values()) else spec(**defaults)
    if doc is MISSING:
        return fallback
    if not isinstance(doc, dict):
        err.add(path, "expected an object")
        return fallback
    keys, selector = tuple(fields), _selector_of(spec)
    if selector is not None:
        variant = _one_of(err, f"{path}.{selector.name}", doc.get(selector.name),
                          **selector.metadata["bounds"])
        if variant is None:
            return fallback
        keys = selector.metadata["variants"][variant]
    _check_unknown(err, path, doc, keys)
    values, failed = dict.fromkeys(fields), False
    for key in keys:
        f = fields[key]
        default = defaults.get(key, f.default)
        value = doc.get(key, None if default is MISSING else default)
        if value is not None or default is not None:
            value = f.metadata["check"](err, f"{path}.{key}", value, **f.metadata["bounds"])
            failed |= value is None and default is MISSING
        values[key] = value
    if failed:
        return fallback
    parsed = spec(**values)
    if hasattr(parsed, "cross_check") and not parsed.cross_check(err, path):
        return fallback
    return parsed


def _document(value):
    """The document of a parsed value: a spec's keys in document order, tuples as lists."""
    if isinstance(value, tuple):
        return [_document(v) for v in value]
    if not dataclasses.is_dataclass(value):
        return value
    fields = {f.name: f for f in dataclasses.fields(value)}
    selector = _selector_of(value)
    keys = selector.metadata["variants"][getattr(value, selector.name)] if selector else fields
    return {key: _document(v) for key in keys
            if (v := getattr(value, key)) is not None or not fields[key].metadata.get("omit_null")}


def realize_grid(spec: GridSpec) -> DataGrid:
    if spec.source == "inline":
        return DataGrid.from_y_rows(spec.x_knots, spec.y_knots, spec.z_rows)
    if spec.source == "file":
        return load_grid_text(Path(spec.path).read_text(encoding="utf-8"))
    base = parse_config_document(fixture_config(spec.name))
    return realize_grid(base.grid)


def grid_errors(cfg: JobConfig, grid: DataGrid) -> list[tuple[str, str]]:
    """Every rule ``cfg`` breaks on its realized grid, as (path, message) pairs.

    The rules: each cell covered exactly once by ``scaling.fields`` (and by
    ``blend.tables`` in explicit mode), boundary curve and piece counts that
    match the grid, ``solver.resolution`` and ``dimension.resolution`` (or
    the one ``dimension.depth`` implies) on the grid's sample lattice
    (:func:`~fractsurf.grid.sample_axes`), an explicit ``dimension.resolution``
    also fine enough for every scale down to ``dimension.depth``
    (:func:`~fractsurf.dimension.box_layout`).
    Sections and keys that failed to parse (``None``) are skipped.
    """
    err = _Collector()
    cells = {(c.i, c.j) for c in grid.cells()}
    tables = cfg.blend.tables if cfg.blend is not None else None  # None in coons mode
    for path, records, what in (("scaling.fields", cfg.scaling, "scaling specs"),
                                ("blend.tables", tables, "blend tables")):
        if not records:
            continue
        got = {record.cell for record in records}
        for cell in sorted(got - cells):
            err.add(path, f"cell {_shown(cell)} is outside the {grid.n}x{grid.m} grid")
        missing = sorted(cells - got)
        if missing and not (got - cells):
            err.add(path, f"missing {what} for cells {[list(c) for c in missing]}")
    boundary = cfg.boundary
    if boundary is not None and boundary.method != "linear":
        for label, curves, pieces in (("q", grid.n + 1, grid.m), ("r", grid.m + 1, grid.n)):
            got = getattr(boundary, label)
            if len(got) != curves:
                err.add(f"boundary.{label}", f"need {curves} curves, got {len(got)}")
            for k, curve in enumerate(got):
                if len(curve) != pieces:
                    err.add(f"boundary.{label}[{k}]", f"need {pieces} pieces, got {len(curve)}")
    resolutions = {"solver.resolution": cfg.solver.resolution if cfg.solver else None,
                   "dimension.resolution": cfg.dimension.resolution}
    for path, resolution in resolutions.items():
        if resolution is not None:
            try:
                sample_axes(grid, resolution)
                if path == "dimension.resolution" and cfg.dimension.depth is not None:
                    # a scale past R's bit length is too fine when n > 1 and repeats when n = 1
                    depth = min(cfg.dimension.depth, resolution.bit_length())
                    for delta in natural_scales(grid, depth):
                        box_layout(resolution, (grid.x_span, grid.y_span), delta)
            except FractsurfError as exc:
                err.add(path, str(exc))
    if cfg.dimension.resolution is None and (depth := cfg.dimension.depth) is not None:
        # capped as R's bit length caps it above: past it, n**depth alone exceeds the ceiling
        implied = dimension_resolution(grid, min(depth, MAX_RESOLUTION.bit_length()))
        try:
            sample_axes(grid, implied)
        except FractsurfError as exc:
            err.add("dimension.depth",
                    f"depth {depth} needs a dimension resolution of at least {implied}: {exc}")
    return err.errors


def parse_config_document(doc: dict) -> JobConfig:
    """Validate a configuration document, collecting every error."""
    err = _Collector()
    if not isinstance(doc, dict):
        err.add("", "configuration must be a JSON object")
        err.raise_if_any()
    for section in _REQUIRED_SECTIONS:
        if section not in doc:
            err.add(section, "required section missing")
    _check_unknown(err, "", doc, _ALL_SECTIONS)

    def section(name: str, spec, **defaults):
        return _parse(err, name, doc.get(name, MISSING), spec, **defaults)

    grid_spec = section("grid", GridSpec)
    scaling = section("scaling", _ScalingSection)
    boundary = section("boundary", BoundarySpec)
    blend = section("blend", BlendSpec)
    free = section("free_field", FreeFieldSpec)
    solver = section("solver", SolverSpec)
    chaos = section("chaos", ChaosSpec)
    dimension = section("dimension", DimensionSpec)
    name = _nonempty(err, "name", doc.get("name", "job")) or "job"
    output = section("output", OutputSpec, stem=name)

    cfg = JobConfig(name=name, grid=grid_spec, scaling=scaling.fields if scaling else (),
                    boundary=boundary, blend=blend, free_field=free, solver=solver,
                    chaos=chaos, dimension=dimension, output=output)
    grid_clean = not any(p == "grid" or p.startswith("grid.") for p, _ in err.errors)
    if grid_spec is not None and grid_clean and grid_spec.source != "file":
        try:
            grid = realize_grid(grid_spec)
        except FractsurfError as exc:
            err.add("grid", str(exc))
        else:
            err.errors += grid_errors(cfg, grid)
    err.raise_if_any()
    return cfg


def parse_config(text: str) -> JobConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer literal beyond Python's digit limit
        raise ConfigurationError([("", f"not valid JSON: {exc}")]) from None
    return parse_config_document(doc)


def config_document(cfg: JobConfig) -> dict:
    """The canonical (complete, ordered) document for a configuration."""
    doc = _document(cfg)
    doc["scaling"] = {"fields": doc["scaling"]}
    return doc


def serialize_config(cfg: JobConfig) -> str:
    return json.dumps(config_document(cfg), indent=2) + "\n"
