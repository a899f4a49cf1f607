"""Job configuration: a validated, immutable view of one JSON document.

The schema (documented in the README) has sections ``grid``, ``scaling``,
``boundary``, ``blend``, ``free_field``, ``solver``, ``chaos``,
``dimension`` and ``output``.  Parsing validates everything it can decide
without running the pipeline — unknown keys, duplicate cells,
non-increasing knots — and reports *all* problems at once, each with a
path-like locator, rather than stopping at the first.

The flat sections ``free_field``, ``solver``, ``chaos``, ``dimension`` and
``output`` are defined once, by the fields of their ``*Spec`` dataclasses:
each field (see :func:`_key`) gives a key, its default and its check, and
:func:`_parse_flat`, the unknown-key check and :func:`config_document` all
read them.  The other sections have one shape per variant and keep their own
parsers; the keys of each ``scaling.fields`` form are in ``SCALING_KEYS``.

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

from .boundary import QUADRATIC_MAX_DEGREE
from .errors import ConfigurationError, FractsurfError
from .fixtures import fixture_config, fixture_names
from .grid import DataGrid, load_grid_text, sample_axes
from .scaling import OUTER_MAPS, PRODUCT_EXPONENT_MIN
from .utils import compile_xy_expression

_REQUIRED_SECTIONS = ("grid", "scaling", "boundary", "blend", "solver")
_ALL_SECTIONS = _REQUIRED_SECTIONS + ("name", "free_field", "chaos", "dimension", "output")

# the keys each form of a ``scaling.fields`` entry takes, in document order
SCALING_KEYS = {
    "separable-quartic": ("cell", "form", "psi"),
    "polynomial-product": ("cell", "form", "psi", "exponents", "outer",
                           "psi_lipschitz", "psi_sup"),
    "expression": ("cell", "form", "expr", "lipschitz"),
}
SCALING_FORMS = tuple(SCALING_KEYS)
BOUNDARY_METHODS = ("linear", "quadratic", "pieces")
BLEND_MODES = ("coons", "explicit")


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
        err.add(path, f"expected a number, got {value!r}")
        return None
    if integer and isinstance(value, float) and not value.is_integer():
        err.add(path, f"expected an integer, got {value!r}")
        return None
    if not abs(value) <= sys.float_info.max:  # also an int that float() cannot hold
        err.add(path, "must be finite")
        return None
    if minimum is not None and value < minimum:
        err.add(path, f"must be >= {minimum}, got {value!r}")
        return None
    if strict_min is not None and value <= strict_min:
        err.add(path, f"must be > {strict_min}, got {value!r}")
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


def _nonempty(err: _Collector, path: str, value) -> str | None:
    if not isinstance(value, str) or not value:
        err.add(path, "expected a non-empty string")
        return None
    return value


def _path(err: _Collector, path: str, value) -> str | None:
    if not isinstance(value, str):
        err.add(path, "expected a path string or null")
        return None
    return value


def _key(default=MISSING, check=_number, **bounds):
    """A flat-section key: required without a default, nullable when it is ``None``.

    ``check(err, path, value, **bounds)`` returns the parsed value, or
    ``None`` after reporting the problem.
    """
    return dataclasses.field(default=default, metadata={"check": check, "bounds": bounds})


@dataclass(frozen=True)
class GridSpec:
    source: str                     # "inline" | "file" | "fixture"
    x_knots: tuple[float, ...] | None = None
    y_knots: tuple[float, ...] | None = None
    z_rows: tuple[tuple[float, ...], ...] | None = None  # one row per y knot
    path: str | None = None
    fixture: str | None = None


@dataclass(frozen=True)
class ScalingSpec:
    cell: tuple[int, int]
    form: str
    psi: float | str | None = None
    exponents: tuple[float, float, float, float] | None = None
    outer: str = "identity"
    psi_lipschitz: float | None = None
    psi_sup: float | None = None
    expr: str | None = None
    lipschitz: float | None = None


@dataclass(frozen=True)
class BoundarySpec:
    method: str
    q: tuple[tuple[tuple[float, ...], ...], ...] | None = None
    r: tuple[tuple[tuple[float, ...], ...], ...] | None = None


@dataclass(frozen=True)
class BlendSpec:
    mode: str
    tables: tuple[tuple[tuple[int, int], tuple[tuple[float, ...], ...]], ...] | None = None


@dataclass(frozen=True)
class FreeFieldSpec:
    expr: str = _key("0", _expression)
    lipschitz: float = _key(0.0, minimum=0.0)
    sup_abs: float | None = _key(None, minimum=0.0)


@dataclass(frozen=True)
class SolverSpec:
    resolution: int = _key(integer=True, minimum=5)
    tol: float = _key(1e-6, strict_min=0.0)
    max_iter: int = _key(10000, integer=True, minimum=1)


@dataclass(frozen=True)
class ChaosSpec:
    points: int = _key(100000, integer=True, minimum=1)
    seed: int = _key(0, integer=True, minimum=0, bits=64)
    burn_in: int = _key(100, integer=True, minimum=0)


@dataclass(frozen=True)
class DimensionSpec:
    depth: int = _key(4, integer=True, minimum=1)
    epsilon: float | None = _key(None, strict_min=0.0)
    resolution: int | None = _key(None, integer=True, minimum=5)


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


def _parse_grid(err: _Collector, doc) -> GridSpec | None:
    if not isinstance(doc, dict):
        err.add("grid", "expected an object")
        return None
    source = doc.get("source")
    if source not in ("inline", "file", "fixture"):
        err.add("grid.source", f"must be one of inline/file/fixture, got {source!r}")
        return None
    if source == "inline":
        _check_unknown(err, "grid", doc, ("source", "x_knots", "y_knots", "z_rows"))
        xs = _float_list(err, "grid.x_knots", doc.get("x_knots"))
        ys = _float_list(err, "grid.y_knots", doc.get("y_knots"))
        z = _height_rows(err, "grid.z_rows", doc.get("z_rows"))
        for label, knots in (("x_knots", xs), ("y_knots", ys)):
            if knots is not None:
                if len(knots) < 2:
                    err.add(f"grid.{label}", "need at least two knots")
                elif any(b <= a for a, b in zip(knots, knots[1:])):
                    err.add(f"grid.{label}", "knots must be strictly increasing")
        if xs is not None and ys is not None and z is not None:
            if len(z) != len(ys) or any(len(r) != len(xs) for r in z):
                err.add("grid.z_rows",
                        f"need {len(ys)} rows of {len(xs)} heights for these knots")
                z = None
        if xs is None or ys is None or z is None:
            return None
        return GridSpec("inline", xs, ys, z)
    if source == "file":
        _check_unknown(err, "grid", doc, ("source", "path"))
        path = doc.get("path")
        if not isinstance(path, str) or not path:
            err.add("grid.path", "expected a file path string")
            return None
        return GridSpec("file", path=path)
    _check_unknown(err, "grid", doc, ("source", "name"))
    name = doc.get("name")
    if name not in fixture_names():
        err.add("grid.name", f"unknown fixture {name!r}; "
                             f"available: {', '.join(fixture_names())}")
        return None
    return GridSpec("fixture", fixture=name)


def realize_grid(spec: GridSpec) -> DataGrid:
    if spec.source == "inline":
        return DataGrid.from_y_rows(spec.x_knots, spec.y_knots, spec.z_rows)
    if spec.source == "file":
        return load_grid_text(Path(spec.path).read_text(encoding="utf-8"))
    base = parse_config_document(fixture_config(spec.fixture))
    return realize_grid(base.grid)


def _parse_cell(err: _Collector, path: str, value) -> tuple[int, int] | None:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in value)):
        err.add(path, f"expected a cell index pair [i, j], got {value!r}")
        return None
    return int(value[0]), int(value[1])


def _parse_scaling(err: _Collector, doc) -> tuple[ScalingSpec, ...]:
    if not isinstance(doc, dict):
        err.add("scaling", "expected an object")
        return ()
    _check_unknown(err, "scaling", doc, ("fields",))
    fields = doc.get("fields")
    if not isinstance(fields, (list, tuple)) or not fields:
        err.add("scaling.fields", "expected a non-empty list of field specs")
        return ()
    out = []
    seen = set()
    for k, spec in enumerate(fields):
        path = f"scaling.fields[{k}]"
        if not isinstance(spec, dict):
            err.add(path, "expected an object")
            continue
        cell = _parse_cell(err, f"{path}.cell", spec.get("cell"))
        form = spec.get("form")
        if form not in SCALING_FORMS:
            err.add(f"{path}.form", f"must be one of {'/'.join(SCALING_FORMS)}, got {form!r}")
            continue
        if cell is None:
            continue
        if cell in seen:
            err.add(f"{path}.cell", f"duplicate scaling spec for cell {list(cell)}")
            continue
        seen.add(cell)
        _check_unknown(err, path, spec, SCALING_KEYS[form])
        if form == "separable-quartic":
            psi = _number(err, f"{path}.psi", spec.get("psi"))
            if psi is None:
                continue
            out.append(ScalingSpec(cell=cell, form=form, psi=psi))
        elif form == "polynomial-product":
            psi = spec.get("psi")
            psi_lip, psi_sup = (None if spec.get(key) is None
                                else _number(err, f"{path}.{key}", spec[key], minimum=0.0)
                                for key in ("psi_lipschitz", "psi_sup"))
            if isinstance(psi, str):
                if _expression(err, f"{path}.psi", psi) is None:
                    continue
                if psi_lip is None:
                    err.add(f"{path}.psi_lipschitz",
                            "required when psi is an expression")
                    continue
            elif _number(err, f"{path}.psi", psi) is None:
                continue
            else:
                psi = float(psi)
            exps = _float_list(err, f"{path}.exponents", spec.get("exponents", [1.0] * 4))
            if exps is None or len(exps) != 4:
                err.add(f"{path}.exponents", "expected four exponents")
                continue
            if min(exps) < PRODUCT_EXPONENT_MIN:
                err.add(f"{path}.exponents", f"must be >= {PRODUCT_EXPONENT_MIN} to keep the "
                                             f"Lipschitz certification sound, got {list(exps)}")
            outer = spec.get("outer", ScalingSpec.outer)
            if not isinstance(outer, str) or outer not in OUTER_MAPS:
                err.add(f"{path}.outer", f"must be one of {'/'.join(OUTER_MAPS)}, got {outer!r}")
            out.append(ScalingSpec(
                cell=cell, form=form, psi=psi, exponents=exps, outer=outer,
                psi_lipschitz=psi_lip, psi_sup=psi_sup))
        else:
            expr = _expression(err, f"{path}.expr", spec.get("expr"))
            if expr is None:
                continue
            lip = _number(err, f"{path}.lipschitz", spec.get("lipschitz"), minimum=0.0)
            if lip is None:
                continue
            out.append(ScalingSpec(cell=cell, form=form, expr=expr, lipschitz=lip))
    return tuple(out)


def _parse_boundary(err: _Collector, doc) -> BoundarySpec | None:
    if not isinstance(doc, dict):
        err.add("boundary", "expected an object")
        return None
    method = doc.get("method")
    if method not in BOUNDARY_METHODS:
        err.add("boundary.method",
                f"must be one of {'/'.join(BOUNDARY_METHODS)}, got {method!r}")
        return None
    if method == "linear":
        _check_unknown(err, "boundary", doc, ("method",))
        return BoundarySpec("linear")
    _check_unknown(err, "boundary", doc, ("method", "q", "r"))
    groups = {}
    for label in ("q", "r"):
        value = doc.get(label)
        if not isinstance(value, (list, tuple)) or not value:
            err.add(f"boundary.{label}",
                    f"method {method!r} requires a list of per-curve piece coefficients")
            return None
        curves = []
        for k, pieces in enumerate(value):
            p = _pieces(err, f"boundary.{label}[{k}]", pieces)
            if p is None:
                return None
            if method == "quadratic" and any(len(c) > QUADRATIC_MAX_DEGREE + 1 for c in p):
                err.add(f"boundary.{label}[{k}]", "quadratic method allows degree "
                        f"<= {QUADRATIC_MAX_DEGREE} pieces only")
                return None
            curves.append(p)
        groups[label] = tuple(curves)
    return BoundarySpec(method, q=groups["q"], r=groups["r"])


def _parse_blend(err: _Collector, doc) -> BlendSpec | None:
    if not isinstance(doc, dict):
        err.add("blend", "expected an object")
        return None
    mode = doc.get("mode")
    if mode not in BLEND_MODES:
        err.add("blend.mode", f"must be one of {'/'.join(BLEND_MODES)}, got {mode!r}")
        return None
    if mode == "coons":
        _check_unknown(err, "blend", doc, ("mode",))
        return BlendSpec("coons")
    _check_unknown(err, "blend", doc, ("mode", "tables"))
    tables = doc.get("tables")
    if not isinstance(tables, (list, tuple)) or not tables:
        err.add("blend.tables", "explicit mode requires a list of cell tables")
        return None
    out = []
    seen = set()
    for k, entry in enumerate(tables):
        path = f"blend.tables[{k}]"
        if not isinstance(entry, dict):
            err.add(path, "expected an object")
            continue
        _check_unknown(err, path, entry, ("cell", "coeffs"))
        cell = _parse_cell(err, f"{path}.cell", entry.get("cell"))
        coeffs = _pieces(err, f"{path}.coeffs", entry.get("coeffs"))
        if cell is None or coeffs is None:
            continue
        if cell in seen:
            err.add(f"{path}.cell", f"duplicate blend table for cell {list(cell)}")
            continue
        seen.add(cell)
        out.append((cell, coeffs))
    return BlendSpec("explicit", tables=tuple(out))


def grid_errors(cfg: JobConfig, grid: DataGrid) -> list[tuple[str, str]]:
    """Every rule ``cfg`` breaks on its realized grid, as (path, message) pairs.

    The rules: each cell covered exactly once by ``scaling.fields`` (and by
    ``blend.tables`` in explicit mode), boundary curve and piece counts that
    match the grid, ``solver.resolution`` and ``dimension.resolution`` on
    the grid's sample lattice (:func:`~fractsurf.grid.sample_axes`), and
    ``dimension.epsilon`` inside half the narrowest cell.  Sections that
    failed to parse (``None``) are skipped.
    """
    err = _Collector()
    cells = {(c.i, c.j) for c in grid.cells()}
    if cfg.scaling:
        got = {s.cell for s in cfg.scaling}
        for cell in sorted(got - cells):
            err.add("scaling.fields", f"cell {list(cell)} is outside the {grid.n}x{grid.m} grid")
        missing = sorted(cells - got)
        if missing and not (got - cells):
            err.add("scaling.fields",
                    f"missing scaling specs for cells {[list(c) for c in missing]}")
    boundary = cfg.boundary
    if boundary is not None and boundary.method != "linear":
        if len(boundary.q) != grid.n + 1:
            err.add("boundary.q", f"need {grid.n + 1} curves, got {len(boundary.q)}")
        if len(boundary.r) != grid.m + 1:
            err.add("boundary.r", f"need {grid.m + 1} curves, got {len(boundary.r)}")
        for k, curve in enumerate(boundary.q):
            if len(curve) != grid.m:
                err.add(f"boundary.q[{k}]", f"need {grid.m} pieces, got {len(curve)}")
        for k, curve in enumerate(boundary.r):
            if len(curve) != grid.n:
                err.add(f"boundary.r[{k}]", f"need {grid.n} pieces, got {len(curve)}")
    blend = cfg.blend
    if blend is not None and blend.mode == "explicit" and blend.tables:
        got = {cell for cell, _ in blend.tables}
        for cell in sorted(got - cells):
            err.add("blend.tables", f"cell {list(cell)} is outside the grid")
        missing = sorted(cells - got)
        if missing and not (got - cells):
            err.add("blend.tables",
                    f"missing blend tables for cells {[list(c) for c in missing]}")
    resolutions = {"solver.resolution": cfg.solver.resolution if cfg.solver else None,
                   "dimension.resolution": cfg.dimension.resolution}
    for path, resolution in resolutions.items():
        if resolution is not None:
            try:
                sample_axes(grid, resolution)
            except FractsurfError as exc:
                err.add(path, str(exc))
    eps = cfg.dimension.epsilon
    if eps is not None:
        half = min(min(b - a for a, b in zip(grid.x_knots, grid.x_knots[1:])),
                   min(b - a for a, b in zip(grid.y_knots, grid.y_knots[1:]))) / 2
        if not (0 < eps < half):
            err.add("dimension.epsilon",
                    f"must sit in (0, {half!r}) for this grid, got {eps!r}")
    return err.errors


def _parse_flat(err: _Collector, doc: dict, section: str, spec, **defaults):
    """Parse a section whose keys, defaults and checks are the fields of ``spec``.

    ``defaults`` override field defaults.  A key that fails its check reads
    as null where null is its default, so :func:`grid_errors` still sees the
    section's other keys; any other failure gives the default section, or
    ``None`` when the section has a required key.
    """
    keys = dataclasses.fields(spec)
    fallback = None if any(f.default is MISSING for f in keys) else spec(**defaults)
    if section not in doc:
        return fallback
    sdoc = doc[section]
    if not isinstance(sdoc, dict):
        err.add(section, "expected an object")
        return fallback
    _check_unknown(err, section, sdoc, [f.name for f in keys])
    values, failed = {}, False
    for f in keys:
        default = defaults.get(f.name, f.default)
        value = sdoc.get(f.name, None if default is MISSING else default)
        if value is not None or default is not None:
            value = f.metadata["check"](err, f"{section}.{f.name}", value,
                                        **f.metadata["bounds"])
            failed |= value is None and default is not None
        values[f.name] = value
    return fallback if failed else spec(**values)


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

    grid_spec = _parse_grid(err, doc["grid"]) if "grid" in doc else None
    scaling = _parse_scaling(err, doc["scaling"]) if "scaling" in doc else ()
    boundary = _parse_boundary(err, doc["boundary"]) if "boundary" in doc else None
    blend = _parse_blend(err, doc["blend"]) if "blend" in doc else None

    free = _parse_flat(err, doc, "free_field", FreeFieldSpec)
    solver = _parse_flat(err, doc, "solver", SolverSpec)
    chaos = _parse_flat(err, doc, "chaos", ChaosSpec)
    dimension = _parse_flat(err, doc, "dimension", DimensionSpec)
    name = _nonempty(err, "name", doc.get("name", "job")) or "job"
    output = _parse_flat(err, doc, "output", OutputSpec, stem=name)

    cfg = JobConfig(name=name, grid=grid_spec, scaling=scaling, boundary=boundary,
                    blend=blend, free_field=free, solver=solver, chaos=chaos,
                    dimension=dimension, output=output)
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
    except json.JSONDecodeError as exc:
        raise ConfigurationError([("", f"not valid JSON: {exc}")]) from None
    return parse_config_document(doc)


def config_document(cfg: JobConfig) -> dict:
    """The canonical (complete, ordered) document for a configuration."""
    grid: dict = {"source": cfg.grid.source}
    if cfg.grid.source == "inline":
        grid.update(x_knots=list(cfg.grid.x_knots), y_knots=list(cfg.grid.y_knots),
                    z_rows=[list(r) for r in cfg.grid.z_rows])
    elif cfg.grid.source == "file":
        grid["path"] = cfg.grid.path
    else:
        grid["name"] = cfg.grid.fixture
    fields = [{key: list(value) if isinstance(value, tuple) else value
               for key in SCALING_KEYS[s.form] if (value := getattr(s, key)) is not None}
              for s in cfg.scaling]
    boundary: dict = {"method": cfg.boundary.method}
    if cfg.boundary.method != "linear":
        boundary["q"] = [[list(c) for c in curve] for curve in cfg.boundary.q]
        boundary["r"] = [[list(c) for c in curve] for curve in cfg.boundary.r]
    blend: dict = {"mode": cfg.blend.mode}
    if cfg.blend.mode == "explicit":
        blend["tables"] = [{"cell": list(cell), "coeffs": [list(r) for r in coeffs]}
                           for cell, coeffs in cfg.blend.tables]
    free = dataclasses.asdict(cfg.free_field)
    if free["sup_abs"] is None:
        del free["sup_abs"]
    return {
        "name": cfg.name,
        "grid": grid,
        "scaling": {"fields": fields},
        "boundary": boundary,
        "blend": blend,
        "free_field": free,
        "solver": dataclasses.asdict(cfg.solver),
        "chaos": dataclasses.asdict(cfg.chaos),
        "dimension": dataclasses.asdict(cfg.dimension),
        "output": dataclasses.asdict(cfg.output),
    }


def serialize_config(cfg: JobConfig) -> str:
    return json.dumps(config_document(cfg), indent=2) + "\n"
