"""Job configuration: a validated, immutable view of one JSON document.

The schema (documented in the README) has sections ``grid``, ``scaling``,
``boundary``, ``blend``, ``free_field``, ``solver``, ``chaos``,
``dimension`` and ``output``.  Parsing validates everything it can decide
without running the pipeline — unknown keys, duplicate cells,
non-increasing knots — and reports *all* problems at once, each with a
path-like locator, rather than stopping at the first.  Optional keys take
their defaults from the ``*Spec`` dataclass fields.

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

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .boundary import QUADRATIC_MAX_DEGREE
from .errors import ConfigurationError, FractsurfError
from .fixtures import fixture_config, fixture_names
from .grid import DataGrid, load_grid_text, sample_axes
from .utils import compile_xy_expression

_REQUIRED_SECTIONS = ("grid", "scaling", "boundary", "blend", "solver")
_ALL_SECTIONS = _REQUIRED_SECTIONS + ("name", "free_field", "chaos", "dimension", "output")

SCALING_FORMS = ("separable-quartic", "polynomial-product", "expression")
BOUNDARY_METHODS = ("linear", "quadratic", "pieces")
BLEND_MODES = ("coons", "explicit")


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
    expr: str = "0"
    lipschitz: float = 0.0
    sup_abs: float | None = None


@dataclass(frozen=True)
class SolverSpec:
    resolution: int
    tol: float = 1e-6
    max_iter: int = 10000


@dataclass(frozen=True)
class ChaosSpec:
    points: int = 100000
    seed: int = 0
    burn_in: int = 100


@dataclass(frozen=True)
class DimensionSpec:
    depth: int = 4
    epsilon: float | None = None
    resolution: int | None = None


@dataclass(frozen=True)
class OutputSpec:
    directory: str | None = None
    stem: str = "surface"


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
            integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        err.add(path, f"expected a number, got {value!r}")
        return None
    if integer and not float(value).is_integer():
        err.add(path, f"expected an integer, got {value!r}")
        return None
    if not math.isfinite(value):
        err.add(path, "must be finite")
        return None
    if minimum is not None and value < minimum:
        err.add(path, f"must be >= {minimum}, got {value!r}")
        return None
    if strict_min is not None and value <= strict_min:
        err.add(path, f"must be > {strict_min}, got {value!r}")
        return None
    return int(value) if integer else float(value)


def _float_list(err: _Collector, path: str, value) -> tuple[float, ...] | None:
    if not isinstance(value, (list, tuple)) or not value:
        err.add(path, "expected a non-empty list of numbers")
        return None
    out = []
    for k, v in enumerate(value):
        f = _number(err, f"{path}[{k}]", v)
        if f is None:
            return None
        out.append(f)
    return tuple(out)


def _pieces(err: _Collector, path: str, value) -> tuple[tuple[float, ...], ...] | None:
    """A list of per-interval ascending coefficient lists."""
    if not isinstance(value, (list, tuple)) or not value:
        err.add(path, "expected a list of coefficient lists")
        return None
    out = []
    for k, piece in enumerate(value):
        c = _float_list(err, f"{path}[{k}]", piece)
        if c is None:
            return None
        out.append(c)
    return tuple(out)


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
        rows = doc.get("z_rows")
        z = None
        if not isinstance(rows, (list, tuple)) or not rows:
            err.add("grid.z_rows", "expected a list of height rows (one per y knot)")
        else:
            z = []
            for k, row in enumerate(rows):
                r = _float_list(err, f"grid.z_rows[{k}]", row)
                if r is None:
                    z = None
                    break
                z.append(r)
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
        return GridSpec("inline", xs, ys, tuple(z))
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
        if form == "separable-quartic":
            _check_unknown(err, path, spec, ("cell", "form", "psi"))
            psi = _number(err, f"{path}.psi", spec.get("psi"))
            if psi is None:
                continue
            out.append(ScalingSpec(cell=cell, form=form, psi=psi))
        elif form == "polynomial-product":
            _check_unknown(err, path, spec,
                           ("cell", "form", "psi", "exponents", "outer",
                            "psi_lipschitz", "psi_sup"))
            psi = spec.get("psi")
            psi_lip = None
            if "psi_lipschitz" in spec and spec["psi_lipschitz"] is not None:
                psi_lip = _number(err, f"{path}.psi_lipschitz",
                                  spec["psi_lipschitz"], minimum=0.0)
            psi_sup = None
            if spec.get("psi_sup") is not None:
                psi_sup = _number(err, f"{path}.psi_sup", spec["psi_sup"], minimum=0.0)
            if isinstance(psi, str):
                try:
                    compile_xy_expression(psi)
                except ValueError as exc:
                    err.add(f"{path}.psi", str(exc))
                    continue
                if psi_lip is None:
                    err.add(f"{path}.psi_lipschitz",
                            "required when psi is an expression")
                    continue
            elif _number(err, f"{path}.psi", psi) is None:
                continue
            else:
                psi = float(psi)
            exponents = spec.get("exponents", [1.0, 1.0, 1.0, 1.0])
            exps = _float_list(err, f"{path}.exponents", exponents)
            if exps is None or len(exps) != 4:
                err.add(f"{path}.exponents", "expected four exponents")
                continue
            out.append(ScalingSpec(
                cell=cell, form=form, psi=psi,
                exponents=exps, outer=str(spec.get("outer", ScalingSpec.outer)),
                psi_lipschitz=psi_lip, psi_sup=psi_sup))
        else:
            _check_unknown(err, path, spec, ("cell", "form", "expr", "lipschitz"))
            expr = spec.get("expr")
            if not isinstance(expr, str):
                err.add(f"{path}.expr", "expected an expression string")
                continue
            try:
                compile_xy_expression(expr)
            except ValueError as exc:
                err.add(f"{path}.expr", str(exc))
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

    free = FreeFieldSpec()
    if "free_field" in doc:
        fdoc = doc["free_field"]
        if not isinstance(fdoc, dict):
            err.add("free_field", "expected an object")
        else:
            _check_unknown(err, "free_field", fdoc, ("expr", "lipschitz", "sup_abs"))
            expr = fdoc.get("expr", FreeFieldSpec.expr)
            if not isinstance(expr, str):
                err.add("free_field.expr", "expected an expression string")
            else:
                try:
                    compile_xy_expression(expr)
                except ValueError as exc:
                    err.add("free_field.expr", str(exc))
            lip = _number(err, "free_field.lipschitz",
                          fdoc.get("lipschitz", FreeFieldSpec.lipschitz), minimum=0.0)
            sup = None
            if fdoc.get("sup_abs") is not None:
                sup = _number(err, "free_field.sup_abs", fdoc.get("sup_abs"), minimum=0.0)
            if isinstance(expr, str) and lip is not None:
                free = FreeFieldSpec(expr=expr, lipschitz=lip, sup_abs=sup)

    solver = None
    if "solver" in doc:
        sdoc = doc["solver"]
        if not isinstance(sdoc, dict):
            err.add("solver", "expected an object")
        else:
            _check_unknown(err, "solver", sdoc, ("resolution", "tol", "max_iter"))
            res = _number(err, "solver.resolution", sdoc.get("resolution"),
                          integer=True, minimum=5)
            tol = _number(err, "solver.tol", sdoc.get("tol", SolverSpec.tol), strict_min=0.0)
            mx = _number(err, "solver.max_iter", sdoc.get("max_iter", SolverSpec.max_iter),
                         integer=True, minimum=1)
            if res is not None and tol is not None and mx is not None:
                solver = SolverSpec(resolution=res, tol=tol, max_iter=mx)

    chaos = ChaosSpec()
    if "chaos" in doc:
        cdoc = doc["chaos"]
        if not isinstance(cdoc, dict):
            err.add("chaos", "expected an object")
        else:
            _check_unknown(err, "chaos", cdoc, ("points", "seed", "burn_in"))
            pts = _number(err, "chaos.points", cdoc.get("points", ChaosSpec.points),
                          integer=True, minimum=1)
            seed = _number(err, "chaos.seed", cdoc.get("seed", ChaosSpec.seed),
                           integer=True, minimum=0)
            burn = _number(err, "chaos.burn_in", cdoc.get("burn_in", ChaosSpec.burn_in),
                           integer=True, minimum=0)
            if seed is not None and seed > 2 ** 64 - 1:
                err.add("chaos.seed", "must fit in 64 bits")
                seed = None
            if pts is not None and seed is not None and burn is not None:
                chaos = ChaosSpec(points=pts, seed=seed, burn_in=burn)

    dimension = DimensionSpec()
    if "dimension" in doc:
        ddoc = doc["dimension"]
        if not isinstance(ddoc, dict):
            err.add("dimension", "expected an object")
        else:
            _check_unknown(err, "dimension", ddoc, ("depth", "epsilon", "resolution"))
            depth = _number(err, "dimension.depth", ddoc.get("depth", DimensionSpec.depth),
                            integer=True, minimum=1)
            eps = None
            if ddoc.get("epsilon") is not None:
                eps = _number(err, "dimension.epsilon", ddoc.get("epsilon"), strict_min=0.0)
            res = None
            if ddoc.get("resolution") is not None:
                res = _number(err, "dimension.resolution", ddoc.get("resolution"),
                              integer=True, minimum=5)
            if depth is not None:
                dimension = DimensionSpec(depth=depth, epsilon=eps, resolution=res)

    name = doc.get("name", "job")
    if not isinstance(name, str) or not name:
        err.add("name", "expected a non-empty string")
        name = "job"

    output = OutputSpec(stem=name)
    if "output" in doc:
        odoc = doc["output"]
        if not isinstance(odoc, dict):
            err.add("output", "expected an object")
        else:
            _check_unknown(err, "output", odoc, ("directory", "stem"))
            directory = odoc.get("directory")
            if directory is not None and not isinstance(directory, str):
                err.add("output.directory", "expected a path string or null")
                directory = None
            stem = odoc.get("stem", name)
            if not isinstance(stem, str) or not stem:
                err.add("output.stem", "expected a non-empty string")
                stem = name
            output = OutputSpec(directory=directory, stem=stem)

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
    fields = []
    for s in cfg.scaling:
        entry: dict = {"cell": list(s.cell), "form": s.form}
        if s.form == "separable-quartic":
            entry["psi"] = s.psi
        elif s.form == "polynomial-product":
            entry["psi"] = s.psi
            entry["exponents"] = list(s.exponents)
            entry["outer"] = s.outer
            if s.psi_lipschitz is not None:
                entry["psi_lipschitz"] = s.psi_lipschitz
            if s.psi_sup is not None:
                entry["psi_sup"] = s.psi_sup
        else:
            entry["expr"] = s.expr
            entry["lipschitz"] = s.lipschitz
        fields.append(entry)
    boundary: dict = {"method": cfg.boundary.method}
    if cfg.boundary.method != "linear":
        boundary["q"] = [[list(c) for c in curve] for curve in cfg.boundary.q]
        boundary["r"] = [[list(c) for c in curve] for curve in cfg.boundary.r]
    blend: dict = {"mode": cfg.blend.mode}
    if cfg.blend.mode == "explicit":
        blend["tables"] = [{"cell": list(cell), "coeffs": [list(r) for r in coeffs]}
                           for cell, coeffs in cfg.blend.tables]
    free: dict = {"expr": cfg.free_field.expr, "lipschitz": cfg.free_field.lipschitz}
    if cfg.free_field.sup_abs is not None:
        free["sup_abs"] = cfg.free_field.sup_abs
    return {
        "name": cfg.name,
        "grid": grid,
        "scaling": {"fields": fields},
        "boundary": boundary,
        "blend": blend,
        "free_field": free,
        "solver": {"resolution": cfg.solver.resolution, "tol": cfg.solver.tol,
                   "max_iter": cfg.solver.max_iter},
        "chaos": {"points": cfg.chaos.points, "seed": cfg.chaos.seed,
                  "burn_in": cfg.chaos.burn_in},
        "dimension": {"depth": cfg.dimension.depth, "epsilon": cfg.dimension.epsilon,
                      "resolution": cfg.dimension.resolution},
        "output": {"directory": cfg.output.directory, "stem": cfg.output.stem},
    }


def serialize_config(cfg: JobConfig) -> str:
    return json.dumps(config_document(cfg), indent=2) + "\n"
