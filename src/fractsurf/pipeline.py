"""End-to-end orchestration: configuration -> system -> artifacts.

``build_system`` turns a validated :class:`~fractsurf.config.JobConfig`
into a certified :class:`~fractsurf.ifs.IfsSystem`; ``run_pipeline``
executes one of the five workflow commands and writes its artifacts.  All
compute happens in the library modules — this module only wires them
together and formats the outputs, so every file it writes is reproducible
from the configuration alone (plus the seed for the point cloud).
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundary import (CurveNetwork, PatchBlend, build_boundary_curves,
                       build_coons_blend, build_free_field, build_Q,
                       load_explicit_blend)
from .config import SCALING_FORMS, JobConfig, grid_errors, realize_grid, serialize_config
from .dimension import (ColumnExtrema, DimensionReport, dimension_report,
                        dimension_resolution, natural_scales)
from .errors import ConfigurationError, FractsurfError
from .exports import (counts_csv, dimension_report_text, heightmap_csv,
                      heightmap_pgm, write_bytes, write_text, xyz_text)
from .grid import CellIndex, DataGrid, build_domain_maps
from .ifs import (IfsSystem, MetricReport, SurfaceSample, assemble_ifs,
                  certify_metric, chaos_game, solve_fixed_point)
from .scaling import (ScalingField, build_expression_field, build_product_field,
                      build_quartic_field)
from .utils import format_float

COMMANDS = ("validate", "build", "surface", "dimension", "report")


@dataclass(frozen=True)
class BuiltJob:
    """A fully assembled, certified system plus its ingredients."""
    config: JobConfig
    grid: DataGrid
    curves: CurveNetwork
    blends: dict[CellIndex, PatchBlend]
    system: IfsSystem


@dataclass
class PipelineResult:
    command: str
    summary: str
    artifacts: dict[str, Path]
    job: BuiltJob
    metric: MetricReport
    surface: SurfaceSample | None = None
    points: np.ndarray | None = None
    dimension: DimensionReport | None = None


# each form's builder, looked up by name in this module's globals at call time
# (so a wrapped module attribute is the one called); its parameters are the form's keys
_BUILDERS = {"separable-quartic": "build_quartic_field",
             "polynomial-product": "build_product_field",
             "expression": "build_expression_field"}


def _build_scaling(cfg: JobConfig, grid: DataGrid) -> dict[CellIndex, ScalingField]:
    fields = {}
    for spec in cfg.scaling:
        cell = CellIndex(*spec.cell)
        keys = {key: getattr(spec, key) for key in SCALING_FORMS[spec.form][2:]}  # after cell, form
        fields[cell] = globals()[_BUILDERS[spec.form]](cell, grid.cell_rect(cell), **keys)
    return fields


def build_system(cfg: JobConfig) -> BuiltJob:
    """Realize the grid and assemble the certified function system.

    ``cfg`` comes from ``parse_config*`` (plus :func:`apply_overrides`), the
    gate that decides every rule of the document; the builders trust what
    it admitted.  Its grid rules (:func:`~fractsurf.config.grid_errors`) run
    again here, so file grids and command-line overrides fail with the same
    located ``ConfigurationError`` as inline grids at parse time; an
    unreadable grid file fails at ``grid.path`` and a malformed one at
    ``grid``.  Then raises the underlying validation error
    (curve interpolation, blend edge mismatch, magnitude violation with its
    witness, ...) if any ingredient fails certification.
    """
    try:
        grid = realize_grid(cfg.grid)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError([("grid.path", f"cannot read grid file: {exc}")]) from None
    except FractsurfError as exc:
        raise ConfigurationError([("grid", str(exc))]) from None
    errors = grid_errors(cfg, grid)
    if errors:
        raise ConfigurationError(errors)
    maps = build_domain_maps(grid)
    curves = build_boundary_curves(grid, method=cfg.boundary.method,
                                   q_coeffs=cfg.boundary.q, r_coeffs=cfg.boundary.r)
    scalings = _build_scaling(cfg, grid)
    blends: dict[CellIndex, PatchBlend] = {}
    if cfg.blend.mode == "coons":
        for cell in grid.cells():
            blends[cell] = build_coons_blend(grid, curves, cell)
    else:
        tables = {CellIndex(*table.cell): table.coeffs for table in cfg.blend.tables}
        for cell in grid.cells():
            blends[cell] = load_explicit_blend(grid, curves, cell, tables[cell])
    free = build_free_field(grid.rect, cfg.free_field.expr, cfg.free_field.lipschitz,
                            sup_abs=cfg.free_field.sup_abs)
    q_fields = {cell: build_Q(maps[cell], scalings[cell], free, blends[cell])
                for cell in grid.cells()}
    system = assemble_ifs(grid, maps, scalings, q_fields)
    return BuiltJob(config=cfg, grid=grid, curves=curves, blends=blends, system=system)


def apply_overrides(cfg: JobConfig, *, seed: int | None = None,
                    resolution: int | None = None, tol: float | None = None,
                    out: str | None = None) -> JobConfig:
    """A copy of the configuration with command-line overrides folded in."""
    if seed is not None:
        cfg = dataclasses.replace(cfg, chaos=dataclasses.replace(cfg.chaos, seed=seed))
    if resolution is not None or tol is not None:
        solver = cfg.solver
        if resolution is not None:
            solver = dataclasses.replace(solver, resolution=resolution)
        if tol is not None:
            solver = dataclasses.replace(solver, tol=tol)
        cfg = dataclasses.replace(cfg, solver=solver)
    if out is not None:
        cfg = dataclasses.replace(cfg, output=dataclasses.replace(cfg.output, directory=out))
    return cfg


def certificate_text(job: BuiltJob, metric: MetricReport) -> str:
    cert = job.system.certificate
    lines = [
        f"grid={job.grid.n}x{job.grid.m}",
        f"cells={len(job.system.cells())}",
        f"c_s={format_float(cert.c_s)}",
        f"c_l={format_float(cert.c_l)}",
        f"l_q={format_float(cert.l_q)}",
        f"theta_max={format_float(metric.theta_interval[1])}",
    ]
    for cell in job.system.cells():
        fld = job.system.scalings[cell]
        c = fld.certificate
        lines.append(f"sup_s[{cell.i},{cell.j}]={format_float(c.sup_bound)}")
    lines.append(f"metric_theta={format_float(metric.theta)}")
    lines.append(f"metric_admissible={'true' if metric.admissible else 'false'}")
    lines.append(f"metric_max_ratio={format_float(metric.max_ratio)}")
    lines.append(f"metric_pairs={metric.pairs}")
    return "\n".join(lines) + "\n"


def _validate_summary(job: BuiltJob, metric: MetricReport) -> str:
    cert = job.system.certificate
    lines = [
        f"configuration {job.config.name!r}: valid",
        f"grid: {job.grid.n}x{job.grid.m} cells on "
        f"[{format_float(job.grid.x_knots[0])}, {format_float(job.grid.x_knots[-1])}] x "
        f"[{format_float(job.grid.y_knots[0])}, {format_float(job.grid.y_knots[-1])}]",
        f"boundary curves: {len(job.curves.q)} column + {len(job.curves.r)} row, "
        "all interpolation and continuity checks passed",
        f"blends: {job.config.blend.mode} on {len(job.blends)} cells, edges match curves",
        f"scaling: all {len(job.system.scalings)} fields certified, "
        f"max sup |s| = {format_float(cert.c_s)} < 1",
        f"metric: theta = {format_float(metric.theta)} "
        f"({'admissible' if metric.admissible else 'NOT admissible'}), "
        f"sampled contraction ratio {format_float(metric.max_ratio)} "
        f"over {metric.pairs} pairs",
    ]
    return "\n".join(lines) + "\n"


def _out_dir(cfg: JobConfig) -> Path:
    return Path(cfg.output.directory) if cfg.output.directory else Path.cwd()


def _solve(job: BuiltJob, resolution: int | None = None, estimate_bias: bool = True,
           fold: ColumnExtrema | None = None) -> SurfaceSample:
    cfg = job.config
    return solve_fixed_point(job.system,
                             resolution or cfg.solver.resolution,
                             tol=cfg.solver.tol, max_iter=cfg.solver.max_iter,
                             estimate_bias=estimate_bias, fold=fold)


def _dimension_resolution(job: BuiltJob) -> int:
    explicit = job.config.dimension.resolution
    if explicit is not None:
        return explicit
    return dimension_resolution(job.grid, job.config.dimension.depth)


def run_pipeline(cfg: JobConfig, command: str, *, seed: int | None = None,
                 resolution: int | None = None, tol: float | None = None,
                 out: str | None = None) -> PipelineResult:
    """Execute one workflow command and write its artifacts.

    validate  -> certification summary only (no files)
    build     -> system certificate file
    surface   -> heightmap CSV + PGM image + xyz point cloud
    dimension -> box-count CSV + key=value dimension report
    report    -> all of the above plus a summary text file

    Every command runs :func:`~fractsurf.ifs.certify_metric` once, before any solve.
    """
    if command not in COMMANDS:
        raise FractsurfError(
            f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    cfg = apply_overrides(cfg, seed=seed, resolution=resolution, tol=tol, out=out)
    started = time.perf_counter()
    job = build_system(cfg)
    artifacts: dict[str, Path] = {}
    result = PipelineResult(command=command, summary="", artifacts=artifacts, job=job,
                            metric=certify_metric(job.system))
    stem = cfg.output.stem
    directory = _out_dir(cfg)

    if command == "validate":
        result.summary = _validate_summary(job, result.metric)
        return result

    if command == "build":
        artifacts["certificate"] = write_text(
            directory / f"{stem}.certificate.txt",
            certificate_text(job, result.metric))
        result.summary = (f"built {cfg.name!r}: c_s = "
                          f"{format_float(job.system.certificate.c_s)}, "
                          f"certificate written to {artifacts['certificate']}\n")
        return result

    if command in ("surface", "report"):
        surface = _solve(job)
        result.surface = surface
        points = chaos_game(job.system, cfg.chaos.points, cfg.chaos.seed,
                            burn_in=cfg.chaos.burn_in)
        result.points = points
        artifacts["heightmap"] = write_bytes(directory / f"{stem}.heightmap.csv",
                                             heightmap_csv(surface))
        artifacts["image"] = write_bytes(directory / f"{stem}.pgm",
                                         heightmap_pgm(surface))
        artifacts["cloud"] = write_bytes(directory / f"{stem}.xyz", xyz_text(points))

    if command in ("dimension", "report"):
        dim_res = _dimension_resolution(job)
        if result.surface is not None and result.surface.resolution == dim_res:
            dim_surface = result.surface
        else:
            # the heights go straight into the column extrema, never a full array
            fold = ColumnExtrema(dim_res, (job.grid.x_span, job.grid.y_span),
                                 natural_scales(job.grid, cfg.dimension.depth))
            dim_surface = _solve(job, resolution=dim_res, estimate_bias=False, fold=fold)
            if result.surface is None:
                result.surface = dim_surface
        report = dimension_report(job.grid, job.system.scalings, dim_surface,
                                  cfg.dimension.depth)
        result.dimension = report
        artifacts["counts"] = write_text(
            directory / f"{stem}.counts.csv",
            counts_csv(report.estimate.deltas, report.estimate.counts))
        artifacts["dimension"] = write_text(directory / f"{stem}.dimension.txt",
                                            dimension_report_text(report))

    if command == "report":
        artifacts["certificate"] = write_text(
            directory / f"{stem}.certificate.txt",
            certificate_text(job, result.metric))
        artifacts["config"] = write_text(directory / f"{stem}.config.json",
                                         serialize_config(cfg))

    lines = [f"command {command} on {cfg.name!r}"]
    if result.surface is not None and command != "dimension":
        s = result.surface
        lines.append(f"surface: {s.resolution}x{s.resolution} samples, "
                     f"{s.iterations} iterations, "
                     f"error bound {format_float(s.error_bound)}"
                     + (f", bias estimate {format_float(s.bias_estimate)}"
                        if s.bias_estimate is not None else ""))
        lines.append(f"heights in [{format_float(s.z_min)}, {format_float(s.z_max)}]")
        lines.append(f"cloud: {len(result.points)} points, seed {cfg.chaos.seed}")
    if result.dimension is not None:
        rep = result.dimension
        lines.append(f"dimension: estimate {format_float(rep.estimate.dimension)} "
                     f"from {len(rep.estimate.deltas)} scales at resolution "
                     f"{rep.resolution}")
        if rep.bounds is not None:
            lines.append(f"dimension band: case {rep.bounds.case}, "
                         f"[{format_float(rep.bounds.lower)}, "
                         f"{format_float(rep.bounds.upper)}]")
        lines.append(f"dimension note: {rep.annotation}")
    lines.append(f"artifacts: {', '.join(str(p) for p in artifacts.values())}")
    result.summary = "\n".join(lines) + "\n"

    if command == "report":
        artifacts["summary"] = write_text(directory / f"{stem}.summary.txt",
                                          result.summary)
    result.summary += f"elapsed: {time.perf_counter() - started:.2f} s\n"
    return result
