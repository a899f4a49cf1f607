"""Fractal interpolation surfaces over rectangular data grids.

Construct an iterated function system whose attractor is a continuous
surface interpolating a rectangular grid of heights, with per-cell
vertical scaling fields that vanish on cell boundaries; solve for the
surface, sample it by random orbits, and estimate (or bound, where the
theory applies) its box-counting dimension.
"""
import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    # the package's BLAS calls are products of at most 10x10 matrices, which
    # OpenBLAS runs on one thread anyway; its idle pool only spins CPU
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .boundary import (CurveNetwork, FreeField, PatchBlend, QField, build_boundary_curves,
                       build_coons_blend, build_free_field, build_Q, load_explicit_blend)
from .config import (JobConfig, parse_config, parse_config_document, realize_grid,
                     serialize_config)
from .dimension import (DimensionBounds, DimensionEstimate, DimensionReport,
                        HypothesisReport, alignment_base, bounds_from_fields,
                        box_count_points, box_counts, check_hypotheses,
                        dimension_report, dimension_resolution, estimate_dimension,
                        natural_scales)
from .errors import (BlendCompatibilityError, BlendValidationError,
                     ConfigurationError, ConvergenceError, CurveValidationError,
                     FractsurfError, InvalidGridError, MagnitudeError,
                     OutOfDomainError, ScaleResolutionError)
from .fixtures import fixture_config, fixture_names
from .grid import (AxisMap, CellIndex, DataGrid, DomainMap, build_domain_maps,
                   load_grid_text, sample_axes)
from .ifs import (ContractionCertificate, IfsSystem, MetricReport, OperatorGrid,
                  SurfaceSample, assemble_ifs, certify_metric, chaos_game, eval_F,
                  solve_fixed_point)
from .pipeline import BuiltJob, PipelineResult, build_system, run_pipeline
from .scaling import (MagnitudeCertificate, ScalingField, build_expression_field,
                      build_product_field, build_quartic_field, certify_magnitude)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
