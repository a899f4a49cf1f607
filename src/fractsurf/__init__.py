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

from .config import parse_config, parse_config_document
from .dimension import dimension_report, dimension_resolution
from .fixtures import fixture_config
from .ifs import certify_metric, chaos_game, eval_F, solve_fixed_point
from .pipeline import build_system

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
