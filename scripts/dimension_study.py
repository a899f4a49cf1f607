#!/usr/bin/env python3
"""Box-counting estimates across sample resolutions and scale depths.

Usage:
    python scripts/dimension_study.py [--fixture NAME] [--resolutions R ...]
                                      [--depth K]

For each resolution the surface is re-solved and counted on the natural
scale ladder, then the global slope plus per-scale local slopes are
printed.  The local slopes show the two regimes directly: coarse scales
carry a transient, and once boxes contain only a handful of samples the
slope decays because sampled column extrema undercount the true ones.
The estimate is trustworthy where the local slopes plateau.
"""
from __future__ import annotations

import argparse

import numpy as np

from fractsurf.config import parse_config_document
from fractsurf.dimension import (
    box_counts,
    bounds_from_fields,
    check_hypotheses,
    estimate_dimension,
    natural_scales,
)
from fractsurf.fixtures import fixture_config, fixture_names
from fractsurf.ifs import solve_fixed_point
from fractsurf.pipeline import build_system


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixture", choices=fixture_names(), default="band2x2")
    parser.add_argument("--resolutions", type=int, nargs="+",
                        default=[1025, 2049, 4097])
    parser.add_argument("--depth", type=int, default=None,
                        help="scale-ladder depth (default: from the fixture)")
    args = parser.parse_args()

    cfg = parse_config_document(fixture_config(args.fixture))
    job = build_system(cfg)
    depth = args.depth or cfg.dimension.depth

    hyp = check_hypotheses(job.grid)
    if hyp.applicable:
        bounds = bounds_from_fields(job.grid, job.system.scalings)
        print(f"theoretical band: [{bounds.lower:.6f}, {bounds.upper:.6f}] "
              f"({bounds.case})")
    else:
        print("theoretical band not applicable:", "; ".join(hyp.reasons))

    deltas = natural_scales(job.grid, depth)
    print(f"\n{'R':>6} {'estimate':>9} {'r^2':>8}  local slopes "
          f"(coarse -> fine over {len(deltas)} scales)")
    for resolution in args.resolutions:
        surface = solve_fixed_point(job.system, resolution,
                                    tol=cfg.solver.tol, estimate_bias=False)
        counts = box_counts(surface, deltas)
        est = estimate_dimension(deltas, counts)
        log_n = np.log(counts)
        log_inv = np.log(1.0 / np.asarray(deltas))
        local = np.diff(log_n) / np.diff(log_inv)
        note = " (coarsest dropped)" if est.excluded else ""
        print(f"{resolution:>6} {est.dimension:>9.4f} {est.r_squared:>8.5f}  "
              + " ".join(f"{v:.3f}" for v in local) + note)


if __name__ == "__main__":
    main()
