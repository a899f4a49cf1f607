"""The benchmark's workloads and the seeded generator for the non-uniform one.

Each workload is one CLI command on one input.  Two run a built-in fixture,
with the benchmark seed passed to ``--seed`` (the point-cloud sampler).  The
third runs a configuration generated from the seed on a grid with
non-uniform knots, so that about half of the pulled-back sample nodes on each
axis fall between nodes and take fractional bilinear weights; on both fixture
grids every pulled-back node lands exactly on a node.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

NONUNIFORM_X_KNOTS = [0.0, 0.25, 1.0]
NONUNIFORM_Y_KNOTS = [0.0, 0.375, 0.75, 1.0]
NONUNIFORM_RESOLUTION = 1025
# Each cell's target sup|s| is drawn from this range: near-critical, like example2a.
SUP_RANGE = (0.95, 0.99)
HEIGHT_RANGE = (0.0, 3.0)


def chaos_seed(seed: int) -> int:
    """The benchmark seed as the CLI and the config schema accept it (0 .. 2**64 - 1)."""
    return seed % 2 ** 64


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # fractsurf CLI command
    fixture: str | None    # built-in fixture, or None for a generated config
    why: str

    def cli_args(self, seed: int, config_path: Path | None, out: Path) -> list[str]:
        if self.fixture is not None:
            source = ["--fixture", self.fixture, "--seed", str(chaos_seed(seed))]
        else:
            source = ["--config", str(config_path)]
        return [self.command, *source, "--out", str(out)]


WORKLOADS = {w.name: w for w in (
    Workload("example2a-surface", "surface", "example2a",
             "near-critical scaling (c_s = 0.998): 174 lattice gathers dominate, so "
             "changes to iteration count or per-apply cost show here"),
    Workload("band2x2-dimension", "dimension", "band2x2",
             "12 iterations on 16.8M-node arrays (1.44 GB peak): memory traffic, "
             "operator set-up and box counting show here; writers barely run"),
    Workload("nonuniform-surface", "surface", None,
             "generated non-uniform grid: half the pulled-back nodes have fractional "
             "weights, so lattice-only paths are bypassed; writers weigh most here"),
)}


def nonuniform_config(seed: int) -> dict:
    """Configuration document for ``nonuniform-surface`` drawn from ``seed``.

    Fixed: the knots, linear boundary curves, Coons blends, R = 1025 and
    tol = 1e-6.  Drawn: the knot heights and, per cell, the sign and target
    sup|s| of a separable-quartic scaling field.  Certification is left to
    the program.
    """
    rng = random.Random(seed)
    z_rows = [[rng.uniform(*HEIGHT_RANGE) for _ in NONUNIFORM_X_KNOTS]
              for _ in NONUNIFORM_Y_KNOTS]
    fields = []
    for i in range(1, len(NONUNIFORM_X_KNOTS)):
        for j in range(1, len(NONUNIFORM_Y_KNOTS)):
            dx = NONUNIFORM_X_KNOTS[i] - NONUNIFORM_X_KNOTS[i - 1]
            dy = NONUNIFORM_Y_KNOTS[j] - NONUNIFORM_Y_KNOTS[j - 1]
            target = rng.uniform(*SUP_RANGE) * rng.choice((-1.0, 1.0))
            # separable quartic: sup|s| = |psi| * (dx/2)^2 * (dy/2)^2
            fields.append({"cell": [i, j], "form": "separable-quartic",
                           "psi": target / ((dx / 2) ** 2 * (dy / 2) ** 2)})
    return {
        "name": "nonuniform",
        "grid": {"source": "inline", "x_knots": NONUNIFORM_X_KNOTS,
                 "y_knots": NONUNIFORM_Y_KNOTS, "z_rows": z_rows},
        "scaling": {"fields": fields},
        "boundary": {"method": "linear"},
        "blend": {"mode": "coons"},
        "free_field": {"expr": "0", "lipschitz": 0.0, "sup_abs": 0.0},
        "solver": {"resolution": NONUNIFORM_RESOLUTION, "tol": 1e-6, "max_iter": 10000},
        "chaos": {"points": 100000, "seed": chaos_seed(seed), "burn_in": 100},
        "dimension": {"depth": 4, "epsilon": None, "resolution": None},
        "output": {"directory": None, "stem": "nonuniform"},
    }


def write_nonuniform_config(seed: int, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(nonuniform_config(seed), indent=1) + "\n", encoding="utf-8")
    return path
