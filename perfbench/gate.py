"""Correctness gate for benchmark operations, run outside the timed region.

Each operation is one CLI run.  It fails the gate when any of these does not
hold:

* it exited with status 0 and wrote every artifact its command promises;
* surface: the heightmap matches the data at the grid knots to 1e-5, the
  reported error bound is at most ``tol``, and one application of the
  sampled operator to the parsed heightmap moves it by at most
  ``(1 + c_s) * tol`` (if ``|phi - phi*| <= tol`` then
  ``|T phi - phi| <= (1 + c_s) * tol``);
* dimension: the estimate lies inside the theoretical band widened by 0.15;
* its artifacts are byte-identical to those of the first operation.

The sampled operator here is a reference copy of the solver's sampling
scheme, built from the public 3-D map ``eval_F`` of the assembled system, so
that a later change to the solver is checked against the original operator
and not against itself.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KNOT_TOL = 1e-5
BAND_MARGIN = 0.15
# A pulled-back node whose bilinear weight is this close to 0 or 1 lands on a node.
LATTICE_TOL = 5e-13

ARTIFACTS = {
    "surface": ("heightmap.csv", "pgm", "xyz"),
    "dimension": ("counts.csv", "dimension.txt"),
}
_ERROR_BOUND = re.compile(r"error bound ([-+0-9.eE]+|inf|nan)")


@dataclass
class Op:
    """One finished CLI run, as the gate sees it."""
    out_dir: Path
    status: int
    stdout: str
    failures: list[str] = field(default_factory=list)


def sample_axis(knots, resolution: int) -> np.ndarray:
    """Knot-aligned sample axis: per-cell linspaces with exact knot endpoints."""
    span = knots[-1] - knots[0]
    parts = []
    for a, b in zip(knots, knots[1:]):
        steps = round((resolution - 1) * (b - a) / span)
        parts.append(np.linspace(a, b, steps + 1)[(1 if parts else 0):])
    axis = np.concatenate(parts)
    if len(axis) != resolution:
        raise ValueError(f"resolution {resolution} is not knot-aligned")
    return axis


def _weights(axis: np.ndarray, t: np.ndarray):
    ix = np.clip(np.searchsorted(axis, t, side="right") - 1, 0, len(axis) - 2)
    return ix, (t - axis[ix]) / (axis[ix + 1] - axis[ix])


def bilinear(phi: np.ndarray, xs, ys, tx, ty) -> np.ndarray:
    """phi (sampled on xs x ys) interpolated at the grid tx x ty."""
    ix, wx = _weights(xs, np.asarray(tx, dtype=float))
    iy, wy = _weights(ys, np.asarray(ty, dtype=float))
    wx = wx[:, None]
    wy = wy[None, :]
    return ((1 - wx) * ((1 - wy) * phi[np.ix_(ix, iy)] + wy * phi[np.ix_(ix, iy + 1)])
            + wx * ((1 - wy) * phi[np.ix_(ix + 1, iy)] + wy * phi[np.ix_(ix + 1, iy + 1)]))


class SampledOperator:
    """Reference sampled surface operator of an assembled system at one resolution.

    For the sample nodes ``p`` of cell ``E``, ``(T phi)(p) = F_E(q, phi(q))``
    with ``q = L_E^-1(p)`` and ``phi(q)`` bilinear between nodes.
    """

    def __init__(self, system, resolution: int):
        grid = system.grid
        self.system = system
        self.xs = sample_axis(grid.x_knots, resolution)
        self.ys = sample_axis(grid.y_knots, resolution)
        x_edges = [int(np.searchsorted(self.xs, k)) for k in grid.x_knots]
        y_edges = [int(np.searchsorted(self.ys, k)) for k in grid.y_knots]
        self.x_pre = np.empty(resolution)
        self.y_pre = np.empty(resolution)
        self.blocks = []
        for cell in grid.cells():
            sl_x = slice(x_edges[cell.i - 1], x_edges[cell.i] + 1)
            sl_y = slice(y_edges[cell.j - 1], y_edges[cell.j] + 1)
            qx, qy = system.maps[cell].invert((self.xs[sl_x], self.ys[sl_y]), tol=1e-9)
            self.x_pre[sl_x] = qx
            self.y_pre[sl_y] = qy
            self.blocks.append((cell, sl_x, sl_y, qx, qy))

    def fractional_shares(self) -> tuple[float, float]:
        """Share of pulled-back nodes per axis whose bilinear weight is fractional."""
        shares = []
        for axis, pre in ((self.xs, self.x_pre), (self.ys, self.y_pre)):
            _, w = _weights(axis, pre)
            shares.append(float(np.mean(np.minimum(w, 1 - w) > LATTICE_TOL)))
        return shares[0], shares[1]

    def apply(self, phi: np.ndarray) -> np.ndarray:
        from fractsurf import eval_F

        out = np.empty_like(phi)
        for cell, sl_x, sl_y, qx, qy in self.blocks:
            pulled = bilinear(phi, self.xs, self.ys, qx, qy)
            out[sl_x, sl_y] = eval_F(self.system, cell, qx[:, None], qy[None, :], pulled)
        return out


def parse_heightmap(text: str) -> tuple[int, np.ndarray]:
    """(resolution, heights[ix, iy]) from the heightmap CSV format."""
    lines = text.split("\n")
    resolution = int(lines[0].split(",")[0])
    values = [float(v) for line in lines[1:resolution + 1] for v in line.split(",")]
    rows = np.array(values).reshape(resolution, resolution)
    return resolution, rows[::-1].T.copy()


def parse_key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def artifact_digests(op: Op) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(op.out_dir.iterdir()) if p.is_file()}


class Gate:
    """Checks the operations of one workload: one job configuration, one command."""

    def __init__(self, cfg, command: str):
        from fractsurf import build_system, dimension_resolution

        self.cfg = cfg
        self.command = command
        self.system = build_system(cfg).system
        if command == "surface":
            self.resolution = cfg.solver.resolution
        else:
            self.resolution = (cfg.dimension.resolution
                               or dimension_resolution(self.system.grid, cfg.dimension.depth))
        self.operator = SampledOperator(self.system, self.resolution)

    def input_property(self) -> dict:
        share_x, share_y = self.operator.fractional_shares()
        return {"resolution": self.resolution,
                "fractional_weight_share_x": share_x,
                "fractional_weight_share_y": share_y}

    def check(self, ops: list[Op]) -> None:
        """Record each operation's failures in ``op.failures``."""
        content_failures: dict[str, list[str]] = {}  # by heightmap digest
        reference = None
        stem = self.cfg.output.stem
        for op in ops:
            if op.status != 0:
                op.failures.append(f"exit status {op.status}")
                continue
            missing = [s for s in ARTIFACTS[self.command]
                       if not (op.out_dir / f"{stem}.{s}").is_file()]
            if missing:
                op.failures.append(f"missing artifacts: {', '.join(missing)}")
                continue
            digests = artifact_digests(op)
            if reference is None:
                reference = digests
            elif digests != reference:
                changed = sorted(k for k in digests.keys() | reference.keys()
                                 if digests.get(k) != reference.get(k))
                op.failures.append(f"artifacts differ from the first repeat: {changed}")
            if self.command == "surface":
                op.failures += self._surface_failures(op, stem, digests, content_failures)
            else:
                op.failures += self._dimension_failures(op, stem)

    def _surface_failures(self, op: Op, stem: str, digests: dict,
                          cache: dict[str, list[str]]) -> list[str]:
        tol = self.cfg.solver.tol
        failures = []
        match = _ERROR_BOUND.search(op.stdout)
        bound = float(match.group(1)) if match else math.inf
        if not bound <= tol:
            failures.append(f"reported error bound {bound!r} exceeds tol {tol!r}")
        key = digests[f"{stem}.heightmap.csv"]
        if key not in cache:
            cache[key] = self._heightmap_failures(
                (op.out_dir / f"{stem}.heightmap.csv").read_text(encoding="utf-8"), tol)
        return failures + cache[key]

    def _heightmap_failures(self, text: str, tol: float) -> list[str]:
        try:
            resolution, phi = parse_heightmap(text)
        except ValueError as exc:
            return [f"heightmap does not parse: {exc}"]
        if resolution != self.resolution:
            return [f"heightmap resolution {resolution}, expected {self.resolution}"]
        grid = self.system.grid
        op = self.operator
        failures = []
        knot_error = float(np.max(np.abs(
            bilinear(phi, op.xs, op.ys, grid.x_knots, grid.y_knots) - grid.z)))
        if not knot_error <= KNOT_TOL:
            failures.append(f"knot interpolation error {knot_error!r} > {KNOT_TOL!r}")
        c_s = self.system.certificate.c_s
        residual = float(np.max(np.abs(op.apply(phi) - phi)))
        if not residual <= (1 + c_s) * tol:
            failures.append(f"operator residual {residual!r} > (1 + c_s) * tol = "
                            f"{(1 + c_s) * tol!r}")
        return failures

    def _dimension_failures(self, op: Op, stem: str) -> list[str]:
        report = parse_key_values(
            (op.out_dir / f"{stem}.dimension.txt").read_text(encoding="utf-8"))
        try:
            estimate = float(report["estimate"])
            lower = float(report["lower_bound"]) - BAND_MARGIN
            upper = float(report["upper_bound"]) + BAND_MARGIN
        except (KeyError, ValueError) as exc:
            return [f"dimension report lacks an estimate or band: {exc!r}"]
        if not lower <= estimate <= upper:
            return [f"dimension estimate {estimate!r} outside [{lower!r}, {upper!r}]"]
        return []
