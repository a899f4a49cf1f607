"""Per-layer metrics, computed from the spans of one traced CLI run.

Each metric is named ``<module>.<what>`` after the ``fractsurf`` module whose
public names the span wraps.  Times are span self time (the span's duration
minus its child spans) unless marked as a total.  The table also records
which end-to-end metric each layer metric should move and on which workload,
so a later change can say in advance what it expects to move.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# name, unit, end-to-end metric it moves, where it should (and should not) move
LAYER_METRICS = (
    ("cli.import_s", "s", "setup_s, wall_s", "all workloads, equally"),
    ("config.parse_s", "s", "setup_s", "all; tiny (parse_config plus realize_grid)"),
    ("pipeline.build_system_s", "s", "setup_s", "all (total)"),
    ("grid.domain_maps_s", "s", "setup_s", "all; tiny"),
    ("scaling.build_field_s", "s", "setup_s",
     "largest on band2x2-dimension (sampled expression certificates)"),
    ("scaling.fields", "count", "setup_s", "all"),
    ("boundary.curves_s", "s", "setup_s", "all"),
    ("boundary.blends_s", "s", "setup_s", "all"),
    ("boundary.q_s", "s", "setup_s", "all (free field plus Q assembly)"),
    ("ifs.assemble_s", "s", "setup_s", "all"),
    ("ifs.operator_setup_s", "s", "wall_s, peak_rss_mb", "band2x2-dimension most"),
    ("ifs.solve.rss_growth_mb", "MB", "peak_rss_mb", "band2x2-dimension most"),
    ("ifs.apply_s", "s", "wall_s",
     "example2a-surface most, then nonuniform-surface (total)"),
    ("ifs.apply.median_s", "s", "wall_s", "main-solve applications"),
    ("ifs.apply.calls", "count", "wall_s", "example2a-surface most"),
    ("ifs.apply.bytes_computed", "bytes", "wall_s",
     "computed from array sizes per main-solve application; band2x2-dimension, "
     "where the arrays exceed the last-level cache"),
    ("ifs.solve_s", "s", "wall_s", "surface workloads (self: convergence checks)"),
    ("ifs.solve.iterations", "count", "wall_s", "surface workloads (main solve)"),
    ("ifs.bias_solve_s", "s", "wall_s",
     "surface workloads (total of the nested re-solve); zero on band2x2-dimension"),
    ("ifs.apply.useful_ratio", "1", "wall_s",
     "main-solve applications / all applications; 1 on band2x2-dimension"),
    ("ifs.chaos_s", "s", "wall_s", "surface workloads; small"),
    ("ifs.chaos.points", "count", "wall_s", "surface workloads"),
    ("dimension.report_s", "s", "wall_s", "band2x2-dimension only (total)"),
    ("dimension.box_count_s", "s", "wall_s", "band2x2-dimension only"),
    ("dimension.bounds_s", "s", "wall_s", "band2x2-dimension only"),
    ("exports.heightmap_csv_s", "s", "wall_s",
     "nonuniform-surface most, then example2a-surface"),
    ("exports.heightmap_pgm_s", "s", "wall_s", "surface workloads"),
    ("exports.xyz_text_s", "s", "wall_s", "surface workloads"),
    ("exports.counts_csv_s", "s", "wall_s", "band2x2-dimension only; tiny"),
    ("exports.dimension_text_s", "s", "wall_s", "band2x2-dimension only; tiny"),
    ("exports.write_s", "s", "wall_s", "surface workloads; near zero on band2x2-dimension"),
    ("exports.bytes_written", "bytes", "wall_s", "surface workloads"),
    ("trace.overhead_s", "s", "none",
     "traced run (spawn to exit) minus the untraced median wall_s"),
    ("trace.self_sum_s", "s", "none",
     "sum of all span self times; compare with wall_s minus trace.startup_s"),
    ("trace.startup_s", "s", "none", "interpreter start-up (median of bare starts)"),
)

# Metric -> span names whose self times it sums.
_SELF_TIMES = {
    "cli.import_s": ("cli.import",),
    "config.parse_s": ("config.parse", "config.realize_grid"),
    "grid.domain_maps_s": ("grid.domain_maps",),
    "scaling.build_field_s": ("scaling.build_field",),
    "boundary.curves_s": ("boundary.curves",),
    "boundary.blends_s": ("boundary.blends",),
    "boundary.q_s": ("boundary.q",),
    "ifs.assemble_s": ("ifs.assemble",),
    "ifs.operator_setup_s": ("ifs.operator_setup",),
    "ifs.chaos_s": ("ifs.chaos",),
    "dimension.box_count_s": ("dimension.box_count",),
    "dimension.bounds_s": ("dimension.bounds",),
    "exports.heightmap_csv_s": ("exports.heightmap_csv",),
    "exports.heightmap_pgm_s": ("exports.heightmap_pgm",),
    "exports.xyz_text_s": ("exports.xyz_text",),
    "exports.counts_csv_s": ("exports.counts_csv",),
    "exports.dimension_text_s": ("exports.dimension_text",),
    "exports.write_s": ("exports.write",),
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric that the spans alone determine."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    solves = by_name["ifs.solve"]
    solve_ids = {s["id"] for s in solves}
    main_solves = [s for s in solves if s["parent"] not in solve_ids]
    main_ids = {s["id"] for s in main_solves}
    applies = by_name["ifs.apply"]
    main_applies = [a for a in applies if a["parent"] in main_ids]

    metrics = {name: sum(own[s["id"]] for n in names for s in by_name[n])
               for name, names in _SELF_TIMES.items()}
    metrics.update({
        "pipeline.build_system_s": sum(map(_duration, by_name["pipeline.build_system"])),
        "scaling.fields": len(by_name["scaling.build_field"]),
        "ifs.solve.rss_growth_mb": sum(s["rss_mb_after"] - s["rss_mb_before"]
                                       for s in main_solves),
        "ifs.apply_s": sum(map(_duration, applies)),
        "ifs.apply.median_s": (statistics.median(map(_duration, main_applies))
                               if main_applies else 0.0),
        "ifs.apply.calls": len(applies),
        "ifs.apply.bytes_computed": main_applies[0]["bytes"] if main_applies else 0,
        "ifs.solve_s": sum(own[s["id"]] for s in main_solves),
        "ifs.solve.iterations": sum(s["iterations"] for s in main_solves),
        "ifs.bias_solve_s": sum(_duration(s) for s in solves if s["id"] not in main_ids),
        "ifs.apply.useful_ratio": len(main_applies) / len(applies) if applies else 1.0,
        "ifs.chaos.points": sum(s["points"] for s in by_name["ifs.chaos"]),
        "dimension.report_s": sum(map(_duration, by_name["dimension.report"])),
        "exports.bytes_written": sum(s["bytes"] for s in by_name["exports.write"]),
        "trace.self_sum_s": sum(own.values()),
    })
    return metrics
