"""Workload generator, tracer, layer metrics and BENCHMARK.json agree."""
import json
import os
import subprocess
import sys
from pathlib import Path

from fractsurf import parse_config_document

from gate import SampledOperator
from layers import LAYER_METRICS, self_times, span_metrics
from run import END_TO_END, high_percentile
from workloads import SUP_RANGE, WORKLOADS, nonuniform_config

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in LAYER_METRICS]


def test_nonuniform_config_is_seeded_and_certifies():
    from fractsurf import build_system

    assert nonuniform_config(7) == nonuniform_config(7)
    assert nonuniform_config(7) != nonuniform_config(8)
    parse_config_document(nonuniform_config(-1))  # any seed maps into the schema
    job = build_system(parse_config_document(nonuniform_config(7)))
    sups = [f.sup_bound for f in job.system.scalings.values()]
    assert all(SUP_RANGE[0] - 1e-12 <= s <= SUP_RANGE[1] + 1e-12 for s in sups)
    share_x, share_y = SampledOperator(job.system, 1025).fractional_shares()
    assert 0.45 < share_x < 0.55 and 0.45 < share_y < 0.55


def test_high_percentile_leaves_ten_samples_beyond():
    assert high_percentile(list(range(10))) is None
    assert high_percentile(list(range(20))) == (50, 9)
    p, value = high_percentile([float(v) for v in range(100)])
    assert (p, value) == (90, 89.0)


def test_self_times_and_nested_bias_solve():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "ifs.solve", "parent": 0, "start": 1.0, "end": 9.0,
         "rss_mb_before": 10.0, "rss_mb_after": 30.0, "iterations": 2},
        {"id": 2, "name": "ifs.apply", "parent": 1, "start": 1.0, "end": 2.0, "bytes": 80},
        {"id": 3, "name": "ifs.apply", "parent": 1, "start": 2.0, "end": 4.0, "bytes": 80},
        {"id": 4, "name": "ifs.solve", "parent": 1, "start": 5.0, "end": 8.0,
         "rss_mb_before": 20.0, "rss_mb_after": 25.0, "iterations": 1},
        {"id": 5, "name": "ifs.apply", "parent": 4, "start": 5.0, "end": 5.5, "bytes": 20},
    ]
    assert self_times(spans) == {0: 2.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.5, 5: 0.5}
    m = span_metrics(spans)
    assert m["ifs.solve_s"] == 2.0
    assert m["ifs.bias_solve_s"] == 3.0
    assert m["ifs.apply_s"] == 3.5
    assert m["ifs.apply.calls"] == 3
    assert m["ifs.apply.median_s"] == 1.5
    assert m["ifs.apply.bytes_computed"] == 80
    assert m["ifs.apply.useful_ratio"] == 2 / 3
    assert m["ifs.solve.iterations"] == 2
    assert m["ifs.solve.rss_growth_mb"] == 20.0
    assert m["trace.self_sum_s"] == 10.0


def test_traced_cli_records_every_layer(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(spans_path), "t",
         "surface", "--fixture", "example2a", "--resolution", "97",
         "--out", str(tmp_path / "out")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    assert {s["run"] for s in spans} == {"t"}
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    m = span_metrics(spans)
    assert m["ifs.bias_solve_s"] > 0 and 0 < m["ifs.apply.useful_ratio"] < 1
    assert m["ifs.solve.iterations"] > 100  # near-critical c_s = 0.998
    assert m["scaling.fields"] == 12 and m["ifs.chaos.points"] == 100000
    assert m["exports.bytes_written"] == sum(
        p.stat().st_size for p in (tmp_path / "out").iterdir())
    root = spans[0]["end"] - spans[0]["start"]
    assert abs(m["trace.self_sum_s"] - root) < 1e-9
