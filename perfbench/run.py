"""fractsurf benchmark: the real CLI, one child process per operation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``
(``PYTHONPATH=src``), nothing is installed.  Load is a closed loop with one
client: this process starts one CLI child, waits for it to exit, then starts
the next.  Operations repeat until the next one would end past ``--seconds``.

``--trace 0`` reports the end-to-end metrics: wall time from spawn to exit,
user plus system CPU and peak RSS of each CLI child (from ``wait4``), and
``setup_s``, the median of several fresh interpreters that import
``fractsurf``, parse the job and build the certified system.  It runs at
least two operations, because the correctness gate compares the artifacts
of repeats.  ``--trace 1`` runs at least one untraced operation, then one
more under the span tracer of ``trace.py`` (the repeat the gate compares),
and reports the per-layer metrics of ``layers.py``.

Every operation passes through the correctness gate of ``gate.py`` after the
timed loop.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (machine, provenance, samples, input property,
gate findings) goes to ``.perfbench/records/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import Gate, Op  # noqa: E402
from layers import LAYER_METRICS, span_metrics  # noqa: E402
from machine import machine_record  # noqa: E402
from workloads import WORKLOADS, write_nonuniform_config  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
DEADLINE_S = 170  # every child is killed past this, so the run ends within 180 s

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    pass


@dataclass
class Sample:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


class Runner:
    """Starts children one at a time and measures each from spawn to exit."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def run(self, argv: list[str]) -> Sample:
        self.count += 1
        log = self.work / f"child{self.count}"
        with open(f"{log}.out", "w+b") as out, open(f"{log}.err", "w+b") as err:
            remaining = self.deadline - time.monotonic()
            if remaining <= 1:
                raise BenchError("out of time before starting a child")
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            signal.alarm(math.ceil(remaining))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            if proc.returncode != 0:
                sys.stderr.write(err.read().decode("utf-8", "replace")[-2000:])
        return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, stdout)


def _on_alarm(signum, frame):
    raise BenchError("a child ran past the benchmark deadline and was killed")


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def _load_config(workload, config_path: Path | None):
    sys.path.insert(0, str(SRC))
    import fractsurf

    if config_path is None:
        return fractsurf.parse_config_document(fractsurf.fixture_config(workload.fixture))
    return fractsurf.parse_config(config_path.read_text(encoding="utf-8"))


def run_benchmark(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    runner = Runner(work)
    config_path = None
    if workload.fixture is None:
        config_path = write_nonuniform_config(seed, work / "job.json")
        source = ["--config", str(config_path)]
    else:
        source = ["--fixture", workload.fixture]

    probe = [sys.executable, str(HERE / "setup_probe.py"), *source]
    # Untimed first probe: fills the bytecode cache and proves the sources import.
    if runner.run(probe).status != 0:
        raise BenchError("the set-up probe failed; is this a fractsurf checkout?")
    setup = [] if trace else [runner.run(probe).wall_s for _ in range(SETUP_REPEATS)]

    samples: list[Sample] = []
    ops: list[Op] = []
    min_ops = 1 if trace else 2
    started = time.perf_counter()
    while len(ops) < min_ops or (time.perf_counter() - started
                                 + statistics.median(s.wall_s for s in samples) <= seconds):
        out = work / f"op{len(ops)}"
        sample = runner.run([sys.executable, "-m", "fractsurf.cli",
                             *workload.cli_args(seed, config_path, out)])
        samples.append(sample)
        ops.append(Op(out, sample.status, sample.stdout))

    layer: dict[str, float] = {}
    if trace:
        out = work / "traced"
        spans_path = work / "spans.json"
        traced = runner.run([sys.executable, str(HERE / "trace.py"), str(spans_path),
                             f"{workload.name}-{seed}-{os.getpid()}",
                             *workload.cli_args(seed, config_path, out)])
        ops.append(Op(out, traced.status, traced.stdout))
        if traced.status == 0:
            layer = span_metrics(json.loads(spans_path.read_text(encoding="utf-8")))
        startup = [runner.run([sys.executable, "-c", "pass"]).wall_s
                   for _ in range(STARTUP_REPEATS)]
        layer["trace.overhead_s"] = traced.wall_s - statistics.median(s.wall_s for s in samples)
        layer["trace.startup_s"] = statistics.median(startup)

    gate = Gate(_load_config(workload, config_path), workload.command)
    gate.check(ops)
    return {"samples": samples, "setup": setup, "ops": ops, "layer": layer,
            "input": gate.input_property(),
            "cli_args": workload.cli_args(seed, config_path, Path("<out>"))}


def _summary(result: dict) -> dict[str, dict]:
    """Median, sample count and high percentile of each end-to-end series."""
    samples = result["samples"]
    series = {"wall_s": [s.wall_s for s in samples],
              "cpu_s": [s.cpu_s for s in samples],
              "peak_rss_mb": [s.peak_rss_mb for s in samples],
              "setup_s": result["setup"]}
    return {name: {"median": statistics.median(values), "count": len(values),
                   "high_percentile": high_percentile(values), "values": values}
            for name, values in series.items() if values}


def _print_report(workload, seed: int, result: dict, summary: dict, failed: int) -> None:
    ops, layer, prop = result["ops"], result["layer"], result["input"]
    print(f"workload {workload.name} seed {seed}: {len(ops)} operations, {failed} failed, "
          f"fail_ratio {failed / len(ops):.4g}")
    print(f"input: resolution {prop['resolution']}, fractional bilinear weights "
          f"x {prop['fractional_weight_share_x']:.4f} y {prop['fractional_weight_share_y']:.4f}")
    for op in ops:
        for failure in op.failures:
            print(f"  FAIL {op.out_dir.name}: {failure}")
    for name, unit in END_TO_END:
        if name in summary:
            stats = summary[name]
            high = stats["high_percentile"]
            tail = (f"p{high[0]} {high[1]:.6g}" if high
                    else "no percentile with ten samples beyond it")
            print(f"{name:<12} {stats['median']:>12.6g} {unit:<3} "
                  f"median of {stats['count']}; {tail}")
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    for name, value in layer.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    if "trace.self_sum_s" in layer:
        # self_sum - (wall_s - startup) = overhead - (time no span covers: mostly exit)
        gap = layer["trace.self_sum_s"] - (summary["wall_s"]["median"]
                                           - layer["trace.startup_s"])
        print(f"span self times minus (untraced wall_s - start-up): {gap:+.4g} s; "
              f"trace.overhead_s {layer['trace.overhead_s']:+.4g} s; not covered by "
              f"spans {layer['trace.overhead_s'] - gap:.4g} s")


def _write_record(workload, seed: int, trace: bool, result: dict, summary: dict,
                  line: dict) -> None:
    machine = machine_record(ROOT)
    llc = machine["last_level_cache_bytes"]
    r = result["input"]["resolution"]
    # computed, not measured: input, output, s, g and h as R x R float64 arrays
    apply_bytes = 5 * r * r * 8
    print(f"apply working set (computed) {apply_bytes / 2**20:.1f} MiB; last-level cache "
          f"{llc / 2**20 if llc else float('nan'):.1f} MiB")
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed, "trace": trace,
        "cli_args": result["cli_args"], "machine": machine, "input": result["input"],
        "apply_bytes_computed": apply_bytes,
        "apply_bytes_over_llc": apply_bytes / llc if llc else None,
        "gate": [{"op": op.out_dir.name, "failures": op.failures} for op in result["ops"]],
        "summary": summary, "result": line,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fractsurf" / "cli.py").is_file():
        print(f"benchmark: no fractsurf sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    signal.signal(signal.SIGALRM, _on_alarm)
    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run_benchmark(workload, args.seed, args.seconds, trace, work)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = _summary(result)
    if trace:
        missing = [name for name, _, _, _ in LAYER_METRICS if name not in result["layer"]]
        if missing:
            print(f"benchmark: the traced run gave no spans for {missing}", file=sys.stderr)
            return 1
        reported = {name: {"value": result["layer"][name], "unit": unit}
                    for name, unit, _, _ in LAYER_METRICS}
    else:
        reported = {name: {"value": summary[name]["median"], "unit": unit}
                    for name, unit in END_TO_END}
    failed = sum(1 for op in result["ops"] if op.failures)
    line = {"correct": failed == 0, "attempted": len(result["ops"]), "failed": failed,
            "metrics": reported}
    _print_report(workload, args.seed, result, summary, failed)
    _write_record(workload, args.seed, trace, result, summary, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
