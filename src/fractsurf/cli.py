"""Command-line entry point.

    fractsurf <command> --config <path> | --fixture <name>
              [--out <dir>] [--seed <u64>] [--resolution <R>] [--tol <t>]

Commands: validate, build, surface, dimension, report.  Exactly one of
``--config`` / ``--fixture`` selects the job.  Certification failures
exit nonzero with the offending witness in the message.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .config import parse_config, parse_config_document
from .errors import FractsurfError, MagnitudeError
from .fixtures import fixture_config, fixture_names
from .pipeline import run_pipeline

COMMANDS = {
    "validate": "Check a configuration end to end and print the certification summary.",
    "build": "Assemble and certify the system; write its certificate file.",
    "surface": "Solve for the surface; write heightmap CSV, PGM image and xyz point cloud.",
    "dimension": "Estimate the box-counting dimension; write count CSV and report.",
    "report": "Run everything and write all artifacts plus a summary.",
}


def _in_range(kind, holds, bound: str):
    """An argparse type: ``kind(text)``, refused unless ``holds`` of it."""
    def convert(text):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{value} is not {bound}")
        return value
    convert.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return convert


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FractsurfError(f"cannot read --config {path!r}: {exc}") from None


def main(args=None, prog_name="fractsurf"):
    """Run one command: ``args`` default to ``sys.argv[1:]``."""
    parser = argparse.ArgumentParser(
        prog=prog_name, description="Fractal interpolation surfaces over rectangular grids.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    seed = _in_range(int, lambda v: 0 <= v < 2 ** 64, "in 0..2**64-1")
    tol = _in_range(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
    for name, help_text in COMMANDS.items():
        cmd = commands.add_parser(name, help=help_text, description=help_text,
                                  allow_abbrev=False)
        cmd.add_argument("--config", help="Path to a JSON job configuration.")
        cmd.add_argument("--fixture", choices=fixture_names(),
                         help="Use a built-in named configuration instead of --config.")
        cmd.add_argument("--out", help="Output directory (default: the configured one, else cwd).")
        cmd.add_argument("--seed", type=seed, help="Override the point-cloud sampler seed.")
        cmd.add_argument("--resolution", type=int,
                         help="Override the solver resolution; the configuration's "
                              "solver.resolution rules apply to it.")
        cmd.add_argument("--tol", type=tol, help="Override the solver tolerance.")
    ns = parser.parse_args(args)
    usage_error = commands.choices[ns.command].error
    if (ns.config is None) == (ns.fixture is None):
        usage_error("give exactly one of --config or --fixture")
    if ns.config is not None and not Path(ns.config).is_file():
        usage_error(f"--config {ns.config!r} is not an existing file")
    if ns.out is not None and Path(ns.out).is_file():
        usage_error(f"--out {ns.out!r} is an existing file")
    try:
        cfg = (parse_config(_read_config(ns.config))
               if ns.config is not None else parse_config_document(fixture_config(ns.fixture)))
        result = run_pipeline(cfg, ns.command, seed=ns.seed, resolution=ns.resolution,
                              tol=ns.tol, out=ns.out)
    except MagnitudeError as exc:
        print(f"magnitude violation: {exc} (witness ({exc.witness[0]!r}, "
              f"{exc.witness[1]!r}), value {exc.value!r})", file=sys.stderr)
        sys.exit(2)
    except FractsurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except MemoryError as exc:  # numpy's text gives the array's shape and size
        print(f"error: {ns.command} ran out of memory: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.stdout.write(result.summary)


if __name__ == "__main__":
    main()
