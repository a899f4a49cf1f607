"""Set-up probe: a fresh interpreter up to a certified system in hand.

    PYTHONPATH=src python perfbench/setup_probe.py (--fixture <name> | --config <path>)

Imports ``fractsurf``, parses the job configuration and runs
``build_system``; the benchmark times this process from spawn to exit.
"""
from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    import fractsurf

    kind, value = argv
    if kind == "--fixture":
        cfg = fractsurf.parse_config_document(fractsurf.fixture_config(value))
    else:
        with open(value, encoding="utf-8") as fh:
            cfg = fractsurf.parse_config(fh.read())
    fractsurf.build_system(cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
