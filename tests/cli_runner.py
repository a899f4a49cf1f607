"""Run ``fractsurf.cli.main`` in process and keep what it printed and how it ended."""
from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

from fractsurf.cli import main


@dataclass
class CliResult:
    exit_code: int
    output: str                       # stdout
    stderr: str
    exception: BaseException | None   # the SystemExit that ended the run, if any


def run(*args: str) -> CliResult:
    """``main(args)`` with stdout and stderr captured; exit code 0 if it returns."""
    out, err = io.StringIO(), io.StringIO()
    exception, code = None, 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:  # argparse and main exit with an int code
            exception, code = exc, exc.code
    return CliResult(code, out.getvalue(), err.getvalue(), exception)
