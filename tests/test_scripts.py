"""The scripts under ``scripts/`` run end to end against the installed API."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("dimension_study.py", ["--fixture", "flat2x2", "--resolutions", "129", "--depth", "3"]),
    ("render_surfaces.py", ["--fixture", "flat2x2", "--resolution", "17",
                            "--points", "1000", "--out", "{tmp}"]),
])
def test_script_exits_zero(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [a.format(tmp=tmp_path) for a in args]
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                            env=env, cwd=tmp_path, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
