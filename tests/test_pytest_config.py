"""The suite's warning filters: every warning is an error, save one that only a
failing property test's report raises, which would otherwise stop the run.

hypothesis imports ``libcst`` to write the report of a failing ``@given`` test,
and that import warns (``mypy_extensions.TypedDict is deprecated``).  Under
``filterwarnings = ["error"]`` alone the warning is raised inside pytest's own
reporting hook, an INTERNALERROR ends the session, and the tests after the
failing one never run.
"""
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBCST_WARNING = "mypy_extensions.TypedDict is deprecated, and will be removed"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 10


def test_a_later_test_still_runs():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(  # in tmp_path, where hypothesis writes its example patches
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout[-2000:]


def test_only_libcst_may_raise_that_deprecation_warning():
    # the filter names the module the warning is attributed to; from anywhere
    # else, the package included, the same warning is still an error
    warnings.warn_explicit(LIBCST_WARNING, DeprecationWarning, "libcst/__init__.py", 1,
                           module="libcst")
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit(LIBCST_WARNING, DeprecationWarning, "fractsurf/grid.py", 1,
                               module="fractsurf.grid")
    with pytest.raises(DeprecationWarning):
        warnings.warn("any other deprecation", DeprecationWarning)
