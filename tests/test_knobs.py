"""Every defaulted parameter of the package has a caller that sets it.

A parameter with a default that no call in ``src/`` or ``scripts/`` ever
passes is a knob nobody turns: its value belongs in a module constant or at
its one use.  The scan reads the sources with ``ast``.  A call sets a
parameter when it passes it by keyword, or passes enough positional
arguments to reach it (one fewer for methods, whose ``self`` or ``cls`` the
call does not spell out).  Calls are matched by the function's name (a
class name for ``__init__``); tests do not count as callers.

Environment variables are knobs too: ``src/`` reads none, and writes only
the OpenBLAS thread default that ``import fractsurf`` sets.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fractsurf"
CALLERS = (ROOT / "src", ROOT / "scripts")

# (function, parameter) -> why no call in src/ or scripts/ sets it
ALLOWED = {
    ("_number", "minimum"): "passed through the _key(...) metadata of the *Spec fields",
    ("_number", "strict_min"): "passed through the _key(...) metadata of the *Spec fields",
    ("_number", "integer"): "passed through the _key(...) metadata of the *Spec fields",
    ("_number", "bits"): "passed through the _key(...) metadata of the *Spec fields",
    **{("build_product_field", key): "a key of the polynomial-product form: the pipeline "
                                     "passes each form's keys by ** from the config table"
       for key in ("exponents", "outer", "psi_lipschitz", "psi_sup")},
    **{("main", key): "perfbench/trace.py and the tests pass it; the console script "
                      "passes none" for key in ("args", "prog_name")},
}


def defaulted_parameters(tree: ast.Module):
    """``(function, parameter, position, method)`` for every parameter with a default.

    ``function`` is the name a call uses: the class name for ``__init__``.
    ``position`` is None for keyword-only parameters.
    """
    methods = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = methods.get(id(node))
        name = owner if node.name == "__init__" and owner else node.name
        method = owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k in range(first, len(positional)):
            out.append((name, positional[k].arg, k, method))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((name, arg.arg, None, method))
    return out


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def set_parameters(trees, params) -> set[tuple[str, str]]:
    """The ``(function, parameter)`` pairs of ``params`` that some call in ``trees`` passes."""
    by_name: dict[str, list] = {}
    for name, param, position, method in params:
        by_name.setdefault(name, []).append((param, position, method))
    found = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or _called_name(call) not in by_name:
                continue
            name = _called_name(call)
            keywords = {kw.arg for kw in call.keywords}
            passed = sum(1 for a in call.args if not isinstance(a, ast.Starred))
            for param, position, method in by_name[name]:
                reached = position is not None and passed > position - int(method)
                if param in keywords or reached:
                    found.add((name, param))
    return found


def _trees(*roots: Path):
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for root in roots for path in sorted(root.rglob("*.py"))]


def unset_knobs() -> list[tuple[str, str]]:
    params = [p for tree in _trees(PACKAGE) for p in defaulted_parameters(tree)]
    found = set_parameters(_trees(*CALLERS), params)
    return sorted({(name, param) for name, param, _, _ in params} - found)


def test_every_defaulted_parameter_has_a_caller():
    unset = [knob for knob in unset_knobs() if knob not in ALLOWED]
    assert unset == [], ("defaulted parameters that no call in src/ or scripts/ sets; "
                         "make them constants: " + ", ".join(f"{f}({p})" for f, p in unset))


def test_the_allowlist_names_only_unset_knobs():
    assert sorted(ALLOWED) == [knob for knob in unset_knobs() if knob in ALLOWED]
    assert all(reason for reason in ALLOWED.values())


def test_the_scan_counts_keywords_positions_and_the_method_offset():
    source = ast.parse(
        "def f(a, b=1, c=2, *, d=3): pass\n"
        "class K:\n"
        "    def __init__(self, e=4): pass\n"
        "    def m(self, g=5, h=6): pass\n"
        "    @staticmethod\n"
        "    def s(i=7): pass\n")
    params = defaulted_parameters(source)
    assert sorted((n, p) for n, p, _, _ in params) == sorted(
        [("f", "b"), ("f", "c"), ("f", "d"), ("K", "e"), ("m", "g"), ("m", "h"), ("s", "i")])
    calls = ast.parse("f(0, 1)\nf(0, d=2, *rest)\nK(1)\nobj.m(1)\nK.s(1)\n")
    assert set_parameters([calls], params) == {
        ("f", "b"), ("f", "d"), ("K", "e"), ("m", "g"), ("s", "i")}


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
BLAS_DEFAULT = "_os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"


def environment_uses(tree: ast.Module) -> list[str]:
    """Every touch of the process environment, as source text in source order.

    A method called on the environment (``os.environ.get(...)``) is reported
    as the whole call; any other use as the name itself.
    """
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            uses += [(node.lineno, node.col_offset, f"from os import {a.name}")
                     for a in node.names if a.name in ENVIRONMENT_NAMES]
        elif (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
              or isinstance(node, ast.Name) and node.id in ENVIRONMENT_NAMES):
            method, call = parents.get(id(node)), None
            if isinstance(method, ast.Attribute):
                call = parents.get(id(method))
            used = call if isinstance(call, ast.Call) and call.func is method else node
            uses.append((node.lineno, node.col_offset, ast.unparse(used)))
    return [text for *_, text in sorted(uses)]


def test_the_package_sets_one_environment_variable_and_reads_none():
    uses = {path.relative_to(PACKAGE).as_posix(): environment_uses(tree)
            for path, tree in zip(sorted(PACKAGE.rglob("*.py")), _trees(PACKAGE))}
    assert {path: found for path, found in uses.items() if found} == {
        "__init__.py": [BLAS_DEFAULT]}


def test_the_environment_scan_finds_reads_writes_and_imports():
    source = ast.parse("import os\n"
                       "from os import environ, getenv as g\n"
                       "os.getenv('A')\n"
                       "x = os.environ['B']\n"
                       "os.environ.setdefault('C', '1')\n"
                       "environ.get('D')\n"
                       "os.putenv('E', '1')\n")
    assert environment_uses(source) == [
        "from os import environ", "from os import getenv",
        "os.getenv", "os.environ", "os.environ.setdefault('C', '1')",
        "environ.get('D')", "os.putenv"]


def _fresh_import(threads: str | None) -> tuple[str, str]:
    """``OPENBLAS_NUM_THREADS`` and the thread count after ``import fractsurf``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import os, fractsurf\n"
            "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
            "else None\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks)\n")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return tuple(result.stdout.split())


def test_importing_fractsurf_starts_no_blas_thread_pool():
    threads, tasks = _fresh_import(None)
    assert threads == "1"
    if tasks == "None":
        pytest.skip("no /proc/self/task to count the threads in")
    assert tasks == "1"


def test_an_explicit_blas_thread_count_is_left_alone():
    assert _fresh_import("2")[0] == "2"
