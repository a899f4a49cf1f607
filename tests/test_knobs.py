"""Every defaulted parameter of the package has a caller that sets it.

A parameter with a default that no call in ``src/`` or ``scripts/`` ever
passes is a knob nobody turns: its value belongs in a module constant or at
its one use.  The scan reads the sources with ``ast``.  A call sets a
parameter when it passes it by keyword, or passes enough positional
arguments to reach it (one fewer for methods, whose ``self`` or ``cls`` the
call does not spell out).  Calls are matched by the function's name (a
class name for ``__init__``); tests do not count as callers.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fractsurf"
CALLERS = (ROOT / "src", ROOT / "scripts")

# (function, parameter) -> why no call in src/ or scripts/ sets it
ALLOWED = {
    ("_number", "strict_min"): "passed through the _key(...) metadata of the *Spec fields",
    ("_number", "integer"): "passed through the _key(...) metadata of the *Spec fields",
    ("_number", "bits"): "passed through the _key(...) metadata of the *Spec fields",
    ("certify_metric", "theta"): "tests set theta outside the admissible interval to "
                                 "show that the sampled check can fail",
    ("certify_metric", "seed"): "tests draw other pairs than the pipeline's seed 0",
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
