"""Guard: no function in the package sources calls itself.

Every enumerator is a successor rule over the explicit-stack walk
``partitions.grow``, so the part count of an enumerated object is not
bounded by the interpreter's recursion limit, and Gaussian binomials are
finite q-binomial products run by the factor kernels.  No function is
exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qsip"


def called_name(call: ast.Call) -> str | None:
    """``f`` for ``f(...)``, ``self.f(...)`` and ``cls.f(...)``; calls on any
    other object (``spec.weight(p)`` inside ``weight``) are not self-calls."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")):
        return func.attr
    return None


def self_callers(tree: ast.AST) -> list[str]:
    """Names of functions whose body, nested functions included, calls them."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and called_name(node) == fn.name:
                found.append(fn.name)
                break
    return found


def test_detector_flags_each_form():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class A:\n    def g(self):\n        return self.g()\n"
        "def h():\n    def inner():\n        return h()\n    return inner\n"
        "def weight(spec, p):\n    return spec.weight(p)\n")
    assert sorted(self_callers(tree)) == ["f", "g", "h"]


def test_sources_have_no_self_calls():
    found = {path.name: self_callers(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.glob("*.py"))}
    assert found and {name: fns for name, fns in found.items() if fns} == {}
