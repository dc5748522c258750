"""Guard: only qsip.series knows the canonical int-row form of QSeries.

Every other module of the package imports ``_``-prefixed names from
``qsip.series`` alone, and only ``series.py`` names ``_canonical`` or reads
a series' rows (``_rows``): the other builders hand their
fresh rows to ``QSeries._make``, which trims them, and read a series
through its public methods.  Nor does any other module add one int row
into another in place (a slice assigned from a ``map(...)`` call); it
calls the row kernels of ``series.py`` (``_sum_rows``, ``_add_product``).
Nor does any other module put zeros before a row (``[0] * n + row``): a
stored row starts at its first nonzero, so a builder hands ``_make`` the
pair (start, row) instead.  Nor does any other module name ``MarkerPoly``:
it is a read-only view of one coefficient, built in ``series.py`` by
``QSeries._marker_poly`` alone, with no arithmetic of its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qsip"
SERIES = {".series", "qsip.series"}


def private_imports(tree: ast.AST) -> list[tuple[str, str]]:
    """(module, name) for each ``_``-prefixed name a ``from ... import`` takes."""
    return [("." * node.level + (node.module or ""), alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


def names(tree: ast.AST) -> set[str]:
    """Every identifier the tree names, read, bound, defined or imported."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def row_adds(tree: ast.AST) -> list[int]:
    """The line of each assignment of a ``map(...)`` call to a slice, the form
    of an in-place row add such as ``acc[i:j] = map(add, acc[i:j], row)``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "map"
            and any(isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Slice)
                    for target in node.targets)]


def zero_prefixes(tree: ast.AST) -> list[int]:
    """The line of each ``[0] * n + ...`` (or ``n * [0] + ...``): a row of
    zeros put before a row."""
    def zeros(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(isinstance(side, ast.List) and len(side.elts) == 1
                        and isinstance(side.elts[0], ast.Constant) and side.elts[0].value == 0
                        for side in (node.left, node.right)))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and zeros(node.left)]


def marker_poly_calls(tree: ast.AST) -> list[str]:
    """Where each ``MarkerPoly(...)`` call sits: the dotted names of the
    classes and functions around it, "" at module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call) and "MarkerPoly" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def members(cls: ast.ClassDef) -> set[str]:
    """Every name a class body defines or assigns."""
    out = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {target.id for target in targets if isinstance(target, ast.Name)}
    return out


def sources() -> dict[str, ast.AST]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_detector_flags_each_form():
    tree = ast.parse("from .series import _a, b\nfrom .sip import _c\n"
                     "from qsip.ncopies import _d as e\nx = s._canonical\n")
    assert private_imports(tree) == [(".series", "_a"), (".sip", "_c"),
                                     ("qsip.ncopies", "_d")]
    assert "_canonical" in names(tree)
    assert "_canonical" in names(ast.parse("def _canonical(): pass\n"))
    assert "_canonical" in names(ast.parse("from .series import _canonical as c\n"))
    tree = ast.parse("acc[:] = map(add, acc, r)\nt[i:] = map(sub, t[i:], r)\n"
                     "x = y[a:b] = map(add, y[a:b], r)\nacc[0] = map(add, a, b)\n"
                     "acc[:] = list(map(add, acc, r))\nrow = map(neg, tail)\n")
    assert row_adds(tree) == [1, 2, 3]
    tree = ast.parse("a = [0] * n + row\nb = [0] * (e - 1) + [1] + [0] * t\nc = k * [0] + r\n"
                     "d = [1] + [0] * n\ne = [0] * n\nacc[:0] = [0] * k\nf = [0, 0] + r\n"
                     "g = [1] * n + r\nh = row + [0] * n + [1]\n")
    assert sorted(zero_prefixes(tree)) == [1, 2, 3]
    tree = ast.parse("class A:\n    x = MarkerPoly(m)\n    __radd__ = __add__\n"
                     "    def f(self):\n        return series.MarkerPoly(m, t)\n"
                     "def g(p):\n    return MarkerPoly.specialize(p, {})\nMarkerPoly()\n")
    assert marker_poly_calls(tree) == ["A", "A.f", ""]
    assert members(tree.body[0]) == {"x", "__radd__", "f"}


def test_private_names_come_only_from_series():
    found = {name: [(mod, private) for mod, private in private_imports(tree)
                    if mod not in SERIES]
             for name, tree in sources().items()}
    assert found and {name: bad for name, bad in found.items() if bad} == {}


def test_only_series_names_canonical():
    assert [name for name, tree in sources().items()
            if "_canonical" in names(tree)] == ["series.py"]


def test_only_series_reads_rows():
    assert [name for name, tree in sources().items()
            if "_rows" in names(tree)] == ["series.py"]


def test_only_series_adds_rows_in_place():
    found = {name: row_adds(tree) for name, tree in sources().items()}
    assert found["series.py"]
    assert {name: lines for name, lines in found.items() if lines and name != "series.py"} == {}


def test_only_series_builds_zero_prefixes():
    found = {name: zero_prefixes(tree) for name, tree in sources().items()}
    assert found["series.py"]
    assert {name: lines for name, lines in found.items() if lines and name != "series.py"} == {}


def test_marker_poly_is_a_read_only_view():
    trees = sources()
    assert [name for name, tree in trees.items() if "MarkerPoly" in names(tree)] == ["series.py"]
    assert marker_poly_calls(trees["series.py"]) == ["QSeries._marker_poly"]
    (cls,) = [node for node in trees["series.py"].body
              if isinstance(node, ast.ClassDef) and node.name == "MarkerPoly"]
    # no arithmetic: no __add__, __mul__, __sub__, __neg__ or __pow__
    assert members(cls) == {"__slots__", "__init__", "specialize", "__eq__",
                            "_term_str", "__str__", "__repr__"}
