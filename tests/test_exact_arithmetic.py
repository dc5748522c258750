"""Guard: no floating point anywhere in the package sources."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qsip"


def float_uses(tree: ast.AST) -> list[int]:
    """Line numbers of float literals, float() calls and true division."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            lines.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            lines.append(node.lineno)
    return sorted(lines)


def test_detector_flags_each_form():
    tree = ast.parse("a = 0.5\nb = float(3)\nc = 1 / 2\nc /= 2\nd = 7 // 2\n")
    assert float_uses(tree) == [1, 2, 3, 4]


def test_sources_use_no_floats():
    found = {path.name: float_uses(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.glob("*.py"))}
    assert found and {name: lines for name, lines in found.items() if lines} == {}
