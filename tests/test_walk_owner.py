"""Guard: only qsip.partitions owns the walk kernels.

Every enumerator and counting walk is a rule handed to ``grow`` or
``grow_leaves``.  So no other module holds an explicit-stack walk loop (a
``while stack:`` loop that pops or peeks at the stack it tests), and no
function outside ``partitions.py`` both calls ``grow`` and chains
iterables: a walk whose states are mostly leaves chains its leaf runs
through ``grow_leaves``, not around ``grow``.  In ``ncopies.py`` one
function walks the n-copies tuples; the other tuple enumerators filter it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qsip"
OWNER = "partitions.py"


def called_name(node: ast.AST) -> str | None:
    """The name a call calls: ``f`` for ``f(...)`` and ``m.f(...)``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def stack_loops(tree: ast.AST) -> list[int]:
    """Lines of each ``while name:`` loop whose body pops ``name`` or reads
    ``name[-1]``."""
    out = []
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.While) and isinstance(loop.test, ast.Name)):
            continue
        stack = loop.test.id
        for node in ast.walk(ast.Module(body=loop.body, type_ignores=[])):
            if isinstance(node, ast.Attribute) and node.attr == "pop":
                target = node.value
            elif isinstance(node, ast.Subscript) and ast.unparse(node.slice) == "-1":
                target = node.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id == stack:
                out.append(loop.lineno)
                break
    return out


def chains_around_grow(tree: ast.AST) -> list[str]:
    """Each outermost function that calls ``grow`` and also chains iterables
    (``chain(...)`` or ``chain.from_iterable(...)``)."""
    out = []
    for func in tree.body if isinstance(tree, ast.Module) else []:
        if not isinstance(func, ast.FunctionDef):
            continue
        calls = {called_name(node) for node in ast.walk(func)}
        if "grow" in calls and calls & {"chain", "from_iterable"}:
            out.append(func.name)
    return out


def sources() -> dict[str, ast.AST]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_detectors_flag_each_form():
    walk = ast.parse("def walk(root, rule):\n"
                     "    stack = [root]\n"
                     "    while stack:\n"
                     "        state = stack.pop()\n"
                     "        stack += rule(state)\n"
                     "def peek(stack):\n"
                     "    while stack:\n"
                     "        for s in stack[-1]:\n"
                     "            pass\n"
                     "def fine(row, other):\n"
                     "    while not row[-1]:\n"
                     "        row.pop()\n"
                     "    while row:\n"
                     "        other.pop()\n")
    assert stack_loops(walk) == [3, 7]
    around = ast.parse(
        "def nested(t):\n"
        "    return walk_series(chain.from_iterable(map(f, grow(root, g))), t)\n"
        "def pending(t):\n"
        "    walk = map(with_leaves, grow(root, branching))\n"
        "    return Counter(chain.from_iterable(walk))\n"
        "def plain(t):\n"
        "    return chain(a, b), grow(root, g)\n"
        "def fine(t):\n"
        "    return grow(root, g), grow_leaves(root, rule)\n")
    assert chains_around_grow(around) == ["nested", "pending", "plain"]


def test_owner_holds_the_kernels():
    tree = sources()[OWNER]
    assert len(stack_loops(tree)) == 2


def test_no_stack_walk_loop_outside_the_owner():
    found = {name: stack_loops(tree) for name, tree in sources().items() if name != OWNER}
    assert found and {name: lines for name, lines in found.items() if lines} == {}


def test_no_leaf_runs_chained_around_grow():
    found = {name: chains_around_grow(tree) for name, tree in sources().items()
             if name != OWNER}
    assert found and {name: funcs for name, funcs in found.items() if funcs} == {}


def test_one_ncopies_tuple_walk():
    tree = sources()["ncopies.py"]
    callers = [func.name for func in tree.body if isinstance(func, ast.FunctionDef)
               and "grow" in {called_name(node) for node in ast.walk(func)}]
    assert callers == ["enumerate_ncopies"]
