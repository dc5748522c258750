"""Guard: qsip.closed_forms shares no code with the tables it checks.

The closed forms are checked entry by entry against the recurrence tables
of ``qsip.sip`` (``basis_table``) and ``qsip.ncopies``
(``exact_diff_table``).  That check means something only while the two
sides are built independently, so ``closed_forms`` imports nothing from
either module, in any import form.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qsip"
TABLES = {"sip", "ncopies"}


def imported_modules(tree: ast.AST) -> set[str]:
    """Each module an import statement may load, package-relative: ``.sip``,
    ``qsip.sip`` and ``from . import sip`` all give ``sip``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            continue
        for name in names:
            head = name.removeprefix("qsip.").split(".")[0]
            if head:
                out.add(head)
    return out


def test_detector_flags_each_form():
    for source in ("from .sip import basis_table\n", "from . import sip\n",
                   "import qsip.sip\n", "from qsip.sip import x\n", "from qsip import sip\n",
                   "from .ncopies import _chain as c\n"):
        assert imported_modules(ast.parse(source)) & TABLES, source
    assert imported_modules(ast.parse("from .series import QSeries\n")) == {"series"}


def test_closed_forms_imports_no_table_module():
    tree = ast.parse((SRC / "closed_forms.py").read_text(), "closed_forms.py")
    found = imported_modules(tree)
    assert {"series", "qfactory"} <= found and not found & TABLES
