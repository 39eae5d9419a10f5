"""Every module of the package uses each name it imports.

Checked with the stdlib ``ast`` module only, so it runs on every supported
Python. ``__init__.py`` is left out: its imports are the public API. A name
that appears only inside a string annotation counts as used.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bsgkit"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports in source that nothing else reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_string_annotations_and_unused_names():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import os.path\n"
        "from .a import Used, Unused\n"
        "if TYPE_CHECKING:\n"
        "    from .b import Quoted\n"
        "def f(x: 'Quoted') -> Used:\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["os", "Unused"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        path.name: names
        for path in modules
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
