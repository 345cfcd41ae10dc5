"""Carry pairs live only at the boundary.

Inside the package a group element is a tuple of integers.  `ChangPair`
belongs to `lgroup` (the carry rule and `pair_of_phi`), to `serialize`
(reading and writing elements) and to the re-export in `__init__.py`; any
other module that names it has started computing on pairs again.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvgamma"
ALLOWED = {"lgroup", "serialize", "__init__"}


def names(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
            found.add(node.name)
    return found


def test_chang_pair_stays_at_the_boundary():
    users = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if "ChangPair" in names(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert users - ALLOWED == set()
    assert {"lgroup", "serialize"} <= users
