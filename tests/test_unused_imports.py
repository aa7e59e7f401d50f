"""No module under ``src/`` imports a name it never uses.

A local stand-in for ruff's F401: every top-level ``import`` / ``from …
import`` binding must be read again somewhere in its module.  A package's
``__init__.py`` and a module with ``__all__`` may import names only to
re-export them, so both are skipped; ``from __future__`` imports are not
bindings.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def unused_imports(tree: ast.Module):
    """(line, name) of each top-level import binding no other node reads."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [
                (node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def exports(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for node in tree.body
    )


def test_no_unused_top_level_imports_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if exports(tree):
            continue
        found += [
            f"{path.relative_to(SRC)}:{line} {name}" for line, name in unused_imports(tree)
        ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_scan_sees_an_unused_import_and_a_used_one():
    tree = ast.parse(
        "from typing import Dict, List\nimport os.path\nx: List[int] = []\nos.path.join('a')\n"
    )
    assert unused_imports(tree) == [(1, "Dict")]
