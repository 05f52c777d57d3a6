"""Every top-level import of a package module is read by that module.

The project runs no linter, so this keeps a refactor from leaving a dead
import behind.  __init__.py is skipped: its imports are re-exports, which
__all__ and test_exports.py cover.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinor_efimov"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

def _unread_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        # a string annotation such as "SweepTable | None" reads its names
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            read.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return bound - read


def test_package_modules_found():
    assert {p.stem for p in MODULES} >= {"spin", "hyperangular", "runner"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_top_level_import_is_read(path):
    assert _unread_imports(path) == set()
