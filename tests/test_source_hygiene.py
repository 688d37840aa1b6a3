import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "aspgraph"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom .graph import DepGraph, build_cnr\nsys.exit(build_cnr)\n")
    assert unused_imports(tree) == ["os (line 1)", "DepGraph (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
