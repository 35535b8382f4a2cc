"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "current1d"
# the package module imports names to export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, except on lines marked ``# noqa``."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport os  # noqa\nfrom json import dumps, loads\n"
                   "print(loads)\n")
    assert unused_imports(mod) == ["dumps (line 3)", "math (line 1)"]
