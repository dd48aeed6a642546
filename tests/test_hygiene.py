"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tsring"


def unused_imports(path: Path) -> list[str]:
    """Names bound by an import in `path` that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # re-exported names count as used
            used |= set(ast.literal_eval(node.value))
    return sorted(
        f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm\n"
        "__all__ = ['lcm']\n"
        "print(os.path.sep)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["sample.py:3 gcd"]
