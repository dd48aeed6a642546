"""Source hygiene: no module of the package imports a name it never uses,
and no module-level function or class of the package goes unreferenced."""

import ast
from collections import Counter
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


# Public parsing API: the inverses of basis_to_json and basis_label, for
# reading reports back; the package itself only writes them.
UNREFERENCED_ALLOWED = {"basis_from_json", "basis_from_label"}


def _references(tree) -> Counter:
    """Names and attributes read in `tree`, plus the entries of `__all__`."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found.update(ast.literal_eval(node.value))
    return found


def unreferenced_definitions(paths) -> list[str]:
    """Module-level functions and classes that nothing in `paths` refers to.

    References inside a definition's own body (recursion) do not count.
    """
    total = Counter()
    defined = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += _references(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = _references(node)[node.name]
                defined[node.name] = (f"{path.name}:{node.lineno}", own)
    return sorted(
        f"{where} {name}" for name, (where, own) in defined.items() if total[name] == own
    )


def test_no_unreferenced_definitions():
    found = unreferenced_definitions(sorted(SRC.glob("*.py")))
    assert [x for x in found if x.split()[1] not in UNREFERENCED_ALLOWED] == []


def test_unreferenced_definition_is_reported(tmp_path):
    first = tmp_path / "first.py"
    second = tmp_path / "second.py"
    first.write_text(
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "class Used: pass\n"
        "def _helper(): return Used\n",
        encoding="utf-8",
    )
    second.write_text("import first\nfirst._helper()\n", encoding="utf-8")
    assert unreferenced_definitions([first, second]) == []
    first.write_text("def orphan(x): return orphan(x)\ndef caller(): pass\n", encoding="utf-8")
    assert unreferenced_definitions([first, second]) == ["first.py:1 orphan", "first.py:2 caller"]
