"""Source hygiene: no module of the package imports a name it never uses,
no module-level function or class of the package goes unreferenced, and
no floating point enters the package."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
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
# reading reports back; the package itself only writes them.  And the
# general exact inverse over a field: the package inverts only the Cartan
# matrix, by its closed form, but the benchmark's per-layer metric
# exactarith.mat_inverse_over_field.calls names it, to show it reads 0.
UNREFERENCED_ALLOWED = {"basis_from_json", "basis_from_label", "mat_inverse_over_field"}


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


# Names of float types and dtypes, as names or attributes (np.float64).
FLOAT_NAMES = {
    "float", "double", "half", "single", "longdouble", "floating",
    "float16", "float32", "float64", "float128",
    "complex", "complexfloating", "complex64", "complex128", "complex256",
}
# numpy constructors whose default dtype is float64
FLOAT_BY_DEFAULT = {"zeros", "ones", "empty", "eye", "identity"}


def _is_float_dtype_string(node) -> bool:
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return False
    try:
        return np.dtype(node.value).kind in "fc"
    except TypeError:
        return False


def float_uses(path: Path) -> list[str]:
    """Where `path` brings in floating point.

    Flags the float types and float dtypes by name, float and complex
    literals, dtype strings such as "f8", numpy constructors left at their
    float64 default dtype, and `bincount` with weights, which sums in
    float64.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            what = node.id
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES:
            what = node.attr
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = repr(node.value)
        elif isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            keywords = {kw.arg: kw.value for kw in node.keywords}
            dtypes = [keywords.get("dtype")] + (node.args[:1] if callee == "astype" else [])
            if callee == "bincount" and (len(node.args) > 1 or "weights" in keywords):
                what = "bincount with weights"
            elif callee in FLOAT_BY_DEFAULT and "dtype" not in keywords:
                what = f"{callee} without dtype"
            elif any(map(_is_float_dtype_string, dtypes)):
                what = "float dtype string"
        if what is not None:
            found.append((node.lineno, node.col_offset, f"{path.name}:{node.lineno} {what}"))
    return [text for *_, text in sorted(found)]


def test_no_floats():
    assert [x for path in sorted(SRC.glob("*.py")) for x in float_uses(path)] == []


def test_float_use_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import numpy as np\n"
        "a = np.zeros(3, dtype=np.int64)\n"
        "b = np.bincount(a)\n"
        "c = float(1)\n"
        "d = np.ones(3)\n"
        "e = np.bincount(a, weights=a)\n"
        "f = a.astype('f8')\n"
        "g = np.zeros(2, dtype=np.float64) * 0.5\n"
        "h = np.array([1], dtype='int64')\n",
        encoding="utf-8",
    )
    assert float_uses(module) == [
        "sample.py:4 float",
        "sample.py:5 ones without dtype",
        "sample.py:6 bincount with weights",
        "sample.py:7 float dtype string",
        "sample.py:8 float64",
        "sample.py:8 0.5",
    ]
