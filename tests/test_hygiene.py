"""Source hygiene: no module of the package imports a name it never uses,
no module-level function or class of the package goes unreferenced, no
floating point enters the package, no check is an `assert` statement, no
matrix product bypasses `exactarith.field_mat_mul`, every function the
benchmark's per-layer metrics name exists, `verify` never imports
numpy.ma, `basis` imports no numpy, the multiplication table is read
only through `TRing.terms`, the group laws of G and of the level groups
have no index tables, the assoc check runs no elimination over a
field, has no Teichmüller certificate and never imports the oracle, and
no class keeps a `checks` record."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
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


def assert_statements(path: Path) -> list[str]:
    """Where `path` uses `assert`; `python -O` strips it, so a check there
    would pass silently."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    asserts = [node for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    return [f"{path.name}:{node.lineno}" for node in asserts]


def test_no_assert_statements():
    assert [x for path in sorted(SRC.glob("*.py")) for x in assert_statements(path)] == []


def test_assert_statement_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(x)\n"
        "    assert x != 1, 'one'\n"
        "    return AssertionError\n",
        encoding="utf-8",
    )
    assert assert_statements(module) == ["sample.py:4"]


# Callables that multiply matrices; the package's one matrix product is
# `exactarith.field_mat_mul`, so they may appear only in exactarith.
MATRIX_PRODUCTS = {"dot", "matmul"}


def matrix_products(path: Path) -> list[str]:
    """Where `path` multiplies matrices: `@`, `@=`, or a call of `.dot` or
    `matmul`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if callee in MATRIX_PRODUCTS:
                what = callee
        if what is not None:
            found.append((node.lineno, node.col_offset, f"{path.name}:{node.lineno} {what}"))
    return [text for *_, text in sorted(found)]


def test_one_matrix_product():
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "exactarith.py"]
    assert [x for path in paths for x in matrix_products(path)] == []


def test_matrix_product_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import numpy as np\n"
        "from numpy import matmul\n"
        "a = np.eye(2, dtype=np.int64)\n"
        "b = a @ a\n"
        "b @= a\n"
        "c = np.dot(a, a) + a.dot(a)\n"
        "d = matmul(a, a) * np.multiply(a, a)\n",
        encoding="utf-8",
    )
    assert matrix_products(module) == [
        "sample.py:4 @",
        "sample.py:5 @",
        "sample.py:6 dot",
        "sample.py:6 dot",
        "sample.py:7 matmul",
    ]


# Per-layer metrics that perfbench/run.py derives from the traced functions
# listed, rather than reading one statistic of one function.
DERIVED_METRICS = {
    "mackey.star_module.nonzero_ratio": ["mackey.MackeyOracle.star_module"],
    "mackey.canonicalize.conj_per_call": ["mackey.MackeyOracle.canonicalize", "groupmodel.conj"],
}
STATISTICS = {"calls", "s", "self_s"}


def _public_function(dotted: str) -> bool:
    """Is `module.name` or `module.Class.method` a public function of tsring?"""
    module, *path = dotted.split(".")
    try:
        mod = importlib.import_module(f"tsring.{module}")
    except ModuleNotFoundError:
        return False
    obj = vars(mod).get(path[0])
    if path[0].startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    if len(path) == 1:
        return inspect.isroutine(obj)
    method = path[-1]
    return (
        len(path) == 2
        and isinstance(obj, type)
        and (method == "__init__" or not method.startswith("_"))
        and inspect.isfunction(vars(obj).get(method))
    )


def per_layer_problems(names, checks) -> list[str]:
    """Per-layer metric names that no longer name what they measure.

    `<module>.<name>[.<method>].<statistic>` must name a public function or
    method of tsring, `cli.check.<check>.<statistic>` a check of `verify`;
    `proc.*` metrics measure the process.
    """
    problems = []
    for name in names:
        if name.startswith("proc."):
            continue
        if name in DERIVED_METRICS:
            missing = [fn for fn in DERIVED_METRICS[name] if not _public_function(fn)]
            problems += [f"{name}: no such public function {fn}" for fn in missing]
            continue
        target, _, stat = name.rpartition(".")
        if stat not in STATISTICS:
            problems.append(f"{name}: unknown statistic")
        elif target.startswith("cli.check."):
            if target.removeprefix("cli.check.") not in checks:
                problems.append(f"{name}: no such check")
        elif not _public_function(target):
            problems.append(f"{name}: no such public function")
    return problems


def test_benchmark_per_layer_names_resolve():
    from tsring.cli import VERIFY_CHECKS

    path = SRC.parent.parent / "BENCHMARK.json"
    bench = json.loads(path.read_text(encoding="utf-8"))
    names = [metric["name"] for metric in bench["per_layer"]]
    assert per_layer_problems(names, VERIFY_CHECKS) == []


def test_unresolved_per_layer_name_is_reported():
    names = [
        "proc.cpu_s",
        "cli.check.assoc.s",
        "tring.TRing.mult.calls",
        "tring.tring.s",
        "groupmodel.SubgroupGG.__init__.self_s",
        "cli.check.nothing.s",
        "blocks._decompose.s",
        "blocks.gone.calls",
        "blocks.LevelGroup._table.calls",
        "exactarith.QQ.s",
        "nomodule.f.s",
        "tring.TRing.mult.median",
    ]
    assert per_layer_problems(names, ("assoc",)) == [
        "cli.check.nothing.s: no such check",
        "blocks._decompose.s: no such public function",
        "blocks.gone.calls: no such public function",
        "blocks.LevelGroup._table.calls: no such public function",
        "exactarith.QQ.s: no such public function",
        "nomodule.f.s: no such public function",
        "tring.TRing.mult.median: unknown statistic",
    ]


# importing numpy.ma costs about 17 ms and 1.3 MB of resident memory, which
# peak_rss_mb sees; np.unique(..., axis=0) pulls it in, tuple or bytes keys
# do not (exactarith.order_components)
def _imports_numpy_ma(code: str) -> bool:
    code += "\nimport sys\nprint('numpy.ma' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return run.stdout.splitlines()[-1] == "True"


def test_verify_does_not_import_numpy_ma():
    args = "'--p', '3', '--n', '2', '--e', '2', '--field', 'Q,F2,F3,F5'"
    assert not _imports_numpy_ma(f"from tsring.cli import main\nmain(['verify', {args}])")


def test_numpy_ma_import_is_seen():
    assert _imports_numpy_ma("import numpy as np\nnp.unique(np.eye(2, dtype=np.int64), axis=0)")


# `tsring basis`, `--help` and a usage error need only `tsring.model`; numpy
# and the numeric modules cost about 100 ms of every cold start.
NUMERIC_MODULES = {"numpy", "tsring.tring", "tsring.groupmodel", "tsring.exactarith"}


def _cold_start(*args) -> tuple[int, set]:
    """Exit code and loaded modules of `python -m tsring ARGS`, read off
    `-X importtime`, which lists every module as its import completes."""
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tsring", *args],
        capture_output=True,
        text=True,
    )
    rows = [line.split("|") for line in run.stderr.splitlines()]
    return run.returncode, {row[-1].strip() for row in rows if row[0].startswith("import time:")}


@pytest.mark.parametrize(
    "args,code",
    [
        (["basis", "--p", "3", "--n", "4", "--e", "2"], 0),
        (["--help"], 0),
        (["basis", "--p", "4", "--n", "1", "--e", "1"], 2),
    ],
    ids=["basis", "help", "usage-error"],
)
def test_basis_starts_without_numpy(args, code):
    exit_code, loaded = _cold_start(*args)
    assert exit_code == code
    assert "tsring.model" in loaded
    assert loaded & NUMERIC_MODULES == set()


def test_verify_start_is_seen():
    exit_code, loaded = _cold_start("verify", "--p", "3", "--n", "1", "--e", "1")
    assert exit_code == 0
    assert NUMERIC_MODULES <= loaded


# The multiplication table has one representation, the live terms of
# `TRing.structure_table`, read elsewhere only through `TRing.terms`; the
# zero-padded arrays and the second copy of the terms are gone.
TABLE_OWNER = "tring.py"
GONE_TABLE_NAMES = ("structure_arrays", "_live_terms")


def table_access_problems(path: Path) -> list[str]:
    """Where `path` calls `structure_table` outside `TABLE_OWNER`, or names
    one of `GONE_TABLE_NAMES`."""
    text = path.read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and path.name != TABLE_OWNER:
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if callee == "structure_table":
                found.append(f"{path.name}:{node.lineno} structure_table")
    for number, line in enumerate(text.splitlines(), 1):
        found += [f"{path.name}:{number} {name}" for name in GONE_TABLE_NAMES if name in line]
    return found


def test_table_read_through_terms():
    assert [x for path in sorted(SRC.glob("*.py")) for x in table_access_problems(path)] == []


def test_table_access_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def f(ring):\n"
        "    start, cls, val = ring.structure_table()\n"
        "    return ring.terms(start)  # not structure_arrays\n"
        "g = _live_terms\n",
        encoding="utf-8",
    )
    assert table_access_problems(module) == [
        "sample.py:2 structure_table",
        "sample.py:3 structure_arrays",
        "sample.py:4 _live_terms",
    ]


# The law of G is in closed form (`groupmodel.GroupTable.product`), and the
# double cosets are E-orbits on D/D_m (`groupmodel.double_cosets_in_d`): the
# |G| x |G| table, its row blocks and the double-coset gather live only in
# `tests/reference.py`.
GONE_GROUP_TABLE_NAMES = ("double_coset_partition", "_TABLE_BLOCK", "subgroup_indices")


def group_table_problems(path: Path) -> list[str]:
    """Where `path` names one of `GONE_GROUP_TABLE_NAMES`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [
        f"{path.name}:{number} {name}"
        for number, line in enumerate(lines, 1)
        for name in GONE_GROUP_TABLE_NAMES
        if name in line
    ]


def test_group_law_has_no_table():
    assert [x for path in sorted(SRC.glob("*.py")) for x in group_table_problems(path)] == []


def test_group_table_name_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "_TABLE_BLOCK = 1 << 13\n"
        "def f(table, params):\n"
        "    return table.subgroup_indices(1), double_coset_partition(params, 0, 1)\n",
        encoding="utf-8",
    )
    assert group_table_problems(module) == [
        "sample.py:1 _TABLE_BLOCK",
        "sample.py:3 double_coset_partition",
        "sample.py:3 subgroup_indices",
    ]


# A certificate raises on its first failure, so a record of passed checks
# kept on a class can only ever hold True: none is kept.
def checks_record_problems(path: Path) -> list[str]:
    """Where `path` declares a `checks` field in a class body or reads or
    writes a `.checks` attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                found += [t.lineno for t in targets if isinstance(t, ast.Name) and t.id == "checks"]
        elif isinstance(node, ast.Attribute) and node.attr == "checks":
            found.append(node.lineno)
    return [f"{path.name}:{number} checks" for number in sorted(found)]


def test_no_class_keeps_a_checks_record():
    assert [x for path in sorted(SRC.glob("*.py")) for x in checks_record_problems(path)] == []


def test_checks_record_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "class Iso:\n"
        "    checks: dict = None\n"
        "def f(iso):\n"
        "    checks = []  # a local list is no record\n"
        "    iso.checks.update(checks)\n",
        encoding="utf-8",
    )
    assert checks_record_problems(module) == ["sample.py:2 checks", "sample.py:5 checks"]


# The level groups are products of cyclic groups on coordinates
# (`blocks.LevelGroup.product`): the |Gamma_i| x |Gamma_i| index table, the
# subgroup lattice and its products live only in `tests/reference.py`.
GONE_LEVEL_TABLE_NAMES = ("._table", "cyclic_subgroups", "_subgroups", "_product(")


def level_table_problems(path: Path) -> list[str]:
    """Where `path` names one of `GONE_LEVEL_TABLE_NAMES`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [
        f"{path.name}:{number} {name}"
        for number, line in enumerate(lines, 1)
        for name in GONE_LEVEL_TABLE_NAMES
        if name in line
    ]


def test_level_law_has_no_table():
    assert level_table_problems(SRC / "blocks.py") == []


def test_level_table_name_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def f(gamma, h):\n"
        "    rows = gamma._table[h]\n"
        "    return gamma._product(h, h), gamma.cyclic_subgroups, gamma._subgroups\n",
        encoding="utf-8",
    )
    assert level_table_problems(module) == [
        "sample.py:2 ._table",
        "sample.py:3 cyclic_subgroups",
        "sample.py:3 _subgroups",
        "sample.py:3 _product(",
    ]


# Associativity is certified by transport along the label twists
# (`tring._transported`): the Teichmüller certificate, its generators and
# its span closure are gone.
GONE_ASSOC_NAMES = ("_spanning_generators", "_generator_candidates", "_left_nucleus_generators")


def assoc_certificate_problems(path: Path) -> list[str]:
    """Where `path` names one of `GONE_ASSOC_NAMES`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [
        f"{path.name}:{number} {name}"
        for number, line in enumerate(lines, 1)
        for name in GONE_ASSOC_NAMES
        if name in line
    ]


def test_assoc_has_no_teichmuller_certificate():
    assert [x for path in sorted(SRC.glob("*.py")) for x in assoc_certificate_problems(path)] == []


def test_assoc_certificate_name_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def f(ring):\n"
        "    gens = _spanning_generators(ring, _generator_candidates(ring))\n"
        "    return cli._left_nucleus_generators(ring)\n",
        encoding="utf-8",
    )
    assert assoc_certificate_problems(module) == [
        "sample.py:2 _spanning_generators",
        "sample.py:2 _generator_candidates",
        "sample.py:3 _left_nucleus_generators",
    ]


# The assoc check reads the twists off the labels, never from the oracle,
# so it stays independent of it; it imports no `tsring.mackey`.
def test_assoc_does_not_import_the_oracle():
    code = (
        "import sys\n"
        "from tsring.cli import main\n"
        "main(['verify', '--p', '3', '--n', '4', '--e', '2', '--which', 'assoc'])\n"
        "print('tsring.mackey' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.rsplit("\n", 2)[0])["status"] == "ok"
    assert run.stdout.splitlines()[-1] == "False"


def test_oracle_import_is_seen():
    code = "import sys\nimport tsring.mackey\nprint('tsring.mackey' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "True"


# The assoc certificate compares products in the table: no matrix product,
# no echelon form.
FIELD_ELIMINATION = ("field_mat_mul", "_rref")


@pytest.mark.parametrize("pne", [(3, 4, 2), (7, 2, 3)], ids=lambda t: f"p{t[0]}n{t[1]}e{t[2]}")
def test_assoc_runs_no_field_elimination(monkeypatch, capsys, pne):
    from tsring import cli, exactarith

    calls = Counter()
    for name in FIELD_ELIMINATION:
        original = getattr(exactarith, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # every binding of the name in the package, the importers' too
        for module in [m for key, m in sys.modules.items() if key.startswith("tsring")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    p, n, e = (str(x) for x in pne)
    assert cli.main(["verify", "--p", p, "--n", n, "--e", e, "--which", "assoc"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert calls == Counter()
