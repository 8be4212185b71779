"""Each specvar module uses only the public names of the others.

A ``_private`` helper is an implementation detail of its module; a second
module that reaches into it duplicates a decision that should live in one
place.  The check parses every module's source (no import side effects).
The same parse keeps every frozen dataclass that holds an array at
identity equality: a generated ``==`` compares arrays elementwise and
raises, and the generated ``__hash__`` raises too.  It also keeps scipy
out of the package: numpy is its only runtime dependency.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "specvar"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "specvar"


def private_uses(source: str) -> list[str]:
    """Private names of other specvar modules that ``source`` imports or
    reads as attributes of an imported module."""
    tree = ast.parse(source)
    modules = set()  # local names bound to specvar modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "specvar":
                    modules.add(alias.asname or "specvar")
        elif isinstance(node, ast.ImportFrom) and _is_package_import(node):
            # `from . import bounds` binds a module; `from .bounds import x` a name
            binds_modules = node.module in (None, "specvar")
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"import {alias.name}")
                elif binds_modules:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_only_public_names(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


def test_checker_flags_imports_and_attribute_reads():
    source = (
        "from . import bounds as bounds_mod\n"
        "from .jordan import phi, _scaling_vector\n"
        "import specvar.linalg\n"
        "bounds_mod._condition_c1(1, 1, 1, 0.0)\n"
        "specvar.linalg._hidden\n"
        "self._cache\n"
    )
    assert sorted(private_uses(source)) == [
        "bounds_mod._condition_c1",
        "import _scaling_vector",
        "specvar.linalg._hidden",
    ]


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports at any level and never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"],  # re-exports
    ids=lambda p: p.name,
)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def scipy_imports(source: str) -> list[str]:
    """The scipy modules and names that ``source`` imports at any level."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found += [f"{node.module}.{a.name}" for a in node.names]
    return found


def test_scipy_serves_only_the_assignment_solver():
    # no module imports scipy: all LAPACK goes through np.linalg (scipy
    # bundles a second OpenBLAS whose thread pool, alternating with
    # numpy's, stalls large trials) and spectrum solves the assignment
    # problem itself, so a process never pays scipy's import
    found = {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in scipy_imports(path.read_text(encoding="utf-8"))
    }
    assert found == set()


def test_importing_the_package_and_cli_loads_no_scipy():
    code = (
        "import sys, specvar, specvar.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert out.stdout.strip() == "[]"


def test_scipy_import_checker():
    source = (
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from scipy import linalg\n"
        "from scipy.optimize import linear_sum_assignment\n"
        "def f():\n"
        "    from scipy.linalg import lapack\n"
    )
    assert scipy_imports(source) == [
        "scipy.linalg",
        "scipy.linalg",
        "scipy.optimize.linear_sum_assignment",
        "scipy.linalg.lapack",
    ]


def test_unused_import_checker():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .harness import run_sweep, summarize as summ\n"
        "def f(x: np.ndarray):\n"
        "    return os.path.join(run_sweep(x))\n"
    )
    assert unused_imports(source) == ["summ"]


def _dataclass_call(decorator) -> ast.Call | None:
    if isinstance(decorator, ast.Call):
        func = decorator.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "dataclass":
            return decorator
    return None


def _keyword_is(call: ast.Call, name: str, value) -> bool:
    return any(
        kw.arg == name and isinstance(kw.value, ast.Constant) and kw.value.value is value
        for kw in call.keywords
    )


def array_dataclasses_with_generated_eq(source: str) -> list[str]:
    """Classes decorated ``@dataclass(frozen=True)`` with an ``np.ndarray``
    field that do not declare ``eq=False``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for call in filter(None, map(_dataclass_call, node.decorator_list)):
            holds_array = any(
                isinstance(stmt, ast.AnnAssign) and "ndarray" in ast.unparse(stmt.annotation)
                for stmt in node.body
            )
            if _keyword_is(call, "frozen", True) and holds_array and not _keyword_is(
                call, "eq", False
            ):
                found.append(node.name)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_frozen_array_dataclasses_compare_by_identity(path):
    assert array_dataclasses_with_generated_eq(path.read_text(encoding="utf-8")) == []


def test_array_dataclass_checker():
    source = (
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class Flagged:\n"
        "    u: np.ndarray\n"
        "@dataclasses.dataclass(frozen=True, eq=True)\n"
        "class AlsoFlagged:\n"
        "    u: 'np.ndarray | None'\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class Identity:\n"
        "    u: np.ndarray\n"
        "@dataclass(frozen=True)\n"
        "class NoArray:\n"
        "    x: float\n"
        "@dataclass\n"
        "class Mutable:\n"
        "    u: np.ndarray\n"
    )
    assert array_dataclasses_with_generated_eq(source) == ["Flagged", "AlsoFlagged"]


def _array_values():
    import numpy as np

    import specvar as sv

    spec = sv.make_jordan_spec([(1.0, 2), (3.0, 1)])
    inst = sv.make_instance(spec, 0.1 * np.ones((3, 3)))
    return {
        "JordanSpec": spec,
        "PerturbationInstance": inst,
        "BlockDecomposition": sv.s_number(np.diag([1.0, 2.0])),
        "Matching": sv.optimal_match([1.0, 2.0], [2.0, 1.0]),
        "TriangularSplit": sv.split_dlu(np.eye(2)),
    }


@pytest.mark.parametrize(
    "name",
    ["JordanSpec", "PerturbationInstance", "BlockDecomposition", "Matching", "TriangularSplit"],
)
def test_array_values_compare_by_identity_and_hash(name):
    first, second = _array_values()[name], _array_values()[name]
    assert type(first).__name__ == name
    assert first == first and first != second
    assert len({first, first, second}) == 2  # hashable, by identity


def test_all_resolves_and_lists_every_public_import():
    # a retired name left in __all__ breaks `from specvar import *`; one
    # imported but not listed is exported by accident
    import specvar

    assert [name for name in specvar.__all__ if not hasattr(specvar, name)] == []
    assert len(set(specvar.__all__)) == len(specvar.__all__)
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(n for n in imported if not _private(n)) == sorted(
        n for n in specvar.__all__ if n in imported
    )
