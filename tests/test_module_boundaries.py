"""Each specvar module uses only the public names of the others.

A ``_private`` helper is an implementation detail of its module; a second
module that reaches into it duplicates a decision that should live in one
place.  The check parses every module's source (no import side effects).
"""

import ast
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
