"""No module of the package and no script imports a name it never uses, and
every name the package exports exists.

No linter ships with the test dependencies, so this reads each file's syntax
tree: every name bound by an ``import`` must be read somewhere in the file,
or be listed in its ``__all__``.  The package's ``__init__.py`` is left out,
since importing names there is how it re-exports them.  Each name in the
package's and each module's ``__all__`` must resolve on the imported module,
so a kept alias such as ``MilpGraph`` cannot disappear silently.
"""

import ast
import importlib
import os
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = sorted(
    os.path.join(folder, name)
    for folder in (os.path.join(ROOT, "src", "milpgnn"), os.path.join(ROOT, "scripts"))
    for name in os.listdir(folder)
    if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_import_is_used(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom typing import Callable, Sequence\nx: Sequence = []\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Callable"]


def unresolved(module) -> list[str]:
    return [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]


MODULES = ["milpgnn"] + [
    "milpgnn." + name[:-3] for name in sorted(os.listdir(os.path.join(ROOT, "src", "milpgnn")))
    if name.endswith(".py") and name != "__init__.py"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    assert unresolved(importlib.import_module(name)) == []


def test_the_check_sees_a_missing_export():
    module = types.ModuleType("m")
    module.__all__ = ["present", "absent"]
    module.present = 1
    assert unresolved(module) == ["absent"]
