"""No module of the package imports a name it never uses, defines a
constant nothing reads or a function nothing calls, and every name the
package exports exists.

No linter ships with the test dependencies, so this reads each file's syntax
tree: every name bound by an ``import`` must be read somewhere in the file,
or be listed in its ``__all__``.  The package's ``__init__.py`` is left out,
since importing names there is how it re-exports them.  A module-level
constant (an upper-case name, a leading underscore allowed) of the package
must be read somewhere in the package, or be listed in its module's
``__all__``; so must a module-level function or class, read outside its own
definition.  Each name in the package's and each module's
``__all__`` must resolve on the imported module, so a kept alias such as
``MilpGraph`` cannot disappear silently, and each name the package's
``__init__.py`` or ``cli.py`` reads from a module, by ``from .x import y`` or
as ``x.y`` after ``from . import x``, must be in that module's ``__all__``.
"""

import ast
import importlib
import os
import re
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "milpgnn")
FILES = sorted(
    os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
)


def exported(tree) -> set[str]:
    """The names listed in a module's ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return names


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
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_import_is_used(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom typing import Callable, Sequence\nx: Sequence = []\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Callable"]


def names_read(nodes) -> set[str]:
    """Every name the syntax trees read: by name, as an attribute, or in a
    ``from`` import."""
    read = set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def unread_constants(package: dict[str, str]) -> list[str]:
    """Module-level constants of the package (file name -> source) that no
    source in it reads, by name or as an attribute, and that are not
    exported."""
    read = names_read(ast.parse(source) for source in package.values())
    unread = []
    for name, source in package.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
                    and target.id not in read | exported(tree)
                ):
                    unread.append(f"{name}: {target.id}")
    return sorted(unread)


def unreferenced_functions(package: dict[str, str]) -> list[str]:
    """Module-level functions and classes of the package (file name ->
    source) that no source in it reads outside their own definition, and
    that are not exported."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    reads = [(node, names_read([node])) for tree in trees.values() for node in tree.body]
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name not in exported(tree)
                and not any(node.name in read for other, read in reads if other is not node)
            ):
                unreferenced.append(f"{name}: {node.name}")
    return sorted(unreferenced)


def read_all(paths) -> dict[str, str]:
    out = {}
    for path in paths:
        with open(path) as fh:
            out[os.path.relpath(path, ROOT)] = fh.read()
    return out


def test_every_constant_is_read():
    package = read_all(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py"))
    assert unread_constants(package) == []


def test_the_check_sees_an_unread_constant():
    package = {
        "a.py": "__all__ = ['EXPORTED']\nEXPORTED = 1\nUSED = 2\nUNUSED = 3\n_PRIVATE: int = 4\nlower = 5\n",
        "b.py": "from .a import USED\n",
    }
    assert unread_constants(package) == ["a.py: UNUSED", "a.py: _PRIVATE"]
    package["c.py"] = "from . import a\nprint(a._PRIVATE)\n"
    assert unread_constants(package) == ["a.py: UNUSED"]


def test_every_function_is_referenced():
    package = read_all(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py"))
    assert unreferenced_functions(package) == []


def test_the_check_sees_an_unreferenced_function():
    package = {
        "a.py": (
            "__all__ = ['api']\n"
            "def api():\n    return _used()\n"
            "def _used():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _dead():\n    pass\n"
            "class _Unused:\n    pass\n"
            "def imported():\n    pass\n"
            "def by_attribute():\n    pass\n"
        ),
        "b.py": "from .a import imported\n",
    }
    assert unreferenced_functions(package) == ["a.py: _Unused", "a.py: _dead", "a.py: _recursive", "a.py: by_attribute"]
    package["c.py"] = "from . import a\na.by_attribute()\n"
    assert unreferenced_functions(package) == ["a.py: _Unused", "a.py: _dead", "a.py: _recursive"]


def unresolved(module) -> list[str]:
    return [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]


MODULES = ["milpgnn"] + ["milpgnn." + os.path.basename(path)[:-3] for path in FILES]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    assert unresolved(importlib.import_module(name)) == []


def test_the_check_sees_a_missing_export():
    module = types.ModuleType("m")
    module.__all__ = ["present", "absent"]
    module.present = 1
    assert unresolved(module) == ["absent"]


def reads_outside_all(source: str, exports: dict[str, set[str]]) -> list[str]:
    """Names a source reads from one of the package's modules (module name
    -> that module's ``__all__``), by ``from .x import y`` or as ``x.y``
    after ``from . import x``, that the module does not export."""
    tree = ast.parse(source)
    modules, read = {}, set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
            else:
                read.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            read.add((modules[node.value.id], node.attr))
    return sorted(f"{module}: {name}" for module, name in read if name not in exports[module])


def module_exports() -> dict[str, set[str]]:
    return {os.path.basename(path)[:-3]: exported(ast.parse(source)) for path, source in read_all(FILES).items()}


def test_every_package_export_is_in_its_modules_all():
    with open(os.path.join(PACKAGE, "__init__.py")) as fh:
        assert reads_outside_all(fh.read(), module_exports()) == []


def test_the_check_sees_an_export_outside_its_modules_all():
    source = "from .a import kept, dropped\nfrom .b import other\nfrom os import path\n"
    assert reads_outside_all(source, {"a": {"kept"}, "b": set()}) == ["a: dropped", "b: other"]


def test_the_cli_reads_only_exported_names():
    with open(os.path.join(PACKAGE, "cli.py")) as fh:
        assert reads_outside_all(fh.read(), module_exports()) == []


def test_the_check_sees_a_private_name_read_as_an_attribute():
    source = "from . import a\nfrom . import b as bee\nimport os\na.kept()\na._hidden\nbee.Error\nos.path\n"
    assert reads_outside_all(source, {"a": {"kept"}, "b": set()}) == ["a: _hidden", "b: Error"]
