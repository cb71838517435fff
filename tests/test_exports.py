"""Each module's ``__all__`` lists exactly its public top-level functions and
classes.  ``from walklab.<module> import *`` and the benchmark tracer
(``perfbench/tracer.py``, which wraps every listed name) both read it, so a
stale entry breaks them and a missing one goes unexported and untimed.  And
no module reads another's underscore names: those stay free to change."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import walklab

MODULES = sorted(info.name for info in pkgutil.iter_modules(walklab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    module = importlib.import_module(f"walklab.{name}")
    unresolved = [n for n in module.__all__ if not hasattr(module, n)]
    assert not unresolved, f"__all__ names nothing called {unresolved}"
    defined = {
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"public definitions missing from __all__: {unlisted}"


def private_reads(package):
    """``file:line module._name`` for each place a module under ``package``
    reads another walklab module's underscore name: through the module's
    name or an import alias (``classical._x``, ``_graphs._x``), through
    ``walklab.classical._x``, or by ``from walklab.classical import _x``."""
    found = []
    for path in sorted(package.rglob("*.py")):
        own = path.parent.name if path.stem == "__init__" else path.stem
        tree = ast.parse(path.read_text(), str(path))
        bound = {name: name for name in MODULES}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    if source in ("walklab", "") and alias.name in MODULES:
                        bound[alias.asname or alias.name] = alias.name
                    elif source in MODULES and alias.name.startswith("_"):
                        found.append((path, node.lineno, source, alias.name))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            value, module = node.value, None
            if isinstance(value, ast.Name):
                module = bound.get(value.id)
            elif (isinstance(value, ast.Attribute) and value.attr in MODULES
                  and isinstance(value.value, ast.Name)
                  and value.value.id == "walklab"):
                module = value.attr
            name = node.attr
            if (module not in (None, own) and name.startswith("_")
                    and not (name.startswith("__") and name.endswith("__"))):
                found.append((path, node.lineno, module, name))
    return [f"{path.relative_to(package.parent)}:{line} {module}.{name}"
            for path, line, module, name in found]


def test_no_module_reads_another_modules_private_names():
    assert private_reads(Path(walklab.__file__).parent) == []
