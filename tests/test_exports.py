"""Each module's ``__all__`` lists exactly its public top-level functions and
classes.  ``from walklab.<module> import *`` and the benchmark tracer
(``perfbench/tracer.py``, which wraps every listed name) both read it, so a
stale entry breaks them and a missing one goes unexported and untimed."""

import importlib
import inspect
import pkgutil

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
