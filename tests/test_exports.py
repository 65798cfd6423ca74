"""Every package module's ``__all__`` names real objects, each once.

A deleted or renamed public name would otherwise stay listed, and a star
import or a reader of ``__all__`` would find a name the module lacks.
"""
import importlib
import pkgutil

import pytest

import manyminds

MODULES = sorted(f"manyminds.{m.name}" for m in pkgutil.iter_modules(manyminds.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
