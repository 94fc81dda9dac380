"""Every name a ``wonderful`` module lists in ``__all__`` is defined or
imported there, so ``from wonderful.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import wonderful

MODULES = sorted(info.name for info in pkgutil.iter_modules(wonderful.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module("wonderful." + name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, "wonderful.%s.__all__ names what it lacks: %s" % (name, ", ".join(missing))
    exec("from wonderful.%s import *" % name, {})
