"""Export lists: every public name the package and its modules declare resolves."""

import importlib
import pkgutil

import swifttrap


def test_star_import_and_every_export_resolves():
    namespace = {}
    exec("from swifttrap import *", namespace)
    assert set(swifttrap.__all__) <= namespace.keys()
    for info in pkgutil.iter_modules(swifttrap.__path__):
        module = importlib.import_module(f"swifttrap.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)
