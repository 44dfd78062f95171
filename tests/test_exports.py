import importlib
import pkgutil

import sepchoose


def test_every_export_resolves():
    # a stale name in an __all__ would break `from sepchoose import *`
    modules = [sepchoose] + [importlib.import_module(f"sepchoose.{m.name}")
                             for m in pkgutil.iter_modules(sepchoose.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__} exports missing {name}"
    namespace = {}
    exec("from sepchoose import *", namespace)
    assert set(sepchoose.__all__) <= namespace.keys()
