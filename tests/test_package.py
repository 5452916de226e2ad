import importlib
import pkgutil

import dp4lag


def test_every_exported_name_exists():
    # a deleted function must not stay listed in its module's __all__
    for info in pkgutil.iter_modules(dp4lag.__path__):
        module = importlib.import_module(f"dp4lag.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"dp4lag.{info.name}.__all__ lists undefined names: {missing}"

