"""The package namespace: ``deltadecode`` re-exports each module's ``__all__``."""

import deltadecode
from deltadecode import analysis, core, decoder, harness, metrics, remote, scorers

MODULES = (analysis, core, decoder, harness, metrics, remote, scorers)


def test_all_is_version_plus_every_module_all():
    names = [name for module in MODULES for name in module.__all__]
    assert deltadecode.__all__ == ["__version__", *names]
    assert len(set(deltadecode.__all__)) == len(deltadecode.__all__)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from deltadecode import *", namespace)
    for name in deltadecode.__all__:
        assert namespace[name] is getattr(deltadecode, name)
    for module in MODULES:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)
    assert namespace["__version__"] == "0.1.0"
