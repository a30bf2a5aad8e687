"""Public names: everything a module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import mroot

MODULES = ["mroot"] + sorted(f"mroot.{m.name}"
                             for m in pkgutil.iter_modules(mroot.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_the_stacked_spray_kernel_is_public():
    import mroot.spray
    assert "spray_batch" in mroot.__all__
    assert mroot.spray_batch is mroot.spray.spray_batch
