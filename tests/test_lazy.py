"""Lazy package re-exports: a name's module loads on first read, and
every name a ``repro`` package exports resolves."""

from __future__ import annotations

import importlib
import sys
import types

import pytest

from repro.lazy import lazy_exports

PACKAGES = (
    "repro",
    "repro.spambayes",
    "repro.storage",
    "repro.serve",
    "repro.corpus",
    "repro.attacks",
    "repro.defenses",
    "repro.analysis",
    "repro.stream",
    "repro.scenarios",
)
"""Every package that declares an ``__all__``."""


@pytest.fixture()
def package(tmp_path, monkeypatch):
    """A throwaway package whose one export lives in an unloaded module."""
    (tmp_path / "lazy_owner_probe.py").write_text("VALUE = object()\nOTHER = 2\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "lazy_owner_probe", raising=False)
    module = types.ModuleType("lazy_package_probe")
    monkeypatch.setitem(sys.modules, "lazy_package_probe", module)
    module.__getattr__, module.__dir__, module.__all__ = lazy_exports(
        "lazy_package_probe", {"lazy_owner_probe": ("VALUE", "OTHER")}
    )
    yield module
    sys.modules.pop("lazy_owner_probe", None)


class TestLazyExports:
    def test_first_read_imports_the_owner(self, package):
        assert "lazy_owner_probe" not in sys.modules
        value = package.VALUE
        assert value is sys.modules["lazy_owner_probe"].VALUE

    def test_value_is_cached_in_the_package(self, package):
        value = package.VALUE
        assert vars(package)["VALUE"] is value

    def test_unknown_name_is_an_attribute_error(self, package):
        with pytest.raises(AttributeError, match="lazy_package_probe.*MISSING"):
            package.MISSING
        assert "lazy_owner_probe" not in sys.modules

    def test_dir_and_all_list_the_exports_without_loading(self, package):
        assert package.__all__ == ["VALUE", "OTHER"]
        assert {"VALUE", "OTHER"} <= set(dir(package))
        assert "lazy_owner_probe" not in sys.modules


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    """A table entry naming something its module no longer defines
    fails only when read; read them all."""
    package = importlib.import_module(name)
    assert len(set(package.__all__)) == len(package.__all__)
    missing = [export for export in package.__all__ if not hasattr(package, export)]
    assert missing == []
    assert set(package.__all__) <= set(dir(package))
