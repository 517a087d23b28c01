"""Each module lists its public names in __all__, the package's only API
list: every listed name must resolve."""

import importlib

import pytest

MODULES = ["expr", "frame", "connection", "killing", "report"]


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(f"srkilling.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
