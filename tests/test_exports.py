"""Every name a module lists in `__all__` exists: a function deleted while
still listed for export fails here instead of at a user's import."""

import importlib
import pkgutil

import pytest

import embedtrack

MODULES = ["embedtrack"] + [
    f"embedtrack.{info.name}"
    for info in pkgutil.iter_modules(embedtrack.__path__)
    if info.name != "__main__"  # runs the CLI when imported
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if getattr(module, attr, None) is None]
    assert missing == []
