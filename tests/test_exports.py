"""Every name a module lists in `__all__` exists: a function deleted while
still listed for export fails here instead of at a user's import. And every
name a submodule exports is used by the program, so that the library
carries no function only tests call."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import embedtrack

ROOT = Path(__file__).resolve().parents[1]

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


def _names_read(paths):
    """Names and attributes loaded anywhere in the Python files `paths`."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _names_traced(path):
    """String constants and imported names in the benchmark's tracer, which
    wraps and calls library functions by name."""
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    return named


def test_every_exported_name_is_used():
    package = ROOT / "src" / "embedtrack"
    program = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    used = _names_read(program + sorted((ROOT / "scripts").glob("*.py")))
    used |= _names_traced(ROOT / "perfbench" / "tracing.py")
    unused = [
        f"{name}.{attr}"
        for name in MODULES
        if name != "embedtrack"
        for attr in importlib.import_module(name).__all__
        if attr not in used
    ]
    assert unused == []
