"""The package's layering, declared: the embedtrack modules each module
imports with `from .x import`. A new dependency between modules has to be
added to the table, so that a change which ties two layers together shows
in its diff."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "embedtrack"

# module -> the package modules it imports; "__init__" is `from . import`.
IMPORTS = {
    "__init__": {"association", "calibration", "core", "datasets", "embedding", "evaluation",
                 "training"},
    "__main__": {"cli"},
    "association": {"core", "embedding"},
    "calibration": {"core"},
    "cli": {"__init__", "association", "calibration", "core", "datasets", "embedding",
            "evaluation", "training"},
    "core": set(),
    "datasets": {"core", "embedding", "evaluation"},
    "embedding": {"core"},
    "evaluation": {"core"},
    "training": {"core", "embedding"},
}


def _package_imports(path):
    """The package modules that one source file imports, at any depth."""
    return {
        node.module or "__init__"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_every_module_imports_what_the_table_declares():
    found = {path.stem: _package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found == IMPORTS
