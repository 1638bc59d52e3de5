import ast
import importlib.util
import sys
from pathlib import Path

import pytest

# numpy is the one runtime dependency pyproject.toml declares
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "comet"}
# found without importing comet, so a missing package fails one test, not collection
MODULES = sorted(Path(importlib.util.find_spec("comet").origin).parent.glob("*.py"))


def imported_packages(path):
    """Top-level package of every absolute import in a module, nested ones too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "model", "scoring", "train"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_comet(path):
    outside = sorted(set(imported_packages(path)) - ALLOWED)
    assert not outside, f"{path.name} imports {', '.join(outside)}"
