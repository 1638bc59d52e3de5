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


def random_uses(path):
    """Lines where a module reaches numpy's or the standard library's randomness."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(a.name == "random" or a.name.startswith("numpy.random")
                   for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module in ("random", "numpy.random")
                    or (node.module == "numpy" and any(a.name == "random" for a in node.names))):
                yield node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "ndmath.py"],
                         ids=lambda p: p.name)
def test_randomness_goes_through_ndmath_rng(path):
    # seeded runs are reproducible bit for bit only if every draw comes
    # from ndmath.Rng
    lines = list(random_uses(path))
    assert not lines, f"{path.name} uses np.random or random on lines {lines}"


def test_random_use_check_sees_ndmath():
    assert list(random_uses(next(p for p in MODULES if p.name == "ndmath.py")))
