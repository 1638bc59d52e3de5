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


FORWARD_STEPS = {"extract_patches", "encode", "nearest_entries"}


def forward_step_callers(path):
    """(function, callee) of each call to a FORWARD_STEPS function in a module.

    A call counts by name (encode(...)) or through a comet module
    (model.encode(...)); str.encode and other methods do not.
    """
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id in FORWARD_STEPS:
                    yield scope, func.id
                elif (isinstance(func, ast.Attribute) and func.attr in FORWARD_STEPS
                      and isinstance(func.value, ast.Name)
                      and func.value.id in ("model", "patching", "vq")):
                    yield scope, func.attr
            yield from visit(child, scope)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), None)


def test_only_forward_patches_encodes_and_searches():
    # one forward path per scale: training, validation, activation
    # collection, scoring and adaptation all reach these steps through it
    calls = {(path.name, scope, callee) for path in MODULES
             for scope, callee in forward_step_callers(path)}
    assert calls == {("model.py", "forward", name) for name in FORWARD_STEPS}


def group_bytes_bindings(source: str, defines: bool = False):
    """Lines where module source binds ndmath's GROUP_BYTES under a name of its own.

    An import of the name (aliased or by *) or, unless the module defines the
    budget, any assignment to a variable called GROUP_BYTES.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(a.name in ("GROUP_BYTES", "*") for a in node.names):
                yield node.lineno
        elif (isinstance(node, ast.Name) and node.id == "GROUP_BYTES"
              and isinstance(node.ctx, ast.Store) and not defines):
            yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_group_bytes_read_at_call_time(path):
    # tests set the budget with monkeypatch.setattr(ndmath, "GROUP_BYTES", ...);
    # a module holding its own binding would keep the default and make every
    # such test score, train or measure distances at the default alone
    source = path.read_text(encoding="utf-8")
    lines = list(group_bytes_bindings(source, defines=path.name == "ndmath.py"))
    assert not lines, f"{path.name} binds GROUP_BYTES on lines {lines}"


@pytest.mark.parametrize("source", [
    "from .ndmath import GROUP_BYTES\n", "from .ndmath import GROUP_BYTES as budget\n",
    "from .ndmath import *\n", "GROUP_BYTES = 1 << 20\n",
])
def test_group_bytes_check_sees_bindings(source):
    assert list(group_bytes_bindings(source))
