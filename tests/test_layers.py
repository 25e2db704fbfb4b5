"""The public names of the seven layer modules, as a span tracer sees them.

A tracer that times each layer wraps the plain functions in the module's
``__all__`` and nothing else.  A public function that is cached, a
``functools.partial`` or a callable object would run unwrapped, and its
time would count as unattributed.  So every public name is a class, a plain
function or a constant that cannot be called (`STO`, `SWEEP_VARIABLES`).

Every public function also has a use outside the tests: in the package, the
benchmark, the acceptance gate or the README.  A function that only tests
call is surface without a user.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

LAYERS = ("material", "varactor", "resonator", "amplifier", "sweep", "config", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_public_callables_are_classes_or_plain_functions(layer):
    module = importlib.import_module(f"qpamp.{layer}")
    for name in module.__all__:
        value = getattr(module, name)
        if callable(value):
            assert isinstance(value, (type, types.FunctionType)), (layer, name, value)


ROOT = Path(__file__).resolve().parents[1]
# Where a public function may be used: the package itself, the benchmark, the
# acceptance gate.  Other tests do not count: they pin behaviour, not need.
USERS = [
    *sorted((ROOT / "src" / "qpamp").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _loaded_names(path: Path) -> set:
    """Names a Python file reads, bare (``charge(...)``) or as attributes (``sweep.bias_sweep``).

    A ``def``, an ``__all__`` string and an ``import`` read no name, so a
    function's own definition and its re-exports do not count as uses.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("layer", LAYERS)
def test_public_functions_have_a_use_outside_the_tests(layer):
    module = importlib.import_module(f"qpamp.{layer}")
    used = set().union(*map(_loaded_names, USERS))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [
        name
        for name in module.__all__
        if isinstance(getattr(module, name), types.FunctionType)
        and name not in used
        and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == [], f"qpamp.{layer} exports functions only tests use: {unused}"


def test_package_reexports_each_layer_once():
    import qpamp

    expected = ["__version__", "ConfigurationError", "NumericalError", "ThresholdError", "load_config"]
    for layer in ("material", "varactor", "resonator", "amplifier", "sweep"):
        expected += importlib.import_module(f"qpamp.{layer}").__all__
    assert len(set(qpamp.__all__)) == len(qpamp.__all__)
    assert qpamp.__all__ == expected
    namespace = {}
    exec("from qpamp import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(expected)
