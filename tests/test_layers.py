"""The public names of the seven layer modules, as a span tracer sees them.

A tracer that times each layer wraps the plain functions in the module's
``__all__`` and nothing else.  A public function that is cached, a
``functools.partial`` or a callable object would run unwrapped, and its
time would count as unattributed.  So every public name is a class, a plain
function or a constant that cannot be called (`STO`, `SWEEP_VARIABLES`).
"""

import importlib
import types

import pytest

LAYERS = ("material", "varactor", "resonator", "amplifier", "sweep", "config", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_public_callables_are_classes_or_plain_functions(layer):
    module = importlib.import_module(f"qpamp.{layer}")
    for name in module.__all__:
        value = getattr(module, name)
        if callable(value):
            assert isinstance(value, (type, types.FunctionType)), (layer, name, value)
