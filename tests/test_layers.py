"""The public names of the seven layer modules, as a span tracer sees them.

A tracer that times each layer wraps the plain functions in the module's
``__all__`` and nothing else.  A public function that is cached, a
``functools.partial`` or a callable object would run unwrapped, and its
time would count as unattributed.  So every public name is a class, a plain
function or a constant that cannot be called (`STO`, `SWEEP_VARIABLES`).

Every public function also has a use outside the tests: in the package, the
benchmark, the acceptance gate or the README.  A function that only tests
call is surface without a user.

A NaN or infinite float argument makes a public function of the five chain
modules raise or return a non-finite result, never an all-finite one.
"""

import ast
import cmath
import dataclasses
import importlib
import inspect
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

from qpamp import NumericalError

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



CHAIN = LAYERS[:5]


def _float_slots(parameter: inspect.Parameter) -> tuple:
    """Where a parameter takes a float: None for the value itself, or the indices of a pair.

    An unannotated parameter of the chain takes a float or an array of them.
    """
    annotation = parameter.annotation
    if annotation is inspect.Parameter.empty or annotation in ("float", "float | None"):
        return (None,)
    return (0, 1) if annotation == "tuple[float, float]" else ()


def _float_arguments() -> list:
    """(function, parameter, slot) for each float that a public chain function takes."""
    cases = []
    for layer in CHAIN:
        module = importlib.import_module(f"qpamp.{layer}")
        for name in module.__all__:
            function = getattr(module, name)
            if isinstance(function, types.FunctionType):
                for parameter in inspect.signature(function).parameters.values():
                    cases += [(function, parameter.name, s) for s in _float_slots(parameter)]
    return cases


FLOAT_ARGUMENTS = _float_arguments()


def _numbers(value):
    """Every number in a result: scalars, arrays, and the items of tuples and records."""
    if isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, tuple):
        for item in value:
            yield from _numbers(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers(getattr(value, field.name))
    else:
        yield complex(value)


@pytest.mark.parametrize(
    "function, parameter, slot",
    FLOAT_ARGUMENTS,
    ids=[f"{f.__name__}-{p}" + ("" if i is None else f"-{i}") for f, p, i in FLOAT_ARGUMENTS],
)
def test_a_non_finite_float_gives_no_all_finite_answer(function, parameter, slot):
    # The other arguments are drawn valid; NaN, +inf or -inf goes into the one under test.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from qpamp import KTO, STO, CircuitParams, DriveSpec, GridSpec, VaractorDesign, rate_budget

    materials = st.sampled_from([STO, KTO, dataclasses.replace(STO, inhomogeneity=0.0)])
    circuit = CircuitParams(0.5e-9)
    rates = rate_budget(0.01, VaractorDesign(16e-12, 200e-9, STO), circuit)
    valid = {
        "bias_field": st.floats(-5e6, 5e6),
        "params": materials,
        "voltage": st.floats(-0.5, 0.5),
        "q": st.floats(-1e-13, 1e-13),
        "design": materials.map(lambda material: VaractorDesign(16e-12, 200e-9, material)),
        "v0": st.floats(-0.25, 0.25),
        "circuit": st.just(circuit),
        "drive": st.floats(1e-4, 1e-2).map(DriveSpec),
        "omega": st.floats(0.9 * rates.omega0, 1.1 * rates.omega0),
        "xi_mag": st.floats(0.0, 0.49 * rates.kappa),
        "rates": st.just(rates),
        "grid": st.just(GridSpec(11)),
        "k_eff": st.floats(1e-3, 1e3),
        "n_photons": st.none() | st.floats(1.0, 1e12),
        "v_range": st.tuples(st.just(0.0), st.floats(0.01, 0.25)),
    }
    names = inspect.signature(function).parameters

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.fixed_dictionaries({name: valid[name] for name in names}),
    )
    def check(bad, arguments):
        if slot is None:
            arguments[parameter] = bad
        else:
            pair = list(arguments[parameter])
            pair[slot] = bad
            arguments[parameter] = tuple(pair)
        try:
            result = function(**arguments)
        except (ArithmeticError, ValueError, NumericalError):
            return
        assert not all(map(cmath.isfinite, _numbers(result))), (arguments, result)

    check()
