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
modules raise or return a non-finite result, never an all-finite one.  A finite
record whose powers leave the float range makes the functions on the commands'
paths return non-finite values or raise a qpamp error, never a bare
``OverflowError`` or ``ZeroDivisionError``.

The seven validated input records refuse a field that breaks their rules
however they are built, refuse assignment, and print, compare and hash by
their fields as the frozen dataclasses they replaced did.
"""

import ast
import cmath
import importlib
import inspect
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

from qpamp import (
    KTO,
    STO,
    CircuitParams,
    ConfigurationError,
    DriveSpec,
    GridSpec,
    NumericalError,
    RateBudget,
    SweepSpec,
    VaractorDesign,
)

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
    elif hasattr(value, "_fields"):  # a record that is not a tuple
        for name in value._fields:
            yield from _numbers(getattr(value, name))
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

    materials = st.sampled_from([STO, KTO, STO._replace(inhomogeneity=0.0)])
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


# Record fields drawn at extreme finite values, each with the record it sets.
EXTREME_FIELDS = {
    "inhomogeneity": "material",
    "renorm_field": "material",
    "curie_temp": "material",
    "eps00_rel": "material",
    "thickness": "design",
    "plate_area": "design",
    "inductance": "circuit",
}


def test_an_extreme_finite_record_raises_no_bare_arithmetic_error():
    # The charge path (`charge`, `energy`, `voltage_from_charge`) is out of scope: no command
    # runs it, and its math.asinh / math.sinh and float powers still raise on such records.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from qpamp import (
        capacitance,
        capacitance_derivatives,
        dielectric_response,
        kerr_strength,
        mode,
        operating_point,
        permittivity,
        permittivity_derivatives,
        rate_budget,
        reflection,
        three_wave_strength,
    )

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        st.dictionaries(
            st.sampled_from(sorted(EXTREME_FIELDS)),
            st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent),
            min_size=1,
            max_size=3,
        ),
        st.floats(-0.25, 0.25),
        st.floats(0.0, 0.99),
        st.floats(-4.0, 4.0),
    )
    def check(values, v0, ratio, offset):
        fields = {"material": {}, "design": {}, "circuit": {}}
        for name, value in values.items():
            fields[EXTREME_FIELDS[name]][name] = value
        try:  # a record that its rules refuse (eta <= 0, say) is not drawn
            material = STO._replace(**fields["material"])
            design = VaractorDesign(16e-12, 200e-9, material)._replace(**fields["design"])
            circuit = CircuitParams(0.5e-9)._replace(**fields["circuit"])
        except ConfigurationError:
            return
        drive = DriveSpec(1e-3)
        field = design.bias_field(v0)
        calls = [
            lambda: permittivity(field, material),
            lambda: permittivity_derivatives(field, material),
            lambda: dielectric_response(field, material),
            lambda: capacitance(v0, design),
            lambda: capacitance_derivatives(v0, design),
            lambda: three_wave_strength(v0, drive, design, circuit),
            lambda: kerr_strength(v0, design, circuit),
            lambda: mode(v0, design, circuit),
            lambda: operating_point(v0, drive, design, circuit),
        ]
        for call in calls:
            try:
                call()
            except (ConfigurationError, NumericalError):
                pass
        try:  # RateBudget refuses a non-finite or zero rate
            rates = rate_budget(v0, design, circuit)
        except ConfigurationError:
            return
        try:
            reflection(rates.omega0 + offset * rates.kappa, ratio * rates.kappa / 2.0, rates)
        except NumericalError:
            pass

    check()


_STO_REPR = (
    "MaterialParams(eps00_rel=2080.0, curie_temp=42.0, debye_temp=175.0, renorm_field=1930000.0, "
    "inhomogeneity=0.018, a1=0.000245, a2=0.00245, a3=None, defect_density=0.0, temperature=0.01)"
)
# Name -> (record, its fields, its repr, a field, a value that field's rules refuse, the refusal).
# The reprs are those of the frozen dataclasses the records were, and their hash was that
# of the tuple of fields.
VALIDATED_INPUTS = {
    "STO": (
        STO, (2080.0, 42.0, 175.0, 1.93e6, 0.018, 2.45e-4, 2.45e-3, None, 0.0, 0.01), _STO_REPR,
        "a1", -1.0, "material parameter 'a1' must be finite and non-negative",
    ),
    "KTO": (
        KTO,
        (1390.0, 32.5, 170.0, 1.56e6, 0.020, 2.06e-4, 4.0e-4, None, 0.0, 0.01),
        "MaterialParams(eps00_rel=1390.0, curie_temp=32.5, debye_temp=170.0, "
        "renorm_field=1560000.0, inhomogeneity=0.02, a1=0.000206, a2=0.0004, a3=None, "
        "defect_density=0.0, temperature=0.01)",
        "temperature", 20.0, "low-temperature model requires 'temperature' < 'debye_temp' / 10",
    ),
    "VaractorDesign": (
        VaractorDesign(16e-12, 200e-9, STO),
        (16e-12, 200e-9, STO, 1.0),
        f"VaractorDesign(plate_area=1.6e-11, thickness=2e-07, material={_STO_REPR}, v_max=1.0)",
        "plate_area", 0.0, "varactor parameter 'plate_area' must be finite and positive",
    ),
    "CircuitParams": (
        CircuitParams(0.5e-9), (0.5e-9, 100.0), "CircuitParams(inductance=5e-10, q_ext=100.0)",
        "inductance", -1.0, "circuit parameter 'inductance' must be finite and positive",
    ),
    "DriveSpec": (
        DriveSpec(1e-3), (1e-3, 0.0), "DriveSpec(v_ac=0.001, theta=0.0)",
        "theta", math.nan, "drive parameter 'theta' must be finite",
    ),
    "RateBudget": (
        RateBudget(6e10, 2e7, 1e8),
        (6e10, 2e7, 1e8),
        "RateBudget(omega0=60000000000.0, kappa_int=20000000.0, kappa_ext=100000000.0)",
        "kappa_int", -1.0, "rate 'kappa_int' must be finite and non-negative",
    ),
    "GridSpec": (
        GridSpec(), (801, 4.0), "GridSpec(count=801, half_span_kappa=4.0)",
        "count", 4, "grid 'count' must be odd and at least 3",
    ),
    "SweepSpec": (
        SweepSpec("bias_voltage", 0.0, 0.25, 11),
        ("bias_voltage", 0.0, 0.25, 11, "linear"),
        "SweepSpec(variable='bias_voltage', start=0.0, stop=0.25, count=11, spacing='linear')",
        "count", 0, "sweep 'count' must be >= 1",
    ),
}


@pytest.mark.parametrize("case", VALIDATED_INPUTS.values(), ids=VALIDATED_INPUTS)
def test_a_validated_input_keeps_its_rules_and_its_identity(case):
    record, values, shown, name, bad, refusal = case
    cls = type(record)
    assert cls(*values) == record == cls(**dict(zip(cls._fields, values)))
    assert record != values and record._asdict() == dict(zip(cls._fields, values))
    assert repr(record) == shown and hash(record) == hash(values)
    broken = tuple(bad if field == name else value for field, value in zip(cls._fields, values))
    for build in (
        lambda: cls(*broken),
        lambda: cls(**dict(zip(cls._fields, broken))),
        lambda: record._replace(**{name: bad}),
    ):
        with pytest.raises(ConfigurationError) as refused:
            build()
        assert str(refused.value) == refusal
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, bad)
    assert getattr(record, name) == values[cls._fields.index(name)]
