"""Exception types, rule helpers and the validated-record base shared across the toolkit.

The command-line layer maps errors onto exit codes by phase: a ``ValueError``
(`ConfigurationError` included) while the configuration resolves exits with 2;
after that, a `NumericalError` (non-convergence, a flat working-point objective,
a pump at or past the oscillation threshold) or any ``ValueError`` exits with 3.
"""

import math


class ConfigurationError(ValueError):
    """A configuration file, override, or parameter set is invalid."""


def _require_finite(kind: str, record, positive=(), non_negative=(), finite=()) -> None:
    """Refuse a field in ``positive`` outside (0, inf), in ``non_negative`` outside [0, inf),
    or in ``finite`` outside (-inf, inf).

    The message quotes the field, so that the config layer can restate it under its key.
    """
    for name in positive:
        if not 0.0 < getattr(record, name) < math.inf:
            raise ConfigurationError(f"{kind} {name!r} must be finite and positive")
    for name in non_negative:
        if not 0.0 <= getattr(record, name) < math.inf:
            raise ConfigurationError(f"{kind} {name!r} must be finite and non-negative")
    for name in finite:
        if not math.isfinite(getattr(record, name)):
            raise ConfigurationError(f"{kind} {name!r} must be finite")


class _Record:
    """Base of the validated input records: frozen, and built only through their rules.

    A subclass declares its fields as annotations, with defaults as class values, and
    its rules in ``_check``.  Once per subclass an ``__init__`` is generated that sets
    each field and then runs ``_check``.  NamedTuple's ``_fields``, ``_field_defaults``,
    ``_asdict`` and ``_replace`` are provided; ``_replace`` builds through ``__init__``,
    so the rules run again.  Records compare, hash and print by their fields.  They keep
    instance attributes because the chain reads them in its inner loops, and a
    NamedTuple field read takes about twice as long (20 ns against 9 ns by timeit).
    """

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_defaults = defaults = {n: cls.__dict__[n] for n in fields if n in cls.__dict__}
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in fields)
        body = "".join(f"    _set(self, {n!r}, {n})\n" for n in fields)
        namespace = {"_set": object.__setattr__, "_defaults": defaults}
        exec(f"def __init__(self, {params}):\n{body}    self._check()\n", namespace)
        cls.__init__ = namespace["__init__"]

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(self._asdict().values()) == tuple(other._asdict().values())

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({shown})"


def _one_of(words, got: str) -> str:
    """The rule that ``got`` is one of ``words``, as the library and the config layer word it."""
    return f"must be one of {', '.join(words)}, got {got!r}"


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or found nothing to optimise."""


class ThresholdError(NumericalError):
    """The pump drive is at or beyond the parametric-oscillation threshold.

    Carries the pump ratio |xi| / (kappa/2) so callers can report how far
    past threshold the requested operating point is.
    """

    def __init__(self, pump_ratio: float):
        self.pump_ratio = pump_ratio
        super().__init__(
            f"pump at or beyond oscillation threshold: |xi|/(kappa/2) = {pump_ratio:.6g} >= 1"
        )
