"""Exception types shared across the toolkit.

The command-line layer maps errors onto exit codes by phase: a ``ValueError``
(`ConfigurationError` included) while the configuration resolves exits with 2;
after that, a `NumericalError` (non-convergence, a flat working-point objective,
a pump at or past the oscillation threshold) or any ``ValueError`` exits with 3.
"""

import math


class ConfigurationError(ValueError):
    """A configuration file, override, or parameter set is invalid."""


def _require_finite(kind: str, record, positive=(), non_negative=()) -> None:
    """Refuse a field in ``positive`` outside (0, inf), or in ``non_negative`` outside [0, inf).

    The message quotes the field, so that the config layer can restate it under its key.
    """
    for name in positive:
        if not 0.0 < getattr(record, name) < math.inf:
            raise ConfigurationError(f"{kind} {name!r} must be finite and positive")
    for name in non_negative:
        if not 0.0 <= getattr(record, name) < math.inf:
            raise ConfigurationError(f"{kind} {name!r} must be finite and non-negative")


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
