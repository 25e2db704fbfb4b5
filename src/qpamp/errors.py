"""Exception types shared across the toolkit.

The command-line layer maps these onto process exit codes: configuration
problems exit with 2, numerical failures (non-convergence, a flat
working-point objective, driving an amplifier at or past its oscillation
threshold) exit with 3.
"""


class ConfigurationError(ValueError):
    """A configuration file, override, or parameter set is invalid."""


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
