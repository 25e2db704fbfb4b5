"""Design toolkit for quantum-paraelectric varactors and parametric amplifiers.

The chain goes: dielectric model (`material`) -> biased parallel-plate
varactor (`varactor`) -> quantised LC mode and parametric couplings
(`resonator`) -> reflection gain and power handling (`amplifier`), with
`sweep` providing tables/optimisation over bias, field and geometry and
`cli` exposing the whole chain as a command-line tool.
"""

from ._version import __version__
from .config import load_config
from .amplifier import (
    CompressionEstimate,
    GainProfile,
    GridSpec,
    RateBudget,
    compression_estimate,
    gain_profile,
    profile_from_rates,
    rate_budget,
    reflection,
)
from .errors import ConfigurationError, NumericalError, ThresholdError
from .material import (
    KTO,
    STO,
    DielectricResponse,
    MaterialParams,
    builtin_material,
    dielectric_response,
    eta,
    normalized_bias,
    permittivity,
    permittivity_derivatives,
)
from .resonator import (
    CircuitParams,
    DriveSpec,
    ModeCoefficients,
    kerr_strength,
    mode,
    operating_point,
    three_wave_strength,
)
from .sweep import (
    SWEEP_VARIABLES,
    Optimum,
    SweepResult,
    SweepSpec,
    bias_sweep,
    default_workers,
    dielectric_sweep,
    geometry_sweep,
    maximize_3wm,
)
from .varactor import (
    ChargePoint,
    VaractorDesign,
    capacitance,
    capacitance_derivatives,
    charge,
    energy,
    energy_and_derivatives,
    voltage_from_charge,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "NumericalError",
    "ThresholdError",
    "load_config",
    "MaterialParams",
    "DielectricResponse",
    "STO",
    "KTO",
    "builtin_material",
    "eta",
    "normalized_bias",
    "permittivity",
    "permittivity_derivatives",
    "dielectric_response",
    "VaractorDesign",
    "ChargePoint",
    "capacitance",
    "capacitance_derivatives",
    "charge",
    "voltage_from_charge",
    "energy",
    "energy_and_derivatives",
    "CircuitParams",
    "DriveSpec",
    "ModeCoefficients",
    "mode",
    "three_wave_strength",
    "kerr_strength",
    "operating_point",
    "RateBudget",
    "GridSpec",
    "GainProfile",
    "CompressionEstimate",
    "rate_budget",
    "reflection",
    "profile_from_rates",
    "gain_profile",
    "compression_estimate",
    "SWEEP_VARIABLES",
    "SweepSpec",
    "SweepResult",
    "Optimum",
    "default_workers",
    "bias_sweep",
    "dielectric_sweep",
    "geometry_sweep",
    "maximize_3wm",
]
