"""Design toolkit for quantum-paraelectric varactors and parametric amplifiers.

The chain goes: dielectric model (`material`) -> biased parallel-plate
varactor (`varactor`) -> quantised LC mode and parametric couplings
(`resonator`) -> reflection gain and power handling (`amplifier`), with
`sweep` providing tables/optimisation over bias, field and geometry and
`cli` exposing the whole chain as a command-line tool.

The package re-exports each layer's ``__all__``, in chain order, after the
version, the error classes and `load_config`.
"""

from . import amplifier, material, resonator, sweep, varactor
from ._version import __version__
from .amplifier import *  # noqa: F403
from .config import load_config
from .errors import ConfigurationError, NumericalError, ThresholdError
from .material import *  # noqa: F403
from .resonator import *  # noqa: F403
from .sweep import *  # noqa: F403
from .varactor import *  # noqa: F403

__all__ = [
    "__version__",
    "ConfigurationError",
    "NumericalError",
    "ThresholdError",
    "load_config",
    *material.__all__,
    *varactor.__all__,
    *resonator.__all__,
    *amplifier.__all__,
    *sweep.__all__,
]
