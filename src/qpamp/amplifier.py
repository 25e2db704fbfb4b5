"""Reflection gain of the degenerate parametric amplifier.

The pumped resonator is probed in reflection through a single external port.
With total linewidth ``kappa = kappa_int + kappa_ext``, pump detuning
``delta0 = omega0 - omega_p / 2`` and signal offset ``dw = omega - omega_p/2``,
the reflection coefficient below threshold is

    R(omega) = [kappa_ext * kappa / 2 + i kappa_ext (delta0 + dw)]
               / [delta0**2 + (kappa/2 + i dw)**2 - |xi|**2]  -  1.

``|R| > 1`` is parametric gain; the pole at ``|xi|**2 = delta0**2 +
(kappa/2)**2`` is the oscillation threshold and is reported as an error
rather than an infinity.

The linewidths come from the working-point record, `resonator.ModeCoefficients`:
internal loss from the film's loss tangent, external coupling from q_ext.

`compression_estimate` turns the Kerr-limited photon budget ``N = kappa /
k_eff`` into a circulating-power scale, reported in two common conventions
(ordinary frequencies f * (kappa/2pi), and angular frequencies omega *
kappa) since both appear in the literature and they differ by ~16 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import ConfigurationError, ThresholdError
from .resonator import CircuitParams, DriveSpec, hbar, operating_point
from .varactor import VaractorDesign

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RateBudget",
    "GridSpec",
    "GainProfile",
    "CompressionEstimate",
    "rate_budget",
    "reflection",
    "profile_from_rates",
    "gain_profile",
    "compression_estimate",
]


@dataclass(frozen=True)
class RateBudget:
    """Linewidth budget of the amplifier mode at one working point.

    ``delta`` is the half-pump detuning omega0 - omega_p/2 (zero for the
    standard degenerate operating point, where the pump sits at exactly
    twice the mode frequency).
    """

    omega0: float
    kappa_int: float
    kappa_ext: float
    delta: float = 0.0

    def __post_init__(self):
        for name in ("omega0", "kappa_ext"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"rate {name!r} must be finite and positive")
        if not 0.0 <= self.kappa_int < math.inf:
            raise ConfigurationError("rate 'kappa_int' must be finite and non-negative")
        if not math.isfinite(self.delta):
            raise ConfigurationError("rate 'delta' must be finite")

    @property
    def kappa(self) -> float:
        return self.kappa_int + self.kappa_ext

    @property
    def omega_p(self) -> float:
        return 2.0 * (self.omega0 - self.delta)

    @property
    def q_int(self) -> float:
        return self.omega0 / self.kappa_int if self.kappa_int > 0.0 else math.inf

    @property
    def q_ext(self) -> float:
        return self.omega0 / self.kappa_ext


@dataclass(frozen=True)
class GridSpec:
    """Frequency grid for gain profiles: points spanning +- half_span_kappa * kappa."""

    count: int = 801
    half_span_kappa: float = 4.0

    def __post_init__(self):
        # An odd count puts a sample on the pumped center, where the 3-dB width is measured.
        if self.count < 3 or self.count % 2 == 0:
            raise ConfigurationError("grid 'count' must be odd and at least 3")
        if not 0.0 < self.half_span_kappa < math.inf:
            raise ConfigurationError("grid 'half_span_kappa' must be finite and positive")


@dataclass(frozen=True)
class GainProfile:
    """Sampled reflection curve plus its headline numbers.

    ``bandwidth`` is the full width [rad/s] between the half-power points
    around the peak, NaN when the profile has no 3-dB points inside the
    sampled span (flat or notch-like curves).
    """

    frequencies: np.ndarray
    reflection: np.ndarray
    peak_gain_db: float
    bandwidth: float
    pump_ratio: float

    @property
    def gain_db(self) -> np.ndarray:
        import numpy as np

        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.reflection))


@dataclass(frozen=True)
class CompressionEstimate:
    """Kerr-limited photon number and the corresponding circulating power."""

    n_photons: float
    p_dbm_ordinary: float
    p_dbm_angular: float


def rate_budget(v0: float, design: VaractorDesign, circuit: CircuitParams) -> RateBudget:
    """Internal/external rates of the varactor resonator at bias v0, pumped at 2 omega0."""
    point = operating_point(v0, DriveSpec(v_ac=0.0), design, circuit)
    return RateBudget(point.omega0, point.kappa_int, point.kappa_ext)


def _above_threshold(xi_mag, half_kappa, delta=0.0):
    return xi_mag * xi_mag >= delta**2 + half_kappa**2


def _check_threshold(xi_mag: float, rates: RateBudget) -> None:
    half_kappa = rates.kappa / 2.0
    if _above_threshold(xi_mag, half_kappa, rates.delta):
        raise ThresholdError(xi_mag / half_kappa)


def reflection(omega, xi_mag: float, rates: RateBudget):
    """Complex reflection coefficient R(omega) below threshold.

    ``omega`` may be a scalar or an array [rad/s]; the return matches.
    """
    import numpy as np

    if not xi_mag >= 0.0:
        raise ValueError("xi_mag must be non-negative")
    _check_threshold(xi_mag, rates)
    dw = np.asarray(omega) - rates.omega_p / 2.0
    half_kappa = rates.kappa / 2.0
    numerator = rates.kappa_ext * half_kappa + 1j * rates.kappa_ext * (rates.delta + dw)
    denominator = rates.delta**2 + (half_kappa + 1j * dw) ** 2 - xi_mag * xi_mag
    result = numerator / denominator - 1.0
    return complex(result) if np.isscalar(omega) else result


def _half_power_offset(rates: RateBudget, xi_mag: float, half: float, max_offset: float) -> float:
    """Smallest u = dw/kappa in (0, max_offset] with |R|**2 = half, or NaN.

    In units of kappa, R = (N - D)/D with D = (b - u**2) + i u and
    N - D = (a + u**2) + i (c0 + c1 u), so |N - D|**2 - half |D|**2 is a
    quartic in u without a cubic term (and even in u when delta = 0).
    """
    import numpy as np

    k = rates.kappa
    x, d, ke = xi_mag / k, rates.delta / k, rates.kappa_ext / k
    b = d * d + 0.25 - x * x
    a = ke / 2.0 - b
    c0, c1 = ke * d, ke - 1.0
    roots = np.roots(
        (
            1.0 - half,
            0.0,
            2.0 * a + c1 * c1 - half * (1.0 - 2.0 * b),
            2.0 * c0 * c1,
            a * a + c0 * c0 - half * b * b,
        )
    )
    real = np.abs(roots.imag) <= 1e-12 * np.abs(roots)
    u = roots.real[real & (roots.real > 0.0) & (roots.real <= max_offset)]
    return float(u.min()) if u.size else math.nan


def profile_from_rates(rates: RateBudget, xi_mag: float, grid: GridSpec = GridSpec()) -> GainProfile:
    """Sample the reflection curve around omega_p/2 for a given pump strength."""
    import numpy as np

    _check_threshold(xi_mag, rates)
    center = rates.omega_p / 2.0
    span = grid.half_span_kappa * rates.kappa
    frequencies = center + np.linspace(-span, span, grid.count)
    refl = reflection(frequencies, xi_mag, rates)
    power = np.abs(refl) ** 2
    i_peak = int(np.argmax(power))
    peak_power = float(power[i_peak])
    with np.errstate(divide="ignore"):
        peak_gain_db = float(10.0 * np.log10(peak_power))

    bandwidth = math.nan
    # A 3-dB width is only meaningful for a curve that peaks at the pumped
    # center and falls below half power inside the span on both sides.
    # Detuning skews the curve, but |R(-u; delta)| = |R(u; -delta)|, so the
    # lower offset is the upper one of the mirrored budget.
    if i_peak == grid.count // 2:
        half = peak_power / 2.0
        if power[0] < half and power[-1] < half:
            mirrored = replace(rates, delta=-rates.delta)
            upper = _half_power_offset(rates, xi_mag, half, grid.half_span_kappa)
            lower = _half_power_offset(mirrored, xi_mag, half, grid.half_span_kappa)
            bandwidth = rates.kappa * (upper + lower)

    return GainProfile(
        frequencies=frequencies,
        reflection=refl,
        peak_gain_db=peak_gain_db,
        bandwidth=bandwidth,
        pump_ratio=xi_mag / (rates.kappa / 2.0),
    )


def gain_profile(
    v0: float,
    drive: DriveSpec,
    design: VaractorDesign,
    circuit: CircuitParams,
    grid: GridSpec = GridSpec(),
) -> GainProfile:
    """Gain profile of the physical design at bias v0, pumped at 2 omega0 by the drive."""
    point = operating_point(v0, drive, design, circuit)
    rates = RateBudget(point.omega0, point.kappa_int, point.kappa_ext)
    return profile_from_rates(rates, abs(point.xi), grid)


def compression_estimate(
    k_eff: float, rates: RateBudget, n_photons: float | None = None
) -> CompressionEstimate:
    """Circulating-power scale where the Kerr shift starts to compress the gain.

    The photon budget defaults to ``N = kappa / k_eff`` (the occupation at
    which the cumulative Kerr detuning is one linewidth); pass ``n_photons``
    to evaluate the power for a chosen budget instead.

    Raises
    ------
    ValueError
        If ``k_eff`` (no Kerr limit to estimate) or the photon budget is not positive.
    """
    if not k_eff > 0.0 and n_photons is None:
        raise ValueError("k_eff must be positive to set a Kerr-limited photon budget")
    n = rates.kappa / k_eff if n_photons is None else n_photons
    if not n > 0.0:
        raise ValueError("photon budget must be positive")
    two_pi = 2.0 * math.pi
    p_ordinary = n * hbar * (rates.omega0 / two_pi) * (rates.kappa / two_pi)
    p_angular = n * hbar * rates.omega0 * rates.kappa
    return CompressionEstimate(
        n_photons=n,
        p_dbm_ordinary=10.0 * math.log10(p_ordinary / 1e-3),
        p_dbm_angular=10.0 * math.log10(p_angular / 1e-3),
    )
