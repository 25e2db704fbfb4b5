"""Reflection gain of the degenerate parametric amplifier.

The pumped resonator is probed in reflection through a single external port,
with the pump at exactly twice the mode frequency, ``omega_p = 2 omega0``.
With total linewidth ``kappa = kappa_int + kappa_ext`` and signal offset
``dw = omega - omega0``, the reflection coefficient below threshold is

    R(omega) = [kappa_ext * kappa / 2 + i kappa_ext dw]
               / [(kappa/2 + i dw)**2 - |xi|**2]  -  1.

``|R| > 1`` is parametric gain; the pole at ``|xi| = kappa/2`` is the
oscillation threshold and is reported as an error rather than an infinity.
|R| is even in dw, so the 3-dB width is twice one half-power offset, the root
of a quadratic in dw**2.

The linewidths come from the working-point record, `resonator.ModeCoefficients`:
internal loss from the film's loss tangent, external coupling from q_ext.

`reflection` is plain arithmetic: a float omega gives a complex, an array an array.
Only `profile_from_rates` imports numpy; it samples the curve with numpy's warnings
off, so overflow and 0/0 give inf and NaN samples.

`compression_estimate` turns the Kerr-limited photon budget ``N = kappa /
k_eff`` into a circulating-power scale, reported in two common conventions
(ordinary frequencies f * (kappa/2pi), and angular frequencies omega *
kappa) since both appear in the literature and they differ by ~16 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigurationError, ThresholdError, _require_finite
from .resonator import _UNDRIVEN, CircuitParams, DriveSpec, hbar, operating_point
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

_TWO_PI = 2.0 * math.pi  # rad/s per Hz; `sweep` and `cli` divide by it for display units


@dataclass(frozen=True)
class RateBudget:
    """Linewidth budget of the amplifier mode at one working point.

    The pump sits at exactly twice the mode frequency, ``omega_p = 2 omega0``.
    """

    omega0: float
    kappa_int: float
    kappa_ext: float

    def __post_init__(self):
        _require_finite("rate", self, ("omega0", "kappa_ext"), ("kappa_int",))

    @property
    def kappa(self) -> float:
        return self.kappa_int + self.kappa_ext

    @property
    def omega_p(self) -> float:
        return 2.0 * self.omega0

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
        if not isinstance(self.count, int) or self.count < 3 or self.count % 2 == 0:
            raise ConfigurationError("grid 'count' must be odd and at least 3")
        _require_finite("grid", self, ("half_span_kappa",))


@dataclass(frozen=True)
class GainProfile:
    """Sampled reflection curve plus its headline numbers.

    ``gain_db`` is ``20 log10|reflection|`` per sample.  ``bandwidth`` is the
    full width [rad/s] between the half-power points around the peak, NaN
    when the profile has no 3-dB points inside the sampled span (flat or
    notch-like curves).
    """

    frequencies: np.ndarray
    reflection: np.ndarray
    gain_db: np.ndarray
    peak_gain_db: float
    bandwidth: float
    pump_ratio: float


@dataclass(frozen=True)
class CompressionEstimate:
    """Kerr-limited photon number and the corresponding circulating power."""

    n_photons: float
    p_dbm_ordinary: float
    p_dbm_angular: float


def _rates(point) -> RateBudget:
    """The rate budget of a working-point record, a `resonator.ModeCoefficients`."""
    return RateBudget(point.omega0, point.kappa_int, point.kappa_ext)


def rate_budget(v0: float, design: VaractorDesign, circuit: CircuitParams) -> RateBudget:
    """Internal/external rates of the varactor resonator at bias v0, pumped at 2 omega0."""
    return _rates(operating_point(v0, _UNDRIVEN, design, circuit))


def _above_threshold(xi_mag, half_kappa):
    return xi_mag * xi_mag >= half_kappa**2


def reflection(omega, xi_mag: float, rates: RateBudget):
    """Complex reflection coefficient R(omega) below threshold.

    ``omega`` [rad/s]: a float gives a complex, a numpy array an array.
    """
    if not xi_mag >= 0.0:
        raise ValueError("xi_mag must be non-negative")
    half_kappa = rates.kappa / 2.0
    if _above_threshold(xi_mag, half_kappa):
        raise ThresholdError(xi_mag / half_kappa)
    dw = omega - rates.omega0
    numerator = rates.kappa_ext * half_kappa + 1j * rates.kappa_ext * dw
    denominator = (half_kappa + 1j * dw) ** 2 - xi_mag * xi_mag
    return numerator / denominator - 1.0


def _half_power_offset(rates: RateBudget, xi_mag: float, half: float) -> float:
    """The offset u = dw/kappa > 0 where |R|**2 first falls to ``half``.

    In units of kappa, R = (N - D)/D with D = (b - u**2) + i u and
    N - D = (a + u**2) + i c u, so |N - D|**2 - half |D|**2 = 0 is the
    quadratic A w**2 + B w + C = 0 in w = u**2.  The caller has checked that
    the curve peaks at the centre (so C > 0) and falls below ``half`` inside
    the span: B < 0 then, and the first crossing is the smaller positive
    root, C/q with q = (sqrt(B**2 - 4AC) - B)/2, which cancels nothing and
    holds for a peak of exactly 3 dB (A = 0) too.
    """
    k = rates.kappa
    x, ke = xi_mag / k, rates.kappa_ext / k
    b = 0.25 - x * x
    a = ke / 2.0 - b
    c = ke - 1.0
    A = 1.0 - half
    B = 2.0 * a + c * c - half * (1.0 - 2.0 * b)
    C = a * a - half * b * b
    q = 0.5 * (math.sqrt(B * B - 4.0 * A * C) - B)
    return math.sqrt(C / q)


def profile_from_rates(rates: RateBudget, xi_mag: float, grid: GridSpec = GridSpec()) -> GainProfile:
    """Sample the reflection curve around omega0 for a given pump strength."""
    import numpy as np

    span = grid.half_span_kappa * rates.kappa
    with np.errstate(all="ignore"):
        frequencies = rates.omega0 + np.linspace(-span, span, grid.count)
        refl = reflection(frequencies, xi_mag, rates)
        magnitude = np.abs(refl)
        gain_db = 20.0 * np.log10(magnitude)
        power = magnitude**2
        i_peak = int(np.argmax(power))
        peak_power = float(power[i_peak])
        peak_gain_db = float(10.0 * np.log10(peak_power))

    bandwidth = math.nan
    # A 3-dB width is only meaningful for a curve that peaks at the pumped
    # center and falls below half power inside the span on both sides; the
    # curve is even in dw, so the width is twice one half-power offset.
    if i_peak == grid.count // 2:
        half = peak_power / 2.0
        if power[0] < half and power[-1] < half:
            offset = _half_power_offset(rates, xi_mag, half)
            bandwidth = 2.0 * rates.kappa * offset

    return GainProfile(
        frequencies=frequencies,
        reflection=refl,
        gain_db=gain_db,
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
    return profile_from_rates(_rates(point), abs(point.xi), grid)


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
        If the photon budget, or ``k_eff`` without one, is not positive, or ``k_eff`` is not finite.
    """
    if not k_eff > 0.0 and n_photons is None:
        raise ValueError("k_eff must be positive to set a Kerr-limited photon budget")
    n = rates.kappa / k_eff if n_photons is None else n_photons
    if not n > 0.0:
        raise ValueError("photon budget must be positive")
    if not math.isfinite(k_eff):  # reached with a chosen budget only
        raise ValueError("k_eff must be finite")
    p_ordinary = n * hbar * (rates.omega0 / _TWO_PI) * (rates.kappa / _TWO_PI)
    p_angular = n * hbar * rates.omega0 * rates.kappa
    return CompressionEstimate(
        n_photons=n,
        p_dbm_ordinary=10.0 * math.log10(p_ordinary / 1e-3),
        p_dbm_angular=10.0 * math.log10(p_angular / 1e-3),
    )
