"""Quantised LC mode of a varactor resonator and its parametric couplings.

Shunting the varactor with a fixed inductor L makes an LC mode whose
frequency tunes with the DC working point:

    omega0 = 1 / sqrt(L C(v0)),   z0 = sqrt(L / C(v0))

with zero-point charge and flux fluctuations

    q_zpf   = sqrt(hbar / (2 z0)),   phi_zpf = sqrt(hbar z0 / 2)

(so ``q_zpf * phi_zpf = hbar / 2``).  A small pump tone ``v_ac`` applied at
twice the mode frequency modulates the capacitance and produces a degenerate
three-wave interaction of strength

    xi = C'(v0) * v_ac * v_zpf**2 * exp(-i theta) / (2 hbar)

while the residual quartic curvature of the capacitive energy gives an
effective Kerr shift per photon

    k_eff = (-C''(v0) + 3 C'(v0)**2 / C(v0)) * v_zpf**4 / (2 hbar).

These are the charge-basis expressions -U''' q_ac q_zpf**2 / (2 hbar) and
U'''' q_zpf**4 / (2 hbar) (energy derivatives as in
`varactor.energy_and_derivatives`) rewritten in C and its voltage
derivatives; the acceptance gate checks that identity independently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .varactor import VaractorDesign, capacitance, capacitance_derivatives

__all__ = [
    "CircuitParams",
    "DriveSpec",
    "ModeCoefficients",
    "mode",
    "three_wave_strength",
    "kerr_strength",
    "operating_point",
    "pump_photon_estimate",
]

# Reduced Planck constant h / 2pi [J s], exact in the 2019 SI.
hbar = 1.0545718176461565e-34


@dataclass(frozen=True)
class CircuitParams:
    """Fixed linear circuit around the varactor: shunt inductance and external Q."""

    inductance: float
    q_ext: float = 100.0

    def __post_init__(self):
        for name in ("inductance", "q_ext"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"circuit parameter {name!r} must be finite and positive")


@dataclass(frozen=True)
class DriveSpec:
    """Pump drive: AC voltage amplitude across the varactor and pump phase."""

    v_ac: float
    theta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.v_ac < math.inf:
            raise ConfigurationError(f"v_ac must be finite and non-negative, got {self.v_ac!r}")
        if not math.isfinite(self.theta):
            raise ConfigurationError(f"theta must be finite, got {self.theta!r}")

    def charge_amplitude(self, cap: float) -> float:
        """Pump charge amplitude q_ac = v_ac * C(v0) for a given capacitance."""
        return self.v_ac * cap


@dataclass(frozen=True)
class ModeCoefficients:
    """Quantised-mode constants at one working point.

    ``xi`` is the complex three-wave strength [rad/s]; ``k_eff`` the
    effective Kerr shift per photon [rad/s].  Both are zero in the output of
    `mode`, which only evaluates the linear part.
    """

    omega0: float
    z0: float
    q_zpf: float
    phi_zpf: float
    v_zpf: float
    xi: complex
    k_eff: float


def _mode(c, circuit: CircuitParams, xi=0.0j, k_eff=0.0) -> ModeCoefficients:
    z0 = (circuit.inductance / c) ** 0.5
    q_zpf = (hbar / (2.0 * z0)) ** 0.5
    return ModeCoefficients(
        omega0=1.0 / (circuit.inductance * c) ** 0.5,
        z0=z0,
        q_zpf=q_zpf,
        phi_zpf=(hbar * z0 / 2.0) ** 0.5,
        v_zpf=q_zpf / c,
        xi=xi,
        k_eff=k_eff,
    )


def _v_zpf2(c, circuit: CircuitParams):
    # v_zpf**2 = q_zpf**2 / C**2 with q_zpf**2 = hbar / (2 z0).
    return hbar / (2.0 * (circuit.inductance / c) ** 0.5) / (c * c)


def _xi(c, c1, drive: DriveSpec, circuit: CircuitParams):
    magnitude = c1 * drive.v_ac * _v_zpf2(c, circuit) / (2.0 * hbar)
    return magnitude * cmath.exp(-1j * drive.theta)


def _k_eff(c, c1, c2, circuit: CircuitParams):
    return (-c2 + 3.0 * c1 * c1 / c) * _v_zpf2(c, circuit) ** 2 / (2.0 * hbar)


def mode(v0, design: VaractorDesign, circuit: CircuitParams) -> ModeCoefficients:
    """Linear mode constants (frequency, impedance, zero-point scales) at bias v0."""
    return _mode(capacitance(v0, design), circuit)


def three_wave_strength(v0, drive: DriveSpec, design: VaractorDesign, circuit: CircuitParams):
    """Complex degenerate three-wave strength xi [rad/s] at working point v0.

    Zero at v0 = 0 (the capacitance curve is even there) and odd in v0;
    linear in the pump amplitude; the pump phase enters as exp(-i theta).
    """
    c, c1, _ = capacitance_derivatives(v0, design)
    return _xi(c, c1, drive, circuit)


def kerr_strength(v0, design: VaractorDesign, circuit: CircuitParams):
    """Effective Kerr shift per photon k_eff [rad/s] at working point v0.

    Even in v0 and maximal at zero bias for these materials.
    """
    return _k_eff(*capacitance_derivatives(v0, design), circuit)


def operating_point(
    v0, drive: DriveSpec, design: VaractorDesign, circuit: CircuitParams
) -> ModeCoefficients:
    """Mode constants with the parametric couplings filled in, from one chain evaluation."""
    c, c1, c2 = capacitance_derivatives(v0, design)
    return _mode(c, circuit, _xi(c, c1, drive, circuit), _k_eff(c, c1, c2, circuit))


def pump_photon_estimate(
    v0: float, drive: DriveSpec, design: VaractorDesign, circuit: CircuitParams
) -> float:
    """Rough pump occupation (q_ac / 2 q_zpf)**2 at the working point.

    Diagnostic only: the pump is a classical stiff tone in this model, so
    this number never enters the gain or coupling formulas.  It is useful as
    a sanity check that the pump stays far above the quantum scale but far
    below any depletion regime.
    """
    c = capacitance(v0, design)
    q_zpf = _mode(c, circuit).q_zpf
    ratio = drive.charge_amplitude(c) / (2.0 * q_zpf)
    return ratio * ratio
