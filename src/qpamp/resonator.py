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
from typing import NamedTuple

from .errors import _Record, _require_finite
from .material import dielectric_response
from .varactor import VaractorDesign, _voltage_derivatives, capacitance_derivatives

__all__ = [
    "CircuitParams",
    "DriveSpec",
    "ModeCoefficients",
    "mode",
    "three_wave_strength",
    "kerr_strength",
    "operating_point",
]

# Reduced Planck constant h / 2pi [J s], exact in the 2019 SI.
hbar = 1.0545718176461565e-34


class CircuitParams(_Record):
    """Fixed linear circuit around the varactor: shunt inductance and external Q."""

    inductance: float
    q_ext: float = 100.0

    def _check(self):
        _require_finite("circuit parameter", self, ("inductance", "q_ext"))


class DriveSpec(_Record):
    """Pump drive: AC voltage amplitude across the varactor and pump phase."""

    v_ac: float
    theta: float = 0.0

    def _check(self):
        _require_finite("drive parameter", self, non_negative=("v_ac",), finite=("theta",))


_UNDRIVEN = DriveSpec(v_ac=0.0)  # the linear mode's drive: no pump


class ModeCoefficients(NamedTuple):
    """The working-point record, from one chain evaluation at a float or an array of biases.

    ``c`` is C(v0) [F]; ``eps_rel`` and ``loss_tangent`` describe the film.  The linewidths
    ``kappa_int`` and ``kappa_ext``, the complex three-wave strength ``xi`` and the Kerr
    shift per photon ``k_eff`` are in rad/s.  ``pump_photons`` is (q_ac / 2 q_zpf)**2 with
    q_ac = v_ac C(v0): a diagnostic of the classical pump that enters no gain or coupling
    formula.  The last three are zero in the output of `mode`, which evaluates the linear part only.
    """

    omega0: float
    z0: float
    q_zpf: float
    phi_zpf: float
    v_zpf: float
    c: float
    eps_rel: float
    loss_tangent: float
    kappa_int: float
    kappa_ext: float
    xi: complex
    k_eff: float
    pump_photons: float


def _xi(c, c1, drive: DriveSpec, circuit: CircuitParams):
    # v_zpf**2 = q_zpf**2 / C**2 with q_zpf**2 = hbar / (2 z0).
    try:
        v_zpf2 = hbar / (2.0 * (circuit.inductance / c) ** 0.5) / (c * c)
    except ZeroDivisionError:  # a float C below about 1e-162 F, whose square underflows
        v_zpf2 = math.inf  # so that |xi| is not finite, and the search says so
    return c1 * drive.v_ac * v_zpf2 / (2.0 * hbar) * cmath.exp(-1j * drive.theta)


def mode(v0, design: VaractorDesign, circuit: CircuitParams) -> ModeCoefficients:
    """Linear mode constants and linewidths at bias v0: the record without couplings."""
    return operating_point(v0, _UNDRIVEN, design, circuit)._replace(k_eff=0.0)


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
    return operating_point(v0, _UNDRIVEN, design, circuit).k_eff


def operating_point(
    v0, drive: DriveSpec, design: VaractorDesign, circuit: CircuitParams
) -> ModeCoefficients:
    """The working-point record at bias v0 under the drive, from one chain evaluation."""
    resp = dielectric_response(design.bias_field(v0), design.material)
    c, c1, c2 = _voltage_derivatives(resp.eps_rel, resp.deps_dE, resp.d2eps_dE2, design)
    omega0 = z0 = q_zpf = v_zpf = k_eff = half_q_ratio = math.nan
    try:  # a float C, L C or L / C out of range divides by zero: the rest stay NaN
        omega0 = 1.0 / (circuit.inductance * c) ** 0.5
        z0 = (circuit.inductance / c) ** 0.5
        q_zpf = (hbar / (2.0 * z0)) ** 0.5
        v_zpf = q_zpf / c
        k_eff = (-c2 + 3.0 * c1 * c1 / c) * (v_zpf * v_zpf) * (v_zpf * v_zpf) / (2.0 * hbar)
        half_q_ratio = drive.v_ac * c / (2.0 * q_zpf)  # q_ac / (2 q_zpf)
    except ZeroDivisionError:
        pass
    return ModeCoefficients(
        omega0=omega0,
        z0=z0,
        q_zpf=q_zpf,
        phi_zpf=(hbar * z0 / 2.0) ** 0.5,
        v_zpf=v_zpf,
        c=c,
        eps_rel=resp.eps_rel,
        loss_tangent=resp.loss_tangent,
        kappa_int=omega0 * resp.loss_tangent,
        kappa_ext=omega0 / circuit.q_ext,
        xi=_xi(c, c1, drive, circuit),
        k_eff=k_eff,
        pump_photons=half_q_ratio * half_q_ratio,  # a product overflows to inf on floats too
    )

