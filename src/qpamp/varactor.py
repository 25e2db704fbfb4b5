"""Parallel-plate varactor built on a quantum-paraelectric film.

A thin dielectric film of thickness ``d`` between plates of area ``A`` gives
a bias-dependent capacitance

    C(v) = eps0 * eps_r(v / d) * A / d

together with the charge-voltage relation ``q(v) = integral_0^v C`` and the
capacitive energy as a function of stored charge.  Expanding that energy
around a DC working point yields the curvatures that drive the parametric
processes downstream:

    U''   = 1 / C
    U'''  = -C' / C**3
    U'''' = (-C'' + 3 C'**2 / C) / C**4

(primes on U with respect to charge, on C with respect to voltage, all
evaluated at the working point).

`voltage_from_charge` inverts q(v) by Newton steps with dq/dv = C(v),
started from the closed-form inverse of an ideal crystal (lam_s = 0).  That
start never lies beyond the root and q is concave in |v|, so the iterates
rise monotonically and need no bracket; q(v_max) is integrated only when an
iterate leaves the trusted range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, NumericalError
from .material import MaterialParams, eta, permittivity, permittivity_derivatives

__all__ = [
    "VaractorDesign",
    "ChargePoint",
    "capacitance",
    "capacitance_derivatives",
    "charge",
    "voltage_from_charge",
    "energy",
    "energy_and_derivatives",
]

_QUAD_RTOL = 1e-12

# Vacuum permittivity [F/m], CODATA 2022.
epsilon_0 = 8.8541878188e-12


@dataclass(frozen=True)
class VaractorDesign:
    """Plate geometry plus film material.

    ``v_max`` bounds the bias range the design is trusted over (charge
    integrals and inversions refuse to leave [-v_max, v_max]).  The default
    1 V is far beyond the useful tuning range of a 200 nm film but still
    within the smooth part of the model.
    """

    plate_area: float
    thickness: float
    material: MaterialParams
    v_max: float = 1.0

    def __post_init__(self):
        for name in ("plate_area", "thickness", "v_max"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"varactor parameter {name!r} must be finite and positive")

    def bias_field(self, voltage):
        """Film field E = v / d for a plate voltage v."""
        return voltage / self.thickness


@dataclass(frozen=True)
class ChargePoint:
    """Energy expansion of a varactor at one DC working point.

    ``u2``, ``u3``, ``u4`` are the second, third and fourth derivatives of
    the capacitive energy with respect to charge [V/C, V/C^2, V/C^3].
    """

    charge: float
    capacitance: float
    energy: float
    u2: float
    u3: float
    u4: float


def _check_range(voltage: float, design: VaractorDesign) -> None:
    if abs(voltage) > design.v_max:
        raise ValueError(
            f"bias voltage {voltage} V outside the trusted range +-{design.v_max} V"
        )


def _capacitance(eps_r, design: VaractorDesign):
    return epsilon_0 * eps_r * design.plate_area / design.thickness


def capacitance(voltage, design: VaractorDesign):
    """Small-signal capacitance C(v) [F] at plate voltage v (a float or an array)."""
    return _capacitance(permittivity(design.bias_field(voltage), design.material), design)


def capacitance_derivatives(voltage, design: VaractorDesign):
    """C(v) and its first two voltage derivatives, all analytic.

    Returns ``(C, dC/dv, d2C/dv2)`` in F, F/V, F/V^2: floats for a float
    voltage, arrays for an array of voltages.
    """
    eps_r, d1, d2 = permittivity_derivatives(design.bias_field(voltage), design.material)
    return _voltage_derivatives(eps_r, d1, d2, design)


def _voltage_derivatives(eps_r, d1, d2, design: VaractorDesign):
    scale = epsilon_0 * design.plate_area / design.thickness
    d = design.thickness
    return _capacitance(eps_r, design), scale * d1 / d, scale * d2 / (d * d)


def _quad(func, lo: float, hi: float, what: str) -> float:
    # Imported on first use: the design chain and the CLI never integrate.
    from scipy.integrate import quad

    result = quad(func, lo, hi, epsabs=0.0, epsrel=_QUAD_RTOL, limit=200, full_output=1)
    if len(result) > 3:
        raise NumericalError(
            f"quadrature for {what} over [{lo}, {hi}] did not converge: {result[3]}"
        )
    return result[0]


def charge(voltage: float, design: VaractorDesign) -> float:
    """Stored charge q(v) = integral_0^v C(u) du [C].

    Odd in v; strictly increasing because C > 0.
    """
    _check_range(voltage, design)
    if voltage == 0.0:
        return 0.0
    return _quad(lambda u: capacitance(u, design), 0.0, voltage, "charge")


def voltage_from_charge(q: float, design: VaractorDesign) -> float:
    """Invert q(v) on the trusted voltage range by Newton steps with dq/dv = C(v).

    The start is the exact inverse for an ideal crystal (lam_s = 0), where
    ``integral G dx = (3/2) y`` gives ``y = |q| / ((3/2) eps0 A eps00_rel E_N)``
    and ``v = d E_N (y**3 + 3 eta y) / 2``.  Since lam >= |E| / E_N and G
    falls with lam, a real crystal stores no more charge than the ideal one,
    so the start never lies beyond the root.  q is concave in |v| (C falls
    with |v|), so each tangent step lands short of the root again and the
    iterates rise monotonically without a bracket.  They stop on a step of a
    few ulps or on one that no longer shrinks (quadrature noise).

    q(v_max), the costliest integral, is computed only when an iterate
    leaves [-v_max, v_max]; the iterate is then clamped to the window edge.

    Raises
    ------
    ValueError
        If ``q`` is not finite or lies outside [q(-v_max), q(v_max)].
    NumericalError
        If the steps do not settle.
    """
    if q == 0.0:
        return 0.0
    material = design.material
    y = abs(q) / (1.5 * epsilon_0 * design.plate_area * material.eps00_rel * material.renorm_field)
    v = math.copysign(
        0.5 * design.thickness * material.renorm_field * y * (y * y + 3.0 * eta(material)), q
    )
    q_max = None
    step = math.inf
    for _ in range(50):
        # Negated tests: a NaN or infinite q leaves the window and is refused here.
        if not abs(v) <= design.v_max:
            if q_max is None:
                q_max = charge(design.v_max, design)
            if not abs(q) <= q_max:
                raise ValueError(
                    f"charge {q} C outside invertible range +-{q_max:.6g} C "
                    f"(v_max = {design.v_max} V)"
                )
            v = math.copysign(design.v_max, q)
        if abs(step) <= 4.0 * math.ulp(v):
            return v
        last, step = step, (q - charge(v, design)) / capacitance(v, design)
        if not abs(step) < abs(last):
            return v
        v += step
    raise NumericalError(f"Newton inversion of charge {q} C did not converge (last step {step} V)")


def energy(voltage: float, design: VaractorDesign) -> float:
    """Capacitive energy U(q(v)) [J] accumulated charging from 0 to v.

    Computed as ``integral_0^v u * C(u) du``, which equals
    ``integral_0^q v(q') dq'`` after integrating by parts.
    """
    _check_range(voltage, design)
    if voltage == 0.0:
        return 0.0
    return _quad(lambda u: u * capacitance(u, design), 0.0, voltage, "energy")


def energy_and_derivatives(voltage: float, design: VaractorDesign) -> ChargePoint:
    """Full energy expansion of the varactor at a DC working point.

    All derivatives are analytic (chain rule through the permittivity
    model); the tests check them against finite-difference stencils.
    """
    c, c1, c2 = capacitance_derivatives(voltage, design)
    u2 = 1.0 / c
    u3 = -c1 / c**3
    u4 = (-c2 + 3.0 * c1 * c1 / c) / c**4
    return ChargePoint(
        charge=charge(voltage, design),
        capacitance=c,
        energy=energy(voltage, design),
        u2=u2,
        u3=u3,
        u4=u4,
    )
