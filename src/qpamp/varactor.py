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

`charge` and `energy` read one routine, `_moments`, that integrates C(u) and
u C(u) over [0, |v|] together, at the same nodes; it integrates any interval
[|v_a|, |v_b|] the same way, which the inversion below uses.

* Ideal crystal (lam_s = 0): closed forms in the cubic's root y at
  x = |v| / (d E_N), since ``G dx = (3/2) dy`` along the cubic:
  ``q = (3/2) eps0 A eps00_rel E_N y`` and
  ``U = (3/4) eps0 A eps00_rel d E_N**2 (y**4 / 4 + (3/2) eta y**2)``;
  an interval takes their difference between its ends.
  A floor lam_s > 0 lowers q and U by at most (4/9) lam_s**2 / eta**3
  relative, so a floor with lam_s**2 <= 1e-17 eta**3 takes these forms too:
  they are then exact to rounding, while t below would run out to
  log(1 / lam_s) and lose digits in sinh t.
* lam_s > 0: the substitution u = a sinh t with a = d E_N lam_s makes
  lam = lam_s cosh t entire in t.  That removes the branch points of
  sqrt(lam_s**2 + x**2) at x = +-i lam_s, close to the real axis when lam_s
  is small.  The only singularities left are the cubic's branch points
  lam = +-i eta**(3/2), at t = +-knee + i pi/2 (repeated every i pi), with
  knee = asinh(eta**(3/2) / lam_s).  [asinh(|v_a| / a), asinh(|v_b| / a)]
  is cut at the knee, each part is split into equal panels at most pi wide,
  and each panel is summed by a 16-point Gauss-Legendre rule.  The rule's
  error falls like rho**(-32), where rho is the Bernstein-ellipse parameter
  of the nearest singularity (Trefethen, SIAM Rev. 50, 2008).  A singularity
  pi/2 above the end of a panel pi wide gives rho = 2.89, an error near
  1e-15.  The cut keeps it from sitting above a panel's middle (rho = 2.41),
  and the width bound keeps it from sitting closer than one half-width.
  Each node is one call of the module-global `capacitance`, whose value
  enters both sums.

`voltage_from_charge` inverts q(v) by Newton steps with dq/dv = C(v),
started from the closed-form inverse of an ideal crystal (lam_s = 0).  That
start never lies beyond the root and q is concave in |v|, so the iterates
rise monotonically and need no bracket.  Only the start's charge is a full
integral; each later iterate's charge is the last one's plus the integral
over the step between them.  q(v_max) is integrated only when an iterate
leaves the trusted range.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NumericalError, _Record, _require_finite
from .material import MaterialParams, _solve_cubic, eta, permittivity, permittivity_derivatives

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

# Vacuum permittivity [F/m], CODATA 2022.
epsilon_0 = 8.8541878188e-12

# (node, weight) pairs of the 16-point Gauss-Legendre rule on [-1, 1] with
# node > 0; the other eight nodes are their mirror images.
_GAUSS_LEGENDRE_16 = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)


class VaractorDesign(_Record):
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

    def _check(self):
        _require_finite("varactor parameter", self, ("plate_area", "thickness", "v_max"))

    def bias_field(self, voltage):
        """Film field E = v / d for a plate voltage v."""
        return voltage / self.thickness


class ChargePoint(NamedTuple):
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
    # Negated test: NaN fails every comparison and is refused here.
    if not abs(voltage) <= design.v_max:
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
    return _capacitance(eps_r, design), scale * d1 / d, scale * d2 / d / d


def _ideal_charge_per_root(design: VaractorDesign) -> float:
    # q / y = (3/2) eps0 A eps00_rel E_N for an ideal crystal.
    material = design.material
    return 1.5 * epsilon_0 * design.plate_area * material.eps00_rel * material.renorm_field


def _moments(voltage: float, design: VaractorDesign, start: float = 0.0) -> tuple[float, float]:
    """Integrals of C(u) and of u C(u) over [|start|, |v|], as in the module docstring.

    Both are negative when |v| < |start|; from the default start they are (|q|, U).
    Ideal crystals take the closed forms; otherwise both integrands are summed
    at the same Gauss-Legendre nodes in t, one `capacitance` call per node.
    """
    _check_range(voltage, design)
    material = design.material
    eta_val = eta(material)
    reach = design.thickness * material.renorm_field  # d E_N: the bias at x = 1
    # The floor changes q and U by less than rounding (module docstring).
    if material.inhomogeneity * material.inhomogeneity <= 1e-17 * (eta_val * eta_val * eta_val):
        per_root = _ideal_charge_per_root(design)
        scale = 0.5 * reach * per_root
        q = u_c = 0.0
        for sign, end in ((1.0, voltage), (-1.0, start)):
            if end:
                x = abs(end) / reach if reach else math.inf
                # lam = x, which is not finite once x * x overflows, as in `normalized_bias`.
                y = _solve_cubic(x if x * x < math.inf else math.inf, eta_val)
                q += sign * per_root * y
                u_c += sign * scale * (y * y) * (0.25 * (y * y) + 1.5 * eta_val)
        return q, u_c
    scale = reach * material.inhomogeneity
    if not (0.0 < scale < math.inf and max(abs(voltage), abs(start)) / scale < math.inf):
        raise NumericalError(
            f"charge integral: the substitution range of u = a sinh(t) is zero or infinite "
            f"(a = d E_N lam_s = {scale} V)"
        )
    begin = math.asinh(abs(start) / scale)
    end = math.asinh(abs(voltage) / scale)
    sign = 1.0
    if end < begin:
        begin, end, sign = end, begin, -1.0
    knee = math.asinh(eta_val**1.5 / material.inhomogeneity)
    q = u_c = 0.0
    for lo, hi in ((begin, min(end, knee)), (max(begin, knee), end)):
        if not lo < hi:
            continue
        panels = math.ceil((hi - lo) / math.pi) or 1  # a subnormal width over pi rounds to 0
        half = 0.5 * (hi - lo) / panels
        for k in range(panels):
            mid = lo + (2 * k + 1) * half
            for node, weight in _GAUSS_LEGENDRE_16:
                for t in (mid - half * node, mid + half * node):
                    u = scale * math.sinh(t)
                    c = capacitance(u, design)
                    w = half * weight * math.cosh(t)
                    q += w * c
                    u_c += w * (u * c)
    return sign * scale * q, sign * scale * u_c


def charge(voltage: float, design: VaractorDesign) -> float:
    """Stored charge q(v) = integral_0^v C(u) du [C].

    Odd in v; strictly increasing because C > 0.
    """
    return math.copysign(_moments(voltage, design)[0], voltage)


def voltage_from_charge(q: float, design: VaractorDesign) -> float:
    """Invert q(v) on the trusted voltage range by Newton steps with dq/dv = C(v).

    The start is the exact inverse for an ideal crystal (lam_s = 0), where
    ``integral G dx = (3/2) y`` gives ``y = |q| / ((3/2) eps0 A eps00_rel E_N)``
    and ``v = d E_N (y**3 + 3 eta y) / 2``.  Since lam >= |E| / E_N and G
    falls with lam, a real crystal stores no more charge than the ideal one,
    so the start never lies beyond the root.  q is concave in |v| (C falls
    with |v|), so each tangent step lands short of the root again and the
    iterates rise monotonically without a bracket.  They stop on a step of a
    few ulps or on one that no longer shrinks.  The second guards against
    rounding noise: the fixed quadrature rule is accurate to about 1e-15, so
    near the root the residual q - q(v) is rounding in the sums, whose steps
    no longer point at the root.

    The start's charge is the one full integral.  Each later iterate
    carries its charge forward, q(v_{k+1}) = q(v_k) + integral of C over
    [v_k, v_{k+1}], so a step integrates only its own increment: one
    16-node panel for a step that stays on one side of the knee.  An
    iterate on the other side of zero from the last takes a full integral
    instead.  q(v_max) is computed only when an iterate leaves
    [-v_max, v_max]; the iterate is then clamped to the window edge and
    carries q(v_max).

    Raises
    ------
    ValueError
        If ``q`` is not finite or lies outside [q(-v_max), q(v_max)].
    NumericalError
        If the steps do not settle, or an iterate's C(v) underflows to 0 or its
        charge is not finite.
    """
    if q == 0.0:
        return 0.0
    material = design.material
    per_root = _ideal_charge_per_root(design)
    y = abs(q) / per_root if per_root else math.inf  # no charge per root: beyond any v_max
    v = math.copysign(
        0.5 * design.thickness * material.renorm_field * y * (y * y + 3.0 * eta(material)), q
    )
    q_max = None
    # The last iterate whose charge is known, and that charge (at first none: 0).
    v_known = q_known = 0.0
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
            v_known, q_known = v, math.copysign(q_max, q)
        if abs(step) <= 4.0 * math.ulp(v):
            return v
        if v * v_known > 0.0:
            q_known += math.copysign(_moments(v, design, v_known)[0], v)
        else:  # the start, or a step across zero
            q_known = charge(v, design)
        v_known = v
        c = capacitance(v, design)
        if not (c > 0.0 and math.isfinite(q_known)):  # C(v) underflows to 0, or q(v) is not finite
            raise NumericalError(f"Newton inversion of charge {q} C: C = {c} F, q = {q_known} C")
        last, step = step, (q - q_known) / c
        if not abs(step) < abs(last):
            return v
        v += step
    raise NumericalError(f"Newton inversion of charge {q} C did not converge (last step {step} V)")


def energy(voltage: float, design: VaractorDesign) -> float:
    """Capacitive energy U(q(v)) [J] accumulated charging from 0 to v.

    Computed as ``integral_0^v u * C(u) du``, which equals
    ``integral_0^q v(q') dq'`` after integrating by parts.  Even in v.
    """
    return _moments(voltage, design)[1]


def energy_and_derivatives(voltage: float, design: VaractorDesign) -> ChargePoint:
    """Full energy expansion of the varactor at a DC working point.

    All derivatives are analytic (chain rule through the permittivity
    model); the tests check them against finite-difference stencils.  A C(v)
    that underflows to 0 raises `NumericalError`.
    """
    c, c1, c2 = capacitance_derivatives(voltage, design)
    if not c:
        raise NumericalError(f"energy expansion at {voltage} V: C(v) underflows to 0 F")
    q, u = _moments(voltage, design)
    u2 = 1.0 / c
    # Repeated divisions give inf where C**3 or C**4 would leave the float range.
    u3 = -c1 / c / c / c
    u4 = (-c2 + 3.0 * c1 * c1 / c) / c / c / c / c
    return ChargePoint(
        charge=math.copysign(q, voltage),
        capacitance=c,
        energy=u,
        u2=u2,
        u3=u3,
        u4=u4,
    )
