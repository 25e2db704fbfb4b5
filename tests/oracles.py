"""Independent numerical oracles used to validate the analytic code paths.

Nothing here shares algorithms with the package: the cubic is solved by
plain bisection instead of Cardano's formula, q(v) is inverted by bisection
instead of Newton steps, the 3-dB point by a scan plus
bisection instead of polynomial roots, integrals use fixed-panel
midpoint Riemann sums or scipy's adaptive quadrature in the bias voltage
instead of Gauss-Legendre panels in a substituted variable, and derivatives
use high-order finite-difference stencils instead of the chain rule; the
bias of largest |xi| is a bisection on the sign of such a stencil's d|xi|/dv
instead of a grid scan plus golden-section search;
`material_row_mp` evaluates a material-table row at 40 digits with mpmath
instead of in double precision.  The two exceptions keep a per-row path that
a table now computes by column:
`peak_gain_db_per_row` the scalar path that the bias sweep's ``peak_gain_db``
column replaced, and `geometry_rows_per_design` the design-per-row
plate-separation table that the scaling laws replaced.
"""

import math
from dataclasses import replace

from scipy.integrate import quad

from qpamp import (
    RateBudget,
    ThresholdError,
    kerr_strength,
    maximize_3wm,
    operating_point,
    reflection,
)


def cubic_root_bisect(lam: float, eta: float) -> float:
    """Real root of y**3 + 3*eta*y = 2*lam by 200 bisection steps."""
    lo, hi = 0.0, max(1.0, (2.0 * lam) ** (1.0 / 3.0) + 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid**3 + 3.0 * eta * mid - 2.0 * lam > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def greens_bisect(lam: float, eta: float) -> float:
    y = cubic_root_bisect(lam, eta)
    return 1.0 / (y * y + eta)


def material_row_mp(field: float, params) -> tuple[float, ...]:
    """One `dielectric_sweep` row at ``field`` [V/m], computed at 40 digits and rounded.

    eta from the parameters, the cubic's real root by mpmath's ``findroot``
    started from `cubic_root_bisect`, then eps_r = eps00_rel G and the three
    loss channels of `qpamp.dielectric_response`.  Imports mpmath on first use.
    """
    import mpmath as mp

    with mp.workdps(40):
        curie, debye, temp, density = (
            mp.mpf(x)
            for x in (params.curie_temp, params.debye_temp, params.temperature, params.defect_density)
        )
        eta = debye / curie * mp.sqrt(mp.mpf(1) / 16 + (temp / debye) ** 2) - 1
        lam = mp.sqrt(mp.mpf(params.inhomogeneity) ** 2 + (mp.mpf(field) / params.renorm_field) ** 2)
        start = cubic_root_bisect(float(lam), float(eta))
        y = mp.findroot(lambda y: y**3 + 3 * eta * y - 2 * lam, mp.mpf(start))
        g = 1 / (y * y + eta)
        tan1 = params.a1 * (temp / curie) ** 2 * g**1.5
        tan2 = params.a2 * y * y * g
        tan3 = density * (params.a3 or 0.0) * g
        cells = (mp.mpf(field) / 10**6, params.eps00_rel * g, tan1 + tan2 + tan3, tan1, tan2, tan3)
        return tuple(float(cell) for cell in cells)


def invert_bisect(charge, q: float, v_max: float) -> float:
    """Voltage v in [-v_max, v_max] with charge(v) = q, for an increasing charge(v).

    Up to 200 bisection steps; the loop ends early once the bracket's ends
    are adjacent floats, where further steps cannot move it.
    """
    lo, hi = (0.0, v_max) if q > 0.0 else (-v_max, 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if charge(mid) > q:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def riemann_midpoint(func, lo: float, hi: float, panels: int = 20000) -> float:
    h = (hi - lo) / panels
    return h * math.fsum(func(lo + (i + 0.5) * h) for i in range(panels))


def riemann_richardson(func, lo: float, hi: float, panels: int = 20000) -> float:
    """One Richardson step on `panels`- and `panels/2`-panel midpoint sums.

    It cancels their h**2 error, which for u C(u) reaches 1e-8 relative at
    10000 panels up to 1 V.
    """
    fine, coarse = (riemann_midpoint(func, lo, hi, n) for n in (panels, panels // 2))
    return (4.0 * fine - coarse) / 3.0


def quad_adaptive(func, lo: float, hi: float) -> float:
    """integral_lo^hi func by scipy's adaptive QUADPACK ``quad``, to 1e-13 relative.

    Fails the calling test when ``quad`` reports that it did not converge.
    """
    result = quad(func, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500, full_output=1)
    assert len(result) == 3, f"quad over [{lo}, {hi}] did not converge: {result[3]}"
    return result[0]


def fd6_first(func, x: float, h: float) -> float:
    """Sixth-order central first derivative."""
    return (
        -func(x - 3 * h)
        + 9 * func(x - 2 * h)
        - 45 * func(x - h)
        + 45 * func(x + h)
        - 9 * func(x + 2 * h)
        + func(x + 3 * h)
    ) / (60.0 * h)


def fd6_second(func, x: float, h: float) -> float:
    """Sixth-order central second derivative."""
    return (
        2 * func(x - 3 * h)
        - 27 * func(x - 2 * h)
        + 270 * func(x - h)
        - 490 * func(x)
        + 270 * func(x + h)
        - 27 * func(x + 2 * h)
        + 2 * func(x + 3 * h)
    ) / (180.0 * h * h)


def argmax_bisect(func, lo: float, hi: float, h: float) -> float:
    """The x in [lo, hi] where func peaks, by bisection on the sign of `fd6_first`.

    func must rise at lo and fall at hi, with one maximum between; the
    stencil of step h samples [x - 3h, x + 3h].  Up to 200 steps; the loop
    ends early once the bracket's ends are adjacent floats.
    """
    assert fd6_first(func, lo, h) > 0.0 > fd6_first(func, hi, h), "no maximum in the bracket"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if fd6_first(func, mid, h) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def central_first(func, x: float, h: float) -> float:
    return (func(x + h) - func(x - h)) / (2.0 * h)


def first_crossing_bisect(func, level: float, hi: float, scan: int = 4000) -> float:
    """Smallest x in (0, hi] where func(x) falls below level.

    A uniform scan of `scan` points finds the first sample below `level`;
    200 bisection steps then refine the bracket it closes.  NaN when no
    sample falls below.
    """
    lo = 0.0
    for i in range(1, scan + 1):
        up = hi * i / scan
        if func(up) < level:
            for _ in range(200):
                mid = 0.5 * (lo + up)
                if func(mid) < level:
                    up = mid
                else:
                    lo = mid
            return 0.5 * (lo + up)
        lo = up
    return math.nan


def finite_difference_capacitance_derivatives(capacitance, voltage: float, rel_step: float = 1e-5):
    """Richardson-extrapolated central differences of a capacitance curve C(v).

    ``capacitance`` is a one-argument callable; returns ``(dC/dv, d2C/dv2)``.
    """
    h = rel_step * max(abs(voltage), 1e-3)

    def d1(step):
        return (capacitance(voltage + step) - capacitance(voltage - step)) / (2.0 * step)

    def d2(step):
        return (
            capacitance(voltage + step) - 2.0 * capacitance(voltage) + capacitance(voltage - step)
        ) / (step * step)

    # One Richardson level on the O(h^2) central stencils -> O(h^4).
    first = (4.0 * d1(h / 2.0) - d1(h)) / 3.0
    second = (4.0 * d2(h / 2.0) - d2(h)) / 3.0
    return first, second


def peak_gain_db_per_row(omega0: float, kappa_int: float, kappa_ext: float, xi: float) -> float:
    """Reflection gain [dB] at the pumped centre of one bias-table row, NaN at threshold.

    A scalar `RateBudget` plus `reflection` at omega_p / 2, with the
    threshold decided by the `ThresholdError` that `reflection` raises.
    """
    rates = RateBudget(omega0=omega0, kappa_int=kappa_int, kappa_ext=kappa_ext)
    try:
        return 20.0 * math.log10(abs(reflection(rates.omega_p / 2.0, xi, rates)))
    except ThresholdError:
        return math.nan


def geometry_rows_per_design(points, design, circuit, drive) -> list[tuple[float, ...]]:
    """Rows of the plate-separation table, each from a design of its own.

    Every film thickness d gets the reference design rescaled to d at fixed
    plate_area/thickness, biased at the optimum field of one search on the
    thickest film, and its own working-point record and zero-bias Kerr strength.
    """
    area_ratio = design.plate_area / design.thickness
    field_max = 0.25 / design.thickness

    def scaled(thickness):
        return replace(
            design,
            plate_area=area_ratio * thickness,
            thickness=thickness,
            v_max=design.v_max * thickness / design.thickness,
        )

    d_search = max(points)
    best = maximize_3wm(scaled(d_search), circuit, drive, v_range=(0.0, field_max * d_search))
    field_opt = best.v0_max / d_search
    rows = []
    for thickness in points:
        row_design = scaled(thickness)
        v0 = field_opt * thickness
        coeffs = operating_point(v0, drive, row_design, circuit)
        xi = abs(coeffs.xi)
        k_zero = kerr_strength(0.0, row_design, circuit)
        rows.append(
            (
                thickness * 1e9,
                v0 * 1e3,
                coeffs.omega0 / (2.0 * math.pi) / 1e9,
                xi / (2.0 * math.pi) / 1e6,
                k_zero / (2.0 * math.pi),
                xi / k_zero,
            )
        )
    return rows
