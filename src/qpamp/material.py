"""Quantum-paraelectric dielectric response at cryogenic temperature.

Field-tunable permittivity and loss tangent of incipient ferroelectrics
(SrTiO3- and KTaO3-class crystals) in the quantum-paraelectric regime,
following the modified Landau–Ginzburg–Devonshire treatment of a displacive
soft mode stabilised by quantum fluctuations.

The model reduces to three dimensionless quantities:

* ``eta``   -- barrier parameter set by the ratio of the quantum-fluctuation
  scale (Debye temperature) to the classical Curie temperature, with a weak
  thermal correction.  ``eta > 0`` is the quantum-paraelectric condition.
* ``lam``   -- normalised bias, combining the applied DC field with a static
  inhomogeneity floor ``lam_s`` that models frozen strain/composition
  disorder: ``lam = sqrt(lam_s**2 + (E/E_N)**2)``.
* ``G``     -- the soft-mode Green's function.  The relative permittivity is
  ``eps_r = eps00_rel * G(lam, eta)``.

``G`` follows from the real root ``y`` of the depressed cubic
``y**3 + 3*eta*y = 2*lam`` (``y`` is the normalised residual lattice
displacement) via ``G = 1 / (y**2 + eta)``.  Cardano's formula gives

    y = (s + lam)**(1/3) - (s - lam)**(1/3),    s = sqrt(lam**2 + eta**3)

Both differences in that expression cancel catastrophically somewhere
(``s - lam`` at large bias, ``u - w`` at small bias), so they are replaced by
the algebraically identical forms ``s - lam = eta**3 / (s + lam)`` and
``y = (u**3 - w**3) / (u**2 + u w + w**2) = 2 lam / (u**2 + w**2 + eta)``,
which are stable everywhere.

Loss is a sum of three small contributions, each proportional to a power of
``G``: multi-phonon absorption (``a1``, thermally activated), quasi-Debye
loss from the bias-induced displacement (``a2``), and charged-defect loss
(``a3``, requires a characterised defect density).

All inputs and outputs are SI; bias fields are in V/m.  `permittivity`,
`permittivity_derivatives` and `dielectric_response` share one evaluation
of (lam, eta, y, G) and take either a float, returning floats, or a numpy
array of fields, returning arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigurationError, _one_of, _Record, _require_finite

__all__ = [
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
]


def eta(params: MaterialParams) -> float:
    """Barrier parameter of the quantum-paraelectric ground state.

    eta = (debye_temp / curie_temp) * sqrt(1/16 + (T/debye_temp)**2) - 1.

    Positive eta means quantum fluctuations keep the crystal paraelectric
    down to T = 0; the T -> 0 limit is ``debye_temp / (4 curie_temp) - 1``.
    """
    t_ratio = params.temperature / params.debye_temp
    return (params.debye_temp / params.curie_temp) * math.sqrt(1.0 / 16.0 + t_ratio * t_ratio) - 1.0


class MaterialParams(_Record):
    """Cryogenic parameter set of one quantum-paraelectric crystal.

    Parameters
    ----------
    eps00_rel : float
        Permittivity scale (relative units); ``eps_r = eps00_rel * G``.
    curie_temp : float
        Classical Curie temperature T_c [K].
    debye_temp : float
        Effective Debye temperature of the soft mode [K].
    renorm_field : float
        Normalising bias field E_N [V/m].
    inhomogeneity : float
        Static disorder floor ``lam_s`` of the normalised bias
        (dimensionless); sets the zero-bias saturation of the tuning curve.
    a1, a2 : float
        Loss coefficients for multi-phonon and quasi-Debye absorption.
    a3 : float or None
        Charged-defect loss coefficient; ``None`` when the defect channel
        has not been characterised for this crystal.
    defect_density : float
        Normalised charged-defect density; 0 for nominally pure crystals,
        and required to be 0 while ``a3`` is ``None``.
    temperature : float
        Operating temperature [K].  The low-temperature expansion used here
        requires ``temperature < debye_temp / 10``.

    Construction also requires ``eta(params) > 0``, so every evaluation of
    the chain can take the quantum-paraelectric state for granted.
    """

    eps00_rel: float
    curie_temp: float
    debye_temp: float
    renorm_field: float
    inhomogeneity: float
    a1: float
    a2: float
    a3: float | None = None
    defect_density: float = 0.0
    temperature: float = 0.01

    def _check(self):
        positive = ("eps00_rel", "curie_temp", "debye_temp", "renorm_field")
        non_negative = ("inhomogeneity", "a1", "a2", "defect_density", "temperature")
        if self.a3 is not None:  # None: the charged-defect channel is not characterised
            non_negative += ("a3",)
        _require_finite("material parameter", self, positive, non_negative)
        if not self.temperature < self.debye_temp / 10.0:
            raise ConfigurationError(
                "low-temperature model requires 'temperature' < 'debye_temp' / 10"
            )
        if self.defect_density > 0.0 and self.a3 is None:
            raise ConfigurationError(
                "'defect_density' > 0 requires the charged-defect loss coefficient 'a3'"
            )
        eta_val = eta(self)
        if not eta_val > 0.0:
            # eta < 0 is a ferroelectric ground state, eta = 0 the quantum critical point.
            raise ConfigurationError(
                f"material parameters give eta = {eta_val:.6g}, outside the quantum-paraelectric "
                "model, which needs eta > 0 ('debye_temp' > 4 * 'curie_temp' at T = 0)"
            )


class DielectricResponse(NamedTuple):
    """Dielectric state of a material at one bias field (or an array of them).

    ``eps_rel``, ``deps_dE`` and ``d2eps_dE2`` are those of
    `permittivity_derivatives`; ``loss_tangent`` is the total tan(delta) and
    the three ``tan_delta_*`` fields give its breakdown by mechanism.
    """

    eps_rel: float
    deps_dE: float
    d2eps_dE2: float
    loss_tangent: float
    tan_delta_1: float
    tan_delta_2: float
    tan_delta_3: float


# Table values for the two workhorse crystals near 10 mK.
STO = MaterialParams(
    eps00_rel=2080.0,
    curie_temp=42.0,
    debye_temp=175.0,
    renorm_field=1.93e6,
    inhomogeneity=0.018,
    a1=2.45e-4,
    a2=2.45e-3,
    a3=None,
    defect_density=0.0,
    temperature=0.01,
)

KTO = MaterialParams(
    eps00_rel=1390.0,
    curie_temp=32.5,
    debye_temp=170.0,
    renorm_field=1.56e6,
    inhomogeneity=0.020,
    a1=2.06e-4,
    a2=4.0e-4,
    a3=None,
    defect_density=0.0,
    temperature=0.01,
)

_BUILTINS = {"sto": STO, "kto": KTO}


def builtin_material(name: str) -> MaterialParams:
    """Look up a built-in material by name, in any case."""
    try:
        return _BUILTINS[name.lower()]
    except KeyError:
        raise ConfigurationError(f"material 'name' {_one_of(_BUILTINS, name)}") from None


def normalized_bias(bias_field, params: MaterialParams):
    """Normalised bias ``lam = sqrt(lam_s**2 + (E/E_N)**2)`` (dimensionless)."""
    x = bias_field / params.renorm_field
    return (params.inhomogeneity * params.inhomogeneity + x * x) ** 0.5


def _solve_cubic(lam, eta_val: float):
    # Real root of y^3 + 3 eta y = 2 lam via Cardano cube roots
    # u = (s + lam)^(1/3), w = (s - lam)^(1/3), s = sqrt(lam^2 + eta^3).
    # s - lam loses all significant digits once lam >> eta^(3/2), and u - w
    # does the same for lam << eta^(3/2); both are replaced by identities
    # (u*w = eta, u^3 - w^3 = 2 lam) that only add positive terms.  The
    # cube roots are powers of positive numbers, so a float stays a float.
    eta3 = eta_val * eta_val * eta_val
    plus = (lam * lam + eta3) ** 0.5 + lam
    u = plus ** (1.0 / 3.0)
    w = (eta3 / plus) ** (1.0 / 3.0)
    return 2.0 * lam / (u * u + w * w + eta_val)


def _state(bias_field, params: MaterialParams):
    """(lam, eta, y, G) at one bias field or at an array of them."""
    eta_val = eta(params)
    lam = normalized_bias(bias_field, params)
    y = _solve_cubic(lam, eta_val)
    return lam, eta_val, y, 1.0 / (y * y + eta_val)


def permittivity(bias_field, params: MaterialParams):
    """Relative permittivity ``eps_r(E) = eps00_rel * G(lam(E), eta)``."""
    return params.eps00_rel * _state(bias_field, params)[3]


def permittivity_derivatives(bias_field, params: MaterialParams):
    """Relative permittivity and its first two derivatives w.r.t. the bias field.

    Returns
    -------
    (eps_r, deps_dE, d2eps_dE2) : tuple of float, or of arrays for an array of fields
        ``eps_r`` dimensionless, derivatives in (V/m)^-1 and (V/m)^-2.

    Notes
    -----
    Uses the closed-form chain rule.  With ``G' = dG/dlam`` etc.:

        dy/dlam   = (2/3) G
        G'        = -(4/3) G**3 y
        G''       = (16/3) G**5 y**2 - (8/9) G**4
        dlam/dE   = E / (E_N**2 lam)
        d2lam/dE2 = lam_s**2 / (E_N**2 lam**3)

    The cubic gives ``y / lam = 2 / (y**2 + 3 eta)``, which takes lam out
    of every denominator:

        deps/dE   = eps00_rel * (-4/3) G**3 (2 / (y**2 + 3 eta)) E / E_N**2
        d2eps/dE2 = (eps00_rel / E_N**2) [G'' (1 - s) + (G'/lam) s]

    with ``s = lam_s**2 / lam**2``.  Both hold at zero bias, also for an
    ideal crystal (``lam_s = 0``), where s = 0 follows from the parameter.
    """
    lam, eta_val, y, g = _state(bias_field, params)
    return _derivatives(bias_field, params, lam, eta_val, y, g)


def _derivatives(bias_field, params: MaterialParams, lam, eta_val, y, g):
    g3 = g * g * g
    dg_per_lam = -(8.0 / 3.0) * g3 / (y * y + 3.0 * eta_val)
    d2g = (16.0 / 3.0) * g3 * g * g * y * y - (8.0 / 9.0) * g3 * g
    # lam_s**2, not lam_s: normalized_bias squares it, so lam is 0 at zero bias once it underflows.
    s = (params.inhomogeneity / lam) ** 2 if params.inhomogeneity * params.inhomogeneity else 0.0
    scale = params.eps00_rel / params.renorm_field / params.renorm_field
    return (
        params.eps00_rel * g,
        scale * dg_per_lam * bias_field,
        scale * (d2g * (1.0 - s) + dg_per_lam * s),
    )


def dielectric_response(bias_field, params: MaterialParams) -> DielectricResponse:
    """Evaluate permittivity, its field derivatives and the full loss budget at one bias field.

    An array of fields gives a response whose fields are arrays.  The three
    loss channels are

        tan_delta_1 = a1 * (T / T_c)**2 * G**(3/2)     (multi-phonon)
        tan_delta_2 = a2 * y**2 * G                    (quasi-Debye)
        tan_delta_3 = a3 * n_d * G                     (charged defects)
    """
    lam, eta_val, y, g = _state(bias_field, params)
    eps_rel, deps_dE, d2eps_dE2 = _derivatives(bias_field, params, lam, eta_val, y, g)
    t_ratio = params.temperature / params.curie_temp
    tan1 = params.a1 * t_ratio * t_ratio * g**1.5
    tan2 = params.a2 * y * y * g
    # MaterialParams leaves a3 unset only for a defect-free crystal.
    tan3 = params.defect_density * (params.a3 or 0.0) * g
    return DielectricResponse(
        eps_rel=eps_rel,
        deps_dE=deps_dE,
        d2eps_dE2=d2eps_dE2,
        loss_tangent=tan1 + tan2 + tan3,
        tan_delta_1=tan1,
        tan_delta_2=tan2,
        tan_delta_3=tan3,
    )
