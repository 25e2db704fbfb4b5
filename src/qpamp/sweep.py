"""Parameter sweeps and the working-point optimiser.

Every sweep produces a `SweepResult`: an ordered, column-labelled table of
floats plus a metadata snapshot, ready for CSV serialisation.  Bias and
bias-field tables are computed by column, from one array evaluation of the
material -> varactor -> resonator chain; plate-separation rows (each a
different design) are computed in order.  The ``workers`` argument and the
``QPAMP_WORKERS`` environment variable are still accepted and validated, but
start no threads.

Column values are in display units (mV, pF, GHz, MHz, Hz, dB) as indicated
by the column names; everything inside the physics modules stays SI.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._version import __version__
from .amplifier import RateBudget, reflection
from .errors import ConfigurationError, NumericalError, ThresholdError
from .material import MaterialParams, dielectric_response
from .resonator import (
    CircuitParams,
    DriveSpec,
    kerr_strength,
    operating_point,
    three_wave_strength,
)
from .varactor import VaractorDesign

__all__ = [
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

SWEEP_VARIABLES = ("bias_voltage", "bias_field", "plate_separation", "pump_ratio")

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over [start, stop] with count points.

    A single-point sweep (count = 1, taken at ``start``) is allowed as a
    degenerate case; otherwise ``start < stop`` is required.  Log spacing
    needs a strictly positive start.
    """

    variable: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigurationError(
                f"unknown sweep variable {self.variable!r}; choose from {SWEEP_VARIABLES}"
            )
        for name in ("start", "stop"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"sweep {name!r} must be finite")
        if self.spacing not in ("linear", "log"):
            raise ConfigurationError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.count < 1:
            raise ConfigurationError("sweep count must be >= 1")
        if self.count > 1 and not self.start < self.stop:
            raise ConfigurationError(
                f"sweep range is empty: start {self.start} must be < stop {self.stop}"
            )
        if self.spacing == "log" and self.start <= 0.0:
            raise ConfigurationError("log spacing requires start > 0")

    def points(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        if self.spacing == "log":
            return [float(x) for x in np.geomspace(self.start, self.stop, self.count)]
        return [float(x) for x in np.linspace(self.start, self.stop, self.count)]


@dataclass(frozen=True)
class SweepResult:
    """Ordered table of sweep rows plus a metadata snapshot."""

    variable: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: dict[str, str]

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


@dataclass(frozen=True)
class Optimum:
    """Result of the three-wave working-point search.

    ``on_window_edge`` is true when ``v0_max`` lies within the search
    resolution (1 microvolt) of either end of the search window: |xi| may
    then keep growing outside it.
    """

    v0_max: float
    xi_max: float
    on_window_edge: bool


def default_workers() -> int:
    """The validated ``QPAMP_WORKERS`` setting, 1 when it is unset."""
    raw = os.environ.get("QPAMP_WORKERS")
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigurationError(f"QPAMP_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigurationError("QPAMP_WORKERS must be >= 1")
    return workers


def _check_workers(workers: int | None) -> None:
    # Sweeps are serial whatever ``workers`` says; an unset one still
    # validates the environment so that a bad QPAMP_WORKERS fails loudly.
    if workers is None:
        default_workers()


def _peak_gain_db(omega0: float, kappa_int: float, kappa_ext: float, xi: float) -> float:
    rates = RateBudget(omega0=omega0, kappa_int=kappa_int, kappa_ext=kappa_ext)
    try:
        return 20.0 * math.log10(abs(reflection(rates.omega_p / 2.0, xi, rates)))
    except ThresholdError:
        return math.nan


def _metadata(spec: SweepSpec, **extra: object) -> dict[str, str]:
    meta = {
        "qpamp_version": __version__,
        "variable": spec.variable,
        "start": repr(spec.start),
        "stop": repr(spec.stop),
        "count": str(spec.count),
        "spacing": spec.spacing,
    }
    meta.update({key: str(value) for key, value in extra.items()})
    return meta


def bias_sweep(
    spec: SweepSpec,
    design: VaractorDesign,
    circuit: CircuitParams,
    drive: DriveSpec,
    workers: int | None = None,
) -> SweepResult:
    """Everything-vs-bias table: dielectric state, mode, couplings, rates, gain.

    The swept variable must be ``bias_voltage`` (values in volts).  The
    ``peak_gain_db`` column is the reflection gain at the pumped center
    frequency for the given drive; rows where that drive sits at or beyond
    the oscillation threshold get NaN there.
    """
    if spec.variable != "bias_voltage":
        raise ConfigurationError(f"bias_sweep needs variable 'bias_voltage', got {spec.variable!r}")
    _check_workers(workers)
    v0 = np.array(spec.points())
    resp = dielectric_response(design.bias_field(v0), design.material)
    coeffs = operating_point(v0, drive, design, circuit)
    xi = np.abs(coeffs.xi)
    kappa_int = coeffs.omega0 * resp.loss_tangent
    kappa_ext = coeffs.omega0 / circuit.q_ext
    columns = {
        "v0_mv": v0 * 1e3,
        "eps_r": resp.eps_rel,
        "tan_delta": resp.loss_tangent,
        "c_pf": coeffs.q_zpf / coeffs.v_zpf * 1e12,
        "f0_ghz": coeffs.omega0 / _TWO_PI / 1e9,
        "xi_mhz": xi / _TWO_PI / 1e6,
        "keff_hz": coeffs.k_eff / _TWO_PI,
        "kappa_int_mhz": kappa_int / _TWO_PI / 1e6,
        "kappa_ext_mhz": kappa_ext / _TWO_PI / 1e6,
    }
    peak_db = map(_peak_gain_db, *(a.tolist() for a in (coeffs.omega0, kappa_int, kappa_ext, xi)))
    return SweepResult(
        variable=spec.variable,
        columns=(*columns, "peak_gain_db"),
        rows=tuple(zip(*(values.tolist() for values in columns.values()), peak_db)),
        metadata=_metadata(
            spec,
            plate_area_m2=repr(design.plate_area),
            thickness_m=repr(design.thickness),
            inductance_h=repr(circuit.inductance),
            q_ext=repr(circuit.q_ext),
            v_ac_v=repr(drive.v_ac),
        ),
    )


def dielectric_sweep(
    material: MaterialParams, spec: SweepSpec, workers: int | None = None
) -> SweepResult:
    """Permittivity and loss budget versus bias field (sweep values in V/m)."""
    if spec.variable != "bias_field":
        raise ConfigurationError(
            f"dielectric_sweep needs variable 'bias_field', got {spec.variable!r}"
        )
    _check_workers(workers)
    fields = np.array(spec.points())
    resp = dielectric_response(fields, material)
    columns = {
        "E_V_per_um": fields / 1e6,
        "eps_r": resp.eps_rel,
        "tan_delta": resp.loss_tangent,
        "tan_delta_1": resp.tan_delta_1,
        "tan_delta_2": resp.tan_delta_2,
        "tan_delta_3": resp.tan_delta_3,
    }
    return SweepResult(
        variable=spec.variable,
        columns=tuple(columns),
        rows=tuple(zip(*(values.tolist() for values in columns.values()))),
        metadata=_metadata(spec, eps00_rel=repr(material.eps00_rel)),
    )


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 241
_XTOL = 1e-6  # volts


def _golden_max(func: Callable[[float], float], a: float, b: float):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = func(c), func(d)
    while (b - a) > _XTOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = func(d)
    x = 0.5 * (a + b)
    return x, func(x)


def maximize_3wm(
    design: VaractorDesign,
    circuit: CircuitParams,
    drive: DriveSpec,
    v_range: tuple[float, float] = (0.0, 0.25),
) -> Optimum:
    """Find the bias that maximises |xi|: coarse grid scan + golden-section refine.

    The grid has 241 points; the golden-section stage narrows the best
    bracket down to 1 microvolt.  A flat objective (e.g. zero pump
    amplitude) raises `NumericalError`.
    """
    lo, hi = v_range
    if not lo < hi:
        raise ConfigurationError(f"search range is empty: {v_range}")

    def objective(v0: float) -> float:
        return abs(three_wave_strength(v0, drive, design, circuit))

    # Python floats keep each call in float arithmetic, not numpy scalars.
    grid = np.linspace(lo, hi, _GRID_POINTS).tolist()
    values = [objective(v) for v in grid]
    i_best = int(np.argmax(values))
    if values[i_best] == 0.0:
        raise NumericalError("three-wave strength is flat over the search range")
    a = grid[max(i_best - 1, 0)]
    b = grid[min(i_best + 1, len(grid) - 1)]
    v_opt, f_opt = _golden_max(objective, a, b)
    if f_opt < values[i_best]:
        v_opt, f_opt = grid[i_best], values[i_best]
    on_edge = min(v_opt - lo, hi - v_opt) <= _XTOL
    return Optimum(v0_max=v_opt, xi_max=f_opt, on_window_edge=on_edge)


def geometry_sweep(
    spec: SweepSpec,
    design: VaractorDesign,
    circuit: CircuitParams,
    drive: DriveSpec,
    workers: int | None = None,
) -> SweepResult:
    """Optimised couplings versus film thickness at fixed plate_area/thickness.

    Each row rescales the reference design to a new plate separation d
    (keeping A/d, and with it the zero-bias capacitance, fixed), biases it
    at the optimum field E* of the working-point search, and records the
    couplings there alongside the zero-bias Kerr strength.  The swept
    variable must be ``plate_separation`` (values in metres).
    """
    if spec.variable != "plate_separation":
        raise ConfigurationError(
            f"geometry_sweep needs variable 'plate_separation', got {spec.variable!r}"
        )
    _check_workers(workers)
    area_ratio = design.plate_area / design.thickness
    # Keep the *field* window of the reference search fixed so the optimum
    # stays inside the trusted range as the film thickens.
    field_max = 0.25 / design.thickness

    def scaled(thickness: float) -> VaractorDesign:
        return replace(
            design,
            plate_area=area_ratio * thickness,
            thickness=thickness,
            v_max=design.v_max * thickness / design.thickness,
        )

    # With A/d fixed, C(v; d) = C(v/d) and |xi|(E; d) = f(E)/d, so every row
    # peaks at the same field E*.  One search on the thickest film, whose
    # voltage window is widest and so resolves E* finest, serves them all.
    points = spec.points()
    d_search = max(points)
    best = maximize_3wm(scaled(d_search), circuit, drive, v_range=(0.0, field_max * d_search))
    field_opt = best.v0_max / d_search

    def row(thickness: float) -> tuple[float, ...]:
        row_design = scaled(thickness)
        v0 = field_opt * thickness
        coeffs = operating_point(v0, drive, row_design, circuit)
        xi = abs(coeffs.xi)
        k_zero = kerr_strength(0.0, row_design, circuit)
        return (
            thickness * 1e9,
            v0 * 1e3,
            coeffs.omega0 / _TWO_PI / 1e9,
            xi / _TWO_PI / 1e6,
            k_zero / _TWO_PI,
            xi / k_zero,
        )

    return SweepResult(
        variable=spec.variable,
        columns=(
            "d_nm",
            "v0_max_mv",
            "f0_ghz",
            "xi_max_mhz",
            "keff_zero_hz",
            "xi_over_keff",
        ),
        rows=tuple(map(row, points)),
        metadata=_metadata(
            spec,
            area_per_thickness_m=repr(area_ratio),
            inductance_h=repr(circuit.inductance),
            q_ext=repr(circuit.q_ext),
            v_ac_v=repr(drive.v_ac),
        ),
    )
