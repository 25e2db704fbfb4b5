"""Parameter sweeps and the working-point optimiser.

Every sweep produces a `SweepResult`: an ordered, column-labelled table of
floats, ready for CSV serialisation.  `bias_sweep` computes the bias table by
column, from one array evaluation of `resonator.operating_point`, and is the
only sweep that loads numpy; `_bias_rows`, behind ``qpamp sweep``, computes its
columns, `_bias_columns`, on Python floats, which overflow to the same cells.
Bias-field rows are one scalar `material.dielectric_response` each, and
plate-separation rows follow from one working-point record through the exact
scaling laws at fixed plate_area/thickness.
Sweeps run on the calling thread.  Only `bias_sweep` takes ``workers`` (None
or a positive integer), and it starts no threads.

The working-point search defaults to the bias window `_SEARCH_WINDOW_V`,
0-250 mV.  The plate-separation table searches the fields of that window on
the configured film, up to 250 mV over its thickness (1.25 V/um at 200 nm),
whatever thicknesses it sweeps.  No option or config key widens that window;
a table whose optimum sits on its edge says so in ``on_window_edge``, and
``qpamp sweep`` warns.

Column values are in display units (mV, pF, GHz, MHz, Hz, dB) as indicated
by the column names; everything inside the physics modules stays SI.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .amplifier import _TWO_PI, _decibels, _linspace
from .errors import ConfigurationError, NumericalError, _one_of, _Record
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

# Swept variable -> (SI value of its display unit, display unit), as its tables and config use.
_SWEEP_UNITS = {
    "bias_voltage": (1e-3, "mV"),
    "bias_field": (1e6, "V/um"),
    "plate_separation": (1e-9, "nm"),
    "pump_ratio": (1.0, ""),
}
SWEEP_VARIABLES = tuple(_SWEEP_UNITS)
_SPACINGS = ("linear", "log")

# The default bias window [V] of the working-point search; `config` echoes it in mV.
_SEARCH_WINDOW_V = (0.0, 0.25)


class SweepSpec(_Record):
    """One swept variable over [start, stop] with count points.

    A single-point sweep (count = 1, taken at ``start``) is allowed as a
    degenerate case; otherwise ``start < stop`` is required.  Log spacing
    and a plate separation need a strictly positive start, a pump ratio a
    non-negative one.
    """

    variable: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def _check(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigurationError(f"sweep 'variable' {_one_of(SWEEP_VARIABLES, self.variable)}")
        for name in ("start", "stop"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"sweep {name!r} must be finite")
        if self.spacing not in _SPACINGS:
            raise ConfigurationError(f"sweep 'spacing' {_one_of(_SPACINGS, self.spacing)}")
        if not isinstance(self.count, int) or self.count < 1:
            raise ConfigurationError("sweep 'count' must be >= 1")
        if self.count > 1 and not self.start < self.stop:
            raise ConfigurationError("range is empty: 'start' must be < 'stop'")
        if self.spacing == "log" and self.start <= 0.0:
            raise ConfigurationError("sweep 'start' must be > 0 for log spacing")
        if self.variable == "plate_separation" and self.start <= 0.0:
            raise ConfigurationError("sweep 'start' must be > 0 for plate_separation")
        if self.variable == "pump_ratio" and self.start < 0.0:
            raise ConfigurationError("sweep 'start' must be >= 0 for pump_ratio")

    def points(self) -> list[float]:
        """The swept values, ends exact; log points are np.geomspace's 10**x over log10 ends."""
        if self.count == 1:
            return [self.start]
        if self.spacing == "linear":
            return _linspace(self.start, self.stop, self.count)
        exponents = _linspace(math.log10(self.start), math.log10(self.stop), self.count)
        return [self.start, *(10.0**x for x in exponents[1:-1]), self.stop]


class SweepResult(NamedTuple):
    """Ordered, column-labelled table of sweep rows; ``on_window_edge`` is the
    `Optimum.on_window_edge` of the search that a `geometry_sweep` table rests on."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    on_window_edge: bool = False

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


class Optimum(NamedTuple):
    """Result of the three-wave working-point search.

    ``on_window_edge`` is true when ``v0_max`` lies within the search
    resolution (1 microvolt) of either end of the search window: |xi| may
    then keep growing outside it.
    """

    v0_max: float
    xi_max: float
    on_window_edge: bool


def default_workers() -> int:
    """The number of threads a sweep runs on: 1, the calling thread."""
    return 1


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
    the oscillation threshold get NaN there.  Overflow and 0/0 give non-finite
    cells, not warnings; one in any other column raises `NumericalError`.
    """
    if spec.variable != "bias_voltage":
        raise ConfigurationError(f"bias_sweep needs variable 'bias_voltage', got {spec.variable!r}")
    if workers is not None and not (isinstance(workers, int) and workers >= 1):
        raise ConfigurationError(f"workers must be None or a positive integer, got {workers!r}")
    import numpy as np

    v0 = np.array(spec.points())
    with np.errstate(all="ignore"):
        columns = _bias_columns(v0, operating_point(v0, drive, design, circuit))
    return _bias_table({name: values.tolist() for name, values in columns.items()})


def _bias_rows(spec: SweepSpec, design, circuit, drive) -> SweepResult:
    """`bias_sweep`'s table on floats, one working-point record per bias; no numpy."""
    rows = [_bias_columns(v, operating_point(v, drive, design, circuit)) for v in spec.points()]
    return _bias_table({name: [row[name] for row in rows] for name in rows[0]})


def _bias_columns(v0, point) -> dict:
    """The bias table's columns at a float bias or an array of them, from their record."""
    xi = abs(point.xi)
    half_kappa = (point.kappa_int + point.kappa_ext) / 2.0
    # R + 1 at the pumped centre, with no square; NaN at or beyond threshold (gap <= 0 or NaN).
    gap = half_kappa - xi
    if isinstance(gap, float):
        centre = point.kappa_ext / (half_kappa + xi) * (half_kappa / gap) if gap > 0.0 else math.nan
    else:
        centre = point.kappa_ext / (half_kappa + xi) * (half_kappa / gap)
        centre[~(gap > 0.0)] = math.nan
    return {
        "v0_mv": v0 * 1e3,
        "eps_r": point.eps_rel,
        "tan_delta": point.loss_tangent,
        "c_pf": point.c * 1e12,
        "f0_ghz": point.omega0 / _TWO_PI / 1e9,
        "xi_mhz": xi / _TWO_PI / 1e6,
        "keff_hz": point.k_eff / _TWO_PI,
        "kappa_int_mhz": point.kappa_int / _TWO_PI / 1e6,
        "kappa_ext_mhz": point.kappa_ext / _TWO_PI / 1e6,
        "peak_gain_db": _decibels(abs(centre - 1.0)),
    }


def _bias_table(columns: dict) -> SweepResult:
    """The bias table from its columns as lists of floats; checks every column but the last."""
    names = tuple(columns)
    for name in names[:-1]:  # a finite sum has finite terms; other sums need each term read
        if not math.isfinite(sum(columns[name])) and not all(map(math.isfinite, columns[name])):
            raise NumericalError(f"bias sweep column {name!r} is not finite")
    # NaN cells are math.nan itself, so that equal tables have equal rows.
    columns[names[-1]] = [g if g == g else math.nan for g in columns[names[-1]]]
    return SweepResult(columns=names, rows=tuple(zip(*columns.values())))


def dielectric_sweep(material: MaterialParams, spec: SweepSpec) -> SweepResult:
    """Permittivity and loss budget versus bias field (sweep values in V/m)."""
    if spec.variable != "bias_field":
        raise ConfigurationError(
            f"dielectric_sweep needs variable 'bias_field', got {spec.variable!r}"
        )

    def row(field: float) -> tuple[float, ...]:
        r = dielectric_response(field, material)
        return (field / 1e6, r.eps_rel, r.loss_tangent, r.tan_delta_1, r.tan_delta_2, r.tan_delta_3)

    return SweepResult(
        columns=("E_V_per_um", "eps_r", "tan_delta", "tan_delta_1", "tan_delta_2", "tan_delta_3"),
        rows=tuple(map(row, spec.points())),
    )


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 241
_XTOL = 1e-6  # volts


def _golden_max(func: Callable[[float], float], a: float, b: float):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = func(c), func(d)
    # Also stop once rounding leaves no probe strictly inside (doubles > _XTOL apart).
    while (b - a) > _XTOL and a < c < d < b:
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
    v_range: tuple[float, float] = _SEARCH_WINDOW_V,
) -> Optimum:
    """Find the bias that maximises |xi|: coarse grid scan + golden-section refine.

    The grid has 241 points; the golden-section stage narrows the best
    bracket down to 1 microvolt.  A flat objective (zero pump amplitude, or
    a |xi| that underflows to zero for the design) or a non-finite |xi| on
    the grid raises `NumericalError`.
    """
    lo, hi = v_range
    if not lo < hi:
        raise ConfigurationError(f"search range is empty: {v_range}")

    def objective(v0: float) -> float:
        return abs(three_wave_strength(v0, drive, design, circuit))

    grid = _linspace(lo, hi, _GRID_POINTS)
    values = [objective(v) for v in grid]
    # max() passes over a NaN, so the grid is checked first; ties keep the first maximum.
    if not all(map(math.isfinite, values)):
        raise NumericalError(f"three-wave strength is not finite on the search grid {v_range}")
    i_best = max(range(_GRID_POINTS), key=values.__getitem__)
    if values[i_best] == 0.0:
        if drive.v_ac > 0.0:
            raise NumericalError(f"|xi| underflows to zero for this design on the grid {v_range}")
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
) -> SweepResult:
    """Optimised couplings versus film thickness at fixed plate_area/thickness.

    At fixed A/d, C(v; d) depends on v/d only: every film thickness d peaks at
    the same bias field E* with the same mode frequency, and |xi| and the
    zero-bias K_eff scale as 1/d and 1/d**2 exactly.  So one search on the
    thickest film finds E*, and that film's working-point record and zero-bias
    Kerr strength give every row through those laws; ``on_window_edge`` is the
    search's.  The swept variable must be ``plate_separation`` (values in metres).
    """
    if spec.variable != "plate_separation":
        raise ConfigurationError(
            f"geometry_sweep needs variable 'plate_separation', got {spec.variable!r}"
        )
    points = spec.points()
    # The thickest film has the widest voltage window, so it resolves E* finest.  The
    # reference design's *field* window is kept, so E* stays inside the trusted range.
    d_search = max(points)
    search = design._replace(
        plate_area=design.plate_area / design.thickness * d_search,
        thickness=d_search,
        v_max=design.v_max * d_search / design.thickness,
    )
    window = tuple(v / design.thickness * d_search for v in _SEARCH_WINDOW_V)
    best = maximize_3wm(search, circuit, drive, v_range=window)
    field_opt = best.v0_max / d_search
    point = operating_point(best.v0_max, drive, search, circuit)
    f0_ghz, xi = point.omega0 / _TWO_PI / 1e9, abs(point.xi)
    k_zero = kerr_strength(0.0, search, circuit)

    def row(thickness: float) -> tuple[float, ...]:
        r = d_search / thickness
        xi_row, k_row = xi * r, k_zero * r * r
        return (
            thickness * 1e9,
            field_opt * thickness * 1e3,
            f0_ghz,
            xi_row / _TWO_PI / 1e6,
            k_row / _TWO_PI,
            # An underflowed K_eff gives inf, or NaN where |xi| underflowed too.
            xi_row / k_row if k_row else xi_row * math.inf,
        )

    return SweepResult(
        columns=("d_nm", "v0_max_mv", "f0_ghz", "xi_max_mhz", "keff_zero_hz", "xi_over_keff"),
        rows=tuple(map(row, points)),
        on_window_edge=best.on_window_edge,
    )
