"""Seeded inputs, operations and output checks of the three workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked.  Inputs come only from
``random.Random(seed)``; the program sees nothing but the generated values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Workload name -> why it is in the benchmark.
WORKLOADS = {
    "cli_cold": "a fresh `python -m qpamp.cli` process per operation: what a "
    "command-line user waits for, dominated by importing numpy and scipy",
    "design_sweep": "the warm in-process design loop (optimiser, couplings, gain "
    "profiles, bias and geometry sweeps): the scalar material -> varactor -> "
    "resonator derivative chain and the sweep thread pool",
    "charge_inversion": "the varactor's charge, energy and inverse through quad "
    "and brentq, a path the derivative chain does not take",
}

TWO_PI = 2.0 * math.pi

# The reference design of the README and the config defaults, in the CLI's
# display units.
REFERENCE = {
    "area_um2": 16.0,
    "thickness_nm": 200.0,
    "inductance_nh": 0.5,
    "q_ext": 100.0,
    "v_ac_mv": 1.0,
}
MATERIALS = ("sto", "kto")

# Ranges of the seeded draws.  Where the repo documents a range, a draw stays
# inside it; where it documents only the reference value, a draw spans a
# factor of 2 around it.  NOTES.md ("Input ranges") gives the source of each.
# It also shows that the call counts of a design_sweep operation hardly move
# within these ranges, while a charge operation's cost grows with its bias
# and shrinks with thickness, which is why both are stratified.
THICKNESS_NM = (100.0, 400.0)  # >= the 100 nm of the geometry-sweep tests; 200 nm x/ 2
AREA_UM2 = (8.0, 32.0)  # 16 um^2 x/ 2
INDUCTANCE_NH = (0.25, 1.0)  # 0.5 nH x/ 2
Q_EXT = (50.0, 200.0)  # 100 x/ 2
V_AC_MV = (0.25, 1.0)  # the pumps of the CLI tests (0.25 mV) and the default (1 mV)
BIAS_MAGNITUDE_V = (1e-3, 0.25)  # the varactor tests' biases: 1 mV up to the 250 mV window
PUMP_RATIO_RANGE = (0.2, 0.99)  # the CLI tests' 0.2 up to the default's 0.99

# The CLI defaults the in-process design loop runs with.
PUMP_RATIOS = (0.5, 0.9, 0.99)
GAIN_COUNT = 801
BIAS_WINDOW_V = (0.0, 0.25)
BIAS_COUNT = 201
# The plate-separation span of the geometry-sweep tests.
GEOMETRY_SPAN_NM = (100.0, 100000.0)
GEOMETRY_COUNT = 12
NEIGHBOUR_V = 10e-6
DESIGN_POOL = 8
CHARGE_POOL = 128  # 64 operations, so that latency_p90_s samples the cost mix (NOTES.md)
BIASES_PER_DESIGN = 3


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """One log-uniform draw from each of `count` equal log-bins of [lo, hi], shuffled.

    Stratifying keeps the cost mix of a pool nearly the same for every seed.
    """
    step = (math.log(hi) - math.log(lo)) / count
    values = [math.exp(math.log(lo) + (k + rng.random()) * step) for k in range(count)]
    rng.shuffle(values)
    return values


def draw_params(rng: random.Random, thickness_nm: float | None = None) -> dict:
    """One seeded design in display units (same keys as `REFERENCE`)."""
    return {
        "area_um2": _log_uniform(rng, *AREA_UM2),
        "thickness_nm": thickness_nm or _log_uniform(rng, *THICKNESS_NM),
        "inductance_nh": _log_uniform(rng, *INDUCTANCE_NH),
        "q_ext": _log_uniform(rng, *Q_EXT),
        "v_ac_mv": _log_uniform(rng, *V_AC_MV),
    }


def draw_biases(rng: random.Random, count: int) -> list:
    """Biases with random signs, magnitudes one per equal bin of BIAS_MAGNITUDE_V.

    A charge operation's cost grows with |v|, so stratifying keeps the cost
    mix of a pool nearly the same for every seed.
    """
    lo, hi = BIAS_MAGNITUDE_V
    step = (hi - lo) / count
    magnitudes = [lo + (k + rng.random()) * step for k in range(count)]
    rng.shuffle(magnitudes)
    return [rng.choice((-1.0, 1.0)) * v for v in magnitudes]


@dataclass
class DesignInput:
    material: str
    params: dict
    reference: bool
    biases: list = field(default_factory=list)


def design_inputs(seed: int, size: int, with_biases: bool = False) -> list:
    """Reference STO and KTO designs followed by seeded ones, materials alternating."""
    rng = random.Random(seed)
    items = [DesignInput(name, dict(REFERENCE), True) for name in MATERIALS]
    for thickness in _strata(rng, *THICKNESS_NM, size - len(items)):
        items.append(DesignInput(MATERIALS[len(items) % 2], draw_params(rng, thickness), False))
    if with_biases:
        for item in items:
            item.biases = draw_biases(rng, BIASES_PER_DESIGN)
    return items


# ---------------------------------------------------------------------------
# In-process workloads


class Program:
    """The qpamp modules, looked up by attribute at call time.

    Calling ``self.sweep.maximize_3wm`` rather than a name bound at import
    time is what lets the tracer's wrappers see the call.
    """

    def __init__(self):
        import qpamp.amplifier
        import qpamp.material
        import qpamp.resonator
        import qpamp.sweep
        import qpamp.varactor

        self.material = qpamp.material
        self.varactor = qpamp.varactor
        self.resonator = qpamp.resonator
        self.amplifier = qpamp.amplifier
        self.sweep = qpamp.sweep

    def objects(self, item: DesignInput):
        """(design, circuit, drive) in SI units, converted as the CLI does."""
        p = item.params
        design = self.varactor.VaractorDesign(
            plate_area=p["area_um2"] * 1e-12,
            thickness=p["thickness_nm"] * 1e-9,
            material=self.material.builtin_material(item.material),
        )
        circuit = self.resonator.CircuitParams(
            inductance=p["inductance_nh"] * 1e-9, q_ext=p["q_ext"]
        )
        drive = self.resonator.DriveSpec(v_ac=p["v_ac_mv"] * 1e-3)
        return design, circuit, drive


@dataclass
class DesignCase:
    item: DesignInput
    design: object
    circuit: object
    drive: object
    bias_spec: object
    geometry_spec: object


def design_cases(program: Program, seed: int) -> list:
    cases = []
    for item in design_inputs(seed, DESIGN_POOL):
        design, circuit, drive = program.objects(item)
        cases.append(
            DesignCase(
                item,
                design,
                circuit,
                drive,
                program.sweep.SweepSpec("bias_voltage", *BIAS_WINDOW_V, BIAS_COUNT),
                program.sweep.SweepSpec(
                    "plate_separation", *(d * 1e-9 for d in GEOMETRY_SPAN_NM), GEOMETRY_COUNT, "log"
                ),
            )
        )
    return cases


def run_design(program: Program, case: DesignCase) -> dict:
    """One design_sweep operation: the full in-process design chain."""
    sweep, resonator, amplifier = program.sweep, program.resonator, program.amplifier
    design, circuit, drive = case.design, case.circuit, case.drive
    best = sweep.maximize_3wm(design, circuit, drive)
    coeffs = resonator.operating_point(best.v0_max, drive, design, circuit)
    rates = amplifier.rate_budget(best.v0_max, design, circuit)
    comp = amplifier.compression_estimate(coeffs.k_eff, rates)
    grid = amplifier.GridSpec(count=GAIN_COUNT)
    profiles = [
        amplifier.profile_from_rates(rates, ratio * rates.kappa / 2.0, grid)
        for ratio in PUMP_RATIOS
    ]
    bias = sweep.bias_sweep(case.bias_spec, design, circuit, drive)
    geometry = sweep.geometry_sweep(case.geometry_spec, design, circuit, drive)
    return {
        "best": best,
        "coeffs": coeffs,
        "rates": rates,
        "comp": comp,
        "profiles": profiles,
        "bias": bias,
        "geometry": geometry,
    }


def _close(value: float, target: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - target) <= max(rel * abs(target), abs_)


def check_headline(values: dict, material: str, pinned: dict) -> list:
    """Compare design.kv-unit headline values with the pinned ones."""
    failures = []
    for key, entry in pinned["headline"][material].items():
        got = values.get(key)
        if got is None or not _close(got, entry["value"], 0.0, entry["abs_tol"]):
            failures.append(f"{material} {key} = {got!r}, pinned {entry['value']!r} +- {entry['abs_tol']:.3g}")
    return failures


def optimum_tolerance(thickness: float, pinned: dict) -> float:
    """Allowed |v0_max - E* d|: the search's own accuracy, at d and at the reference."""
    return pinned["v0_tol_v"] * (1.0 + thickness / (REFERENCE["thickness_nm"] * 1e-9))


def _reflection(dw: float, xi: float, kappa_int: float, kappa_ext: float) -> complex:
    # Degenerate-amplifier reflection at zero detuning, from its definition.
    half = (kappa_int + kappa_ext) / 2.0
    return (kappa_ext * half + 1j * kappa_ext * dw) / ((half + 1j * dw) ** 2 - xi * xi) - 1.0


def _finite_table(table, nan_ok=("peak_gain_db",)) -> bool:
    allowed = [name in nan_ok for name in table.columns]
    return all(
        math.isfinite(v) or (ok and math.isnan(v))
        for row in table.rows
        for v, ok in zip(row, allowed)
    )


def check_design(program: Program, case: DesignCase, out: dict, pinned: dict) -> list:
    failures = []
    item, design = case.item, case.design
    best, coeffs, rates, comp = out["best"], out["coeffs"], out["rates"], out["comp"]
    xi = abs(coeffs.xi)
    if item.reference:
        values = {
            "v0_max_mv": best.v0_max * 1e3,
            "xi_mhz": xi / TWO_PI / 1e6,
            "f0_ghz": coeffs.omega0 / TWO_PI / 1e9,
            "kappa_int_mhz": rates.kappa_int / TWO_PI / 1e6,
            "kappa_ext_mhz": rates.kappa_ext / TWO_PI / 1e6,
            "keff_hz": coeffs.k_eff / TWO_PI,
            "p_circ_dbm": comp.p_dbm_ordinary,
        }
        failures += check_headline(values, item.material, pinned)

    # The optimum field E* = v0/d depends only on the material.
    e_star = pinned["optimum_field_v_per_m"][item.material]
    if not _close(best.v0_max, e_star * design.thickness, 0.0, optimum_tolerance(design.thickness, pinned)):
        failures.append(f"v0_max {best.v0_max!r} V off E* d = {e_star * design.thickness!r} V")
    for dv in (-NEIGHBOUR_V, NEIGHBOUR_V):
        near = abs(program.resonator.three_wave_strength(best.v0_max + dv, case.drive, design, case.circuit))
        if not near <= best.xi_max:
            failures.append(f"|xi| at v0{dv:+.0e} V beats the optimum")
    if not _close(xi, best.xi_max, 1e-9):
        failures.append("operating-point |xi| differs from the optimum's")
    if not _close(rates.kappa_ext, coeffs.omega0 / case.circuit.q_ext, 1e-12) or not rates.kappa_int > 0.0:
        failures.append("rate budget inconsistent with omega0 / q_ext")
    if not _close(comp.n_photons, rates.kappa / coeffs.k_eff, 1e-12) or not math.isfinite(comp.p_dbm_ordinary):
        failures.append("compression estimate inconsistent")

    for ratio, profile in zip(PUMP_RATIOS, out["profiles"]):
        x = ratio * rates.kappa / 2.0
        dw = profile.frequencies - rates.omega_p / 2.0
        power = abs(_reflection(dw, x, rates.kappa_int, rates.kappa_ext)) ** 2
        peak = float(power.max())
        if len(dw) != GAIN_COUNT or not _close(profile.peak_gain_db, 10.0 * math.log10(peak), 0.0, 1e-6):
            failures.append(f"ratio {ratio}: peak gain {profile.peak_gain_db!r} dB, expected {10 * math.log10(peak)!r}")
        if math.isnan(profile.bandwidth):
            # Documented NaN: the curve does not peak at the pumped centre or
            # has no 3-dB point inside the sampled span.
            if power.argmax() == GAIN_COUNT // 2 and power[-1] < peak / 2.0:
                failures.append(f"ratio {ratio}: NaN bandwidth although the span has a 3-dB point")
        else:
            half = abs(_reflection(profile.bandwidth / 2.0, x, rates.kappa_int, rates.kappa_ext)) ** 2
            if not _close(half, peak / 2.0, 1e-3):
                failures.append(f"ratio {ratio}: power at bandwidth/2 is {half / peak:.6g} of peak")

    bias = out["bias"]
    eps = bias.column("eps_r")
    if len(bias.rows) != BIAS_COUNT or not _finite_table(bias):
        failures.append("bias sweep: wrong row count or non-finite cell")
    elif bias.column("xi_mhz")[0] != 0.0 or any(b >= a for a, b in zip(eps, eps[1:])):
        failures.append("bias sweep: xi(0) != 0 or eps_r not decreasing with bias")

    geometry = out["geometry"]
    if len(geometry.rows) != GEOMETRY_COUNT or not _finite_table(geometry):
        failures.append("geometry sweep: wrong row count or non-finite cell")
    else:
        for d_nm, v0_mv in zip(geometry.column("d_nm"), geometry.column("v0_max_mv")):
            d = d_nm * 1e-9
            if not _close(v0_mv * 1e-3, e_star * d, 0.0, optimum_tolerance(d, pinned)):
                failures.append(f"geometry sweep: v0_max at {d_nm:.4g} nm off E* d")
                break
    return failures


@dataclass
class ChargeCase:
    # One STO and one KTO design: an STO design costs about twice a KTO one,
    # and pairing them keeps the latency distribution unimodal, so its
    # median does not jump between two modes from run to run.
    pair: list  # [(DesignInput, VaractorDesign), ...]


def charge_cases(program: Program, seed: int) -> list:
    items = design_inputs(seed, CHARGE_POOL, with_biases=True)
    designs = [(item, program.objects(item)[0]) for item in items]
    return [ChargeCase(designs[k : k + 2]) for k in range(0, len(designs), 2)]


def run_charge(program: Program, case: ChargeCase) -> list:
    """One charge_inversion operation: charge, energy, inverse, expansion per bias."""
    varactor = program.varactor
    out = []
    for item, design in case.pair:
        for v in item.biases:
            q = varactor.charge(v, design)
            u = varactor.energy(v, design)
            back = varactor.voltage_from_charge(q, design)
            point = varactor.energy_and_derivatives(v, design)
            out.append((design, v, q, u, back, point))
    return out


def _stencil(func, v: float, h: float) -> tuple:
    """Fourth-order central difference of func at v, and the sum |f_i| it used."""
    f = [func(v + k * h) for k in (-2, -1, 1, 2)]
    return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h), sum(map(abs, f))


def check_charge(program: Program, case: ChargeCase, out: list, pinned: dict) -> list:
    failures = []
    varactor = program.varactor
    rtol = pinned["quad_rtol"]
    for design, v, q, u, back, point in out:
        if not abs(back - v) <= pinned["round_trip_v"]:
            failures.append(f"v={v!r}: voltage_from_charge(charge(v)) = {back!r}")
        c = varactor.capacitance(v, design)
        h = 1e-3 * abs(v)
        # dq/dv = C(v) and dU/dv = v C(v); the stencil amplifies the
        # quadrature's relative error by about (sum |f_i|) / (12 h).
        for what, func, target in (
            ("dq/dv", lambda x: varactor.charge(x, design), c),
            ("dU/dv", lambda x: varactor.energy(x, design), v * c),
        ):
            slope, mass = _stencil(func, v, h)
            tol = pinned["stencil_rel"] * abs(target) + 2.0 * rtol * mass / (12.0 * h)
            if not abs(slope - target) <= tol:
                failures.append(f"v={v!r}: {what} {slope!r} vs {target!r}")
        if not (
            _close(point.charge, q, 1e-12)
            and _close(point.energy, u, 1e-12)
            and _close(point.capacitance, c, 1e-12)
            and _close(point.u2, 1.0 / c, 1e-12)
        ):
            failures.append(f"v={v!r}: energy_and_derivatives disagrees with charge/energy/C")
    return failures


# ---------------------------------------------------------------------------
# Cold command-line workload


# An even mix of the four commands: ROADMAP.md takes the end-to-end time to
# be that of a cold `qpamp material|design|gain|sweep` process, and nothing
# in the repo weights one command above another.
CLI_COMMANDS = ("material", "design", "gain", "sweep")
CLI_OUTPUT = {"material": "material.csv", "design": "design.kv", "gain": "gain.csv", "sweep": "sweep.csv"}
CLI_POOL_BLOCKS = 2
DESIGN_KV_KEYS = 17
# Windows and point counts of the seeded commands: a factor of 2 around the
# CLI defaults (0-5 V/um and 201 points for `material`, 801 points for
# `gain`, 201 points for `sweep`), with the bias window kept inside the
# default 250 mV, and the plate-separation span and row counts of the
# geometry-sweep tests.
MATERIAL_FIELD_MAX_V_PER_UM = (2.5, 10.0)
TABLE_COUNT = (101, 402)  # randrange bounds
GAIN_HALF_COUNT = (200, 801)  # gain.count = 2 k + 1
SWEEP_BIAS_MAX_MV = (125.0, 250.0)
GEOMETRY_ROWS = (5, 15)  # randrange bounds


@dataclass
class CliOp:
    command: str
    material: str
    args: list
    ini: str | None
    expect_rows: int
    reference: bool


def _overrides(params: dict) -> list:
    keys = {
        "area_um2": "geometry.area_um2",
        "thickness_nm": "geometry.thickness_nm",
        "inductance_nh": "circuit.inductance_nh",
        "q_ext": "circuit.q_ext",
        "v_ac_mv": "drive.v_ac_mv",
    }
    args = []
    for name, key in keys.items():
        args += ["--override", f"{key}={params[name]!r}"]
    return args


def _ini(material: str, params: dict, sweep: dict) -> str:
    lines = [
        "[material]", f"name = {material}",
        "[geometry]", f"area_um2 = {params['area_um2']!r}", f"thickness_nm = {params['thickness_nm']!r}",
        "[circuit]", f"inductance_nh = {params['inductance_nh']!r}", f"q_ext = {params['q_ext']!r}",
        "[drive]", f"v_ac_mv = {params['v_ac_mv']!r}",
        "[sweep]",
    ]
    lines += [f"{key} = {value}" for key, value in sweep.items()]
    return "\n".join(lines) + "\n"


def cli_ops(seed: int) -> list:
    """Blocks of the four commands, two ops per material per block.

    The ``design`` ops run the reference STO and KTO designs so that their
    design.kv is checked against the pinned headline values; the others get
    seeded overrides (``material``, ``gain``) or a seeded INI file (``sweep``).
    """
    rng = random.Random(seed)
    ops = []
    for block in range(CLI_POOL_BLOCKS):
        commands = list(CLI_COMMANDS)
        rng.shuffle(commands)
        materials = list(MATERIALS * 2)
        rng.shuffle(materials)
        for command, material in zip(commands, materials):
            params = draw_params(rng)
            if command == "design":
                material = MATERIALS[block % 2]
                ops.append(CliOp(command, material, ["--material", material], None, DESIGN_KV_KEYS, True))
            elif command == "material":
                count = rng.randrange(*TABLE_COUNT)
                field_max = rng.uniform(*MATERIAL_FIELD_MAX_V_PER_UM)
                args = ["--material", material, "--override", "sweep.variable=bias_field",
                        "--override", "sweep.min=0", "--override", f"sweep.max={field_max!r}",
                        "--override", f"sweep.count={count}"]
                ops.append(CliOp(command, material, args, None, count, False))
            elif command == "gain":
                ratios = sorted(rng.uniform(*PUMP_RATIO_RANGE) for _ in range(3))
                count = 2 * rng.randrange(*GAIN_HALF_COUNT) + 1
                args = ["--material", material] + _overrides(params) + [
                    "--override", "gain.xi_ratio=" + ",".join(repr(r) for r in ratios),
                    "--override", f"gain.count={count}"]
                ops.append(CliOp(command, material, args, None, len(ratios) * count, False))
            else:
                if block % 2 == 0:
                    count = rng.randrange(*TABLE_COUNT)
                    sweep = {"variable": "bias_voltage", "min": 0, "max": repr(rng.uniform(*SWEEP_BIAS_MAX_MV)),
                             "count": count}
                else:
                    count = rng.randrange(*GEOMETRY_ROWS)
                    sweep = {"variable": "plate_separation", "min": repr(GEOMETRY_SPAN_NM[0]),
                             "max": repr(GEOMETRY_SPAN_NM[1]), "count": count, "spacing": "log"}
                ops.append(CliOp(command, material, [], _ini(material, params, sweep), count, False))
    return ops


def _read_table(path: Path) -> tuple:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]


def check_cli(op: CliOp, out_dir: Path, pinned: dict) -> list:
    """Row count, finiteness and (for reference designs) pinned values."""
    path = out_dir / CLI_OUTPUT[op.command]
    try:
        if op.command == "design":
            values = {}
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.startswith("#"):
                    continue
                key, _, raw = line.partition(" = ")
                values[key] = raw if key == "material" else float(raw)
            failures = []
            if len(values) != op.expect_rows or values.get("material") != op.material:
                failures.append(f"design.kv has {len(values)} keys for {values.get('material')!r}")
            if not all(math.isfinite(v) for k, v in values.items() if k != "material"):
                failures.append("design.kv has a non-finite value")
            if op.reference:
                failures += check_headline(values, op.material, pinned)
            return failures
        columns, rows = _read_table(path)
    except (OSError, ValueError) as exc:
        return [f"{op.command}: unreadable output: {exc}"]
    nan_ok = [name == "peak_gain_db" for name in columns]
    if len(rows) != op.expect_rows:
        return [f"{op.command}: {len(rows)} rows, expected {op.expect_rows}"]
    if not all(len(row) == len(columns) for row in rows) or not all(
        math.isfinite(v) or (ok and math.isnan(v)) for row in rows for v, ok in zip(row, nan_ok)
    ):
        return [f"{op.command}: ragged row or non-finite cell"]
    return []
