"""Sectioned key-value configuration for the command-line tool.

The format is INI-style with ``#`` comments.  Keys carry their units in the
name (``thickness_nm``, ``v_ac_mv``) except in the ``[sweep]`` section,
whose ``min``/``max`` are interpreted in the natural display unit of the
swept variable: mV for ``bias_voltage``, V/um for ``bias_field``, nm for
``plate_separation``, and dimensionless for ``pump_ratio``.

Every command resolves the configuration fully (defaults applied, material
parameters expanded) and echoes the result into its output header, so any
output file doubles as a reproducible configuration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .material import MaterialParams, builtin_material
from .resonator import CircuitParams, DriveSpec
from .sweep import SweepSpec
from .varactor import VaractorDesign

__all__ = [
    "ToolConfig",
    "load_config",
    "effective_sections",
    "echo_lines",
    "config_text_from_output",
    "material_params",
    "varactor_design",
    "circuit_params",
    "drive_spec",
    "sweep_spec",
]

_MATERIAL_NUMERIC = (
    "eps00_rel",
    "curie_temp_k",
    "debye_temp_k",
    "renorm_field_v_per_um",
    "inhomogeneity",
    "loss_a1",
    "loss_a2",
    "loss_a3",
    "defect_density",
    "temperature_k",
)

_SCHEMA = {
    "material": ("name",) + _MATERIAL_NUMERIC,
    "geometry": ("area_um2", "thickness_nm"),
    "circuit": ("inductance_nh", "q_ext"),
    "drive": ("v_ac_mv", "theta_rad"),
    "sweep": ("variable", "min", "max", "count", "spacing"),
    "gain": ("xi_ratio", "count", "half_span_kappa"),
    "output": ("path", "format"),
}

# Display-unit-to-SI scale for the sweep bounds, keyed by swept variable.
_SWEEP_SCALE = {
    "bias_voltage": 1e-3,
    "bias_field": 1e6,
    "plate_separation": 1e-9,
    "pump_ratio": 1.0,
}

_DEFAULT_BIAS_SWEEP = {
    "variable": "bias_voltage",
    "min": 0.0,
    "max": 250.0,
    "count": 201,
    "spacing": "linear",
}
_DEFAULT_FIELD_SWEEP = {
    "variable": "bias_field",
    "min": 0.0,
    "max": 5.0,
    "count": 201,
    "spacing": "linear",
}
_DEFAULT_GAIN_RATIOS = (0.5, 0.9, 0.99)

# Config-key view of the built-in material tables.
_BUILTIN_KEYS = {
    name: {
        "eps00_rel": mat.eps00_rel,
        "curie_temp_k": mat.curie_temp,
        "debye_temp_k": mat.debye_temp,
        "renorm_field_v_per_um": mat.renorm_field / 1e6,
        "inhomogeneity": mat.inhomogeneity,
        "loss_a1": mat.a1,
        "loss_a2": mat.a2,
        "defect_density": mat.defect_density,
        "temperature_k": mat.temperature,
    }
    for name, mat in (("sto", builtin_material("sto")), ("kto", builtin_material("kto")))
}


@dataclass(frozen=True)
class ToolConfig:
    """Resolved configuration: section -> key -> typed value (display units).

    The ``sweep`` section is ``None`` when the user did not provide one;
    each command substitutes its own default (see `effective_sections`).
    """

    sections: dict

    @property
    def output_path(self) -> str:
        return self.sections["output"]["path"]


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"[{section}] {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _parse_ratio_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigurationError(f"[{section}] {key}: expected one or more numbers")
    values = tuple(_parse_float(section, key, p) for p in parts)
    if any(v < 0.0 for v in values):
        raise ConfigurationError(f"[{section}] {key}: ratios must be non-negative")
    return values


def _require_positive(section: str, key: str, value: float) -> float:
    if not value > 0.0:
        raise ConfigurationError(f"[{section}] {key}: must be positive, got {value}")
    return value


def _read_file(path: str) -> dict:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), strict=True
    )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path!r}: {exc}") from None
    raw = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        raw[section] = dict(parser.items(section))
    return raw


def _apply_overrides(raw: dict, overrides) -> None:
    for item in overrides:
        key_part, sep, value = item.partition("=")
        if not sep:
            raise ConfigurationError(f"override {item!r} is not of the form section.key=value")
        section, dot, key = key_part.strip().partition(".")
        if not dot:
            raise ConfigurationError(f"override {item!r} is not of the form section.key=value")
        raw.setdefault(section.strip(), {})[key.strip().lower()] = value.strip()


def _check_unknown_keys(raw: dict) -> None:
    for section, entries in raw.items():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in entries:
            if key not in _SCHEMA[section]:
                raise ConfigurationError(
                    f"unknown key [{section}] {key}; valid keys: {', '.join(_SCHEMA[section])}"
                )


def _resolve_material(entries: dict) -> dict:
    name = entries.get("name", "sto").lower()
    if name not in ("sto", "kto", "custom"):
        raise ConfigurationError(
            f"[material] name: must be 'sto', 'kto' or 'custom', got {name!r}"
        )
    resolved: dict = {"name": name}
    if name == "custom":
        base = {"defect_density": 0.0, "temperature_k": 0.01}
    else:
        base = dict(_BUILTIN_KEYS[name])
    for key in _MATERIAL_NUMERIC:
        if key in entries:
            resolved[key] = _parse_float("material", key, entries[key])
        elif key in base:
            resolved[key] = base[key]
        elif key == "loss_a3":
            pass  # optional: absent means "not characterised"
        else:
            raise ConfigurationError(f"[material] custom material requires key {key}")
    return resolved


def _resolve_sweep(entries: dict) -> dict:
    variable = entries.get("variable")
    if variable is None:
        raise ConfigurationError("[sweep] variable is required when the section is present")
    variable = variable.lower()
    if variable not in _SWEEP_SCALE:
        raise ConfigurationError(
            f"[sweep] variable: unknown value {variable!r}; "
            f"choose from {', '.join(_SWEEP_SCALE)}"
        )
    for key in ("min", "max", "count"):
        if key not in entries:
            raise ConfigurationError(f"[sweep] {key} is required when the section is present")
    return {
        "variable": variable,
        "min": _parse_float("sweep", "min", entries["min"]),
        "max": _parse_float("sweep", "max", entries["max"]),
        "count": _parse_int("sweep", "count", entries["count"]),
        "spacing": entries.get("spacing", "linear").lower(),
    }


def load_config(
    path: str | None = None,
    overrides=(),
    material: str | None = None,
    out_dir: str | None = None,
) -> ToolConfig:
    """Read, override, validate and resolve a tool configuration.

    ``material`` and ``out_dir`` mirror the ``--material`` / ``--out``
    command-line shortcuts and take precedence over the file; ``overrides``
    are ``section.key=value`` strings applied on top of the file.
    """
    raw = _read_file(path) if path is not None else {}
    if material is not None:
        raw.setdefault("material", {})["name"] = material
    _apply_overrides(raw, overrides)
    _check_unknown_keys(raw)

    geometry_raw = raw.get("geometry", {})
    circuit_raw = raw.get("circuit", {})
    drive_raw = raw.get("drive", {})
    gain_raw = raw.get("gain", {})
    output_raw = raw.get("output", {})

    sections = {
        "material": _resolve_material(raw.get("material", {})),
        "geometry": {
            "area_um2": _require_positive(
                "geometry",
                "area_um2",
                _parse_float("geometry", "area_um2", geometry_raw.get("area_um2", "16")),
            ),
            "thickness_nm": _require_positive(
                "geometry",
                "thickness_nm",
                _parse_float(
                    "geometry", "thickness_nm", geometry_raw.get("thickness_nm", "200")
                ),
            ),
        },
        "circuit": {
            "inductance_nh": _require_positive(
                "circuit",
                "inductance_nh",
                _parse_float(
                    "circuit", "inductance_nh", circuit_raw.get("inductance_nh", "0.5")
                ),
            ),
            "q_ext": _require_positive(
                "circuit", "q_ext", _parse_float("circuit", "q_ext", circuit_raw.get("q_ext", "100"))
            ),
        },
        "drive": {
            "v_ac_mv": _parse_float("drive", "v_ac_mv", drive_raw.get("v_ac_mv", "1")),
            "theta_rad": _parse_float("drive", "theta_rad", drive_raw.get("theta_rad", "0")),
        },
        "sweep": _resolve_sweep(raw["sweep"]) if "sweep" in raw else None,
        "gain": {
            "xi_ratio": (
                _parse_ratio_list("gain", "xi_ratio", gain_raw["xi_ratio"])
                if "xi_ratio" in gain_raw
                else None
            ),
            "count": _parse_int("gain", "count", gain_raw.get("count", "801")),
            "half_span_kappa": _parse_float(
                "gain", "half_span_kappa", gain_raw.get("half_span_kappa", "4")
            ),
        },
        "output": {
            "path": output_raw.get("path", "out"),
            "format": output_raw.get("format", "csv").lower(),
        },
    }
    if out_dir is not None:
        sections["output"]["path"] = out_dir
    if sections["output"]["format"] != "csv":
        raise ConfigurationError(
            f"[output] format: only 'csv' is supported, got {sections['output']['format']!r}"
        )
    # Fail fast on inconsistent physics parameters.
    material_params(sections)
    count = sections["gain"]["count"]
    if count < 3 or count % 2 == 0:
        # The gain grid needs a sample on the pumped center for its 3-dB width.
        raise ConfigurationError(f"[gain] count: must be odd and at least 3, got {count}")
    return ToolConfig(sections=sections)


def effective_sections(config: ToolConfig, command: str) -> dict:
    """Finalise the per-command view of the configuration (echo-ready).

    Fills the command's default sweep when none applies and resolves the
    gain ratios (from ``[gain] xi_ratio``, or a ``pump_ratio`` sweep, or the
    built-in default list).
    """
    sections = {name: dict(entries) for name, entries in config.sections.items() if entries}
    sweep = sections.get("sweep")

    if command == "material":
        if sweep is None or sweep["variable"] != "bias_field":
            sections["sweep"] = dict(_DEFAULT_FIELD_SWEEP)
    elif command == "sweep":
        if sweep is None:
            sections["sweep"] = dict(_DEFAULT_BIAS_SWEEP)
        elif sweep["variable"] not in ("bias_voltage", "plate_separation"):
            raise ConfigurationError(
                f"[sweep] variable {sweep['variable']!r} is not sweepable here: use the "
                "'material' command for bias_field and the 'gain' command for pump_ratio"
            )
    elif command in ("design", "gain"):
        ratios = sections["gain"]["xi_ratio"]
        if command == "gain" and ratios is None:
            if sweep is not None and sweep["variable"] == "pump_ratio":
                ratios = tuple(sweep_spec(sections).points())
            else:
                ratios = _DEFAULT_GAIN_RATIOS
            sections["gain"]["xi_ratio"] = ratios
        # The bias window for the working-point search.
        if sweep is None or sweep["variable"] != "bias_voltage":
            sections["sweep"] = dict(_DEFAULT_BIAS_SWEEP)
    else:
        raise ValueError(f"unknown command {command!r}")

    if sections["gain"]["xi_ratio"] is None:
        sections["gain"]["xi_ratio"] = _DEFAULT_GAIN_RATIOS
    return sections


def material_params(sections: dict) -> MaterialParams:
    m = sections["material"]
    return MaterialParams(
        eps00_rel=m["eps00_rel"],
        curie_temp=m["curie_temp_k"],
        debye_temp=m["debye_temp_k"],
        renorm_field=m["renorm_field_v_per_um"] * 1e6,
        inhomogeneity=m["inhomogeneity"],
        a1=m["loss_a1"],
        a2=m["loss_a2"],
        a3=m.get("loss_a3"),
        defect_density=m["defect_density"],
        temperature=m["temperature_k"],
    )


def varactor_design(sections: dict) -> VaractorDesign:
    g = sections["geometry"]
    return VaractorDesign(
        plate_area=g["area_um2"] * 1e-12,
        thickness=g["thickness_nm"] * 1e-9,
        material=material_params(sections),
    )


def circuit_params(sections: dict) -> CircuitParams:
    c = sections["circuit"]
    return CircuitParams(inductance=c["inductance_nh"] * 1e-9, q_ext=c["q_ext"])


def drive_spec(sections: dict) -> DriveSpec:
    d = sections["drive"]
    return DriveSpec(v_ac=d["v_ac_mv"] * 1e-3, theta=d["theta_rad"])


def sweep_spec(sections: dict) -> SweepSpec:
    s = sections["sweep"]
    scale = _SWEEP_SCALE[s["variable"]]
    return SweepSpec(
        variable=s["variable"],
        start=s["min"] * scale,
        stop=s["max"] * scale,
        count=s["count"],
        spacing=s["spacing"],
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        raise TypeError("unexpected bool in config")
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    return str(value)


def echo_lines(sections: dict) -> list[str]:
    """Render the resolved config as INI lines (deterministic order)."""
    lines = []
    for section in _SCHEMA:
        entries = sections.get(section)
        if not entries:
            continue
        lines.append(f"[{section}]")
        for key in _SCHEMA[section]:
            if key in entries and entries[key] is not None:
                lines.append(f"{key} = {_format_value(entries[key])}")
        lines.append("")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def config_text_from_output(path: str) -> str:
    """Recover the echoed configuration from an output file's comment header."""
    lines = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("#"):
                break
            text = line[1:].strip()
            if text.startswith("qpamp "):
                continue  # banner
            lines.append(text)
    return "\n".join(lines) + "\n"
