"""Sectioned key-value configuration for the command-line tool.

The format is INI-style with ``#`` comments.  Keys carry their units in the
name (``thickness_nm``, ``v_ac_mv``) except in the ``[sweep]`` section,
whose ``min``/``max`` are in the display unit of the swept variable that its
table column uses, from `sweep._SWEEP_UNITS` (mV for ``bias_voltage``).

Each key's parser, default, SI scale and chain-object field are written
once, in `_KEYS`; the echo order, the unknown-key check and the building of
the chain objects all read that table.  `load_config` resolves the
configuration fully (defaults applied, material parameters expanded) and
checks every section; `command_run` then settles, from one table of
commands, which ``[sweep]`` a command runs on, and builds the chain objects
it runs on.  Every command echoes its resolved sections into its output
header, so any output file doubles as a reproducible configuration.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .amplifier import GridSpec
from .errors import ConfigurationError, _one_of
from .material import _BUILTINS, MaterialParams, builtin_material
from .resonator import CircuitParams, DriveSpec
from .sweep import _SEARCH_WINDOW_V, _SPACINGS, _SWEEP_UNITS, SweepSpec
from .varactor import VaractorDesign

__all__ = ["load_config", "Run", "command_run", "echo_lines", "config_text_from_output"]


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


def _parse_path(section: str, key: str, raw: str) -> str:
    if "\0" in raw:  # no file system takes it
        raise ConfigurationError(f"[{section}] {key}: a path cannot contain a NUL byte")
    return raw


def _choice(*words: str) -> Callable[[str, str, str], str]:
    def parse(section: str, key: str, raw: str) -> str:
        word = raw.lower()
        if word not in words:
            raise ConfigurationError(f"[{section}] {key}: {_one_of(words, word)}")
        return word

    return parse


_REQUIRED = object()  # the default of a key that must be given


class _Key(NamedTuple):
    """One config key: parser, default (display units), chain-object field, SI scale.

    A ``_REQUIRED`` default makes the key required and a None default leaves it
    unset.  ``[material]`` numbers default to the named crystal, or for
    ``custom`` to the `MaterialParams` field defaults (required where the
    field has none).  The rules on a value belong to the chain object that
    takes it; `load_config` builds those objects to check them, and
    `command_run` builds the ones a command runs on.
    """

    parse: Callable[[str, str, str], object]
    default: object = None
    field: str | None = None
    scale: float = 1.0


# Section -> key -> meaning, in echo order.  The ``[sweep]`` section is
# optional as a whole: absent, it resolves to None.
_KEYS = {
    "material": {
        "name": _Key(_choice(*_BUILTINS, "custom"), "sto"),
        "eps00_rel": _Key(_parse_float, field="eps00_rel"),
        "curie_temp_k": _Key(_parse_float, field="curie_temp"),
        "debye_temp_k": _Key(_parse_float, field="debye_temp"),
        "renorm_field_v_per_um": _Key(_parse_float, field="renorm_field", scale=1e6),
        "inhomogeneity": _Key(_parse_float, field="inhomogeneity"),
        "loss_a1": _Key(_parse_float, field="a1"),
        "loss_a2": _Key(_parse_float, field="a2"),
        "loss_a3": _Key(_parse_float, field="a3"),
        "defect_density": _Key(_parse_float, field="defect_density"),
        "temperature_k": _Key(_parse_float, field="temperature"),
    },
    "geometry": {
        "area_um2": _Key(_parse_float, 16.0, "plate_area", 1e-12),
        "thickness_nm": _Key(_parse_float, 200.0, "thickness", 1e-9),
    },
    "circuit": {
        "inductance_nh": _Key(_parse_float, 0.5, "inductance", 1e-9),
        "q_ext": _Key(_parse_float, CircuitParams._field_defaults["q_ext"], "q_ext"),
    },
    "drive": {
        "v_ac_mv": _Key(_parse_float, 1.0, "v_ac", 1e-3),
        "theta_rad": _Key(_parse_float, DriveSpec._field_defaults["theta"], "theta"),
    },
    "sweep": {
        "variable": _Key(_choice(*_SWEEP_UNITS), _REQUIRED),
        "min": _Key(_parse_float, _REQUIRED),
        "max": _Key(_parse_float, _REQUIRED),
        "count": _Key(_parse_int, _REQUIRED),
        "spacing": _Key(_choice(*_SPACINGS), SweepSpec._field_defaults["spacing"]),
    },
    "gain": {
        "xi_ratio": _Key(_parse_ratio_list),
        "count": _Key(_parse_int, GridSpec._field_defaults["count"], "count"),
        "half_span_kappa": _Key(
            _parse_float, GridSpec._field_defaults["half_span_kappa"], "half_span_kappa"
        ),
    },
    "output": {
        "path": _Key(_parse_path, "out"),
        "format": _Key(_choice("csv"), "csv"),
    },
}

_DEFAULT_GAIN_RATIOS = (0.5, 0.9, 0.99)
_DEFAULT_FIELD_SWEEP = {"variable": "bias_field", "min": "0", "max": "5", "count": "201"}
# The library's default search window, in mV: "0.0" and "250.0".
_LO_MV, _HI_MV = (str(v * 1e3) for v in _SEARCH_WINDOW_V)
_DEFAULT_BIAS_SWEEP = {"variable": "bias_voltage", "min": _LO_MV, "max": _HI_MV, "count": "201"}
# Command -> (the [sweep] variables it reads, the [sweep] it runs on otherwise, as
# config entries).
_COMMAND_SWEEPS = {
    "material": (("bias_field",), _DEFAULT_FIELD_SWEEP),
    "design": (("bias_voltage",), _DEFAULT_BIAS_SWEEP),
    "gain": (("bias_voltage",), _DEFAULT_BIAS_SWEEP),
    "sweep": (("bias_voltage", "plate_separation"), _DEFAULT_BIAS_SWEEP),
}


def _material_defaults(name: str) -> dict:
    """Config-key view of a built-in crystal, or of the custom-crystal defaults."""
    custom = name == "custom"
    source = MaterialParams._field_defaults if custom else builtin_material(name)._asdict()
    defaults = {}
    for key, spec in _KEYS["material"].items():
        if spec.field is not None:
            value = source.get(spec.field, _REQUIRED)
            defaults[key] = value / spec.scale if isinstance(value, float) else value
    return defaults


def _read_file(path: str) -> dict:
    import configparser

    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), strict=True
    )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path!r}: {exc}") from None
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _apply_overrides(raw: dict, overrides) -> None:
    for item in overrides:
        key_part, sep, value = item.partition("=")
        section, dot, key = key_part.strip().partition(".")
        if not (sep and dot):
            raise ConfigurationError(f"override {item!r} is not of the form section.key=value")
        raw.setdefault(section.strip(), {})[key.strip().lower()] = value.strip()


def _check_unknown_keys(raw: dict) -> None:
    for section, entries in raw.items():
        if section not in _KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in entries:
            if key not in _KEYS[section]:
                raise ConfigurationError(
                    f"unknown key [{section}] {key}; valid keys: {', '.join(_KEYS[section])}"
                )


def _resolve(section: str, entries: dict) -> dict:
    """Parse one section's entries and fill in the defaults of the keys it leaves out."""
    resolved = {}
    defaults = {}
    for key, spec in _KEYS[section].items():
        if key in entries:
            value = spec.parse(section, key, entries[key])
        else:
            value = defaults.get(key, spec.default)
            if value is _REQUIRED:
                raise ConfigurationError(f"[{section}] {key} has no default and must be given")
        resolved[key] = value
        if key == "name":  # the crystal sets the defaults of the material keys after it
            defaults = _material_defaults(value)
    return resolved


def load_config(path: str | None = None, overrides=()) -> dict:
    """Read, override, validate and resolve a tool configuration.

    Returns section -> key -> typed value (display units).  The ``sweep``
    section is None when the configuration has none; `command_run` then
    substitutes the command's own.  ``overrides`` are ``section.key=value``
    strings applied in order on top of the file, so a later one wins.
    """
    raw = _read_file(path) if path is not None else {}
    _apply_overrides(raw, overrides)
    _check_unknown_keys(raw)
    sections = {
        section: _resolve(section, raw.get(section, {}))
        if section in raw or section != "sweep"
        else None
        for section in _KEYS
    }
    # Building the chain objects checks their rules here, for every command alike.
    _chain(sections)
    return sections


class Run(NamedTuple):
    """What one command runs on: its echo-ready sections and the chain objects built from them."""

    sections: dict
    design: VaractorDesign
    circuit: CircuitParams
    drive: DriveSpec
    grid: GridSpec
    sweep: SweepSpec


def command_run(config: dict, command: str) -> Run:
    """What ``command`` runs on, from a configuration returned by `load_config`.

    A ``[sweep]`` the command does not read gives way to the command's own, except that
    ``sweep`` refuses it; ``gain`` takes its ratios from a ``pump_ratio`` sweep when
    ``[gain] xi_ratio`` is unset; ``design`` and ``gain`` search the bias window of the
    sweep, even a one-point one.
    """
    reads, fallback = _COMMAND_SWEEPS[command]
    sections = {name: dict(entries) for name, entries in config.items() if entries}
    sweep = sections.get("sweep")
    if sweep is not None and sweep["variable"] not in reads:
        if command == "sweep":
            raise ConfigurationError(
                f"[sweep] variable {sweep['variable']!r} is not sweepable here: use the "
                "'material' command for bias_field and the 'gain' command for pump_ratio"
            )
        if command == "gain" and sweep["variable"] == "pump_ratio":
            if sections["gain"]["xi_ratio"] is None:
                sections["gain"]["xi_ratio"] = tuple(_sweep_spec(sweep).points())
        sweep = None
    if sweep is None:
        sections["sweep"] = _resolve("sweep", fallback)
    if sections["gain"]["xi_ratio"] is None:
        sections["gain"]["xi_ratio"] = _DEFAULT_GAIN_RATIOS
    if command in ("design", "gain"):
        lo, hi = sections["sweep"]["min"], sections["sweep"]["max"]
        if not lo < hi:
            raise ConfigurationError(
                f"[sweep] min, max: search range is empty: min = {lo} mV must be < max = {hi} mV"
            )
    return Run(sections, *_chain(sections))


def _to_si(section: str, key: str, value: float, scale: float) -> float:
    scaled = value * scale
    if math.isinf(scaled) or (scaled == 0.0) != (value == 0.0):
        # Finite in display units, but over- or underflows in SI.
        raise ConfigurationError(
            f"[{section}] {key}: {value} is out of floating-point range in SI units"
        )
    return scaled


def _chain_fields(sections: dict, section: str) -> dict:
    """The chain-object fields of one resolved section, in SI units."""
    values = {}
    for key, spec in _KEYS[section].items():
        if spec.field is not None:
            value = sections[section][key]
            # Unscaled values pass as parsed, so an integer count stays an integer.
            if value is not None and spec.scale != 1.0:
                value = _to_si(section, key, value, spec.scale)
            values[spec.field] = value
    return values


def _restated(exc: ConfigurationError, section: str, shown: dict) -> ConfigurationError:
    """A chain object's rule in config terms.

    ``shown`` maps each field to its key and its value in display units.  Rules quote the
    fields they are about: a rule on one field reads ``[section] key: rule, got value``, a
    rule on several names each key with its value, and a rule that quotes none is kept.
    """
    text = str(exc)
    named = [(repr(field), *shown[field]) for field in shown if repr(field) in text]
    if not named:
        return exc
    if len(named) == 1:
        quoted, key, value = named[0]
        rule = text.partition(quoted + " ")[2]
        return ConfigurationError(f"[{section}] {key}: {rule}, got {value}")
    for quoted, key, value in named:
        text = text.replace(quoted, f"{key} = {value}")
    keys = ", ".join(key for _, key, _ in named)
    return ConfigurationError(f"[{section}] {keys}: {text}")


def _build(cls, sections: dict, section: str, **extra):
    """The chain object of one section; a rule on its fields is reported under their keys."""
    values = _chain_fields(sections, section)
    try:
        return cls(**values, **extra)
    except ConfigurationError as exc:
        shown = {
            spec.field: (key, sections[section][key])
            for key, spec in _KEYS[section].items()
            if spec.field is not None
        }
        raise _restated(exc, section, shown) from None


def _chain(sections: dict) -> tuple:
    """The design, circuit, drive, gain grid and sweep (None without one) of the sections."""
    material = _build(MaterialParams, sections, "material")
    sweep = sections["sweep"]
    return (
        _build(VaractorDesign, sections, "geometry", material=material),
        _build(CircuitParams, sections, "circuit"),
        _build(DriveSpec, sections, "drive"),
        _build(GridSpec, sections, "gain"),
        None if sweep is None else _sweep_spec(sweep),
    )


def _sweep_spec(s: dict) -> SweepSpec:
    scale, unit = _SWEEP_UNITS[s["variable"]]
    start = _to_si("sweep", "min", s["min"], scale)
    stop = _to_si("sweep", "max", s["max"], scale)
    try:
        return SweepSpec(s["variable"], start, stop, s["count"], s["spacing"])
    except ConfigurationError as exc:
        shown = {
            "start": ("min", f"{s['min']} {unit}".rstrip()),
            "stop": ("max", f"{s['max']} {unit}".rstrip()),
            "count": ("count", s["count"]),
        }
        raise _restated(exc, "sweep", shown) from None


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


def echo_lines(sections: dict) -> list[str]:
    """Render the resolved config as INI lines (deterministic order)."""
    lines = []
    for section, keys in _KEYS.items():
        entries = sections.get(section)
        if entries:  # a blank line before each section; the first one is dropped
            shown = [key for key in keys if entries.get(key) is not None]
            lines += ["", f"[{section}]", *(f"{k} = {_format_value(entries[k])}" for k in shown)]
    return lines[1:]


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
