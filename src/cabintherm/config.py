"""Configuration file handling.

Everything the tool needs lives in one YAML file with nested sections;
every key has a built-in default, so an empty (or absent) file is a valid
configuration describing the reference HP-AC vehicle.  Temperatures cross
this boundary in Celsius and are converted to kelvin on load.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass

import yaml

from .comfort import ComfortSpec
from .errors import ConfigError
from .model_core import BusConfig, CopCurve, c_to_k, k_to_c
from .radiant_geometry import (CABIN_HEIGHT, CABIN_LENGTH, CABIN_WIDTH, STRIP_PANEL_WIDTH,
                               STRIP_PANELS, CabinLayout)
from .scenario import ClimateProfile
from .solver import default_layout

ENV_CONFIG_VAR = "CABINTHERM_CONFIG"

_BUS = BusConfig()
_COMFORT = ComfortSpec()

# The BusConfig fields that a configuration key of the same name sets, by
# section; each key's default is the field's.
_BUS_SECTIONS: dict[str, tuple[str, ...]] = {
    "geometry": ("h_door", "w_door_tot", "A_roof", "A_wall", "A_body"),
    "materials": ("alpha_paint", "tau_win", "zeta_roof", "zeta_win", "zeta_cab", "k_body"),
    "convection": ("h_in", "h_out", "h_rh"),
    "door_flow": ("C_d", "rho_inf", "c_p_a", "g"),
    "passengers": ("q_met_per_pass",),
}
# the ComfortSpec fields of the ``comfort`` section with the spec's defaults
_COMFORT_SETTING = ("v_cab", "phi_cab", "met")

DEFAULTS: dict = {
    **{section: {name: getattr(_BUS, name) for name in fields}
       for section, fields in _BUS_SECTIONS.items()},
    "cabin": {
        "length": CABIN_LENGTH,
        "width": CABIN_WIDTH,
        "height": CABIN_HEIGHT,
    },
    "hvac": {
        "heating_cop": [list(b) for b in _BUS.cop_heating.breakpoints],
        "cooling_cop": [list(b) for b in _BUS.cop_cooling.breakpoints],
    },
    "radiant_heaters": {
        "enabled": _BUS.rh_enabled,
        "total_area": 4.0,
        "target_temp_C": k_to_c(_BUS.T_rh_tgt),
        "n_panels": STRIP_PANELS,
        "panel_width": STRIP_PANEL_WIDTH,
    },
    "comfort": {
        **{name: getattr(_COMFORT, name) for name in _COMFORT_SETTING},
        "psi_min": -1.0,
        "psi_max": 1.0,
    },
    "climate": {},  # ClimateProfile field overrides
    "concepts": {
        "PTC-AC": {"hvac": {"heating_cop": [[0.0, 1.0]]},
                   "radiant_heaters": {"enabled": False}},
        "HP-AC": {"radiant_heaters": {"enabled": False}},
        "PTC-AC+RH": {"hvac": {"heating_cop": [[0.0, 1.0]]},
                      "radiant_heaters": {"enabled": True}},
        "HP-AC+RH": {"radiant_heaters": {"enabled": True}},
    },
}


@dataclass(frozen=True)
class AppConfig:
    """Fully resolved configuration: vehicle, layout, comfort, climate."""

    bus: BusConfig
    layout: CabinLayout
    comfort: ComfortSpec
    climate: ClimateProfile
    concepts: dict[str, "ConceptConfig"]


@dataclass(frozen=True)
class ConceptConfig:
    name: str
    bus: BusConfig
    layout: CabinLayout


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        # free-form subtrees are validated later against their dataclasses
        free_form = path.startswith("concepts") or path == "climate"
        if key not in base and not free_form:
            raise ConfigError(f"unknown configuration key {here!r}")
        if isinstance(base.get(key), dict):
            # an empty section overrides nothing
            if val is None:
                continue
            if not isinstance(val, dict):
                raise ConfigError(f"{here} must be a mapping, got {val!r}")
            out[key] = _deep_merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _cop_curve(raw, where: str) -> CopCurve:
    try:
        if any(isinstance(v, bool) for pair in raw for v in pair):
            raise TypeError("a boolean is no number")
        pts = tuple((float(d), float(c)) for d, c in raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: COP curve must be a list of [delta_T, cop] pairs")
    return CopCurve(pts)


def _number(cfg: dict, section: str, key: str, kind: type = float):
    """``kind(cfg[section][key])``; a value of the wrong type (a YAML
    boolean among them), or for an ``int`` one that is not whole, raises
    :class:`ConfigError` naming its key."""
    val = cfg[section][key]
    try:
        out = None if isinstance(val, bool) else kind(val)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (kind is int and out != val):
        whole = "whole " if kind is int else ""
        raise ConfigError(f"{section}.{key} must be a {whole}number, got {val!r}")
    return out


def _build_bus(cfg: dict) -> BusConfig:
    rh = cfg["radiant_heaters"]
    enabled = rh["enabled"]
    if not isinstance(enabled, bool):
        raise ConfigError(f"radiant_heaters.enabled must be true or false, got {enabled!r}")
    a_rh = _number(cfg, "radiant_heaters", "total_area") if enabled else 0.0
    return BusConfig(
        **{name: _number(cfg, section, name)
           for section, fields in _BUS_SECTIONS.items() for name in fields},
        A_rh=a_rh,
        T_rh_tgt=c_to_k(_number(cfg, "radiant_heaters", "target_temp_C")),
        rh_enabled=enabled,
        cop_heating=_cop_curve(cfg["hvac"]["heating_cop"], "hvac.heating_cop"),
        cop_cooling=_cop_curve(cfg["hvac"]["cooling_cop"], "hvac.cooling_cop"),
    )


def _build_layout(cfg: dict, bus: BusConfig) -> CabinLayout:
    length, width, height = (_number(cfg, "cabin", key)
                             for key in ("length", "width", "height"))
    return default_layout(bus, length, width, height,
                          _number(cfg, "radiant_heaters", "n_panels", int),
                          _number(cfg, "radiant_heaters", "panel_width"))


def _build_comfort(cfg: dict) -> ComfortSpec:
    return ComfortSpec(**{name: _number(cfg, "comfort", name)
                          for name in _COMFORT_SETTING + ("psi_min", "psi_max")})


def _is_number(val) -> bool:
    """A YAML integer or float; a boolean is no number."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _build_climate(cfg: dict) -> ClimateProfile:
    overrides = cfg["climate"]
    fields = ClimateProfile.__dataclass_fields__
    unknown = set(overrides) - set(fields)
    if unknown:
        raise ConfigError(f"unknown climate keys {sorted(unknown)}")
    kwargs = {}
    for key, val in overrides.items():
        # a tuple field takes a list of numbers, any other field a number
        if isinstance(fields[key].default, tuple):
            if not (isinstance(val, (list, tuple)) and all(map(_is_number, val))):
                raise ConfigError(f"climate.{key} must be a list of numbers, got {val!r}")
            val = tuple(val)
        elif not _is_number(val):
            raise ConfigError(f"climate.{key} must be a number, got {val!r}")
        kwargs[key] = val
    return ClimateProfile(**kwargs)


def load_config(path: str | None = None, overrides: dict | None = None) -> AppConfig:
    """Load the configuration, merging defaults <- file <- overrides.

    ``path`` falls back to the CABINTHERM_CONFIG environment variable; with
    neither set, the built-in defaults apply.  Unknown keys raise
    :class:`ConfigError`.
    """
    merged = copy.deepcopy(DEFAULTS)
    path = path or os.environ.get(ENV_CONFIG_VAR)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                data = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigError(f"configuration file not found: {path}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {path}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        merged = _deep_merge(merged, data)
    if overrides:
        merged = _deep_merge(merged, overrides)

    bus = _build_bus(merged)
    layout = _build_layout(merged, bus)
    concepts = {}
    for name, spec in (merged.get("concepts") or {}).items():
        if not isinstance(spec, dict):
            raise ConfigError(f"concept {name!r} must be a mapping of overrides")
        sub = _deep_merge({k: v for k, v in merged.items() if k != "concepts"}, spec)
        try:
            cbus = _build_bus(sub)
            concepts[name] = ConceptConfig(name=name, bus=cbus,
                                           layout=_build_layout(sub, cbus))
        except ConfigError as exc:
            raise ConfigError(f"concept {name!r}: {exc}") from exc
    return AppConfig(bus=bus, layout=layout, comfort=_build_comfort(merged),
                     climate=_build_climate(merged), concepts=concepts)
