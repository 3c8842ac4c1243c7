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
from .model_core import BusConfig, CopCurve, c_to_k
from .radiant_geometry import (CABIN_HEIGHT, CABIN_LENGTH, CABIN_WIDTH, STRIP_PANEL_WIDTH,
                               STRIP_PANELS, CabinLayout)
from .scenario import ClimateProfile
from .solver import default_layout

ENV_CONFIG_VAR = "CABINTHERM_CONFIG"

DEFAULT_HEATING_COP = [[10.0, 3.0], [20.0, 2.5], [30.0, 2.0], [40.0, 1.6]]
DEFAULT_COOLING_COP = [[5.0, 3.0], [10.0, 2.6], [15.0, 2.2], [20.0, 1.9]]

DEFAULTS: dict = {
    "geometry": {
        "h_door": 1.95,
        "w_door_tot": 4.4,
        "A_roof": 48.6,
        "A_wall": 102.0,
        "A_body": 150.6,
    },
    "cabin": {
        "length": CABIN_LENGTH,
        "width": CABIN_WIDTH,
        "height": CABIN_HEIGHT,
    },
    "materials": {
        "alpha_paint": 0.3,
        "tau_win": 0.8,
        "zeta_roof": 0.7,
        "zeta_win": 0.35,
        "zeta_cab": 0.5,
        "k_body": 450.0,
    },
    "convection": {
        "h_in": 7.0,
        "h_out": 20.0,
        "h_rh": 3.0,
    },
    "door_flow": {
        "C_d": 0.6,
        "rho_inf": 1.25,
        "c_p_a": 1005.0,
        "g": 9.81,
    },
    "passengers": {
        "q_met_per_pass": 125.6,
    },
    "hvac": {
        "heating_cop": DEFAULT_HEATING_COP,
        "cooling_cop": DEFAULT_COOLING_COP,
    },
    "radiant_heaters": {
        "enabled": False,
        "total_area": 4.0,
        "target_temp_C": 90.0,
        "n_panels": STRIP_PANELS,
        "panel_width": STRIP_PANEL_WIDTH,
    },
    "comfort": {
        "v_cab": 0.1,
        "phi_cab": 0.40,
        "met": 1.2,
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
    raw: dict


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
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            out[key] = _deep_merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _cop_curve(raw, where: str) -> CopCurve:
    try:
        pts = tuple((float(d), float(c)) for d, c in raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: COP curve must be a list of [delta_T, cop] pairs")
    return CopCurve(pts)


def _build_bus(cfg: dict) -> BusConfig:
    geo = cfg["geometry"]
    mat = cfg["materials"]
    conv = cfg["convection"]
    door = cfg["door_flow"]
    rh = cfg["radiant_heaters"]
    a_rh = float(rh["total_area"]) if rh["enabled"] else 0.0
    return BusConfig(
        h_door=float(geo["h_door"]),
        w_door_tot=float(geo["w_door_tot"]),
        A_roof=float(geo["A_roof"]),
        A_wall=float(geo["A_wall"]),
        A_body=float(geo["A_body"]),
        alpha_paint=float(mat["alpha_paint"]),
        tau_win=float(mat["tau_win"]),
        zeta_roof=float(mat["zeta_roof"]),
        zeta_win=float(mat["zeta_win"]),
        zeta_cab=float(mat["zeta_cab"]),
        k_body=float(mat["k_body"]),
        h_in=float(conv["h_in"]),
        h_out=float(conv["h_out"]),
        h_rh=float(conv["h_rh"]),
        C_d=float(door["C_d"]),
        rho_inf=float(door["rho_inf"]),
        c_p_a=float(door["c_p_a"]),
        g=float(door["g"]),
        q_met_per_pass=float(cfg["passengers"]["q_met_per_pass"]),
        A_rh=a_rh,
        T_rh_tgt=c_to_k(float(rh["target_temp_C"])),
        rh_enabled=bool(rh["enabled"]),
        cop_heating=_cop_curve(cfg["hvac"]["heating_cop"], "hvac.heating_cop"),
        cop_cooling=_cop_curve(cfg["hvac"]["cooling_cop"], "hvac.cooling_cop"),
    )


def _build_layout(cfg: dict, bus: BusConfig) -> CabinLayout:
    cab = cfg["cabin"]
    rh = cfg["radiant_heaters"]
    return default_layout(bus, float(cab["length"]), float(cab["width"]),
                          float(cab["height"]), int(rh["n_panels"]),
                          float(rh["panel_width"]))


def _build_comfort(cfg: dict) -> ComfortSpec:
    c = cfg["comfort"]
    return ComfortSpec(v_cab=float(c["v_cab"]), phi_cab=float(c["phi_cab"]),
                       met=float(c["met"]), psi_min=float(c["psi_min"]),
                       psi_max=float(c["psi_max"]))


def _build_climate(cfg: dict) -> ClimateProfile:
    overrides = cfg.get("climate") or {}
    valid = set(ClimateProfile.__dataclass_fields__)
    unknown = set(overrides) - valid
    if unknown:
        raise ConfigError(f"unknown climate keys {sorted(unknown)}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()}
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
                     climate=_build_climate(merged), concepts=concepts, raw=merged)
