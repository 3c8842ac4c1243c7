import pytest

from cabintherm.comfort import ComfortSpec
from cabintherm.config import DEFAULTS, load_config
from cabintherm.errors import ConfigError
from cabintherm.model_core import BusConfig, CopCurve, c_to_k


def test_defaults_are_the_dataclass_defaults():
    app = load_config(None)
    assert app.bus == BusConfig()
    # the configured window is +-1; the rest is ComfortSpec's
    assert app.comfort == ComfortSpec(psi_min=-1.0, psi_max=1.0)


@pytest.mark.parametrize("section, key", [
    (section, key) for section in ("geometry", "materials", "convection", "door_flow",
                                   "passengers")
    for key in DEFAULTS[section]])
def test_each_bus_key_sets_its_field(section, key):
    value = DEFAULTS[section][key] * 1.01
    bus = load_config(None, {section: {key: value}}).bus
    assert bus == BusConfig(**{key: value})


def test_hvac_and_panel_keys():
    bus = load_config(None, {"hvac": {"heating_cop": [[0.0, 1.0]],
                                      "cooling_cop": [[0.0, 2.0]]},
                             "radiant_heaters": {"enabled": True,
                                                 "target_temp_C": 80.0}}).bus
    assert bus == BusConfig(cop_heating=CopCurve.constant(1.0),
                            cop_cooling=CopCurve.constant(2.0), rh_enabled=True,
                            A_rh=DEFAULTS["radiant_heaters"]["total_area"],
                            T_rh_tgt=c_to_k(80.0))


@pytest.mark.parametrize("overrides, message", [
    ({"cabin": {"width": "wide"}}, "cabin.width must be a number"),
    ({"comfort": {"met": [1.2]}}, "comfort.met must be a number"),
    # a count that is not whole was truncated, an infinite one crashed
    ({"radiant_heaters": {"n_panels": 2.7}}, "radiant_heaters.n_panels must be a whole number"),
    ({"radiant_heaters": {"n_panels": float("inf")}}, "n_panels must be a whole number"),
    # any string switched the panels on
    ({"radiant_heaters": {"enabled": "false"}}, "radiant_heaters.enabled must be true or false"),
    # a YAML boolean read as 1 or 0 (k_body = 1.0 W/K) or stayed True
    ({"materials": {"k_body": True}}, r"materials.k_body must be a number, got True"),
    ({"radiant_heaters": {"n_panels": True}}, "radiant_heaters.n_panels must be a whole number"),
    ({"climate": {"passenger_max": True}}, r"climate.passenger_max must be a number, got True"),
    ({"climate": {"p_clear": [0.3, False]}}, "climate.p_clear must be a list of numbers"),
    ({"hvac": {"heating_cop": [[0.0, True]]}}, "hvac.heating_cop: COP curve must be a list"),
    # a fraction capped every scenario at its whole part
    ({"climate": {"passenger_max": 2.5}}, r"passenger_max must be a whole non-negative number, "
                                          r"got 2\.5")])
def test_wrong_type_names_its_key(overrides, message):
    with pytest.raises(ConfigError, match=message):
        load_config(None, overrides)


def test_empty_section_overrides_nothing():
    assert load_config(None, {"materials": None, "climate": None}) == load_config(None)
