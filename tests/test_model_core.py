import math

import numpy as np
import pytest

from cabintherm.errors import ConfigError, EvaluationError
from cabintherm.model_core import (BusConfig, CopCurve, HeatFlows, Scenario,
                                   ThermalState, balance_residuals, c_to_k,
                                   hvac_power, irradiance_roof,
                                   irradiance_wall_mean, passenger_heat,
                                   solar_heat_flows)
from conftest import kernel_flows
from flow_reference import irradiance_wall_directional


# the balance kernel's flows, with the arguments of their closed forms
def door_loss(T_cab, T_inf, zeta_door, cfg):
    return kernel_flows(cfg, T_inf, T_cab=T_cab, zeta_door=zeta_door)["Q_door"]


def radiative_loss_outer(T_so, T_inf, cfg):
    return kernel_flows(cfg, T_inf, T_so=T_so)["Q_r_so"]


def radiative_rh_to_shell(T_rh, T_si, cfg):
    return kernel_flows(cfg, T_si, T_rh=T_rh, T_si=T_si)["Q_r_rh"]


class TestPassengerHeat:
    def test_empty_bus(self, hp_cfg):
        assert passenger_heat(0, hp_cfg) == 0.0

    def test_thirty_passengers(self, hp_cfg):
        # 1.2 met x 58.15 W/m2/met x 1.8 m2 body area ~ 125.6 W each
        assert passenger_heat(30, hp_cfg) == pytest.approx(3768.0)

    def test_single_passenger(self, hp_cfg):
        assert passenger_heat(1, hp_cfg) == pytest.approx(125.6)

    def test_negative_rejected(self, hp_cfg):
        with pytest.raises(ConfigError):
            passenger_heat(-1, hp_cfg)


class TestDoorLoss:
    def test_zero_at_equal_temperature(self, hp_cfg):
        assert door_loss(283.15, 283.15, 1.0, hp_cfg) == 0.0

    def test_zero_with_closed_doors(self, hp_cfg):
        assert door_loss(293.15, 273.15, 0.0, hp_cfg) == 0.0

    def test_heating_case_hand_value(self, hp_cfg):
        # hand evaluation with the default constants: 2142.85 * sqrt(20/273.15) * 20 * 4.4
        q = door_loss(293.15, 273.15, 1.0, hp_cfg)
        assert q == pytest.approx(5.10e4, rel=0.01)

    def test_cooling_case_hand_value(self, hp_cfg):
        q = door_loss(273.15, 293.15, 1.0, hp_cfg)
        assert q == pytest.approx(-4.92e4, rel=0.01)

    def test_sign_follows_delta_t(self, hp_cfg):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t_cab = rng.uniform(250, 320)
            t_inf = rng.uniform(250, 320)
            q = door_loss(t_cab, t_inf, 0.3, hp_cfg)
            assert np.sign(q) == np.sign(t_cab - t_inf)

    def test_monotone_in_delta_t(self, hp_cfg):
        t_inf = 273.15
        qs = [door_loss(t_inf + d, t_inf, 1.0, hp_cfg) for d in np.linspace(0, 40, 30)]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_linear_in_zeta_and_width(self, hp_cfg):
        base = door_loss(293.15, 273.15, 0.5, hp_cfg)
        assert door_loss(293.15, 273.15, 1.0, hp_cfg) == pytest.approx(2 * base)
        wide = hp_cfg.with_changes(w_door_tot=2 * hp_cfg.w_door_tot)
        assert door_loss(293.15, 273.15, 0.5, wide) == pytest.approx(2 * base)


class TestIrradiance:
    def test_roof_zenith(self):
        assert irradiance_roof(math.pi / 2, 800.0, 100.0) == pytest.approx(900.0)

    def test_roof_30deg(self):
        assert irradiance_roof(math.pi / 6, 800.0, 100.0) == pytest.approx(500.0)

    def test_roof_night(self):
        assert irradiance_roof(0.3, 0.0, 0.0) == 0.0

    def test_wall_facing_sun_at_horizon(self):
        assert irradiance_wall_directional(0.0, 1.0, 1.0, 800.0, 0.0) == pytest.approx(800.0)

    def test_wall_facing_away(self):
        v = irradiance_wall_directional(0.2, 0.0, math.pi, 800.0, 100.0)
        assert v == pytest.approx(50.0)

    def test_wall_directional_60deg(self):
        v = irradiance_wall_directional(math.pi / 3, 0.7, 0.7, 600.0, 200.0)
        assert v == pytest.approx(400.0)

    def test_wall_mean_hand_value(self):
        v = irradiance_wall_mean(math.pi / 6, 800.0, 100.0)
        assert v == pytest.approx(270.53, abs=0.1)

    def test_wall_mean_diffuse_only(self):
        assert irradiance_wall_mean(0.5, 0.0, 100.0) == pytest.approx(50.0)

    def test_wall_mean_equals_azimuth_average(self):
        # quadrature oracle: dense trapezoid average over the surface azimuth
        rng = np.random.default_rng(7)
        psi = np.linspace(0.0, 2 * math.pi, 200_001)
        for _ in range(100):
            beta = rng.uniform(0.01, math.pi / 2 - 0.01)
            i_dni = rng.uniform(0, 1000)
            i_dhi = rng.uniform(0, 300)
            vals = irradiance_wall_directional(beta, 0.0, psi, i_dni, i_dhi)
            avg = np.trapezoid(vals, psi) / (2 * math.pi)
            assert irradiance_wall_mean(beta, i_dni, i_dhi) == pytest.approx(
                avg, rel=1e-6)


class TestSolarHeatFlows:
    def test_night(self, hp_cfg):
        scn = Scenario(T_inf=280.0, I_dni=0.0, I_dhi=0.0, beta=-0.2, N_pass=0,
                       zeta_door=0.0, zeta_sh=0.3, month=12, id="n")
        assert solar_heat_flows(scn, hp_cfg) == (0.0, 0.0, 0.0)

    def test_fully_shaded(self, hp_cfg):
        scn = Scenario(T_inf=280.0, I_dni=800.0, I_dhi=100.0, beta=0.5, N_pass=0,
                       zeta_door=0.0, zeta_sh=1.0, month=6, id="s")
        assert solar_heat_flows(scn, hp_cfg) == (0.0, 0.0, 0.0)

    def test_hand_value(self, hp_cfg):
        scn = Scenario(T_inf=280.0, I_dni=800.0, I_dhi=100.0, beta=math.pi / 6,
                       N_pass=0, zeta_door=0.0, zeta_sh=0.0, month=6, id="h")
        q_so, q_cab, q_si = solar_heat_flows(scn, hp_cfg)
        # 48.6*500*0.3*0.3 + 102*270.53*0.65*0.3
        assert q_so == pytest.approx(7567.9, rel=0.01)
        assert q_cab >= 0 and q_si >= 0

    def test_split_ratio(self, hp_cfg):
        scn = Scenario(T_inf=280.0, I_dni=600.0, I_dhi=150.0, beta=0.8, N_pass=0,
                       zeta_door=0.0, zeta_sh=0.2, month=6, id="r")
        _, q_cab, q_si = solar_heat_flows(scn, hp_cfg)
        assert q_cab / (q_cab + q_si) == pytest.approx(hp_cfg.zeta_cab)

    def test_linear_in_shade_and_irradiance(self, hp_cfg):
        def flows(zeta_sh, scale):
            scn = Scenario(T_inf=280.0, I_dni=800.0 * scale, I_dhi=100.0 * scale,
                           beta=0.6, N_pass=0, zeta_door=0.0, zeta_sh=zeta_sh,
                           month=6, id="l")
            return np.array(solar_heat_flows(scn, hp_cfg))

        base = flows(0.0, 1.0)
        assert flows(0.5, 1.0) == pytest.approx(0.5 * base)
        assert flows(0.0, 2.0) == pytest.approx(2.0 * base)


class TestRadiative:
    def test_outer_zero_at_equal(self, hp_cfg):
        assert radiative_loss_outer(280.0, 280.0, hp_cfg) == 0.0

    def test_outer_hand_value(self, hp_cfg):
        q = radiative_loss_outer(283.15, 273.15, hp_cfg)
        assert q == pytest.approx(7.35e3, rel=0.01)

    def test_outer_antisymmetric(self, hp_cfg):
        a = radiative_loss_outer(283.15, 273.15, hp_cfg)
        b = radiative_loss_outer(273.15, 283.15, hp_cfg)
        assert a == pytest.approx(-b)

    def test_outer_monotone(self, hp_cfg):
        qs = [radiative_loss_outer(t, 273.15, hp_cfg) for t in np.linspace(250, 330, 40)]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_rh_zero_cases(self, hp_cfg):
        assert radiative_rh_to_shell(300.0, 300.0, hp_cfg) == 0.0
        no_panels = hp_cfg.with_changes(A_rh=0.0)
        assert radiative_rh_to_shell(343.15, 293.15, no_panels) == 0.0

    def test_rh_hand_value(self, hp_cfg):
        cfg = hp_cfg.with_changes(A_rh=4.0)
        q = radiative_rh_to_shell(c_to_k(70.0), c_to_k(20.0), cfg)
        assert q == pytest.approx(1.47e3, rel=0.01)


class TestHvacPower:
    def test_zero(self, hp_cfg):
        assert hvac_power(0.0, 290.0, 280.0, hp_cfg) == 0.0

    def test_ptc_cop_one(self, ptc_cfg):
        assert hvac_power(5000.0, 290.0, 270.0, ptc_cfg) == pytest.approx(5000.0)

    def test_cooling_constant_cop(self, hp_cfg):
        cfg = hp_cfg.with_changes(cop_cooling=CopCurve.constant(2.0))
        assert hvac_power(-3000.0, 300.0, 305.0, cfg) == pytest.approx(1500.0)


class TestCopCurve:
    def test_interpolation(self):
        c = CopCurve(((10.0, 3.0), (20.0, 2.0)))
        assert c(15.0) == pytest.approx(2.5)

    def test_flat_extrapolation(self):
        c = CopCurve(((10.0, 3.0), (20.0, 2.0)))
        assert c(-5.0) == 3.0
        assert c(50.0) == 2.0

    def test_slope(self):
        c = CopCurve(((10.0, 3.0), (20.0, 2.0), (30.0, 1.5)))
        assert [c.slope(d) for d in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)] \
            == pytest.approx([0.0, 0.0, -0.1, -0.1, -0.05, 0.0, 0.0])
        assert CopCurve.constant(2.0).slope(0.0) == 0.0

    def test_scaled(self):
        c = CopCurve(((10.0, 3.0),)).scaled(1.1)
        assert c(10.0) == pytest.approx(3.3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CopCurve(())
        with pytest.raises(ConfigError):
            CopCurve(((10.0, 3.0), (10.0, 2.0)))
        with pytest.raises(ConfigError):
            CopCurve(((10.0, -1.0),))


class TestBalance:
    def test_isothermal_equilibrium_is_zero(self, hp_cfg):
        t = 283.15
        scn = Scenario(T_inf=t, I_dni=0.0, I_dhi=0.0, beta=-0.1, N_pass=0,
                       zeta_door=0.5, zeta_sh=0.3, month=10, id="iso")
        cfg = hp_cfg.with_changes(A_rh=4.0)
        state = ThermalState(T_cab=t, T_rh=t, T_si=t, T_so=t, Q_hvac=0.0, P_rh=0.0)
        for rh_on in (False, True):
            res = balance_residuals(state, scn, cfg, rh_on)
            assert len(res) == (4 if rh_on else 3)
            assert np.allclose(res, 0.0, atol=1e-12)

    def test_row_count(self, hp_cfg, winter_scn):
        state = ThermalState(T_cab=290.0, T_rh=363.0, T_si=285.0, T_so=270.0,
                             Q_hvac=5000.0, P_rh=100.0)
        cfg = hp_cfg.with_changes(A_rh=4.0)
        assert len(balance_residuals(state, winter_scn, cfg, True)) == 4
        assert len(balance_residuals(state, winter_scn, cfg, False)) == 3

    def test_warmer_cabin_raises_losses(self, hp_cfg, winter_scn):
        from cabintherm.solver import solve_window_rootfind
        from cabintherm.comfort import ComfortSpec
        res = solve_window_rootfind(winter_scn, hp_cfg, ComfortSpec(psi_min=-1.0, psi_max=-1.0),
                                    rh_on=False)
        st = res.state
        bumped = ThermalState(T_cab=st.T_cab + 1.0, T_rh=st.T_rh, T_si=st.T_si,
                              T_so=st.T_so, Q_hvac=st.Q_hvac, P_rh=st.P_rh)
        r = balance_residuals(bumped, winter_scn, hp_cfg, False)
        assert r[0] < 0.0  # cabin-air row: more door and shell losses

    def test_nonfinite_flow_named(self, hp_cfg, winter_scn):
        bad = ThermalState(T_cab=float("nan"), T_rh=290.0, T_si=285.0, T_so=270.0,
                           Q_hvac=0.0, P_rh=0.0)
        with pytest.raises(EvaluationError, match="Q_door"):
            balance_residuals(bad, winter_scn, hp_cfg, False)


class TestValidation:
    def test_negative_area(self):
        with pytest.raises(ConfigError):
            BusConfig(A_roof=-1.0)

    def test_fraction_out_of_range(self):
        with pytest.raises(ConfigError):
            BusConfig(tau_win=1.5)

    def test_body_smaller_than_wall(self):
        with pytest.raises(ConfigError):
            BusConfig(A_body=50.0)

    def test_heating_cop_below_one(self):
        with pytest.raises(ConfigError):
            BusConfig(cop_heating=CopCurve(((10.0, 0.8),)))

    def test_scenario_invariants(self):
        with pytest.raises(ConfigError):
            Scenario(T_inf=280.0, I_dni=-1.0, I_dhi=0.0, beta=0.5, N_pass=0,
                     zeta_door=0.0, zeta_sh=0.0, month=6, id="bad")
        with pytest.raises(ConfigError):
            Scenario(T_inf=280.0, I_dni=100.0, I_dhi=0.0, beta=-0.1, N_pass=0,
                     zeta_door=0.0, zeta_sh=0.0, month=6, id="night-sun")
        with pytest.raises(ConfigError):
            Scenario(T_inf=280.0, I_dni=0.0, I_dhi=0.0, beta=-0.1, N_pass=0,
                     zeta_door=0.0, zeta_sh=0.0, month=13, id="month")

    def test_powered_panel_cannot_be_cold(self):
        with pytest.raises(ConfigError):
            ThermalState(T_cab=300.0, T_rh=290.0, T_si=285.0, T_so=280.0,
                         Q_hvac=0.0, P_rh=500.0)
