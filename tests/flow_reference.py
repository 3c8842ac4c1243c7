"""Scalar closed forms of the heat flows, one function per flow.

The program evaluates every flow that depends on the state in one place,
:func:`cabintherm.model_core.reservoir_balance`.  These functions write
each flow out on its own for one operating point, so the tests can compare
the kernel against them; ``irradiance_wall_directional`` is the
directional wall irradiance whose azimuth average
:func:`cabintherm.model_core.irradiance_wall_mean` is.
"""

import math

import numpy as np

from cabintherm.model_core import BusConfig


def door_loss(T_cab: float, T_inf: float, zeta_door: float, cfg: BusConfig) -> float:
    """Air-exchange heat loss through open doors (W).

    Buoyancy-driven exchange flow through the door openings; positive when
    the cabin is warmer than the ambient.  The magnitude grows with
    |dT|^(3/2) and is linear in the combined door width and the door-open
    time fraction.
    """
    dt = T_cab - T_inf
    pre = (cfg.rho_inf * cfg.c_p_a * cfg.C_d * math.sqrt(cfg.g * cfg.h_door ** 3) / 3.0
           * cfg.w_door_tot * zeta_door)
    return pre * math.sqrt(abs(dt)) * (1.0 / math.sqrt(T_inf)) * dt


def irradiance_wall_directional(beta: float, phi: float, psi: float,
                                I_dni: float, I_dhi: float) -> float:
    """Irradiance on a vertical wall with surface azimuth ``psi`` (W/m^2).

    ``phi`` is the solar azimuth; the diffuse sky contributes half of the
    horizontal diffuse irradiance to a vertical surface.  ``psi`` may be an
    array of azimuths.
    """
    return math.cos(beta) * np.maximum(np.cos(phi - psi), 0.0) * I_dni + 0.5 * I_dhi


def radiative_loss_outer(T_so: float, T_inf: float, cfg: BusConfig) -> float:
    """Net long-wave radiation from the outer shell to the surroundings (W)."""
    return cfg.sigma * cfg.A_body * (T_so ** 4 - T_inf ** 4)


def radiative_rh_to_shell(T_rh: float, T_si: float, cfg: BusConfig) -> float:
    """Net radiation from the RH panels to the inner shell (W).

    Coplanar ceiling panels have zero mutual view factor, so everything a
    panel emits lands on the inner shell.
    """
    return cfg.sigma * cfg.A_rh * (T_rh ** 4 - T_si ** 4)


def convective_rh_to_cabin(T_rh: float, T_cab: float, cfg: BusConfig) -> float:
    """Convective heat from the RH panels to the cabin air (W)."""
    return cfg.h_rh * cfg.A_rh * (T_rh - T_cab)


def convective_cabin_to_shell(T_cab: float, T_si: float, cfg: BusConfig) -> float:
    """Convective heat from the cabin air to the inner shell (W)."""
    return cfg.h_in * (cfg.A_roof + cfg.A_wall) * (T_cab - T_si)


def conduction_shell(T_si: float, T_so: float, cfg: BusConfig) -> float:
    """Conduction through the shell, inner to outer (W)."""
    return cfg.k_body * (T_si - T_so)


def convective_shell_to_ambient(T_so: float, T_inf: float, cfg: BusConfig) -> float:
    """Convective heat from the outer shell to the ambient air (W)."""
    return cfg.h_out * cfg.A_body * (T_so - T_inf)
