"""Heat flows and the steady-state balance of the bus cabin.

The cabin is modelled as four thermal reservoirs: cabin air, radiant-heater
(RH) panels, inner shell, and outer shell.  :func:`reservoir_balance` is the
program's one definition of the heat flows that depend on the state; it
assembles them into the reservoir energy-conservation rows and their
analytic Jacobian, for one row of unknowns or a stack of rows, from each
row's :class:`BalanceCoefficients`, the constants :func:`balance_coefficients`
forms once.  The functions before them give the sources that do not depend
on the state (passenger and solar heat) and the HVAC electric power.  The
panels, when on, are held at their target temperature, so both branches
solve the same four unknowns (``T_cab``, ``T_si``, ``T_so``, ``Q_hvac``)
and the panel row then gives the electric panel power.  The reporting path
(:func:`compute_heat_flows`, :func:`balance_residuals`), the Newton solver
and the optimizer all evaluate the kernel.  All temperatures are kelvin
internally; degrees Celsius appear only in configuration files and reports.

Sign conventions:
  * door/shell losses are positive when heat leaves the cabin,
  * ``Q_hvac`` is positive when heating, negative when cooling,
  * radiative exchange terms are positive from the hotter to the colder
    surface named first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EvaluationError

#: Stefan-Boltzmann constant, W/(m^2 K^4)
SIGMA = 5.67e-8

KELVIN = 273.15


def c_to_k(t_c: float) -> float:
    return t_c + KELVIN


def k_to_c(t_k: float) -> float:
    return t_k - KELVIN


@dataclass(frozen=True)
class CopCurve:
    """Piecewise-linear COP as a function of the temperature lift.

    ``breakpoints`` maps the positive temperature difference between the warm
    and the cold reservoir (K) to a COP value.  Evaluation interpolates
    linearly between breakpoints and extrapolates flat beyond either end, so
    a single breakpoint describes a constant-COP machine (e.g. a PTC element
    with COP 1).
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.breakpoints) < 1:
            raise ConfigError("COP curve needs at least one breakpoint")
        deltas = [b[0] for b in self.breakpoints]
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise ConfigError("COP curve breakpoints must be strictly increasing in delta_T")
        if any(b[1] <= 0 for b in self.breakpoints):
            raise ConfigError("COP values must be positive")

    def __call__(self, delta_t: float) -> float:
        pts = self.breakpoints
        if delta_t <= pts[0][0]:
            return pts[0][1]
        if delta_t >= pts[-1][0]:
            return pts[-1][1]
        for (d0, c0), (d1, c1) in zip(pts, pts[1:]):
            if delta_t <= d1:
                w = (delta_t - d0) / (d1 - d0)
                return c0 + w * (c1 - c0)
        return pts[-1][1]  # unreachable

    def slope(self, delta_t: float) -> float:
        """d(COP)/d(delta_T) of the curve :meth:`__call__` evaluates: zero
        on the flat ends, and at a breakpoint the slope of the side
        :meth:`__call__` interpolates on (the segment to its left, the flat
        end at either extreme)."""
        pts = self.breakpoints
        if delta_t <= pts[0][0] or delta_t >= pts[-1][0]:
            return 0.0
        for (d0, c0), (d1, c1) in zip(pts, pts[1:]):
            if delta_t <= d1:
                return (c1 - c0) / (d1 - d0)
        return 0.0  # unreachable

    def scaled(self, factor: float) -> "CopCurve":
        """Curve with every COP value multiplied by ``factor``."""
        return CopCurve(tuple((d, c * factor) for d, c in self.breakpoints))

    @staticmethod
    def constant(cop: float) -> "CopCurve":
        return CopCurve(((0.0, cop),))


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value}")


def _check_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ConfigError(f"{name} must be strictly positive, got {value}")


@dataclass(frozen=True)
class BusConfig:
    """Geometry, material and HVAC parameters of one vehicle concept.

    Defaults describe an articulated trolleybus with a heat-pump HVAC unit
    and no radiant heaters.  The convection coefficients ``h_in``, ``h_out``,
    ``h_rh`` and the shell conductance ``k_body`` are reconstructed defaults
    (engineering estimates), not measured values; they are all configurable.
    """

    # door geometry and the Bernoulli door-flow constants
    h_door: float = 1.95          # m
    w_door_tot: float = 4.4       # m
    C_d: float = 0.6              # discharge coefficient
    rho_inf: float = 1.25         # kg/m^3
    c_p_a: float = 1005.0         # J/(kg K)
    g: float = 9.81               # m/s^2

    # surfaces
    A_roof: float = 48.6          # m^2
    A_wall: float = 102.0         # m^2
    A_body: float = 150.6         # m^2, outer radiating shell area
    A_rh: float = 0.0             # m^2, total radiant-heater panel area

    # optical properties
    alpha_paint: float = 0.3
    tau_win: float = 0.8
    zeta_roof: float = 0.7        # roof fraction shaded by rooftop components
    zeta_win: float = 0.35        # window fraction of the walls
    zeta_cab: float = 0.5         # transmitted solar share absorbed by cabin air

    sigma: float = SIGMA

    # reconstructed convection/conduction chain
    k_body: float = 450.0         # W/K, total shell conductance
    h_in: float = 7.0             # W/(m^2 K)
    h_out: float = 20.0           # W/(m^2 K)
    h_rh: float = 3.0             # W/(m^2 K)

    q_met_per_pass: float = 125.6  # W per passenger (1.2 met, 1.8 m^2 body)

    # radiant heaters
    T_rh_tgt: float = c_to_k(90.0)  # K
    rh_enabled: bool = False

    cop_heating: CopCurve = field(
        default_factory=lambda: CopCurve(((10.0, 3.0), (20.0, 2.5), (30.0, 2.0), (40.0, 1.6)))
    )
    cop_cooling: CopCurve = field(
        default_factory=lambda: CopCurve(((5.0, 3.0), (10.0, 2.6), (15.0, 2.2), (20.0, 1.9)))
    )

    def __post_init__(self):
        for name in ("h_door", "w_door_tot", "C_d", "rho_inf", "c_p_a", "g",
                     "A_roof", "A_wall", "A_body", "k_body", "h_in", "h_out",
                     "h_rh", "q_met_per_pass", "T_rh_tgt", "sigma"):
            _check_positive(name, getattr(self, name))
        if self.A_rh < 0:
            raise ConfigError(f"A_rh must be non-negative, got {self.A_rh}")
        for name in ("alpha_paint", "tau_win", "zeta_roof", "zeta_win", "zeta_cab"):
            _check_fraction(name, getattr(self, name))
        if self.A_body < self.A_wall:
            raise ConfigError("A_body must be at least A_wall (outer shell includes the walls)")
        if any(c < 1.0 for _, c in self.cop_heating.breakpoints):
            raise ConfigError("heating COP values must be >= 1")

    def with_changes(self, **kwargs) -> "BusConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Scenario:
    """One hour of operation: ambient conditions plus ridership."""

    T_inf: float                  # K
    I_dni: float                  # W/m^2, direct normal irradiance
    I_dhi: float                  # W/m^2, diffuse horizontal irradiance
    beta: float                   # rad, solar altitude
    N_pass: int
    zeta_door: float              # door-open time fraction
    zeta_sh: float                # shade time fraction
    month: int                    # 1..12
    id: str = ""

    def __post_init__(self):
        if not self.T_inf > 0:
            raise ConfigError(f"T_inf must be positive kelvin, got {self.T_inf}")
        if self.I_dni < 0 or self.I_dhi < 0:
            raise ConfigError("irradiances must be non-negative")
        if not -math.pi / 2 <= self.beta <= math.pi / 2:
            raise ConfigError(f"beta must be in [-pi/2, pi/2], got {self.beta}")
        if self.beta <= 0 and (self.I_dni > 0 or self.I_dhi > 0):
            raise ConfigError("irradiances must be zero when the sun is below the horizon")
        if self.N_pass < 0:
            raise ConfigError("N_pass must be non-negative")
        _check_fraction("zeta_door", self.zeta_door)
        _check_fraction("zeta_sh", self.zeta_sh)
        if not 1 <= self.month <= 12:
            raise ConfigError(f"month must be 1..12, got {self.month}")


@dataclass(frozen=True)
class ThermalState:
    """The unknowns of the steady-state balance plus the HVAC actuation."""

    T_cab: float                  # K, cabin air
    T_rh: float                   # K, radiant-heater panel
    T_si: float                   # K, inner shell
    T_so: float                   # K, outer shell
    Q_hvac: float                 # W, signed (heating positive)
    P_rh: float                   # W, electric panel power

    def __post_init__(self):
        if self.P_rh < -1e-9:
            raise ConfigError(f"P_rh must be non-negative, got {self.P_rh}")
        if self.P_rh > 1e-9 and self.T_rh < self.T_cab - 1e-9:
            raise ConfigError("a powered RH panel cannot be colder than the cabin air")


@dataclass(frozen=True)
class HeatFlows:
    """Every heat flow and electric power of one solved operating point (W)."""

    Q_pass: float
    Q_door: float
    Q_sol_cab: float
    Q_sol_si: float
    Q_sol_so: float
    Q_r_so: float
    Q_r_rh: float
    Q_h_rh: float
    Q_h_si: float
    Q_h_so: float
    Q_k: float
    Q_hvac: float
    P_rh: float
    P_hvac: float
    P_tot: float

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


# ---------------------------------------------------------------------------
# state-independent sources and HVAC power
# ---------------------------------------------------------------------------

def passenger_heat(n_pass: int, cfg: BusConfig) -> float:
    """Metabolic heat released to the cabin air by ``n_pass`` passengers (W)."""
    if n_pass < 0:
        raise ConfigError("n_pass must be non-negative")
    return n_pass * cfg.q_met_per_pass


def irradiance_roof(beta: float, I_dni: float, I_dhi: float) -> float:
    """Solar irradiance on the horizontal roof (W/m^2)."""
    return max(math.sin(beta) * I_dni + I_dhi, 0.0)


def irradiance_wall_mean(beta: float, I_dni: float, I_dhi: float) -> float:
    """Wall irradiance averaged over all driving directions (W/m^2)."""
    return math.cos(beta) / math.pi * I_dni + 0.5 * I_dhi


def solar_heat_flows(scn: Scenario, cfg: BusConfig) -> tuple[float, float, float]:
    """Solar heat absorbed by outer shell, cabin air, and inner shell (W).

    Returns ``(Q_sol_so, Q_sol_cab, Q_sol_si)``.  The window-transmitted
    power is split ``zeta_cab : (1 - zeta_cab)`` between cabin air and inner
    shell.  All three are zero at night (``beta <= 0``) or in full shade.
    """
    if scn.beta <= 0.0:
        return 0.0, 0.0, 0.0
    sun = 1.0 - scn.zeta_sh
    i_roof = irradiance_roof(scn.beta, scn.I_dni, scn.I_dhi)
    i_wall = irradiance_wall_mean(scn.beta, scn.I_dni, scn.I_dhi)
    q_so = sun * (cfg.A_roof * i_roof * cfg.alpha_paint * (1.0 - cfg.zeta_roof)
                  + cfg.A_wall * i_wall * (1.0 - cfg.zeta_win) * cfg.alpha_paint)
    q_trans = sun * cfg.A_wall * i_wall * cfg.zeta_win * cfg.tau_win
    return q_so, q_trans * cfg.zeta_cab, q_trans * (1.0 - cfg.zeta_cab)


def hvac_power(Q_hvac: float, T_cab: float, T_inf: float, cfg: BusConfig) -> float:
    """Electric power drawn by the vapor-compression HVAC unit (W).

    The COP is evaluated at the positive temperature lift of the active
    mode: ``T_cab - T_inf`` when heating, ``T_inf - T_cab`` when cooling.
    """
    if Q_hvac == 0.0:
        return 0.0
    if Q_hvac > 0.0:
        gamma = cfg.cop_heating(T_cab - T_inf)
    else:
        gamma = cfg.cop_cooling(T_inf - T_cab)
    return abs(Q_hvac) / gamma


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------

class BalanceCoefficients(NamedTuple):
    """The constants of :func:`reservoir_balance` for one scenario and
    configuration: floats for one row, or equal-length arrays for a stack
    of rows.  :func:`balance_coefficients` is the one place that forms
    them, so each flow is written once: its constant factor there, the
    part that depends on the state in the kernel."""

    T_inf: float
    T_inf4: float           # T_inf^4
    door: float             # rho c_p C_d sqrt(g h_door^3) / 3 w_door zeta_door
    inv_sqrt_T_inf: float   # 1 / sqrt(T_inf)
    a_in: float             # h_in (A_roof + A_wall)
    k: float                # k_body
    hA_out: float           # h_out A_body
    sA_body: float          # sigma A_body
    d_so: float             # -k_body - h_out A_body
    c_so: float             # 4 sigma A_body
    sA_rh: float            # sigma A_rh
    hr: float               # h_rh A_rh
    c_rh: float             # 4 sigma A_rh
    Q_pass: float
    Q_sol_so: float
    Q_sol_cab: float
    Q_sol_si: float


def balance_coefficients(scn: Scenario, cfg: BusConfig) -> BalanceCoefficients:
    """The one-row :class:`BalanceCoefficients` of ``scn`` under ``cfg``."""
    door = (cfg.rho_inf * cfg.c_p_a * cfg.C_d * math.sqrt(cfg.g * cfg.h_door ** 3) / 3.0
            * cfg.w_door_tot * scn.zeta_door)
    a_in = cfg.h_in * (cfg.A_roof + cfg.A_wall)
    hA_out = cfg.h_out * cfg.A_body
    return BalanceCoefficients(
        scn.T_inf, scn.T_inf ** 4, door, 1.0 / math.sqrt(scn.T_inf), a_in, cfg.k_body,
        hA_out, cfg.sigma * cfg.A_body, -cfg.k_body - hA_out, 4.0 * cfg.sigma * cfg.A_body,
        cfg.sigma * cfg.A_rh, cfg.h_rh * cfg.A_rh, 4.0 * cfg.sigma * cfg.A_rh,
        passenger_heat(scn.N_pass, cfg), *solar_heat_flows(scn, cfg))


def _pow(t, p: float):
    """``t ** p`` by the C library's ``pow``, for a float and elementwise
    for an array: numpy's array loop differs from it in the last bit for
    about 5 % of values, and a row must evaluate the same alone, stacked,
    and as a float."""
    if isinstance(t, np.ndarray):
        return np.array([v ** p for v in t.ravel().tolist()]).reshape(t.shape)
    return t ** p


def reservoir_balance(T_cab, T_rh, T_si, T_so, Q_hvac, P_rh, c: BalanceCoefficients,
                      rh_on: bool) -> tuple[dict, np.ndarray, np.ndarray]:
    """Energy-conservation rows of the reservoirs and their Jacobian, for
    one row of unknowns or a stack of rows.

    The unknowns are ``[T_cab, T_si, T_so, Q_hvac]`` with the panels on or
    off: panels, when on, are held at ``T_rh`` and draw ``P_rh``, both
    data.  The arguments are floats (one row) or arrays of one shape ``S``
    (a stack), and the fields of ``c`` broadcast against them.  Returns
    ``(flows, rows, jac)``: the state-dependent heat flows by
    :class:`HeatFlows` name (W, shape ``S``); the rows of cabin air, inner
    shell, outer shell and, only with ``rh_on``, the RH panel ``P_rh`` less
    the panels' heat (W, zero in steady state), shape ``S + (rows,)``; and
    their Jacobian in the four unknowns, shape ``S + (rows, 4)``.  The
    panel row fixes ``P_rh`` once the temperatures are known: evaluated at
    ``P_rh = 0`` it is minus the panel power.  Without radiant heaters the
    RH flows are zero and ``T_rh``/``P_rh`` are ignored.

    The flows, with ``dT = T_cab - T_inf``: buoyancy-driven door air
    exchange ``Q_door = door sqrt(|dT| / T_inf) dT``; convection ``Q_h_si =
    a_in (T_cab - T_si)``, ``Q_h_so = hA_out (T_so - T_inf)`` and ``Q_h_rh =
    hr (T_rh - T_cab)``; conduction ``Q_k = k (T_si - T_so)``; radiation
    ``Q_r_so = sA_body (T_so^4 - T_inf^4)`` and ``Q_r_rh = sA_rh (T_rh^4 -
    T_si^4)``: coplanar ceiling panels see none of each other, so all they
    emit lands on the inner shell.

    Every operation is elementwise: IEEE arithmetic and square roots, and
    powers by the C library (:func:`_pow`), so a row gives the same bits as
    floats, alone and inside any stack.
    """
    dt = T_cab - c.T_inf
    q_door = c.door * np.sqrt(np.abs(dt)) * c.inv_sqrt_T_inf * dt
    q_h_si = c.a_in * (T_cab - T_si)
    q_k = c.k * (T_si - T_so)
    q_h_so = c.hA_out * (T_so - c.T_inf)
    q_r_so = c.sA_body * (_pow(T_so, 4) - c.T_inf4)
    # dt + (dt == 0) is dt, or 1 where q_door is zero with dt
    d_door = 1.5 * q_door / (dt + (dt == 0.0))
    d_so = c.d_so - c.c_so * _pow(T_so, 3)
    shape = np.shape(dt)
    if rh_on:
        q_r_rh = c.sA_rh * (_pow(T_rh, 4) - _pow(T_si, 4))
        q_h_rh = c.hr * (T_rh - T_cab)
        hr = c.hr
        rr_si = c.c_rh * _pow(T_si, 3)
    else:
        # Python floats, so that a one-row evaluation stays float arithmetic
        q_r_rh = q_h_rh = hr = rr_si = 0.0
    rows = np.empty(shape + (3 + rh_on,))
    jac = np.zeros(shape + (3 + rh_on, 4))
    rows[..., 0] = c.Q_pass + q_h_rh - q_h_si - q_door + c.Q_sol_cab + Q_hvac
    rows[..., 1] = q_r_rh + q_h_si + c.Q_sol_si - q_k
    rows[..., 2] = q_k - q_h_so - q_r_so + c.Q_sol_so
    jac[..., 0, 0] = -hr - c.a_in - d_door
    jac[..., 0, 1] = jac[..., 1, 0] = c.a_in
    jac[..., 0, 3] = 1.0
    jac[..., 1, 1] = -rr_si - c.a_in - c.k
    jac[..., 1, 2] = jac[..., 2, 1] = c.k
    jac[..., 2, 2] = d_so
    if rh_on:
        rows[..., 3] = P_rh - q_r_rh - q_h_rh
        jac[..., 3, 0] = hr
        jac[..., 3, 1] = rr_si
    else:
        # absent panels report zero flows, in the shape of the others
        q_r_rh = q_h_rh = np.zeros(shape)
    flows = {"Q_door": q_door, "Q_r_so": q_r_so, "Q_r_rh": q_r_rh, "Q_h_rh": q_h_rh,
             "Q_h_si": q_h_si, "Q_h_so": q_h_so, "Q_k": q_k}
    return flows, rows, jac


def _evaluate(state: ThermalState, scn: Scenario, cfg: BusConfig,
              rh_on: bool) -> tuple[HeatFlows, np.ndarray]:
    c = balance_coefficients(scn, cfg)
    flows, rows, _ = reservoir_balance(state.T_cab, state.T_rh, state.T_si, state.T_so,
                                       state.Q_hvac, state.P_rh, c, rh_on)
    p_rh = state.P_rh if rh_on else 0.0
    p_hvac = hvac_power(state.Q_hvac, state.T_cab, scn.T_inf, cfg)
    return HeatFlows(Q_pass=c.Q_pass, Q_sol_so=c.Q_sol_so, Q_sol_cab=c.Q_sol_cab,
                     Q_sol_si=c.Q_sol_si, **{k: float(v) for k, v in flows.items()},
                     Q_hvac=state.Q_hvac, P_rh=p_rh, P_hvac=p_hvac,
                     P_tot=p_rh + p_hvac), rows


def compute_heat_flows(state: ThermalState, scn: Scenario, cfg: BusConfig,
                       rh_on: bool) -> HeatFlows:
    """Evaluate every heat flow of ``state`` under scenario ``scn``."""
    return _evaluate(state, scn, cfg, rh_on)[0]


def balance_residuals(state: ThermalState, scn: Scenario, cfg: BusConfig,
                      rh_on: bool) -> np.ndarray:
    """Energy-conservation residuals of the reservoirs (W).

    Cabin air, inner shell and outer shell, then, with radiant heaters
    active, the RH panel row; without them the RH flows are zero.  Raises :class:`EvaluationError`
    naming the first non-finite heat flow.
    """
    flows, rows = _evaluate(state, scn, cfg, rh_on)
    for name, val in flows.as_dict().items():
        if not math.isfinite(val):
            raise EvaluationError(f"non-finite heat flow {name} = {val}")
    return rows


def max_abs_flow(f: HeatFlows) -> float:
    """Largest heat-flow magnitude, used to scale residual tolerances."""
    return max(abs(v) for v in f.as_dict().values())
