"""Reference physics and result checks, written apart from ``cabintherm``.

Nothing here calls the program's comfort, heat-flow or aggregation code:
the PMV is the scalar ISO 7730 Annex D program, the reservoir rows are
the four-reservoir balance written out from its closed forms, and annual
figures are re-aggregated month-first.  Only model *inputs* are taken
from the program: the clothing curve constants, the bus parameters, and,
for radiant-heater results, the per-passenger panel view weights (the
geometry has its own acceptance checks).

Every ``check_*`` function returns a list of human-readable failures; an
empty list means the result passed.
"""

from __future__ import annotations

import math

import numpy as np

KELVIN = 273.15

BALANCE_RTOL = 1e-6    # residual per watt of the largest flow
PSI_TOL = 1e-6         # PMV units; the solvers pin to 1e-8 and 1e-7
POWER_RTOL = 1e-9      # reported P_tot against the recomputed one
ROUTE_RTOL = 1e-4      # root finding against optimization
MONO_RTOL = 1e-9       # orderings between concepts and windows
PPD_FLOOR = 5.0        # %, PPD at PMV 0

_PMV_EPS = 1e-12       # on t_cl / 100; ISO quotes 1.5e-4, far too coarse
_PMV_MAX_ITER = 500


# ---------------------------------------------------------------------------
# comfort
# ---------------------------------------------------------------------------

def pmv_iso7730(ta: float, tr: float, vel: float, rh: float, met: float,
                clo: float) -> float:
    """Predicted mean vote by the ISO 7730 Annex D program (scalar).

    ``ta``/``tr`` in Celsius, ``vel`` in m/s, ``rh`` in %, ``met`` in met,
    ``clo`` in clo, no external work.  The clothing-surface iteration runs to 1e-12 on
    ``t_cl/100`` instead of the standard's 1.5e-4, so that the result
    resolves the 1e-8 PMV pins of the solvers.
    """
    pa = rh * 10.0 * math.exp(16.6536 - 4030.183 / (ta + 235.0))
    icl = 0.155 * clo
    m = met * 58.15
    mw = m
    fcl = 1.0 + 1.29 * icl if icl <= 0.078 else 1.05 + 0.645 * icl
    hcf = 12.1 * math.sqrt(vel)
    taa = ta + 273.0
    tra = tr + 273.0
    tcla = taa + (35.5 - ta) / (3.5 * icl + 0.1)

    p1 = icl * fcl
    p2 = p1 * 3.96
    p3 = p1 * 100.0
    p4 = p1 * taa
    p5 = 308.7 - 0.028 * mw + p2 * (tra / 100.0) ** 4
    xn = tcla / 100.0
    xf = tcla / 50.0
    for _ in range(_PMV_MAX_ITER):
        xf = (xf + xn) / 2.0
        hc = max(hcf, 2.38 * abs(100.0 * xf - taa) ** 0.25)
        xn = (p5 + p4 * hc - p2 * xf ** 4) / (100.0 + p3 * hc)
        if abs(xn - xf) <= _PMV_EPS:
            break
    else:
        raise ArithmeticError("ISO 7730 clothing temperature did not converge")
    tcl = 100.0 * xn - 273.0

    hl1 = 3.05e-3 * (5733.0 - 6.99 * mw - pa)
    hl2 = 0.42 * (mw - 58.15) if mw > 58.15 else 0.0
    hl3 = 1.7e-5 * m * (5867.0 - pa)
    hl4 = 0.0014 * m * (34.0 - ta)
    hl5 = 3.96 * fcl * (xn ** 4 - (tra / 100.0) ** 4)
    hl6 = fcl * hc * (tcl - ta)
    ts = 0.303 * math.exp(-0.036 * m) + 0.028
    return ts * (mw - hl1 - hl2 - hl3 - hl4 - hl5 - hl6)


def ppd_iso7730(psi: float) -> float:
    """Predicted percentage dissatisfied (%)."""
    return 100.0 - 95.0 * math.exp(-0.03353 * psi ** 4 - 0.2179 * psi ** 2)


def clothing(t_inf_k: float, cubic, floor: float, scale: float = 1.0) -> float:
    """Clothing insulation (clo) from the model's clothing curve."""
    t = t_inf_k - KELVIN
    a, b, c, d = cubic
    return max(floor, scale * (a + b * t + c * t * t + d * t ** 3))


def passenger_pmvs(state, scn, spec, clo: float, view_weights) -> list[float]:
    """Unclamped oracle PMV of every passenger of a solved state.

    ``view_weights`` is the per-passenger panel weight ``b`` with
    ``T_mr^4 = (1 - b) T_si^4 + b T_rh^4``; zeros without panels.
    """
    out = []
    for b in view_weights:
        tmr = ((1.0 - b) * state.T_si ** 4 + b * state.T_rh ** 4) ** 0.25
        out.append(pmv_iso7730(state.T_cab - KELVIN, tmr - KELVIN, spec.v_cab,
                               spec.phi_cab * 100.0, spec.met, clo))
    return out


# ---------------------------------------------------------------------------
# four-reservoir balance
# ---------------------------------------------------------------------------

def reservoir_rows(state, scn, cfg, rh_on: bool) -> tuple[list[float], dict]:
    """Steady-state rows (W) of cabin air, RH panel, inner and outer shell.

    Returns the rows (the panel row only with ``rh_on``) and every flow by
    name.  Signs: losses positive when heat leaves the cabin, ``Q_hvac``
    positive when heating.
    """
    t_cab, t_si, t_so = state.T_cab, state.T_si, state.T_so
    t_inf = scn.T_inf
    dt = t_cab - t_inf
    q = {
        "Q_pass": scn.N_pass * cfg.q_met_per_pass,
        "Q_door": (cfg.rho_inf * cfg.c_p_a * cfg.C_d
                   * math.sqrt(cfg.g * cfg.h_door ** 3) / 3.0
                   * math.sqrt(abs(dt) / t_inf) * dt
                   * cfg.w_door_tot * scn.zeta_door),
        "Q_h_si": cfg.h_in * (cfg.A_roof + cfg.A_wall) * (t_cab - t_si),
        "Q_k": cfg.k_body * (t_si - t_so),
        "Q_h_so": cfg.h_out * cfg.A_body * (t_so - t_inf),
        "Q_r_so": cfg.sigma * cfg.A_body * (t_so ** 4 - t_inf ** 4),
        "Q_hvac": state.Q_hvac,
    }
    if scn.beta > 0.0:
        sun = 1.0 - scn.zeta_sh
        i_roof = max(math.sin(scn.beta) * scn.I_dni + scn.I_dhi, 0.0)
        i_wall = math.cos(scn.beta) / math.pi * scn.I_dni + 0.5 * scn.I_dhi
        trans = sun * cfg.A_wall * i_wall * cfg.zeta_win * cfg.tau_win
        q["Q_sol_so"] = sun * cfg.alpha_paint * (
            cfg.A_roof * i_roof * (1.0 - cfg.zeta_roof)
            + cfg.A_wall * i_wall * (1.0 - cfg.zeta_win))
        q["Q_sol_cab"] = trans * cfg.zeta_cab
        q["Q_sol_si"] = trans * (1.0 - cfg.zeta_cab)
    else:
        q["Q_sol_so"] = q["Q_sol_cab"] = q["Q_sol_si"] = 0.0
    if rh_on:
        q["Q_r_rh"] = cfg.sigma * cfg.A_rh * (state.T_rh ** 4 - t_si ** 4)
        q["Q_h_rh"] = cfg.h_rh * cfg.A_rh * (state.T_rh - t_cab)
        q["P_rh"] = state.P_rh
    else:
        q["Q_r_rh"] = q["Q_h_rh"] = q["P_rh"] = 0.0

    rows = [q["Q_pass"] + q["Q_h_rh"] - q["Q_h_si"] - q["Q_door"]
            + q["Q_sol_cab"] + q["Q_hvac"]]
    if rh_on:
        rows.append(q["P_rh"] - q["Q_r_rh"] - q["Q_h_rh"])
    rows.append(q["Q_r_rh"] + q["Q_h_si"] + q["Q_sol_si"] - q["Q_k"])
    rows.append(q["Q_k"] - q["Q_h_so"] - q["Q_r_so"] + q["Q_sol_so"])
    return rows, q


def electric_power(state, scn, cfg, rh_on: bool) -> float:
    """HVAC plus panel electric power (W); COP curves interpolate linearly
    in the temperature lift and stay flat beyond their ends."""
    q = state.Q_hvac
    p = state.P_rh if rh_on else 0.0
    if q == 0.0:
        return p
    curve, lift = ((cfg.cop_heating, state.T_cab - scn.T_inf) if q > 0.0
                   else (cfg.cop_cooling, scn.T_inf - state.T_cab))
    lifts, cops = zip(*curve.breakpoints)
    return p + abs(q) / float(np.interp(lift, lifts, cops))


# ---------------------------------------------------------------------------
# per-result checks
# ---------------------------------------------------------------------------

def check_result(res, scn, cfg, spec, psi_min: float, psi_max: float,
                 clo: float, view_weights) -> list[str]:
    """Closure, power, comfort and bound checks of one solved point.

    ``view_weights`` are the per-passenger panel weights of the branch the
    result used (zeros for an RH-off result).
    """
    tag = f"{scn.id} [{psi_min:+.2f}, {psi_max:+.2f}] {res.solver}"
    if res.scenario_id != scn.id:
        return [f"{tag}: result belongs to {res.scenario_id!r}"]
    errs = []
    st = res.state
    rows, flows = reservoir_rows(st, scn, cfg, res.rh_used)
    largest = max(1.0, max(abs(v) for v in flows.values()))
    worst = max(abs(r) for r in rows)
    if not worst <= BALANCE_RTOL * largest:
        errs.append(f"{tag}: balance residual {worst:.3e} W exceeds "
                    f"{BALANCE_RTOL:g} of the largest flow {largest:.1f} W")
    if res.flows.Q_hvac != st.Q_hvac:
        errs.append(f"{tag}: reported Q_hvac {res.flows.Q_hvac} differs from "
                    f"the state's {st.Q_hvac}")
    p_tot = electric_power(st, scn, cfg, res.rh_used)
    if not abs(res.P_tot - p_tot) <= POWER_RTOL * max(1.0, p_tot):
        errs.append(f"{tag}: P_tot {res.P_tot:.9g} W, recomputed {p_tot:.9g} W")

    if scn.N_pass == 0:
        if st.Q_hvac != 0.0:
            errs.append(f"{tag}: empty bus runs the HVAC (Q_hvac {st.Q_hvac:.3g} W)")
        if not math.isnan(res.mean_psi):
            errs.append(f"{tag}: empty bus reports a PMV of {res.mean_psi}")
        return errs

    per = passenger_pmvs(st, scn, spec, clo, view_weights)
    clamped = [min(3.0, max(-3.0, v)) for v in per]
    if len(res.per_passenger_pmv) != len(per):
        errs.append(f"{tag}: {len(res.per_passenger_pmv)} passenger PMVs "
                    f"for {len(per)} passengers")
    else:
        dev = max(abs(a - b) for a, b in zip(res.per_passenger_pmv, clamped))
        if not dev <= PSI_TOL:
            errs.append(f"{tag}: passenger PMV off the ISO 7730 value by {dev:.3e}")
    psi = sum(per) / len(per)
    if not psi_min - PSI_TOL <= psi <= psi_max + PSI_TOL:
        errs.append(f"{tag}: mean PMV {psi:.9f} outside the window")
    if st.Q_hvac > 0.0 and not abs(psi - psi_min) <= PSI_TOL:
        errs.append(f"{tag}: heating at mean PMV {psi:.9f}, not on the lower bound")
    if st.Q_hvac < 0.0 and not abs(psi - psi_max) <= PSI_TOL:
        errs.append(f"{tag}: cooling at mean PMV {psi:.9f}, not on the upper bound")
    mean_clamped = min(3.0, max(-3.0, sum(clamped) / len(clamped)))
    if not abs(res.mean_psi - mean_clamped) <= PSI_TOL:
        errs.append(f"{tag}: reported mean PMV {res.mean_psi:.9f}, "
                    f"ISO 7730 gives {mean_clamped:.9f}")
    if not abs(res.ppd - ppd_iso7730(res.mean_psi)) <= 1e-9 or res.ppd < PPD_FLOOR:
        errs.append(f"{tag}: PPD {res.ppd!r} does not match PMV {res.mean_psi!r}")
    return errs


def check_agreement(tag: str, a: float, b: float, rtol: float) -> list[str]:
    """``a`` and ``b`` agree within ``rtol`` of the larger of them (and 1 W)."""
    if abs(a - b) <= rtol * max(1.0, abs(a), abs(b)):
        return []
    return [f"{tag}: {a:.9g} and {b:.9g} differ by more than {rtol:g} relative"]


# ---------------------------------------------------------------------------
# annual aggregation
# ---------------------------------------------------------------------------

def month_first_means(results, months) -> tuple[float, float]:
    """Annual mean P_tot and PPD: per-month means, then the mean of the
    twelve months.  Empty-bus results carry power but no PPD."""
    by_month: dict[int, list] = {m: [] for m in range(1, 13)}
    for res, month in zip(results, months):
        by_month[month].append(res)
    if any(not rs for rs in by_month.values()):
        raise ValueError("every month needs at least one scenario")
    p_months = [sum(r.P_tot for r in rs) / len(rs) for rs in by_month.values()]
    ppd_months = []
    for rs in by_month.values():
        ppds = [r.ppd for r in rs if not math.isnan(r.ppd)]
        if ppds:
            ppd_months.append(sum(ppds) / len(ppds))
    return sum(p_months) / 12.0, sum(ppd_months) / len(ppd_months)


def check_front(name: str, half_widths, p_tot, ppd) -> list[str]:
    """One concept's Pareto front: power does not rise as the window
    widens, PPD is at least 5 % and exactly 5 % at half-width 0."""
    errs = []
    for i in range(1, len(half_widths)):
        if not p_tot[i] <= p_tot[i - 1] * (1.0 + MONO_RTOL) + 1e-9:
            errs.append(f"{name}: annual P_tot rises from {p_tot[i - 1]:.6f} W "
                        f"to {p_tot[i]:.6f} W as the half-width grows to "
                        f"{half_widths[i]}")
    for w, d in zip(half_widths, ppd):
        if not d >= PPD_FLOOR - 1e-9:
            errs.append(f"{name}: annual PPD {d:.6f} % below 5 % at half-width {w}")
        if w == 0.0 and not abs(d - PPD_FLOOR) <= 1e-6:
            errs.append(f"{name}: annual PPD {d:.9f} % is not 5 % at half-width 0")
    return errs


def check_not_above(tag: str, low: float, high: float) -> list[str]:
    """``low <= high`` within the ordering tolerance."""
    if low <= high * (1.0 + MONO_RTOL) + 1e-9:
        return []
    return [f"{tag}: {low:.6f} W is above {high:.6f} W"]
