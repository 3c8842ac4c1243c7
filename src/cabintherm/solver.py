"""Minimum-power solves of the cabin heat balance under comfort constraints.

Two independent routes produce the same operating points:

* **root finding** -- the causality-inverted approach: prescribe the mean
  PMV, append it as an equation to the reservoir balance, and solve the
  square nonlinear system with a damped Newton iteration.  For a PMV
  *window*, the passive system (zero HVAC heat) is solved first; only if
  its comfort is outside the window is the system re-solved with the PMV
  pinned to the violated limit.
* **optimization** -- a constrained nonlinear program over separately
  metered heating/cooling heat and panel power, with the balance as
  equality constraints and the PMV window as inequalities on a polynomial
  PMV surrogate, solved by SLSQP with the exact gradient of every function
  (COP-curve slopes, the balance kernel's Jacobian, the surrogate's
  monomial derivatives).  The active surrogate bound is moved by a secant
  step on its (bound, exact PMV) pairs until the *exact* PMV of the
  solution meets the requested window, so reported comfort is always
  exact.

Both routes share one radiant-heater branch selector,
:class:`ScenarioSweeper`: it solves once with the panels held at their
target temperature and once with them removed, by the route it was built
for, and keeps whichever needs less total electric power.  The routes also
share the heat balance (:func:`model_core.reservoir_balance`) and the
per-branch result assembly.

Exact PMV values are evaluated in lockstep.  Every solve is written as
*solve steps*: a generator that yields a PMV request -- the kernel points
of one scenario, from a Newton residual, a forward-difference gradient, a
passive-state check or the per-passenger report of a settled state --
whenever it needs exact PMV values, is sent the values back, and returns
its result.  The scheduler :func:`_lockstep` advances many solves side by
side and answers all their pending requests of one round with a single
:func:`comfort.pmv_array` call, so a sweep pays the kernel's fixed cost
once per Newton round of many scenarios rather than once per scenario.  The arithmetic
of each solve (Newton steps, line search, restarts, warm starts) stays its
own and does not depend on what it runs beside: the kernel converges point
by point, so a value is the same in any batch.  :func:`settle` runs many
sweepers (:class:`ScenarioSweeper`) window by window; a single solve runs
the same scheduler with one task.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from collections.abc import Generator
from dataclasses import dataclass
from itertools import accumulate
from typing import TypeVar

import numpy as np
from scipy.optimize import minimize

from .comfort import (ComfortSpec, clothing_insulation, get_pmv_surrogate,
                      mean_pmv, pmv_array, ppd as ppd_of)
from .errors import CabinThermError, ConfigError, EvaluationError, SolverError
from .model_core import (BusConfig, HeatFlows, KELVIN, Scenario, ThermalState,
                         compute_heat_flows, reservoir_balance, scenario_loads)
from .radiant_geometry import (CabinLayout, ceiling_panel_strip,
                               mixed_radiant_temperature, panel_view_weights,
                               place_passengers)
from .scenario import placement_seed

MAX_NEWTON_ITER = 100
MAX_RESTARTS = 5
LINESEARCH_FACTOR = 0.5
LINESEARCH_MIN = 1e-4
BALANCE_RTOL = 1e-6     # per watt of the largest flow
PSI_ROW_TOL = 1e-8      # PMV units
PIN_ROW_TOL = 1e-8      # K
PSI_FD_STEP = 1e-3      # K, finite-difference step for the PMV row gradient
T_BOX = (210.0, 400.0)  # K, Newton iterate clamp

MODE_HEATING = "heating"
MODE_COOLING = "cooling"
MODE_PASSIVE = "passive"

# solve route -> ``SolveResult.solver``
SOLVER_NAMES = {"rootfind": "rootfind", "opt": "optimization"}

_T = TypeVar("_T")
# solve steps returning a _T: yield (model, ta_c, tr_c), are sent PMV values
_Steps = Generator[tuple, np.ndarray, _T]


@dataclass(frozen=True)
class SolveResult:
    """One solved operating point with its full heat-flow breakdown."""

    scenario_id: str
    state: ThermalState
    flows: HeatFlows
    per_passenger_pmv: tuple[float, ...]
    mean_psi: float            # clamped to [-3, 3]; NaN for an empty bus
    ppd: float                 # %, NaN for an empty bus
    P_tot: float               # W
    mode: str                  # heating | cooling | passive
    rh_used: bool
    solver: str                # rootfind | optimization
    iterations: int


def balance_tolerance_report(result: "SolveResult", scn: Scenario,
                             cfg: BusConfig) -> tuple[float, float, bool]:
    """Re-check the reservoir balance of a returned state.

    Returns (worst residual W, tolerance W, within-tolerance flag); the
    tolerance is relative to the largest flow of the operating point.
    """
    from .model_core import balance_residuals, max_abs_flow
    res = balance_residuals(result.state, scn, cfg, result.rh_used)
    tol = BALANCE_RTOL * max(1.0, max_abs_flow(result.flows))
    worst = float(np.max(np.abs(res)))
    return worst, tol, worst <= tol


def default_layout(cfg: BusConfig, length: float = 18.0, width: float = 2.4,
                   height: float = 2.3) -> CabinLayout:
    """Cabin layout matching ``cfg``: a centered ceiling strip of panels
    whose total area equals ``cfg.A_rh`` (no panels when it is zero)."""
    panels = ceiling_panel_strip(length, width, height, cfg.A_rh) if cfg.A_rh > 0 else ()
    return CabinLayout(length, width, height, panels)


class ViewWeightsCache:
    """Memoizes per-passenger panel view weights across solves.

    Placement and view factors depend only on (scenario id, passenger
    count, seed, panel geometry), so one entry serves every window and
    every concept that shares the layout.
    """

    def __init__(self):
        self._store: dict[tuple, np.ndarray] = {}

    def get(self, scn: Scenario, layout: CabinLayout, seed: int) -> np.ndarray:
        key = (scn.id, scn.N_pass, seed,
               tuple((p.origin, p.edge1, p.edge2) for p in layout.rh_panels))
        w = self._store.get(key)
        if w is None:
            passengers = place_passengers(scn.N_pass, seed, layout)
            w = panel_view_weights(passengers, layout)
            self._store[key] = w
        return w


# ---------------------------------------------------------------------------
# lockstep PMV scheduler
# ---------------------------------------------------------------------------

def _batch_pmv(requests: list, vel: float, rh_pct: float, met: float) -> list:
    """PMV values of every ``(model, ta_c, tr_c)`` request by one kernel call.

    When a point does not converge, each request is evaluated alone (a
    point's value does not depend on its batch) and the requests that fail
    get an :class:`EvaluationError` naming their scenario.
    """
    sizes = [ta.size for _, ta, _ in requests]
    try:
        vals = pmv_array(np.concatenate([ta for _, ta, _ in requests]),
                         np.concatenate([tr for _, _, tr in requests]),
                         np.repeat([model.r_clo for model, _, _ in requests], sizes),
                         vel, rh_pct, met)
    except EvaluationError:
        out = []
        for model, ta, tr in requests:
            try:
                out.append(pmv_array(ta, tr, model.r_clo, vel, rh_pct, met))
            except EvaluationError as err:
                out.append(EvaluationError(f"{err} (scenario {model.scn.id!r})"))
        return out
    return [vals[end - n:end] for n, end in zip(sizes, accumulate(sizes))]


def _lockstep(tasks: list[_Steps]) -> list:
    """Run solve steps side by side; per task its result or its error.

    A task is a generator that yields ``(model, ta_c, tr_c)`` -- 1-D air and
    radiant temperatures (C) of kernel points at the clothing of ``model`` --
    whenever it needs exact PMV values, is sent their values, and returns
    its result.  Each round answers the pending requests of every task with
    one :func:`pmv_array` call per comfort setting.  A task that raises a
    :class:`CabinThermError` stops with it; the others carry on.
    """
    out: list = [None] * len(tasks)
    pending: dict[int, tuple] = {}

    def advance(i, resume, value):
        try:
            pending[i] = resume(value)
        except StopIteration as stop:
            out[i] = stop.value
        except CabinThermError as err:
            out[i] = err

    for i, task in enumerate(tasks):
        advance(i, task.send, None)
    while pending:
        batch, pending = pending, {}
        groups: dict[tuple, list[int]] = defaultdict(list)
        for i, (model, _, _) in batch.items():
            spec = model.spec
            groups[(spec.v_cab, spec.phi_cab * 100.0, spec.met)].append(i)
        for setting, idx in groups.items():
            for i, vals in zip(idx, _batch_pmv([batch[i] for i in idx], *setting)):
                if isinstance(vals, EvaluationError):
                    advance(i, tasks[i].throw, vals)
                else:
                    advance(i, tasks[i].send, vals)
    return out


def _run(task: _Steps[_T]) -> _T:
    """Result of one task of solve steps; raises its error."""
    out = _lockstep([task])[0]
    if isinstance(out, CabinThermError):
        raise out
    return out


# ---------------------------------------------------------------------------
# per-scenario model with precomputed disturbances
# ---------------------------------------------------------------------------

class _BranchModel:
    """Heat balance of one scenario with the RH branch fixed on or off.

    Precomputes everything that does not depend on the unknowns: solar
    gains, passenger heat, clothing insulation, and per-passenger panel
    view weights.  The methods that need exact PMV values are solve steps
    (generators for :func:`_lockstep`, see the module docstring).
    """

    def __init__(self, scn: Scenario, cfg: BusConfig, spec: ComfortSpec,
                 rh_on: bool, layout: CabinLayout | None = None,
                 seed: int = 0, weights_cache: ViewWeightsCache | None = None):
        self.scn = scn
        self.cfg = cfg
        self.spec = spec
        self.rh_on = rh_on and cfg.A_rh > 0
        self.loads = scenario_loads(scn, cfg)
        self.r_clo = clothing_insulation(scn.T_inf, scale=spec.clo_scale)
        if self.rh_on and scn.N_pass > 0:
            layout = layout if layout is not None else default_layout(cfg)
            if abs(layout.panel_area - cfg.A_rh) > 1e-6:
                raise ConfigError(
                    f"layout panel area {layout.panel_area:.6f} m^2 does not match "
                    f"A_rh = {cfg.A_rh:.6f} m^2")
            pseed = placement_seed(scn.id, seed)
            if weights_cache is not None:
                self.b_weights = weights_cache.get(scn, layout, pseed)
            else:
                passengers = place_passengers(scn.N_pass, pseed, layout)
                self.b_weights = panel_view_weights(passengers, layout)
        else:
            self.b_weights = np.zeros(scn.N_pass)
        # without panel view weights every passenger sees the same T_mr,
        # so the mean PMV needs a single evaluation
        self.uniform_tmr = scn.N_pass == 0 or not np.any(self.b_weights > 0.0)
        self._passive: tuple[ThermalState, int] | None = None
        self._passive_psi: float | None = None
        self._last_pinned: np.ndarray | None = None

    # -- exact comfort (solve steps) ----------------------------------------

    def mean_psi_batch(self, t_cab, t_si, t_rh) -> _Steps[np.ndarray]:
        """Unclamped mean PMV for batched states (arrays of equal length)."""
        t_cab = np.atleast_1d(np.asarray(t_cab, float))
        t_si = np.atleast_1d(np.asarray(t_si, float))
        t_rh = np.atleast_1d(np.asarray(t_rh, float))
        if self.uniform_tmr:
            return (yield self, t_cab - KELVIN, t_si - KELVIN)
        tmr = mixed_radiant_temperature(self.b_weights[None, :], t_si[:, None],
                                        t_rh[:, None])
        ta = np.broadcast_to(t_cab[:, None] - KELVIN, tmr.shape)
        vals = yield self, ta.ravel(), (tmr - KELVIN).ravel()
        return vals.reshape(tmr.shape).mean(axis=1)

    def mean_psi(self, t_cab: float, t_si: float, t_rh: float) -> _Steps[float]:
        """Unclamped mean PMV at one state."""
        return float((yield from self.mean_psi_batch([t_cab], [t_si], [t_rh]))[0])

    def psi_gradient(self, t_cab: float, t_si: float, t_rh: float,
                     base: float) -> _Steps[np.ndarray]:
        """d(mean PMV)/d(T_cab, T_si, T_rh) by vectorized forward differences
        around an already-known base value."""
        h = PSI_FD_STEP
        if self.rh_on:
            vals = yield from self.mean_psi_batch([t_cab + h, t_cab, t_cab],
                                                  [t_si, t_si + h, t_si],
                                                  [t_rh, t_rh, t_rh + h])
        else:
            vals = yield from self.mean_psi_batch([t_cab + h, t_cab],
                                                  [t_si, t_si + h],
                                                  [t_rh, t_rh])
            vals = np.array([vals[0], vals[1], base])
        return (vals - base) / h

    def per_passenger_pmv(self, state: ThermalState) -> _Steps[np.ndarray]:
        """Exact per-passenger PMV, clamped to the reporting range."""
        n = self.scn.N_pass
        if n == 0:
            return np.zeros(0)
        if self.uniform_tmr:
            vals = yield (self, np.array([state.T_cab - KELVIN]),
                          np.array([state.T_si - KELVIN]))
            return np.full(n, min(3.0, max(-3.0, float(vals[0]))))
        tmr = mixed_radiant_temperature(self.b_weights, state.T_si, state.T_rh)
        vals = yield self, np.full(n, state.T_cab - KELVIN), tmr - KELVIN
        return np.clip(vals, -3.0, 3.0)

    # -- residual system ----------------------------------------------------
    # unknown order: rh on  -> [T_cab, T_rh, T_si, T_so, Q_hvac, P_rh]
    #                rh off -> [T_cab, T_si, T_so, Q_hvac]

    def n_unknowns(self) -> int:
        return 6 if self.rh_on else 4

    def _unpack_temps(self, x: np.ndarray) -> tuple[float, float, float]:
        """(T_cab, T_si, T_rh) regardless of branch layout."""
        if self.rh_on:
            return x[0], x[2], x[1]
        return x[0], x[1], x[1]

    def _system(self, x: np.ndarray, psi_tgt: float | None,
                psi_val: float | None) -> tuple[np.ndarray, float, list]:
        """Residual rows, the flow magnitude used for relative tolerance,
        and the Jacobian rows of the reservoir balance, from one kernel call.

        The reservoir rows are followed by the panel-temperature pin (RH on)
        and, with a target, the PMV row at the exact mean PMV ``psi_val``.
        """
        # Python floats: the same IEEE arithmetic as numpy scalars, faster
        if self.rh_on:
            t_cab, t_rh, t_si, t_so, q_hvac, p_rh = x.tolist()
        else:
            t_cab, t_si, t_so, q_hvac = x.tolist()
            t_rh, p_rh = t_cab, 0.0
        f, rows, jac = reservoir_balance(t_cab, t_rh, t_si, t_so, q_hvac, p_rh,
                                         self.scn, self.loads, self.cfg, self.rh_on)
        if self.rh_on:
            rows.append(x[1] - self.cfg.T_rh_tgt)
        if psi_tgt is not None:
            rows.append(psi_val - psi_tgt)
        loads = self.loads
        scale = max(1.0, abs(loads.Q_pass), abs(f["Q_door"]), abs(f["Q_h_si"]),
                    abs(f["Q_k"]), abs(f["Q_h_so"]), abs(f["Q_r_so"]), abs(f["Q_r_rh"]),
                    abs(f["Q_h_rh"]), abs(q_hvac), abs(p_rh), loads.Q_sol_so)
        return np.array(rows), scale, jac

    def jacobian(self, balance_jac: list, psi_tgt: float | None,
                 psi_grad: np.ndarray | None) -> np.ndarray:
        """Full Jacobian from the reservoir rows ``_system`` returned."""
        jac = list(balance_jac)
        if self.rh_on:
            jac.append([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])      # panel temperature pin
            if psi_tgt is not None:
                jac.append([psi_grad[0], psi_grad[2], psi_grad[1], 0.0, 0.0, 0.0])
        elif psi_tgt is not None:
            # no panels: T_mr tracks the inner shell only
            jac.append([psi_grad[0], psi_grad[1], 0.0, 0.0])
        return np.array(jac)

    def row_weights(self, psi_tgt: float | None) -> np.ndarray:
        w = [1e-3]                       # balance rows counted in kW
        if self.rh_on:
            w.append(1e-3)
        w += [1e-3, 1e-3]
        if self.rh_on:
            w.append(1.0)                # pin row in K
        if psi_tgt is not None:
            w.append(10.0)               # 0.1 PMV weighs like 1 kW
        return np.array(w)

    def converged(self, r: np.ndarray, scale: float, psi_tgt: float | None) -> bool:
        nb = 4 if self.rh_on else 3
        # a Python max over floats: numpy's reduction wrapper costs more here
        if max(map(abs, r[:nb].tolist())) > BALANCE_RTOL * scale:
            return False
        idx = nb
        if self.rh_on:
            if abs(r[idx]) > PIN_ROW_TOL:
                return False
            idx += 1
        if psi_tgt is not None and abs(r[idx]) > PSI_ROW_TOL:
            return False
        return True

    def init_vector(self, psi_tgt: float | None) -> np.ndarray:
        t_inf = self.scn.T_inf
        t_cab = min(max(t_inf, 285.0), 299.0)
        if self.rh_on:
            return np.array([t_cab, self.cfg.T_rh_tgt, t_inf, t_inf, 0.0, 0.0])
        return np.array([t_cab, t_inf, t_inf, 0.0])

    def state_from(self, x: np.ndarray, frozen_q: float | None = None) -> ThermalState:
        if self.rh_on:
            t_cab, t_rh, t_si, t_so, q_hvac, p_rh = x
        else:
            t_cab, t_si, t_so, q_hvac = x
            t_rh, p_rh = x[0], 0.0
        if frozen_q is not None:
            q_hvac = frozen_q
        if abs(q_hvac) < 1e-9:
            q_hvac = 0.0
        return ThermalState(T_cab=float(t_cab), T_rh=float(t_rh), T_si=float(t_si),
                            T_so=float(t_so), Q_hvac=float(q_hvac),
                            P_rh=float(max(p_rh, 0.0)))

    # -- damped Newton ------------------------------------------------------

    def newton(self, x0: np.ndarray, psi_tgt: float | None,
               frozen_q: float | None = None) -> _Steps[tuple[np.ndarray, int]]:
        """Damped Newton on the square system (solve steps); returns
        ``(x, iterations)``.

        ``frozen_q`` removes Q_hvac from the unknowns and holds it at the
        given value (passive solves use 0).  Backtracking line search on the
        weighted residual norm; up to 5 restarts from perturbed starting
        points on stagnation.  The Jacobian of an iterate reuses the
        reservoir rows evaluated with its residual.
        """
        nfull = self.n_unknowns()
        q_idx = 4 if self.rh_on else 3
        cols = [i for i in range(nfull) if frozen_q is None or i != q_idx]
        n_temps = 4 if self.rh_on else 3
        weights = self.row_weights(psi_tgt)
        use_psi = psi_tgt is not None
        total_iters = 0
        last_r = None
        last_x = None

        def evaluate(xv):
            psi = (yield from self.mean_psi(*self._unpack_temps(xv))) if use_psi else None
            return (*self._system(xv, psi_tgt, psi), psi)

        for attempt in range(MAX_RESTARTS + 1):
            x = x0.copy()
            if frozen_q is not None:
                x[q_idx] = frozen_q
            if attempt > 0:
                rng = np.random.default_rng(1000 + attempt)
                x[:n_temps] += rng.uniform(-5.0, 5.0, n_temps)
            psi_grad = None
            r, scale, bal_jac, psi_val = yield from evaluate(x)
            norm = float(np.linalg.norm(r * weights))
            for it in range(MAX_NEWTON_ITER):
                if self.converged(r, scale, psi_tgt):
                    return x, total_iters
                total_iters += 1
                if use_psi and (psi_grad is None or it % 4 == 0):
                    psi_grad = yield from self.psi_gradient(*self._unpack_temps(x),
                                                            psi_val)
                jac = self.jacobian(bal_jac, psi_tgt, psi_grad)[:, cols]
                try:
                    dx = np.linalg.solve(jac, -r)
                except np.linalg.LinAlgError:
                    break
                step = 1.0
                improved = False
                while step >= LINESEARCH_MIN:
                    x_new = x.copy()
                    for ci, col in enumerate(cols):
                        x_new[col] += step * dx[ci]
                    np.clip(x_new[:n_temps], T_BOX[0], T_BOX[1], out=x_new[:n_temps])
                    r_new, scale_new, jac_new, psi_new = yield from evaluate(x_new)
                    norm_new = float(np.linalg.norm(r_new * weights))
                    if norm_new < norm or not math.isfinite(norm):
                        x, r, scale, norm = x_new, r_new, scale_new, norm_new
                        bal_jac, psi_val = jac_new, psi_new
                        improved = True
                        break
                    step *= LINESEARCH_FACTOR
                if not improved:
                    break
            last_r, last_x = r, x
            if self.converged(r, scale, psi_tgt):
                return x, total_iters
        raise SolverError(
            f"Newton did not converge for scenario {self.scn.id!r} "
            f"(rh_on={self.rh_on}, psi_tgt={psi_tgt})",
            last_x=last_x, last_residuals=last_r)

    # -- branch-level solves (solve steps) ----------------------------------

    def passive(self) -> _Steps[tuple[ThermalState, int]]:
        """Zero-HVAC-heat solution (panels, when on, still at target)."""
        if self._passive is None:
            x, iters = yield from self.newton(self.init_vector(None), None, frozen_q=0.0)
            self._passive = (self.state_from(x, frozen_q=0.0), iters)
        return self._passive

    def passive_psi(self) -> _Steps[float]:
        if self._passive_psi is None:
            st, _ = yield from self.passive()
            t_rh = st.T_rh if self.rh_on else st.T_si
            self._passive_psi = yield from self.mean_psi(st.T_cab, st.T_si, t_rh)
        return self._passive_psi

    def pinned(self, psi_tgt: float) -> _Steps[tuple[ThermalState, int]]:
        """Solve with the mean PMV pinned to ``psi_tgt``."""
        x0 = self._last_pinned if self._last_pinned is not None else self.init_vector(psi_tgt)
        try:
            x, iters = yield from self.newton(x0.copy(), psi_tgt)
        except SolverError:
            x, iters = yield from self.newton(self.init_vector(psi_tgt), psi_tgt)
        self._last_pinned = x
        return self.state_from(x), iters

    def balance_with_q(self, q_hvac: float, x0: np.ndarray | None = None
                       ) -> _Steps[tuple[ThermalState, int]]:
        """Solve temperatures (and panel power) for a prescribed HVAC heat."""
        x0 = x0 if x0 is not None else self.init_vector(None)
        x, iters = yield from self.newton(x0, None, frozen_q=q_hvac)
        return self.state_from(x, frozen_q=q_hvac), iters

    def window(self, psi_min: float, psi_max: float) -> _Steps[tuple[ThermalState, int]]:
        """Passive-first window logic; pin to the violated limit if needed.

        The vote saturates at +/-3, so a window bound at the end of the
        scale never binds: the comparison uses the clamped passive PMV.
        """
        st, iters = yield from self.passive()
        if self.scn.N_pass == 0:
            return st, iters
        psi_pass = min(3.0, max(-3.0, (yield from self.passive_psi())))
        if psi_min - 1e-12 <= psi_pass <= psi_max + 1e-12:
            return st, iters
        tgt = psi_min if psi_pass < psi_min else psi_max
        st2, iters2 = yield from self.pinned(tgt)
        return st2, iters + iters2


# ---------------------------------------------------------------------------
# result assembly
# ---------------------------------------------------------------------------

def _finalize(model: _BranchModel, state: ThermalState, solver_name: str,
              iterations: int) -> _Steps[SolveResult]:
    """The :class:`SolveResult` of a solved state."""
    flows = compute_heat_flows(state, model.scn, model.cfg, model.rh_on)
    per_pax = yield from model.per_passenger_pmv(state)
    if per_pax.size:
        psi = float(np.clip(mean_pmv(per_pax), -3.0, 3.0))
        dissat = ppd_of(psi)
    else:
        psi = float("nan")
        dissat = float("nan")
    q = flows.Q_hvac
    if abs(q) <= 1e-9 and flows.P_rh <= 1e-9:
        mode = MODE_PASSIVE
    elif q >= 0.0:
        mode = MODE_HEATING
    else:
        mode = MODE_COOLING
    return SolveResult(
        scenario_id=model.scn.id,
        state=state,
        flows=flows,
        per_passenger_pmv=tuple(float(v) for v in per_pax),
        mean_psi=psi,
        ppd=dissat,
        P_tot=flows.P_tot,
        mode=mode,
        rh_used=model.rh_on,
        solver=solver_name,
        iterations=iterations,
    )


def _solve_branch(model: _BranchModel, method: str, psi_min: float,
                  psi_max: float) -> _Steps[SolveResult]:
    """One RH branch at one PMV window by either route.  An empty bus has
    no comfort constraint, so the optimization route returns the passive
    solution without running the optimizer."""
    if method == "rootfind":
        state, iters = yield from model.window(psi_min, psi_max)
    elif model.scn.N_pass == 0:
        state, iters = yield from model.passive()
    else:
        state, iters = yield from _opt_solve_branch(model, psi_min, psi_max)
    return (yield from _finalize(model, state, SOLVER_NAMES[method], iters))


# ---------------------------------------------------------------------------
# public solves: root finding
# ---------------------------------------------------------------------------

def solve_fixed_pmv(scn: Scenario, cfg: BusConfig, spec: ComfortSpec,
                    rh_on: bool, layout: CabinLayout | None = None,
                    seed: int = 0) -> SolveResult:
    """Solve the square system with the mean PMV pinned to ``spec.psi_tgt``.

    Six unknowns and equations with radiant heaters on, four without.  An
    empty bus has no comfort constraint and falls back to the passive
    solution.
    """
    if spec.psi_tgt is None:
        raise ConfigError("solve_fixed_pmv requires spec.psi_tgt")
    model = _BranchModel(scn, cfg, spec, rh_on, layout, seed)

    def steps() -> _Steps[SolveResult]:
        if scn.N_pass == 0:
            state, iters = yield from model.passive()
        else:
            state, iters = yield from model.pinned(spec.psi_tgt)
        return (yield from _finalize(model, state, "rootfind", iters))

    return _run(steps())


def solve_window_rootfind(scn: Scenario, cfg: BusConfig, spec: ComfortSpec,
                          rh_on: bool, layout: CabinLayout | None = None,
                          seed: int = 0) -> SolveResult:
    """Minimum-power solve for the PMV window via the passive-first logic."""
    return _run(_solve_branch(_BranchModel(scn, cfg, spec, rh_on, layout, seed),
                              "rootfind", spec.psi_min, spec.psi_max))


# ---------------------------------------------------------------------------
# public solves: optimization
# ---------------------------------------------------------------------------

_OPT_REFINE_MAX = 10
_OPT_PSI_TOL = 1e-7


def _next_bound(pairs: list, bound: float, target: float, psi_e: float) -> float:
    """The surrogate bound of the next refinement round.

    ``pairs`` holds this bound's earlier (bound, exact PMV) pairs and gets
    the current one.  While the bound is active the exact PMV follows it
    with a slope near 1 (the surrogate's error changes slowly along the
    optimum), so the secant through the last two pairs aims the exact PMV
    at ``target``.  On the first round, or when the secant slope is outside
    [0.5, 2] (the bound was not active in both rounds), the bound is
    shifted by the plain difference ``target - psi_e``.
    """
    pairs.append((bound, psi_e))
    step = target - psi_e
    if len(pairs) > 1:
        (b0, p0), (b1, p1) = pairs[-2:]
        if b1 != b0:
            slope = (p1 - p0) / (b1 - b0)
            if 0.5 <= slope <= 2.0:
                step /= slope
    return bound + step


class _OptProgram:
    """The nonlinear program of the optimization route for one RH branch.

    Decision vector ``z`` (scaled): the temperatures in K, in the column
    order of the kernel's Jacobian (``[T_cab, T_rh, T_si, T_so]`` with the
    panels on, ``[T_cab, T_si, T_so]`` without), then heating and cooling
    heat and (RH on) panel power in kW.  Every function comes with its
    exact gradient: the objective through :meth:`CopCurve.slope`, the
    balance equalities through the Jacobian rows of
    :func:`model_core.reservoir_balance`, and the surrogate mean PMV
    through its monomial derivatives (:meth:`PmvSurrogate.value_and_grad`)
    and, with panel view weights, the chain rule through each passenger's
    mean radiant temperature.
    """

    def __init__(self, model: _BranchModel):
        self.model = model
        self.surr = get_pmv_surrogate(model.spec)
        rh_on = model.rh_on
        self.n_temps = 4 if rh_on else 3
        self.nvar = 7 if rh_on else 5
        if rh_on:
            self.tc, self.trh, self.tsi, self.tso = range(4)
        else:
            self.tc, self.tsi, self.tso = range(3)
            self.trh = self.tc            # ignored by the kernel without panels
        self.hp, self.ac = self.n_temps, self.n_temps + 1
        self.prh = 6                      # panel power, RH on only

    def start(self) -> np.ndarray:
        """The cold start: no HVAC heat, panels at their target."""
        t_inf = self.model.scn.T_inf
        z = np.zeros(self.nvar)
        z[self.tc] = min(max(t_inf, 285.0), 299.0)
        z[self.tsi] = t_inf
        z[self.tso] = t_inf
        if self.model.rh_on:
            z[self.trh] = self.model.cfg.T_rh_tgt
        return z

    def bounds(self) -> list:
        n_powers = self.nvar - self.n_temps
        return [(T_BOX[0], T_BOX[1])] * self.n_temps + [(0.0, 500.0)] * n_powers

    def psi(self, z) -> float:
        """Surrogate mean PMV (view weights exist only with the panels on,
        else ``uniform_tmr``)."""
        model = self.model
        t_cab, t_si = z[self.tc], z[self.tsi]
        if model.uniform_tmr:
            return float(self.surr.evaluate(t_cab - KELVIN, t_si - KELVIN, model.r_clo))
        tmr_c = mixed_radiant_temperature(model.b_weights, t_si, z[self.trh]) - KELVIN
        vals = self.surr.evaluate(np.full_like(tmr_c, t_cab - KELVIN), tmr_c, model.r_clo)
        return float(np.mean(vals))

    def psi_grad(self, z) -> np.ndarray:
        """d(psi)/dz; per passenger ``dT_mr/dT_si = (1 - b) T_si^3 / T_mr^3``
        and ``dT_mr/dT_rh = b T_rh^3 / T_mr^3``."""
        model = self.model
        g = np.zeros(self.nvar)
        t_cab, t_si = z[self.tc], z[self.tsi]
        if model.uniform_tmr:
            d = self.surr.value_and_grad(t_cab - KELVIN, t_si - KELVIN, model.r_clo)[1]
            g[self.tc], g[self.tsi] = d[0], d[1]
            return g
        b = model.b_weights
        t_rh = z[self.trh]
        tmr = mixed_radiant_temperature(b, t_si, t_rh)
        d = self.surr.value_and_grad(np.full_like(tmr, t_cab - KELVIN), tmr - KELVIN,
                                     model.r_clo)[1]
        d_tmr = d[:, 1] / tmr ** 3
        g[self.tc] = np.mean(d[:, 0])
        g[self.tsi] = np.mean(d_tmr * (1.0 - b)) * t_si ** 3
        g[self.trh] = np.mean(d_tmr * b) * t_rh ** 3
        return g

    def _balance(self, z) -> tuple[list, list, list]:
        model = self.model
        v = z.tolist()
        p_rh = v[self.prh] * 1000.0 if model.rh_on else 0.0
        _, rows, jac = reservoir_balance(v[self.tc], v[self.trh], v[self.tsi], v[self.tso],
                                         (v[self.hp] - v[self.ac]) * 1000.0, p_rh,
                                         model.scn, model.loads, model.cfg, model.rh_on)
        return v, rows, jac

    def equalities(self, z) -> np.ndarray:
        """Reservoir rows in kW, then (RH on) the panel-temperature pin."""
        v, rows, _ = self._balance(z)
        eq = [r * 1e-3 for r in rows]
        if self.model.rh_on:
            eq.append(v[self.trh] - self.model.cfg.T_rh_tgt)
        return np.array(eq)

    def equalities_jac(self, z) -> np.ndarray:
        """The kernel's Jacobian on ``z``: temperature columns x 1e-3 (rows
        in kW); ``Q_hvac = 1000 (z_hp - z_ac)`` and ``P_rh = 1000 z_prh``, so
        their columns enter as they are, Q_hvac's with +1 for ``z_hp`` and
        -1 for ``z_ac``; then the panel-pin row."""
        jac = np.array(self._balance(z)[2])
        nb, nt = len(jac), self.n_temps
        rh_on = self.model.rh_on
        out = np.zeros((nb + rh_on, self.nvar))
        out[:nb, :nt] = jac[:, :nt] * 1e-3
        out[:nb, self.hp] = jac[:, nt]
        out[:nb, self.ac] = -jac[:, nt]
        if rh_on:
            out[:nb, self.prh] = jac[:, 5]
            out[nb, self.trh] = 1.0
        return out

    def objective(self, z) -> float:
        """Electric power in kW."""
        cfg, t_inf = self.model.cfg, self.model.scn.T_inf
        t_cab = z[self.tc]
        p = z[self.hp] / cfg.cop_heating(t_cab - t_inf)
        p += z[self.ac] / cfg.cop_cooling(t_inf - t_cab)
        if self.model.rh_on:
            p += z[self.prh]
        return p

    def objective_grad(self, z) -> np.ndarray:
        cfg = self.model.cfg
        dt_heat = z[self.tc] - self.model.scn.T_inf
        cop_h = cfg.cop_heating(dt_heat)
        cop_c = cfg.cop_cooling(-dt_heat)
        g = np.zeros(self.nvar)
        g[self.tc] = (z[self.ac] * cfg.cop_cooling.slope(-dt_heat) / cop_c ** 2
                      - z[self.hp] * cfg.cop_heating.slope(dt_heat) / cop_h ** 2)
        g[self.hp] = 1.0 / cop_h
        g[self.ac] = 1.0 / cop_c
        if self.model.rh_on:
            g[self.prh] = 1.0
        return g


def _opt_solve_branch(model: _BranchModel, psi_min: float | None,
                      psi_max: float | None) -> _Steps[tuple[ThermalState, int]]:
    """SLSQP minimization of electric power for one RH branch.

    The program and its exact gradients are :class:`_OptProgram`'s.  The
    PMV window constrains the polynomial surrogate; an outer loop moves the
    active surrogate bound, by a secant step on its last two (bound, exact
    PMV) pairs (see :func:`_next_bound`), until the exact PMV of the
    polished solution is within ``_OPT_PSI_TOL`` of the requested window.
    A run whose equalities are violated by 1e-6 or more is repeated from
    the cold start; the run kept must violate them by at most 1e-4.
    """
    scn = model.scn
    rh_on = model.rh_on
    prog = _OptProgram(model)
    use_psi = psi_min is not None and scn.N_pass > 0
    z0 = prog.start()
    bounds = prog.bounds()

    # the vote saturates at +/-3: a window bound on the end of the scale
    # never binds and is dropped from the program
    use_lo = use_psi and psi_min > -3.0 + 1e-12
    use_hi = use_psi and psi_max < 3.0 - 1e-12
    pin_equal = use_lo and use_hi and (psi_max - psi_min) < 1e-12
    lo, hi = psi_min, psi_max
    lo_pairs: list = []
    hi_pairs: list = []
    total_nit = 0
    z_start = z0
    state = None
    iters_polish = 0

    for _ in range(_OPT_REFINE_MAX):
        cons = [{"type": "eq", "fun": prog.equalities, "jac": prog.equalities_jac}]
        if pin_equal:
            cons.append({"type": "eq", "fun": lambda z, c=lo: prog.psi(z) - c,
                         "jac": prog.psi_grad})
        elif use_lo or use_hi:
            # one surrogate evaluation serves both rows: psi - lo, hi - psi
            sign = np.array([1.0] * use_lo + [-1.0] * use_hi)
            bound = np.array([lo] * use_lo + [hi] * use_hi)
            cons.append({"type": "ineq",
                         "fun": lambda z, s=sign, c=bound: s * (prog.psi(z) - c),
                         "jac": lambda z, s=sign: np.outer(s, prog.psi_grad(z))})
        for start in (z_start, z0):
            res = minimize(prog.objective, start, method="SLSQP", jac=prog.objective_grad,
                           bounds=bounds, constraints=cons,
                           options={"maxiter": 300, "ftol": 1e-12})
            viol = float(np.max(np.abs(prog.equalities(res.x))))
            if viol < 1e-6:
                break
        if viol > 1e-4:
            raise SolverError(
                f"optimization failed for scenario {scn.id!r} (rh_on={rh_on}): "
                f"{res.message}", last_x=res.x)
        total_nit += int(res.nit)
        z = res.x.copy()

        # simultaneous heating and cooling is never optimal; cancel overlap
        m = min(z[prog.hp], z[prog.ac])
        if m > 0:
            z[prog.hp] -= m
            z[prog.ac] -= m

        # polish the balance exactly with the decided HVAC heat
        q_hvac = (z[prog.hp] - z[prog.ac]) * 1000.0
        x0 = model.init_vector(None)
        x0[0] = z[prog.tc]
        if rh_on:
            x0[2], x0[3] = z[prog.tsi], z[prog.tso]
        else:
            x0[1], x0[2] = z[prog.tsi], z[prog.tso]
        state, iters_polish = yield from model.balance_with_q(q_hvac, x0)

        if not (use_lo or use_hi):
            break
        t_rh_eff = state.T_rh if rh_on else state.T_si
        psi_e = yield from model.mean_psi(state.T_cab, state.T_si, t_rh_eff)
        if pin_equal:
            if abs(psi_e - psi_min) <= _OPT_PSI_TOL:
                break
            move_lo = True
        else:
            lo_ok = not use_lo or psi_e >= psi_min - _OPT_PSI_TOL
            hi_ok = not use_hi or psi_e <= psi_max + _OPT_PSI_TOL
            if lo_ok and hi_ok:
                # exact feasibility; also pin the active bound tightly
                s_psi = prog.psi(z)
                miss_lo = abs(psi_e - psi_min) > _OPT_PSI_TOL
                miss_hi = abs(psi_e - psi_max) > _OPT_PSI_TOL
                if use_lo and abs(s_psi - lo) < 1e-6 and miss_lo:
                    move_lo = True
                elif use_hi and abs(hi - s_psi) < 1e-6 and miss_hi:
                    move_lo = False
                else:
                    break
            else:
                # exact PMV outside the window: move the violated bound
                move_lo = not lo_ok
        if move_lo:
            lo = _next_bound(lo_pairs, lo, psi_min, psi_e)
        else:
            hi = _next_bound(hi_pairs, hi, psi_max, psi_e)
        z_start = z
    else:
        raise SolverError(f"surrogate refinement did not settle for scenario {scn.id!r}")

    return state, total_nit + iters_polish


def solve_window_opt(scn: Scenario, cfg: BusConfig, spec: ComfortSpec,
                     rh_on: bool, layout: CabinLayout | None = None,
                     seed: int = 0) -> SolveResult:
    """Minimum-power solve for the PMV window via constrained optimization."""
    return _run(_solve_branch(_BranchModel(scn, cfg, spec, rh_on, layout, seed),
                              "opt", spec.psi_min, spec.psi_max))


# ---------------------------------------------------------------------------
# branch selection
# ---------------------------------------------------------------------------

def solve_best(scn: Scenario, cfg: BusConfig, spec: ComfortSpec,
               method: str = "rootfind", layout: CabinLayout | None = None,
               seed: int = 0) -> SolveResult:
    """Solve with and (when available) without radiant heaters, keep the
    cheaper operating point.  Ties go to the simpler RH-off actuation."""
    return ScenarioSweeper(scn, cfg, spec, layout, seed, method=method).solve(
        spec.psi_min, spec.psi_max)


class ScenarioSweeper:
    """The radiant-heater branch selector of both solve routes.

    Builds the RH-off branch and, when the bus has enabled panels, the
    RH-on branch of one scenario; :meth:`solve` solves both by ``method``
    ("rootfind" or "opt") and keeps the cheaper, ties going to RH off.
    The branches keep their passive solutions, placement view weights and
    last pinned iterate across windows, so a sweep pays the scenario-level
    setup once.
    """

    def __init__(self, scn: Scenario, cfg: BusConfig, spec: ComfortSpec,
                 layout: CabinLayout | None = None, seed: int = 0,
                 weights_cache: ViewWeightsCache | None = None,
                 method: str = "rootfind"):
        if method not in SOLVER_NAMES:
            raise ConfigError(f"unknown solver method {method!r}")
        self.method = method
        self.models = [_BranchModel(scn, cfg, spec, False, layout, seed, weights_cache)]
        if cfg.rh_enabled and cfg.A_rh > 0:
            self.models.append(_BranchModel(scn, cfg, spec, True, layout, seed,
                                            weights_cache))
        # (window, result or error) solved by settle(), in window order
        self._settled: deque = deque()

    def steps(self, psi_min: float, psi_max: float) -> _Steps[SolveResult]:
        """Solve steps of :meth:`solve`."""
        best = None
        for model in self.models:
            res = yield from _solve_branch(model, self.method, psi_min, psi_max)
            if best is None or res.P_tot < best.P_tot - 1e-9:
                best = res
        return best

    def solve(self, psi_min: float, psi_max: float) -> SolveResult:
        """The cheaper branch at one window: the next outcome :func:`settle`
        kept, when it is for this window, else solved now."""
        if self._settled and self._settled[0][0] == (psi_min, psi_max):
            out = self._settled.popleft()[1]
        else:
            out = _lockstep([self.steps(psi_min, psi_max)])[0]
        if isinstance(out, CabinThermError):
            raise out
        return out


def settle(sweepers: list[ScenarioSweeper], windows) -> None:
    """Solve every sweeper at every window, in lockstep across sweepers.

    The windows go one position at a time, in their order (a repeated
    window is solved again, from the state the earlier one left).  Each
    sweeper keeps its outcomes for its next :meth:`ScenarioSweeper.solve`
    calls; once it fails, its later windows are left to those calls.
    """
    for lo, hi in windows:
        live = [sw for sw in sweepers
                if not (sw._settled and isinstance(sw._settled[-1][1], CabinThermError))]
        for sw, out in zip(live, _lockstep([sw.steps(lo, hi) for sw in live])):
            sw._settled.append(((lo, hi), out))
