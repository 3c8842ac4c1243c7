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
per-branch result assembly.  Both branches solve the same four unknowns,
``[T_cab, T_si, T_so, Q_hvac]``: a panel held at its target temperature is
data, and its electric power is read off the balance's panel row.

Solves run in lockstep.  Every solve is written as *solve steps*: a
generator that yields a Newton request ``(model, x0, psi_tgt, frozen_q)``
whenever it needs a damped-Newton solve, is sent ``(x, iterations, pmv)``
back, and returns its result.  ``pmv`` holds the unclamped PMV of the
solution's kernel points (one point when every passenger sees the same
T_mr, one per passenger otherwise, none for an empty bus); it is all the
exact comfort a solve checks or reports.  The scheduler :func:`_lockstep`
advances many solves side by side.  Each round it runs all pending
requests of one branch shape and comfort setting as one array Newton
(:class:`_NewtonGroup`): each of its evaluations makes one balance kernel
call, one PMV kernel call (with a PMV row) and one stacked linear solve for
every live row, and one more PMV kernel call answers the points of every
solved row.  A single solve is the same scheduler with one task, and its
Newton a stack of one row.  The arithmetic of each solve (Newton steps,
line search, restarts, warm starts) stays its own and does not depend on
what it runs beside: the kernels work row by row and point by point, so a
value is the same bits in any batch.  :func:`settle` runs many sweepers
(:class:`ScenarioSweeper`) window by window.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Generator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from typing import NamedTuple, TypeVar

import numpy as np
from scipy.optimize import minimize

from .comfort import (ComfortSpec, clothing_insulation, get_pmv_surrogate,
                      mean_pmv, pmv_array, ppd as ppd_of)
from .errors import CabinThermError, ConfigError, EvaluationError, SolverError
from .model_core import (BalanceCoefficients, BusConfig, HeatFlows, KELVIN, Scenario,
                         ThermalState, balance_coefficients, compute_heat_flows,
                         reservoir_balance)
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
PSI_FD_STEP = 1e-3      # K, finite-difference step for the PMV row gradient
T_BOX = (210.0, 400.0)  # K, Newton iterate clamp

MODE_HEATING = "heating"
MODE_COOLING = "cooling"
MODE_PASSIVE = "passive"

# solve route -> ``SolveResult.solver``
SOLVER_NAMES = {"rootfind": "rootfind", "opt": "optimization"}

_T = TypeVar("_T")
# solve steps returning a _T: yield Newton requests, are sent their answers
_Steps = Generator[tuple, object, _T]


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


def default_layout(cfg: BusConfig, length: float = 18.0, width: float = 2.4, height: float = 2.3,
                   n_panels: int = 5, panel_width: float = 0.8) -> CabinLayout:
    """Cabin layout matching ``cfg``: a centered ceiling strip of ``n_panels``
    panels of total area ``cfg.A_rh`` (no panels when it is zero)."""
    panels = (ceiling_panel_strip(length, width, height, cfg.A_rh, n_panels, panel_width)
              if cfg.A_rh > 0 else ())
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
# lockstep scheduler
# ---------------------------------------------------------------------------

class _NewtonRequest(NamedTuple):
    """A damped-Newton solve a task waits for (see :meth:`_BranchModel.newton`)."""

    model: "_BranchModel"
    x0: np.ndarray
    psi_tgt: float | None
    frozen_q: float | None


def _comfort_setting(spec: ComfortSpec) -> tuple[float, float, float]:
    """The kernel arguments after the points: (v_cab, RH %, met)."""
    return spec.v_cab, spec.phi_cab * 100.0, spec.met


def _lockstep(tasks: list[_Steps]) -> list:
    """Run solve steps side by side; per task its result or its error.

    A task is a generator that yields :class:`_NewtonRequest` s and returns
    its result; each request is sent ``(x, iterations, pmv)`` back, ``pmv``
    the unclamped PMV of the solution's kernel points.  Each round groups
    the pending requests by branch, PMV row, frozen Q_hvac and comfort
    setting, and runs each group as one array Newton (:class:`_NewtonGroup`).
    A task that raises a :class:`CabinThermError`, or is thrown one by its
    request, stops with it; the others carry on.
    """
    out: list = [None] * len(tasks)
    pending: dict[int, _NewtonRequest] = {}

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
        for i, req in batch.items():
            groups[(req.model.rh_on, req.psi_tgt is not None, req.frozen_q is None,
                    _comfort_setting(req.model.spec))].append(i)
        for idx in groups.values():
            for i, val in zip(idx, _NewtonGroup([batch[i] for i in idx]).run()):
                if isinstance(val, CabinThermError):
                    advance(i, tasks[i].throw, val)
                else:
                    advance(i, tasks[i].send, val)
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

    Precomputes everything that does not depend on the unknowns: the
    balance kernel's coefficients (solar gains and passenger heat among
    them), clothing insulation, and per-passenger panel view weights.  The
    methods that need a Newton solve are solve steps (generators for
    :func:`_lockstep`, see the module docstring); they return the solved
    state with its iterations and the unclamped PMV of its kernel points.
    """

    def __init__(self, scn: Scenario, cfg: BusConfig, spec: ComfortSpec,
                 rh_on: bool, layout: CabinLayout | None = None,
                 seed: int = 0, weights_cache: ViewWeightsCache | None = None):
        self.scn = scn
        self.cfg = cfg
        self.spec = spec
        self.rh_on = rh_on and cfg.A_rh > 0
        self.coef = balance_coefficients(scn, cfg)
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
        # the balance's flow magnitude floor: 1 W and the state-independent gains
        self.flow_floor = max(1.0, abs(self.coef.Q_pass), self.coef.Q_sol_so)
        self._passive: tuple[ThermalState, int, np.ndarray] | None = None
        self._last_pinned: np.ndarray | None = None

    # -- unknowns: [T_cab, T_si, T_so, Q_hvac] on either branch --------------

    def init_vector(self) -> np.ndarray:
        t_inf = self.scn.T_inf
        return np.array([min(max(t_inf, 285.0), 299.0), t_inf, t_inf, 0.0])

    def state_from(self, x: np.ndarray, frozen_q: float | None = None) -> ThermalState:
        """The state at ``x``: the panels, when on, at their target
        temperature and drawing the power their row of the balance fixes;
        without them ``T_rh`` reads as ``T_cab`` and ``P_rh`` as zero."""
        t_cab, t_si, t_so, q_hvac = x.tolist()
        if frozen_q is not None:
            q_hvac = frozen_q
        if abs(q_hvac) < 1e-9:
            q_hvac = 0.0
        t_rh, p_rh = t_cab, 0.0
        if self.rh_on:
            t_rh = self.cfg.T_rh_tgt
            p_rh = -reservoir_balance(t_cab, t_rh, t_si, t_so, q_hvac, 0.0, self.coef,
                                      True)[1][3]
        return ThermalState(T_cab=float(t_cab), T_rh=float(t_rh), T_si=float(t_si),
                            T_so=float(t_so), Q_hvac=float(q_hvac),
                            P_rh=float(max(p_rh, 0.0)))

    # -- damped Newton ------------------------------------------------------

    def newton(self, x0: np.ndarray, psi_tgt: float | None,
               frozen_q: float | None = None
               ) -> _Steps[tuple[np.ndarray, int, np.ndarray]]:
        """Damped Newton on the square system (solve steps); returns
        ``(x, iterations, pmv)``, ``pmv`` the unclamped PMV of the kernel
        points of the solution.

        ``frozen_q`` removes Q_hvac from the unknowns and holds it at the
        given value (passive solves use 0); ``psi_tgt`` appends the PMV row.
        The solve is one :class:`_NewtonRequest`, run by :func:`_lockstep`
        as a row of an array Newton (:class:`_NewtonGroup`).
        """
        return (yield _NewtonRequest(self, x0, psi_tgt, frozen_q))

    # -- branch-level solves (solve steps) ----------------------------------
    # each returns (state, iterations, PMV of the state's kernel points)

    def passive(self) -> _Steps[tuple[ThermalState, int, np.ndarray]]:
        """Zero-HVAC-heat solution (panels, when on, still at target)."""
        if self._passive is None:
            x, iters, pmv = yield from self.newton(self.init_vector(), None, frozen_q=0.0)
            self._passive = (self.state_from(x, frozen_q=0.0), iters, pmv)
        return self._passive

    def pinned(self, psi_tgt: float) -> _Steps[tuple[ThermalState, int, np.ndarray]]:
        """Solve with the mean PMV pinned to ``psi_tgt``."""
        x0 = self._last_pinned if self._last_pinned is not None else self.init_vector()
        try:
            x, iters, pmv = yield from self.newton(x0.copy(), psi_tgt)
        except SolverError:
            x, iters, pmv = yield from self.newton(self.init_vector(), psi_tgt)
        self._last_pinned = x
        return self.state_from(x), iters, pmv

    def balance_with_q(self, q_hvac: float, x0: np.ndarray | None = None
                       ) -> _Steps[tuple[ThermalState, int, np.ndarray]]:
        """Solve the temperatures for a prescribed HVAC heat."""
        x0 = x0 if x0 is not None else self.init_vector()
        x, iters, pmv = yield from self.newton(x0, None, frozen_q=q_hvac)
        return self.state_from(x, frozen_q=q_hvac), iters, pmv

    def window(self, psi_min: float, psi_max: float
               ) -> _Steps[tuple[ThermalState, int, np.ndarray]]:
        """Passive-first window logic; pin to the violated limit if needed.

        The vote saturates at +/-3, so a window bound at the end of the
        scale never binds: the comparison uses the clamped passive PMV.
        """
        passive = yield from self.passive()
        if self.scn.N_pass == 0:
            return passive
        psi_pass = min(3.0, max(-3.0, _mean_psi(passive[2])))
        if psi_min - 1e-12 <= psi_pass <= psi_max + 1e-12:
            return passive
        tgt = psi_min if psi_pass < psi_min else psi_max
        state, iters, pmv = yield from self.pinned(tgt)
        return state, passive[1] + iters, pmv


# ---------------------------------------------------------------------------
# array Newton
# ---------------------------------------------------------------------------

# the starting-point shift of each restart, on the temperatures
_RESTART_SHIFTS = np.array([np.zeros(3)] + [np.random.default_rng(1000 + attempt)
                                             .uniform(-5.0, 5.0, 3)
                                             for attempt in range(1, MAX_RESTARTS + 1)])
# the perturbed (T_cab, T_si) of the PMV row's difference points
_FD_STEPS = PSI_FD_STEP * np.eye(2)


class _Shape(NamedTuple):
    """What the systems of one :class:`_NewtonGroup` share."""

    use_psi: bool
    frozen: bool
    k: int                      # rows and unknowns of the square system
    cols: slice                 # the unknowns' columns of x
    weights: np.ndarray         # of the residual norm
    row_tol: np.ndarray         # absolute tolerance of the PMV row
    is_balance_row: np.ndarray


@lru_cache(maxsize=None)
def _shape(use_psi: bool, frozen: bool) -> _Shape:
    # x is [T_cab, T_si, T_so, Q_hvac]; the rows are cabin air, inner and
    # outer shell (the panel row only fixes P_rh), then the PMV row
    k = 3 + use_psi
    weights = [1e-3] * 3                    # balance rows counted in kW
    tol = [0.0] * 3
    if use_psi:
        weights.append(10.0)                # 0.1 PMV weighs like 1 kW
        tol.append(PSI_ROW_TOL)
    return _Shape(use_psi, frozen, k, slice(0, 3) if frozen else slice(None),
                  np.array(weights), np.array(tol), np.arange(k) < 3)


class _NewtonGroup:
    """Damped Newton on a stack of square systems of one shape.

    Every request of a group has the same branch (RH on or off), the same
    unknowns (Q_hvac frozen or free), the same PMV row (present or not) and
    the same comfort setting; scenarios, configurations and clothing may
    differ row by row.  Either branch solves ``x = [T_cab, T_si, T_so,
    Q_hvac]``; panels, when on, stay at their target temperature.  Each
    row runs the iteration of one scenario:
    backtracking line search on the weighted residual norm, up to
    ``MAX_RESTARTS`` restarts from shifted starting points when it stalls,
    and the PMV row's gradient by forward differences refreshed every 4th
    iteration.  Its convergence, steps, restarts and failure are its own
    masks, so a row takes the same iterates alone as in any stack.  Every
    evaluation, for all live rows at once, makes one
    :func:`reservoir_balance` call, one :func:`pmv_array` call (with a PMV
    row; it also holds the difference points of the rows whose next
    iteration refreshes the gradient) and one stacked ``np.linalg.solve``.
    At the end one more :func:`pmv_array` call evaluates the kernel points
    of every solved row's solution, which :meth:`run` returns with it.

    A state's kernel points (:meth:`_points`) are the same for the PMV row
    and the answer: none for an empty bus, one when every passenger sees
    the same T_mr (the inner shell's temperature), else one per passenger
    at that passenger's mean radiant temperature.
    """

    def __init__(self, requests: list[_NewtonRequest]):
        first = requests[0]
        models = self.models = [req.model for req in requests]
        self.rh_on = first.model.rh_on
        sh = self.shape = _shape(first.psi_tgt is not None, first.frozen_q is not None)
        self.psi_tgts = [req.psi_tgt for req in requests]
        self.x0 = np.array([req.x0 for req in requests], dtype=float)
        if sh.frozen:
            self.x0[:, 3] = [req.frozen_q for req in requests]
        self.coef = np.array([m.coef for m in models])
        self.floor = np.array([m.flow_floor for m in models])
        self.t_rh = np.array([m.cfg.T_rh_tgt for m in models])
        if sh.use_psi:
            self.psi_tgt = np.array(self.psi_tgts)
        self.setting = _comfort_setting(first.model.spec)
        self.r_clo = np.array([m.r_clo for m in models])
        # whether each state is one point, at the inner shell's temperature
        self.all_uniform = all(m.uniform_tmr and m.scn.N_pass > 0 for m in models)
        if not self.all_uniform:
            n_pts = [0 if m.scn.N_pass == 0 else 1 if m.uniform_tmr else m.scn.N_pass
                     for m in models]
            self.n_pts = np.array(n_pts)
            self.uniform = np.array([m.uniform_tmr for m in models])
            self.b_flat = np.concatenate([np.zeros(k) if m.uniform_tmr else m.b_weights
                                          for m, k in zip(models, n_pts)])
            self.b_start = np.cumsum(self.n_pts) - self.n_pts

    # -- one evaluation -------------------------------------------------------

    def _system(self, pos: np.ndarray | None, x: np.ndarray, psi: np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residual rows of the rows ``pos`` (None: every row) at ``x``, the
        flow magnitude of their relative tolerance, and the Jacobian rows of
        the balance.

        The three reservoir rows of the unknowns are followed, with a PMV
        row, by the mean PMV ``psi`` less its target.  The panels' row is
        not solved for: evaluated at ``P_rh = 0`` it is minus the panel
        power, which counts among the flow magnitudes.  A single row goes
        to the kernel as floats, which give the same bits with less
        overhead.
        """
        pick = (lambda a: a) if pos is None else (lambda a: a[pos])
        if x.shape[0] == 1:
            (t_cab, t_si, t_so, q_hvac), = x.tolist()
            i = 0 if pos is None else pos[0]
            coef, t_rh = self.models[i].coef, float(self.t_rh[i])
        else:
            t_cab, t_si, t_so, q_hvac = x.T
            coef, t_rh = BalanceCoefficients(*pick(self.coef).T), pick(self.t_rh)
        f, bal, jac = reservoir_balance(t_cab, t_rh, t_si, t_so, q_hvac, 0.0, coef,
                                        self.rh_on)
        mags = [f["Q_door"], f["Q_h_si"], f["Q_k"], f["Q_h_so"], f["Q_r_so"], q_hvac]
        if self.rh_on:
            mags += [f["Q_r_rh"], f["Q_h_rh"], -bal[..., 3]]
        rows = np.empty((x.shape[0], self.shape.k))
        rows[:, :3] = bal[..., :3]
        if psi is not None:
            rows[:, 3] = psi - pick(self.psi_tgt)
        scale = np.maximum(pick(self.floor), np.abs(mags).max(axis=0))
        return rows, scale, jac.reshape(x.shape[0], *jac.shape[-2:])[:, :3]

    def _points(self, pos, t_cab, t_si) -> tuple:
        """Kernel points ``(air C, radiant C, clothing)`` of the states
        (t_cab, t_si) of the rows ``pos``, state after state."""
        if self.all_uniform:
            return t_cab - KELVIN, t_si - KELVIN, self.r_clo[pos]
        n = self.n_pts[pos]
        first = np.cumsum(n) - n
        of_pt = np.repeat(np.arange(pos.size), n)
        b = self.b_flat[np.arange(of_pt.size) + np.repeat(self.b_start[pos] - first, n)]
        t_si_pt = t_si[of_pt]
        tmr = mixed_radiant_temperature(b, t_si_pt, self.t_rh[pos][of_pt])
        return (t_cab[of_pt] - KELVIN,
                np.where(self.uniform[pos][of_pt], t_si_pt, tmr) - KELVIN,
                self.r_clo[pos][of_pt])

    def _kernel(self, pos, temps) -> tuple[np.ndarray, dict]:
        """Unclamped PMV of the kernel points of the states ``temps`` (rows of
        T_cab, T_si) of the rows ``pos``, state after state, by one
        kernel call, and the errors by state index.  If a point fails, each
        state is evaluated alone (a point's value does not depend on its
        batch); a failed state's values are NaN and its error names its
        scenario."""
        try:
            return pmv_array(*self._points(pos, *temps.T), *self.setting), {}
        except EvaluationError:
            vals, errors = [], {}
            for s in range(pos.size):
                pts = self._points(pos[s:s + 1], *temps[s:s + 1].T)
                try:
                    vals.append(pmv_array(*pts, *self.setting))
                except EvaluationError as err:
                    vals.append(np.full(pts[0].size, np.nan))
                    errors[s] = EvaluationError(f"{err} (scenario {self.models[pos[s]].scn.id!r})")
            return np.concatenate(vals), errors

    def _psi(self, pos, x, grad_rows):
        """Mean PMV at ``x`` of the rows ``pos`` and, at the rows
        ``grad_rows`` (indices into ``pos``), its forward-difference
        gradient in (T_cab, T_si), from one kernel call; then the kernel
        errors by row, at the state and at the difference points."""
        m = pos.size
        temps = x[:, :2]
        if grad_rows.size:
            # one state per perturbed temperature
            temps = np.concatenate([temps, (temps[grad_rows][:, None, :] + _FD_STEPS)
                                    .reshape(-1, 2)])
            pos = np.concatenate([pos, np.repeat(pos[grad_rows], 2)])
        vals, errors = self._kernel(pos, temps)
        if not self.all_uniform:
            # the mean over each state's points, as numpy's row mean of the
            # (states, points) block of one point count
            n = self.n_pts[pos]
            first = np.cumsum(n) - n
            vals, pts = np.empty(pos.size), vals
            for count in np.unique(n):
                states = np.flatnonzero(n == count)
                vals[states] = pts[first[states, None] + np.arange(count)].mean(axis=1)
        grad = (vals[m:].reshape(-1, 2) - vals[grad_rows][:, None]) / PSI_FD_STEP
        return (vals[:m], grad, {s: err for s, err in errors.items() if s < m},
                {int(grad_rows[(s - m) // 2]): err for s, err in errors.items() if s >= m})

    def _solution_pmv(self, pos, x) -> list:
        """Per row of ``pos``, the unclamped PMV of the kernel points of its
        solution ``x``, or its kernel error."""
        sizes = [1] * pos.size if self.all_uniform else self.n_pts[pos].tolist()
        if not any(sizes):
            return [np.zeros(0)] * pos.size
        vals, errors = self._kernel(pos, x[:, :2])
        return [errors[i] if i in errors else vals[end - n:end]
                for i, (n, end) in enumerate(zip(sizes, accumulate(sizes)))]

    def converged(self, pos: np.ndarray, r: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Per row: residuals ``r`` of the rows ``pos`` within tolerance, the
        balance rows relative to the flow magnitude ``scale``."""
        sh = self.shape
        lim = np.where(sh.is_balance_row, (BALANCE_RTOL * scale)[:, None], sh.row_tol)
        return np.logical_and.reduce(np.abs(r) <= lim, axis=1)

    def _step(self, bal_jac: np.ndarray, grad: np.ndarray, r: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray | None]:
        """Newton steps ``-J^-1 r`` from the balance Jacobians and PMV
        gradients, and the mask of rows whose J is singular (None when
        there is none)."""
        sh = self.shape
        n = len(bal_jac)
        jac = np.zeros((n, sh.k, sh.k))
        jac[:, :3] = bal_jac[:, :, sh.cols]
        if sh.use_psi:
            jac[:, 3, :2] = grad
        try:
            return np.linalg.solve(jac, -r[:, :, None])[:, :, 0], None
        except np.linalg.LinAlgError:
            dx = np.zeros(r.shape)
            singular = np.zeros(n, bool)
            for i in range(n):
                try:
                    dx[i] = np.linalg.solve(jac[i], -r[i])
                except np.linalg.LinAlgError:
                    singular[i] = True
            return dx, singular

    # -- the iteration ----------------------------------------------------------

    def run(self) -> list:
        """Per request ``(x, iterations, pmv)`` or its error, ``pmv`` by
        :meth:`_solution_pmv`.

        Row state: ``x`` the accepted iterate and ``xt`` the point to
        evaluate next (a trial step, or the start of an attempt); ``it`` the
        iteration index within the attempt, -1 before its start is
        evaluated, so a row refreshes its PMV gradient where ``it + 1`` is a
        multiple of 4; ``norm`` the weighted residual norm of ``x``, NaN
        before a start, which is therefore always accepted.  Masks that
        would hold every live row are not formed.
        """
        sh = self.shape
        n, cols = len(self.models), sh.cols
        out: list = [None] * n
        pos = np.arange(n)              # the live rows, as request indices
        x = xt = self.x0.copy()
        r = scale = bal_jac = None
        grad = np.zeros((n, 2))
        norm = np.full(n, np.nan)
        it = np.full(n, -1)
        attempt = np.zeros(n, int)
        iters = np.zeros(n, int)
        step = np.ones(n)
        dx = np.zeros((n, sh.k))
        for evaluation in count():
            m = pos.size
            # ---- evaluate every live row at xt
            errors = grad_errors = {}
            psi = None
            if sh.use_psi:
                refresh = np.flatnonzero((it + 1) % 4 == 0)
                psi, grad_t, errors, grad_errors = self._psi(pos, xt, refresh)
            r_t, scale_t, jac_t = self._system(None if m == n else pos, xt, psi)
            w = r_t * sh.weights
            norm_t = np.sqrt(np.add.reduce(w * w, axis=1))
            # ---- accept a start, or a trial step that lowers the norm
            acc = (norm_t < norm) | ~np.isfinite(norm)
            failed = None
            if errors:
                failed = np.zeros(m, bool)
                failed[list(errors)] = True
                acc &= ~failed
                for i, err in errors.items():
                    out[pos[i]] = err
            n_acc = np.count_nonzero(acc)
            if n_acc == m or r is None:
                x, r, scale, bal_jac, norm = xt, r_t, scale_t, jac_t, norm_t
                it += 1
            elif n_acc:
                x, r, scale, bal_jac, norm = (
                    np.where(acc.reshape((m,) + (1,) * (new.ndim - 1)), new, old)
                    for new, old in ((xt, x), (r_t, r), (scale_t, scale), (jac_t, bal_jac),
                                     (norm_t, norm)))
                it += acc
            if sh.use_psi and refresh.size:
                took = acc[refresh]
                grad[refresh[took]] = grad_t[took]
            # ---- accepted rows: converged, out of iterations, or a Newton step
            if n_acc:
                conv = self.converged(pos, r, scale)
                if n_acc < m:
                    conv &= acc
                done = conv if failed is None else conv | failed
                stepping = ~conv if n_acc == m else acc & ~conv
                # no row has taken more steps than there were evaluations
                ended = (stepping & (it >= MAX_NEWTON_ITER) if evaluation >= MAX_NEWTON_ITER
                         else np.zeros(m, bool))
                stepping &= ~ended
                for i, err in grad_errors.items():
                    if stepping[i]:
                        out[pos[i]] = err
                        stepping[i] = False
                        done[i] = True
                n_step = np.count_nonzero(stepping)
                if n_step == m:
                    dx, singular = self._step(bal_jac, grad, r)
                    if singular is not None:
                        ended |= singular
                elif n_step:
                    idx = np.flatnonzero(stepping)
                    dx[idx], singular = self._step(bal_jac[idx], grad[idx], r[idx])
                    if singular is not None:
                        ended[idx[singular]] = True
                iters += stepping
            else:
                done = np.zeros(m, bool) if failed is None else failed
                ended = np.zeros(m, bool)
            # ---- a rejected trial halves its step; too short ends the attempt
            if n_acc == m:
                step = np.ones(m)
            else:
                step = np.where(acc, 1.0, step * LINESEARCH_FACTOR)
                ended |= step < LINESEARCH_MIN
            # ---- ended attempts restart, or fail after the last one
            restart = None
            if failed is not None:
                ended &= ~failed
            if np.count_nonzero(ended):
                attempt += ended
                for i in np.flatnonzero(ended & (attempt > MAX_RESTARTS)):
                    out[pos[i]] = SolverError(
                        f"Newton did not converge for scenario "
                        f"{self.models[pos[i]].scn.id!r} "
                        f"(rh_on={self.rh_on}, psi_tgt={self.psi_tgts[pos[i]]})",
                        last_x=x[i].copy(), last_residuals=r[i].copy())
                    done[i] = True
                restart = np.flatnonzero(ended & ~done)
            n_done = np.count_nonzero(done)
            if n_done:
                for i in np.flatnonzero(done):
                    if out[pos[i]] is None:
                        out[pos[i]] = (x[i].copy(), int(iters[i]))
                if n_done == m:
                    break
            # ---- the next points: trial steps, and the starts of restarts
            if cols == slice(None):
                xt = x + step[:, None] * dx
            else:
                xt = x.copy()
                xt[:, cols] += step[:, None] * dx
            np.minimum(np.maximum(xt[:, :3], T_BOX[0]), T_BOX[1], out=xt[:, :3])
            if restart is not None and restart.size:
                xt[restart] = self.x0[pos[restart]]
                xt[restart, :3] += _RESTART_SHIFTS[attempt[restart]]
                it[restart] = -1
                norm[restart] = np.nan
            if n_done:
                keep = ~done
                pos, x, xt, r, scale, bal_jac, grad, norm, it, attempt, iters, step, dx = (
                    a[keep] for a in (pos, x, xt, r, scale, bal_jac, grad, norm, it, attempt,
                                      iters, step, dx))
        solved = [i for i, o in enumerate(out) if type(o) is tuple]
        if solved:
            pmv = self._solution_pmv(np.array(solved), np.array([out[i][0] for i in solved]))
            for i, p in zip(solved, pmv):
                out[i] = p if isinstance(p, CabinThermError) else out[i] + (p,)
        return out


# ---------------------------------------------------------------------------
# result assembly
# ---------------------------------------------------------------------------

def _mean_psi(pmv: np.ndarray) -> float:
    """Unclamped mean PMV of a state, from the PMV of its kernel points."""
    return float(pmv[0]) if pmv.size == 1 else float(pmv.mean())


def _finalize(model: _BranchModel, state: ThermalState, pmv: np.ndarray,
              solver_name: str, iterations: int) -> SolveResult:
    """The :class:`SolveResult` of a solved state, ``pmv`` the unclamped PMV
    of its kernel points."""
    flows = compute_heat_flows(state, model.scn, model.cfg, model.rh_on)
    n = model.scn.N_pass
    if n:
        # a single point stands for every passenger
        per_pax = (np.full(n, min(3.0, max(-3.0, float(pmv[0])))) if pmv.size == 1
                   else np.clip(pmv, -3.0, 3.0))
        psi = float(np.clip(mean_pmv(per_pax), -3.0, 3.0))
        dissat = ppd_of(psi)
    else:
        per_pax = pmv
        psi = dissat = float("nan")
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
        per_passenger_pmv=tuple(per_pax.tolist()),
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
        solved = yield from model.window(psi_min, psi_max)
    elif model.scn.N_pass == 0:
        solved = yield from model.passive()
    else:
        solved = yield from _opt_solve_branch(model, psi_min, psi_max)
    state, iters, pmv = solved
    return _finalize(model, state, pmv, SOLVER_NAMES[method], iters)


# ---------------------------------------------------------------------------
# public solves: root finding
# ---------------------------------------------------------------------------

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

    Decision vector ``z`` (scaled), the same on either branch: the
    temperatures ``[T_cab, T_si, T_so]`` in K, in the order of the balance
    kernel's unknowns, then heating and cooling heat in kW.  Panels, when
    on, stay at their target temperature; the objective adds their
    electric power, read off the kernel's panel row.  Every function comes
    with its exact gradient: the objective through :meth:`CopCurve.slope`
    and the panel row's Jacobian, the balance equalities through the
    Jacobian rows of :func:`model_core.reservoir_balance`, and the
    surrogate mean PMV through its monomial derivatives
    (:meth:`PmvSurrogate.value_and_grad`) and, with panel view weights, the
    chain rule through each passenger's mean radiant temperature.
    """

    tc, tsi, tso, hp, ac = range(5)
    n_temps, nvar = 3, 5

    def __init__(self, model: _BranchModel):
        self.model = model
        self.surr = get_pmv_surrogate(model.spec)

    def start(self) -> np.ndarray:
        """The cold start: Newton's starting temperatures, no HVAC heat."""
        return np.append(self.model.init_vector(), 0.0)

    def bounds(self) -> list:
        return [(T_BOX[0], T_BOX[1])] * self.n_temps + [(0.0, 500.0)] * 2

    def psi(self, z) -> float:
        """Surrogate mean PMV (view weights exist only with the panels on,
        else ``uniform_tmr``)."""
        model = self.model
        t_cab, t_si = z[self.tc], z[self.tsi]
        if model.uniform_tmr:
            return float(self.surr.evaluate(t_cab - KELVIN, t_si - KELVIN, model.r_clo))
        tmr_c = mixed_radiant_temperature(model.b_weights, t_si, model.cfg.T_rh_tgt) - KELVIN
        vals = self.surr.evaluate(np.full_like(tmr_c, t_cab - KELVIN), tmr_c, model.r_clo)
        return float(np.mean(vals))

    def psi_grad(self, z) -> np.ndarray:
        """d(psi)/dz; per passenger ``dT_mr/dT_si = (1 - b) T_si^3 / T_mr^3``."""
        model = self.model
        g = np.zeros(self.nvar)
        t_cab, t_si = z[self.tc], z[self.tsi]
        if model.uniform_tmr:
            d = self.surr.value_and_grad(t_cab - KELVIN, t_si - KELVIN, model.r_clo)[1]
            g[self.tc], g[self.tsi] = d[0], d[1]
            return g
        b = model.b_weights
        tmr = mixed_radiant_temperature(b, t_si, model.cfg.T_rh_tgt)
        d = self.surr.value_and_grad(np.full_like(tmr, t_cab - KELVIN), tmr - KELVIN,
                                     model.r_clo)[1]
        g[self.tc] = np.mean(d[:, 0])
        g[self.tsi] = np.mean(d[:, 1] / tmr ** 3 * (1.0 - b)) * t_si ** 3
        return g

    def _balance(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Reservoir rows and their Jacobian at ``z``, the panel row (RH
        on) last and at zero panel power: minus the panel power."""
        model = self.model
        t_cab, t_si, t_so, hp, ac = z.tolist()
        _, rows, jac = reservoir_balance(t_cab, model.cfg.T_rh_tgt, t_si, t_so,
                                         (hp - ac) * 1000.0, 0.0, model.coef, model.rh_on)
        return rows, jac

    def equalities(self, z) -> np.ndarray:
        """The rows of cabin air, inner and outer shell in kW."""
        return self._balance(z)[0][:3] * 1e-3

    def equalities_jac(self, z) -> np.ndarray:
        """The kernel's Jacobian on ``z``: temperature columns x 1e-3 (rows
        in kW); ``Q_hvac = 1000 (z_hp - z_ac)``, so its column enters as it
        is, with +1 for ``z_hp`` and -1 for ``z_ac``."""
        jac = self._balance(z)[1][:3]
        out = np.empty((3, self.nvar))
        out[:, :3] = jac[:, :3] * 1e-3
        out[:, self.hp] = jac[:, 3]
        out[:, self.ac] = -jac[:, 3]
        return out

    def objective(self, z) -> float:
        """Electric power in kW."""
        cfg, t_inf = self.model.cfg, self.model.scn.T_inf
        t_cab = z[self.tc]
        p = z[self.hp] / cfg.cop_heating(t_cab - t_inf)
        p += z[self.ac] / cfg.cop_cooling(t_inf - t_cab)
        if self.model.rh_on:
            p -= self._balance(z)[0][3] * 1e-3
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
            g[:3] -= self._balance(z)[1][3, :3] * 1e-3
        return g


def _opt_solve_branch(model: _BranchModel, psi_min: float | None, psi_max: float | None
                      ) -> _Steps[tuple[ThermalState, int, np.ndarray]]:
    """SLSQP minimization of electric power for one RH branch; returns the
    polished state, the iterations and the PMV of the state's kernel points.

    The program and its exact gradients are :class:`_OptProgram`'s.  The
    PMV window constrains the polynomial surrogate; an outer loop moves the
    active surrogate bound, by a secant step on its last two (bound, exact
    PMV) pairs (see :func:`_next_bound`), until the exact PMV of the
    polished solution is within ``_OPT_PSI_TOL`` of the requested window.
    A run whose equalities are violated by 1e-6 or more is repeated from
    the cold start; the run kept must violate them by at most 1e-4.
    """
    scn = model.scn
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
                f"optimization failed for scenario {scn.id!r} (rh_on={model.rh_on}): "
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
        state, iters_polish, pmv = yield from model.balance_with_q(
            q_hvac, np.append(z[:3], q_hvac))

        if not (use_lo or use_hi):
            break
        psi_e = _mean_psi(pmv)
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

    return state, total_nit + iters_polish, pmv


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
