"""Minimum-power solves of the cabin heat balance under comfort constraints.

Two independent routes produce the same operating points:

* **root finding** -- the causality-inverted approach: prescribe the mean
  PMV, append it as an equation to the reservoir balance, and solve the
  square nonlinear system with a damped Newton iteration.  For a PMV
  *window*, the passive system (zero HVAC heat) is solved first; only if
  its comfort is outside the window is the system re-solved with the PMV
  pinned to the violated limit.
* **optimization** -- a constrained nonlinear program over separately
  metered heating/cooling heat, with the balance as equality constraints
  and the PMV window as inequalities on the exact mean PMV, solved by one
  SLSQP run with the exact gradient of every function (COP-curve slopes,
  the balance kernel's Jacobian, the ISO 7730 kernel's partial
  derivatives).  A Newton solve then polishes the balance at the decided
  heat, and the polished state's exact PMV must meet the window.

Both routes share one radiant-heater branch selector,
:class:`ScenarioSweeper`: it solves once with the panels held at their
target temperature and once with them removed, by the route it was built
for, and keeps whichever needs less total electric power.  The routes also
share the heat balance (:func:`model_core.reservoir_balance`), the comfort
of a state (:class:`_StateComfort`), the process's one store of panel view
weights (:class:`ViewWeightsCache`) and the per-branch result assembly.
Both branches solve the same four unknowns,
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
line search, warm starts) stays its own and does not depend on what it
runs beside: the kernels work row by row and point by point, so a value is
the same bits in any batch.  :func:`settle` runs many sweepers
(:class:`ScenarioSweeper`) window by window.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Generator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, TypeVar

import numpy as np
from scipy.optimize import minimize

from .comfort import ComfortSpec, clothing_insulation, mean_pmv, pmv_array, ppd as ppd_of
from .errors import CabinThermError, ConfigError, EvaluationError, SolverError
from .model_core import (BalanceCoefficients, BusConfig, HeatFlows, KELVIN, Scenario,
                         ThermalState, assemble_heat_flows, balance_coefficients,
                         balance_residuals, max_abs_flow, reservoir_balance)
from .radiant_geometry import (CABIN_HEIGHT, CABIN_LENGTH, CABIN_WIDTH, STRIP_PANEL_WIDTH,
                               STRIP_PANELS, CabinLayout, PassengerCuboid,
                               ceiling_panel_strip, mixed_radiant_temperature,
                               panel_view_weights, placement_grid, placement_slots)
from .scenario import placement_seed

MAX_NEWTON_ITER = 100
LINESEARCH_FACTOR = 0.5
LINESEARCH_MIN = 1e-4
BALANCE_RTOL = 1e-6     # per watt of the largest flow
PSI_ROW_TOL = 1e-8      # PMV units
T_BOX = (210.0, 400.0)  # K, Newton iterate clamp

MODE_HEATING = "heating"
MODE_COOLING = "cooling"
MODE_PASSIVE = "passive"

# solve route -> ``SolveResult.solver``
SOLVER_NAMES = {"rootfind": "rootfind", "opt": "optimization"}

_T = TypeVar("_T")
# solve steps returning a _T: yield Newton requests, are sent their answers
_Steps = Generator[tuple, object, _T]
# a Newton answer: the solution x, its iterations and the unclamped PMV of
# its kernel points
_Answer = tuple[np.ndarray, int, np.ndarray]


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
    res = balance_residuals(result.state, scn, cfg, result.rh_used)
    tol = BALANCE_RTOL * max(1.0, max_abs_flow(result.flows))
    worst = float(np.max(np.abs(res)))
    return worst, tol, worst <= tol


def default_layout(cfg: BusConfig, length: float = CABIN_LENGTH,
                   width: float = CABIN_WIDTH, height: float = CABIN_HEIGHT,
                   n_panels: int = STRIP_PANELS,
                   panel_width: float = STRIP_PANEL_WIDTH) -> CabinLayout:
    """Cabin layout matching ``cfg``: a centered ceiling strip of ``n_panels``
    panels of total area ``cfg.A_rh`` (no panels when it is zero).  With
    the size defaults it is the built-in cabin."""
    panels = (ceiling_panel_strip(length, width, height, cfg.A_rh, n_panels, panel_width)
              if cfg.A_rh > 0 else ())
    return CabinLayout(length, width, height, panels)


class ViewWeightsCache:
    """Per-passenger panel view weights from one table per cabin layout.

    A passenger stands on a slot of :func:`placement_grid`, so its view
    weight depends only on the slot and the layout.  The first request for
    a layout computes the weights of all its slots in one
    :func:`panel_view_weights` call; a scenario's weights are that table at
    its seeded slots (:func:`placement_slots`), the same bits as the
    weights of its placed passengers.  Value-equal layouts share a table.
    """

    def __init__(self):
        self._tables: dict[CabinLayout, np.ndarray] = {}

    def get(self, scn: Scenario, layout: CabinLayout, seed: int) -> np.ndarray:
        table = self._tables.get(layout)
        if table is None:
            on_every_slot = [PassengerCuboid(x, y) for x, y in placement_grid(layout)]
            table = self._tables[layout] = panel_view_weights(on_every_slot, layout)
        return table[placement_slots(scn.N_pass, seed, layout)]


# The view-weight store of the process, read by every branch model: each
# layout's table is computed once per process.  A forked pool worker
# inherits it and fills its own copy, once per layout.
_VIEW_WEIGHTS = ViewWeightsCache()


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
    them), clothing insulation, and, with the panels on, per-passenger
    panel view weights, read off the layout's slot table in the process's
    store (``_VIEW_WEIGHTS``).  The methods that need a Newton solve are solve
    steps (generators for :func:`_lockstep`, see the module docstring);
    each returns a Newton answer ``(x, iterations, pmv)``, which
    :func:`_finalize` turns into the reported state.
    """

    def __init__(self, scn: Scenario, cfg: BusConfig, spec: ComfortSpec,
                 rh_on: bool, layout: CabinLayout | None = None,
                 seed: int = 0):
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
            self.b_weights = _VIEW_WEIGHTS.get(scn, layout, placement_seed(scn.id, seed))
        else:
            self.b_weights = np.zeros(scn.N_pass)
        # without panel view weights every passenger sees the same T_mr,
        # so the mean PMV needs a single evaluation
        self.uniform_tmr = scn.N_pass == 0 or not np.any(self.b_weights > 0.0)
        # the balance's flow magnitude floor: 1 W and the state-independent gains
        self.flow_floor = max(1.0, abs(self.coef.Q_pass), self.coef.Q_sol_so)
        self._passive: _Answer | None = None
        self._last_pinned: np.ndarray | None = None

    # -- unknowns: [T_cab, T_si, T_so, Q_hvac] on either branch --------------

    def init_vector(self) -> np.ndarray:
        t_inf = self.scn.T_inf
        return np.array([min(max(t_inf, 285.0), 299.0), t_inf, t_inf, 0.0])

    # -- damped Newton ------------------------------------------------------

    def newton(self, x0: np.ndarray, psi_tgt: float | None,
               frozen_q: float | None = None) -> _Steps[_Answer]:
        """Damped Newton on the square system (solve steps); returns
        ``(x, iterations, pmv)``, ``pmv`` the unclamped PMV of the kernel
        points of the solution.

        ``frozen_q`` removes Q_hvac from the unknowns and holds ``x[3]`` at
        the given value (passive solves use 0); ``psi_tgt`` appends the PMV
        row.  The solve is one :class:`_NewtonRequest`, run by
        :func:`_lockstep` as a row of an array Newton (:class:`_NewtonGroup`).
        """
        return (yield _NewtonRequest(self, x0, psi_tgt, frozen_q))

    # -- branch-level solves (solve steps) ----------------------------------

    def passive(self) -> _Steps[_Answer]:
        """Zero-HVAC-heat solution (panels, when on, still at target)."""
        if self._passive is None:
            self._passive = yield from self.newton(self.init_vector(), None, frozen_q=0.0)
        return self._passive

    def pinned(self, psi_tgt: float) -> _Steps[_Answer]:
        """Solve with the mean PMV pinned to ``psi_tgt``."""
        x0 = self._last_pinned if self._last_pinned is not None else self.init_vector()
        try:
            answer = yield from self.newton(x0.copy(), psi_tgt)
        except SolverError:
            answer = yield from self.newton(self.init_vector(), psi_tgt)
        self._last_pinned = answer[0]
        return answer

    def window(self, psi_min: float, psi_max: float) -> _Steps[_Answer]:
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
        x, iters, pmv = yield from self.pinned(tgt)
        return x, passive[1] + iters, pmv


# ---------------------------------------------------------------------------
# the comfort of solve states
# ---------------------------------------------------------------------------

class _StateComfort:
    """Exact comfort of the states ``(T_cab, T_si)`` of a list of branch
    models with one comfort setting, for both solve routes: the PMV row of
    :class:`_NewtonGroup` and the PMV constraint of :class:`_OptProgram`.

    A state's kernel points are none for an empty bus, one when every
    passenger sees the same T_mr (the inner shell's temperature), else one
    per passenger at that passenger's mean radiant temperature.  Every
    method takes ``pos``, the indices of the models whose states it gets,
    and evaluates all their points in one :func:`pmv_array` call.
    """

    def __init__(self, models: list[_BranchModel]):
        self.models = models
        self.t_rh = np.array([m.cfg.T_rh_tgt for m in models])
        self.setting = _comfort_setting(models[0].spec)
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

    def points(self, pos, t_cab, t_si) -> tuple:
        """Kernel points ``(air C, radiant C, clothing)`` of the states
        (t_cab, t_si) of the rows ``pos``, state after state, and per point
        ``dT_mr/dT_si`` (None when every point is at the inner shell's
        temperature)."""
        if self.all_uniform:
            return (t_cab - KELVIN, t_si - KELVIN, self.r_clo[pos]), None
        n = self.n_pts[pos]
        first = np.cumsum(n) - n
        of_pt = np.repeat(np.arange(pos.size), n)
        b = self.b_flat[np.arange(of_pt.size) + np.repeat(self.b_start[pos] - first, n)]
        t_si_pt = t_si[of_pt]
        tmr = mixed_radiant_temperature(b, t_si_pt, self.t_rh[pos][of_pt])
        uniform = self.uniform[pos][of_pt]
        dtmr = np.where(uniform, 1.0, (1.0 - b) * (t_si_pt * t_si_pt * t_si_pt)
                        / (tmr * tmr * tmr))
        return (t_cab[of_pt] - KELVIN, np.where(uniform, t_si_pt, tmr) - KELVIN,
                self.r_clo[pos][of_pt]), dtmr

    def kernel(self, pos, temps, grad: bool = False) -> tuple[list, dict]:
        """Unclamped PMV of the kernel points of the states ``temps`` (rows of
        T_cab, T_si) of the rows ``pos``, state after state, by one kernel
        call, and the errors by state index.  With ``grad`` the PMV comes
        with its partial derivatives in the state's T_cab and T_si, point by
        point.  If a point fails, each state is evaluated alone (a point's
        outputs do not depend on its batch); a failed state's outputs are
        NaN and its error names its scenario."""
        def at(p, t):
            pts, dtmr = self.points(p, *t.T)
            if not grad:
                return [pmv_array(*pts, *self.setting)]
            val, d_ta, d_tr = pmv_array(*pts, *self.setting, grad=True)
            return [val, d_ta, d_tr if dtmr is None else d_tr * dtmr]

        try:
            return at(pos, temps), {}
        except EvaluationError:
            outs, errors = [], {}
            for s in range(pos.size):
                try:
                    outs.append(at(pos[s:s + 1], temps[s:s + 1]))
                except EvaluationError as err:
                    n = self.points(pos[s:s + 1], *temps[s:s + 1].T)[0][0].size
                    outs.append([np.full(n, np.nan)] * (1 + 2 * grad))
                    errors[s] = EvaluationError(f"{err} (scenario {self.models[pos[s]].scn.id!r})")
            return [np.concatenate(c) for c in zip(*outs)], errors

    def psi(self, pos, x) -> tuple[np.ndarray, np.ndarray, dict, np.ndarray]:
        """Mean PMV at ``x`` of the rows ``pos``, its gradient in (T_cab,
        T_si), the kernel errors by row and the PMV of every kernel point,
        state after state, from one kernel call."""
        (vals, d_cab, d_si), errors = self.kernel(pos, x[:, :2], grad=True)
        if self.all_uniform:
            return vals, np.array([d_cab, d_si]).T, errors, vals
        # the mean over each state's points, as numpy's mean over the
        # (states, points) block of one point count
        n = self.n_pts[pos]
        first = np.cumsum(n) - n
        pts, out = np.stack([vals, d_cab, d_si], axis=1), np.empty((pos.size, 3))
        for count in np.unique(n):
            states = np.flatnonzero(n == count)
            out[states] = pts[first[states, None] + np.arange(count)].mean(axis=1)
        return out[:, 0], out[:, 1:], errors, vals

    def row_pmv(self, pos, vals, rows) -> list:
        """Per index of ``rows`` into ``pos``, that row's part of ``vals``,
        the PMV of the kernel points of the rows ``pos``, state after state."""
        if self.all_uniform:
            return [vals[i:i + 1] for i in rows]
        n = self.n_pts[pos]
        first = np.cumsum(n) - n
        return [vals[first[i]:first[i] + n[i]] for i in rows]

    def solution_pmv(self, pos, x) -> list:
        """Per row of ``pos``, the unclamped PMV of the kernel points of its
        solution ``x``, or its kernel error."""
        if not self.all_uniform and not self.n_pts[pos].any():
            return [np.zeros(0)] * pos.size
        (vals,), errors = self.kernel(pos, x[:, :2])
        return [errors[i] if i in errors else p
                for i, p in enumerate(self.row_pmv(pos, vals, range(pos.size)))]


# ---------------------------------------------------------------------------
# array Newton
# ---------------------------------------------------------------------------

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
    Q_hvac]``; panels, when on, stay at their target temperature.  Each row
    runs the iteration of one scenario from one start, with a backtracking
    line search on the weighted residual norm, and fails when the search
    stalls, J is singular or ``MAX_NEWTON_ITER`` steps pass: the balance
    has one root (an M-function), and no failing request of the
    wide-envelope search in ``tests/test_properties.py`` solves from a
    shifted start.  A row's convergence, steps and failure are its own
    masks, so it takes the same iterates alone as in any stack.  The PMV
    row's gradient is exact at every iterate: the kernel's own partial
    derivatives (``pmv_array(..., grad=True)``), chained through each
    passenger's mean radiant temperature.  Every evaluation, for all live
    rows at once, makes one :func:`reservoir_balance` call, one
    :func:`pmv_array` call (with a PMV row) and one stacked
    ``np.linalg.solve``.  The PMV row and the answers of :meth:`run` both
    read one :class:`_StateComfort` of the group's models, so a state's
    kernel points are the same for both.
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
        if sh.use_psi:
            self.psi_tgt = np.array(self.psi_tgts)
        self.comfort = _StateComfort(models)

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
            coef, t_rh = self.models[i].coef, float(self.comfort.t_rh[i])
        else:
            t_cab, t_si, t_so, q_hvac = x.T
            coef, t_rh = BalanceCoefficients(*pick(self.coef).T), pick(self.comfort.t_rh)
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
        """Per request ``(x, iterations, pmv)`` or its error, ``pmv`` the
        PMV of the kernel points of ``x``.  A row converges only on an
        iterate it has just accepted, so with a PMV row its ``pmv`` is
        that evaluation's (the kernel's values do not depend on ``grad`` or
        the batch); otherwise :meth:`_StateComfort.solution_pmv` evaluates
        it.

        Row state: ``x`` the accepted iterate and ``xt`` the point to
        evaluate next (the start, or a trial step), and with ``x`` its
        residuals ``r``, their flow magnitude ``scale``, the balance
        Jacobian ``bal_jac`` and the PMV gradient ``grad`` (no columns
        without a PMV row); ``iters`` the Newton steps taken; ``norm`` the
        weighted residual norm of ``x``, NaN before the start, which is
        therefore always accepted.  Masks that would hold every live row
        are not formed.
        """
        sh = self.shape
        n, cols = len(self.models), sh.cols
        out: list = [None] * n
        pos = np.arange(n)              # the live rows, as request indices
        x = xt = self.x0.copy()
        r = scale = bal_jac = grad = None
        norm = np.full(n, np.nan)
        iters = np.zeros(n, int)
        step = np.ones(n)
        dx = np.zeros((n, sh.k))
        while True:
            m = pos.size
            # ---- evaluate every live row at xt
            errors = {}
            psi, grad_t = None, np.empty((m, 0))
            if sh.use_psi:
                psi, grad_t, errors, pmv_t = self.comfort.psi(pos, xt)
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
                x, r, scale, bal_jac, grad, norm = xt, r_t, scale_t, jac_t, grad_t, norm_t
            elif n_acc:
                x, r, scale, bal_jac, grad, norm = (
                    np.where(acc.reshape((m,) + (1,) * (new.ndim - 1)), new, old)
                    for new, old in ((xt, x), (r_t, r), (scale_t, scale), (jac_t, bal_jac),
                                     (grad_t, grad), (norm_t, norm)))
            # ---- accepted rows: converged, out of iterations, or a Newton step
            if n_acc:
                conv = self.converged(pos, r, scale)
                if n_acc < m:
                    conv &= acc
                done = conv if failed is None else conv | failed
                stepping = ~conv if n_acc == m else acc & ~conv
                ended = stepping & (iters >= MAX_NEWTON_ITER)
                stepping &= ~ended
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
            # ---- a rejected trial halves its step; too short ends the row
            if n_acc == m:
                step = np.ones(m)
            else:
                step = np.where(acc, 1.0, step * LINESEARCH_FACTOR)
                ended |= step < LINESEARCH_MIN
            # ---- ended rows fail
            if failed is not None:
                ended &= ~failed
            for i in np.flatnonzero(ended):
                out[pos[i]] = SolverError(
                    f"Newton did not converge for scenario {self.models[pos[i]].scn.id!r} "
                    f"(rh_on={self.rh_on}, psi_tgt={self.psi_tgts[pos[i]]})",
                    last_x=x[i].copy(), last_residuals=r[i].copy())
                done[i] = True
            n_done = np.count_nonzero(done)
            if n_done:
                converged_now = [i for i in np.flatnonzero(done) if out[pos[i]] is None]
                for i in converged_now:
                    out[pos[i]] = (x[i].copy(), int(iters[i]))
                if sh.use_psi:
                    for i, p in zip(converged_now, self.comfort.row_pmv(pos, pmv_t, converged_now)):
                        out[pos[i]] += (p,)
                if n_done == m:
                    break
            # ---- the next points: trial steps
            if cols == slice(None):
                xt = x + step[:, None] * dx
            else:
                xt = x.copy()
                xt[:, cols] += step[:, None] * dx
            np.minimum(np.maximum(xt[:, :3], T_BOX[0]), T_BOX[1], out=xt[:, :3])
            if n_done:
                keep = ~done
                pos, x, xt, r, scale, bal_jac, grad, norm, iters, step, dx = (
                    a[keep] for a in (pos, x, xt, r, scale, bal_jac, grad, norm, iters, step,
                                      dx))
        solved = [i for i, o in enumerate(out) if type(o) is tuple and len(o) == 2]
        if solved:
            pmv = self.comfort.solution_pmv(np.array(solved), np.array([out[i][0] for i in solved]))
            for i, p in zip(solved, pmv):
                out[i] = p if isinstance(p, CabinThermError) else out[i] + (p,)
        return out


# ---------------------------------------------------------------------------
# result assembly
# ---------------------------------------------------------------------------

def _mean_psi(pmv: np.ndarray) -> float:
    """Unclamped mean PMV of a state, from the PMV of its kernel points."""
    return float(pmv[0]) if pmv.size == 1 else float(pmv.mean())


def _finalize(model: _BranchModel, answer: _Answer, solver_name: str) -> SolveResult:
    """The :class:`SolveResult` of a Newton answer ``(x, iterations, pmv)``
    of ``model``, ``pmv`` the unclamped PMV of the kernel points of ``x``.

    One balance kernel call on the model's coefficients gives every flow
    of the state and, with the panels on (at their target temperature),
    their electric power: the panel row at zero panel power is minus it.
    Without panels ``T_rh`` reads as ``T_cab`` and ``P_rh`` as zero.  A
    state that :class:`ThermalState` rejects (powered panels colder than
    the cabin air) raises a :class:`SolverError` that names the scenario.
    """
    x, iterations, pmv = answer
    t_cab, t_si, t_so, q_hvac = x.tolist()
    if abs(q_hvac) < 1e-9:
        q_hvac = 0.0
    t_rh = float(model.cfg.T_rh_tgt) if model.rh_on else t_cab
    kernel_flows, rows, _ = reservoir_balance(t_cab, t_rh, t_si, t_so, q_hvac, 0.0,
                                              model.coef, model.rh_on)
    p_rh = max(-float(rows[3]), 0.0) if model.rh_on else 0.0
    try:
        state = ThermalState(T_cab=t_cab, T_rh=t_rh, T_si=t_si, T_so=t_so, Q_hvac=q_hvac,
                             P_rh=p_rh)
    except ConfigError as err:
        raise SolverError(f"{err}: scenario {model.scn.id!r} (rh_on={model.rh_on}) solved to "
                          f"T_rh = {t_rh:.3f} K, T_cab = {t_cab:.3f} K", last_x=x) from err
    flows = assemble_heat_flows(state, model.coef, kernel_flows, model.cfg, model.rh_on)
    n = model.scn.N_pass
    if n:
        # a single point stands for every passenger
        per_pax = (np.full(n, min(3.0, max(-3.0, float(pmv[0])))) if pmv.size == 1
                   else np.clip(pmv, -3.0, 3.0))
        psi = min(3.0, max(-3.0, mean_pmv(per_pax)))
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
        answer = yield from model.window(psi_min, psi_max)
    elif model.scn.N_pass == 0:
        answer = yield from model.passive()
    else:
        answer = yield from _opt_solve_branch(model, psi_min, psi_max)
    return _finalize(model, answer, SOLVER_NAMES[method])


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

_OPT_PSI_TOL = 1e-7
_ONE_ROW = np.zeros(1, dtype=int)   # the rows of a one-model _StateComfort


class _OptProgram:
    """The nonlinear program of the optimization route for one RH branch.

    Decision vector ``z`` (scaled), the same on either branch: the
    temperatures ``[T_cab, T_si, T_so]`` in K, in the order of the balance
    kernel's unknowns, then heating and cooling heat in kW.  Panels, when
    on, stay at their target temperature; the objective adds their
    electric power, read off the kernel's panel row.  Every function comes
    with its exact gradient: the objective through :meth:`CopCurve.slope`
    and the panel row's Jacobian, the balance equalities through the
    Jacobian rows of :func:`model_core.reservoir_balance`, and the exact
    mean PMV through :class:`_StateComfort`, the evaluator of Newton's PMV
    row.

    The balance and the mean PMV are each evaluated once per distinct
    ``z``, when a function first needs them; every function and gradient
    at that ``z`` reads the same evaluation.
    """

    tc, tsi, tso, hp, ac = range(5)
    n_temps, nvar = 3, 5

    def __init__(self, model: _BranchModel):
        self.model = model
        self.comfort = _StateComfort([model])
        self._key: bytes | None = None
        self._memo: dict = {}

    def start(self) -> np.ndarray:
        """The cold start: Newton's starting temperatures, no HVAC heat."""
        return np.append(self.model.init_vector(), 0.0)

    def bounds(self) -> list:
        return [(T_BOX[0], T_BOX[1])] * self.n_temps + [(0.0, 500.0)] * 2

    def _at(self, z) -> dict:
        """The evaluations made at ``z`` so far; a new ``z`` starts afresh."""
        key = z.tobytes()
        if key != self._key:
            self._key, self._memo = key, {}
        return self._memo

    def _balance(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Reservoir rows and their Jacobian at ``z``, the panel row (RH
        on) last and at zero panel power: minus the panel power."""
        memo = self._at(z)
        if "balance" not in memo:
            model = self.model
            t_cab, t_si, t_so, hp, ac = z.tolist()
            memo["balance"] = reservoir_balance(t_cab, model.cfg.T_rh_tgt, t_si, t_so,
                                                (hp - ac) * 1000.0, 0.0, model.coef,
                                                model.rh_on)[1:]
        return memo["balance"]

    def _comfort(self, z) -> tuple[float, np.ndarray]:
        """Exact unclamped mean PMV at ``z`` and its gradient in z, from
        the program's :class:`_StateComfort` at the state ``z[:2]``."""
        memo = self._at(z)
        if "comfort" not in memo:
            psi, grad, errors, _ = self.comfort.psi(_ONE_ROW, z[None, :2])
            if errors:
                raise errors[0]
            g = np.zeros(self.nvar)
            g[:2] = grad[0]     # z starts [T_cab, T_si]
            memo["comfort"] = float(psi[0]), g
        return memo["comfort"]

    def psi(self, z) -> float:
        """Exact unclamped mean PMV."""
        return self._comfort(z)[0]

    def psi_grad(self, z) -> np.ndarray:
        """d(psi)/dz."""
        return self._comfort(z)[1]

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


def _opt_solve_branch(model: _BranchModel, psi_min: float, psi_max: float
                      ) -> _Steps[_Answer]:
    """SLSQP minimization of electric power for one RH branch of a bus with
    passengers; returns the Newton answer of the polished state with the
    SLSQP iterations added.

    The program and its exact gradients are :class:`_OptProgram`'s; the
    PMV window constrains the exact mean PMV.  One SLSQP run from the cold
    start decides the HVAC heat, any heating/cooling overlap is cancelled,
    and a Newton solve polishes the balance at that heat.  A run whose
    equalities are violated by more than 1e-4 raises, and so does a
    polished state whose exact mean PMV is outside the window by more than
    ``_OPT_PSI_TOL``.
    """
    scn = model.scn
    prog = _OptProgram(model)
    # the vote saturates at +/-3: a window bound on the end of the scale
    # never binds and is dropped from the program
    use_lo = psi_min > -3.0 + 1e-12
    use_hi = psi_max < 3.0 - 1e-12
    cons = [{"type": "eq", "fun": prog.equalities, "jac": prog.equalities_jac}]
    if use_lo and use_hi and (psi_max - psi_min) < 1e-12:
        cons.append({"type": "eq", "fun": lambda z: prog.psi(z) - psi_min,
                     "jac": prog.psi_grad})
    elif use_lo or use_hi:
        # one PMV evaluation serves both rows: psi - lo, hi - psi
        sign = np.array([1.0] * use_lo + [-1.0] * use_hi)
        bound = np.array([psi_min] * use_lo + [psi_max] * use_hi)
        cons.append({"type": "ineq", "fun": lambda z: sign * (prog.psi(z) - bound),
                     "jac": lambda z: np.outer(sign, prog.psi_grad(z))})
    res = minimize(prog.objective, prog.start(), method="SLSQP", jac=prog.objective_grad,
                   bounds=prog.bounds(), constraints=cons,
                   options={"maxiter": 300, "ftol": 1e-12})
    if float(np.max(np.abs(prog.equalities(res.x)))) > 1e-4:
        raise SolverError(
            f"optimization failed for scenario {scn.id!r} (rh_on={model.rh_on}): "
            f"{res.message}", last_x=res.x)
    z = res.x.copy()

    # simultaneous heating and cooling is never optimal; cancel overlap
    m = min(z[prog.hp], z[prog.ac])
    if m > 0:
        z[prog.hp] -= m
        z[prog.ac] -= m

    # polish the balance exactly with the decided HVAC heat
    q_hvac = (z[prog.hp] - z[prog.ac]) * 1000.0
    x, iters_polish, pmv = yield from model.newton(np.append(z[:3], q_hvac), None,
                                                   frozen_q=q_hvac)
    if use_lo or use_hi:
        psi_e = _mean_psi(pmv)
        if ((use_lo and psi_e < psi_min - _OPT_PSI_TOL)
                or (use_hi and psi_e > psi_max + _OPT_PSI_TOL)):
            raise SolverError(
                f"optimization missed the PMV window [{psi_min}, {psi_max}] for scenario "
                f"{scn.id!r} (rh_on={model.rh_on}): exact mean PMV {psi_e:.9f}",
                last_x=res.x)
    return x, int(res.nit) + iters_polish, pmv


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
    The branches keep their passive solutions, panel view weights and
    last pinned iterate across windows, so a sweep pays the scenario-level
    setup once.  The view weights come from the layout's slot table in the
    process's store, computed once per layout.  A ``layout`` of None is the
    built-in cabin with ``cfg``'s panel area (:func:`default_layout`), not a
    loaded configuration's ``AppConfig.layout``.
    """

    def __init__(self, scn: Scenario, cfg: BusConfig, spec: ComfortSpec,
                 layout: CabinLayout | None = None, seed: int = 0,
                 method: str = "rootfind"):
        if method not in SOLVER_NAMES:
            raise ConfigError(f"unknown solver method {method!r}")
        self.method = method
        self.models = [_BranchModel(scn, cfg, spec, False, layout, seed)]
        if cfg.rh_enabled and cfg.A_rh > 0:
            self.models.append(_BranchModel(scn, cfg, spec, True, layout, seed))
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
