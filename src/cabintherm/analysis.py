"""Year-round aggregation, Pareto sweeps, concept comparison, sensitivities.

Scenario datasets are not uniform across the year, so all annual figures
average month-first: per-month means over that month's scenarios, then the
plain mean of the twelve monthly values.  Comfort aggregates as PPD, never
as PMV -- a fleet that is +1 in summer and -1 in winter is *not* neutral.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .comfort import ComfortSpec
from .errors import CabinThermError, ConfigError, DataError
from .model_core import BusConfig
from .radiant_geometry import CabinLayout
from .scenario import ScenarioSet
from .solver import (MODE_COOLING, MODE_HEATING, MODE_PASSIVE, ScenarioSweeper,
                     SolveResult, ViewWeightsCache, default_layout, settle)


@dataclass(frozen=True)
class MonthlySummary:
    """Per-month means; ``n == 0`` marks a month absent from the dataset."""

    month: int
    n: int
    P_hvac: float
    P_rh: float
    P_tot: float
    Q_heat: float       # mean of the positive part of Q_hvac
    Q_cool: float       # mean of the negative part, reported positive
    frac_heating: float
    frac_cooling: float
    frac_passive: float
    ppd: float


@dataclass(frozen=True)
class AnnualSummary:
    """Month-first annual averages over one solved scenario set."""

    monthly: tuple[MonthlySummary, ...]
    annual_mean_P_hvac: float
    annual_mean_P_rh: float
    annual_mean_P_tot: float
    annual_mean_Q_heat: float
    annual_mean_Q_cool: float
    annual_mean_ppd: float
    heating_cooling_ratio: float


@dataclass(frozen=True)
class ParetoPoint:
    half_width: float           # PMV window half-width
    annual_mean_P_tot: float    # W
    annual_mean_ppd: float      # %


@dataclass(frozen=True)
class SensitivityEntry:
    parameter: str
    direction: int              # +1, -1, or 0 for the baseline row
    rel_change_pct: float       # relative change of annual mean P_tot, %
    p5_pct: float               # 5th percentile of per-scenario changes, %
    p95_pct: float


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def monthly_table(results, sset: ScenarioSet) -> list[MonthlySummary]:
    """Monthly means; months without scenarios are flagged with ``n == 0``."""
    month_of = {s.id: s.month for s in sset}
    if len(results) != len(sset):
        raise DataError(f"{len(results)} results for {len(sset)} scenarios")
    by_month: dict[int, list[SolveResult]] = {m: [] for m in range(1, 13)}
    for r in results:
        if r.scenario_id not in month_of:
            raise DataError(f"result for unknown scenario id {r.scenario_id!r}")
        by_month[month_of[r.scenario_id]].append(r)

    rows = []
    for m in range(1, 13):
        rs = by_month[m]
        if not rs:
            rows.append(MonthlySummary(m, 0, *(float("nan"),) * 9))
            continue
        n = len(rs)
        q = np.array([r.flows.Q_hvac for r in rs])
        ppds = np.array([r.ppd for r in rs])
        modes = [r.mode for r in rs]
        rows.append(MonthlySummary(
            month=m,
            n=n,
            P_hvac=float(np.mean([r.flows.P_hvac for r in rs])),
            P_rh=float(np.mean([r.flows.P_rh for r in rs])),
            P_tot=float(np.mean([r.P_tot for r in rs])),
            Q_heat=float(np.maximum(q, 0.0).mean()),
            Q_cool=float(np.maximum(-q, 0.0).mean()),
            frac_heating=modes.count(MODE_HEATING) / n,
            frac_cooling=modes.count(MODE_COOLING) / n,
            frac_passive=modes.count(MODE_PASSIVE) / n,
            ppd=float(np.nanmean(ppds)) if not np.all(np.isnan(ppds)) else float("nan"),
        ))
    return rows


def aggregate_annual(results, sset: ScenarioSet) -> AnnualSummary:
    """Month-first annual aggregation.

    Every month must be represented; empty-bus scenarios contribute power
    but no PPD (there is nobody aboard to be dissatisfied).
    """
    rows = monthly_table(results, sset)
    missing = [r.month for r in rows if r.n == 0]
    if missing:
        raise DataError(f"months without scenarios: {missing}")
    mean_q_cool = float(np.mean([r.Q_cool for r in rows]))
    ratio = (float(np.mean([r.Q_heat for r in rows])) / mean_q_cool
             if mean_q_cool > 0 else math.inf)
    return AnnualSummary(
        monthly=tuple(rows),
        annual_mean_P_hvac=float(np.mean([r.P_hvac for r in rows])),
        annual_mean_P_rh=float(np.mean([r.P_rh for r in rows])),
        annual_mean_P_tot=float(np.mean([r.P_tot for r in rows])),
        annual_mean_Q_heat=float(np.mean([r.Q_heat for r in rows])),
        annual_mean_Q_cool=mean_q_cool,
        annual_mean_ppd=float(np.nanmean([r.ppd for r in rows])),
        heating_cooling_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# batch solving
# ---------------------------------------------------------------------------

# Scenarios solved side by side at most: the batch of a pool worker and the
# slice of a serial run, so that the suspended solves stay small in memory
# (unsliced, the 3 x 7500 concept comparison at jobs=1 peaked at 352 MB,
# with 256-scenario slices at 138 MB).
_LOCKSTEP_SCENARIOS = 256


def _solve_chunk(args):
    """results[scenario][concept][window] for one slice of scenarios.

    Every (scenario, concept) pair of the slice is solved at one window at
    a time in lockstep (:func:`solver.settle`), so a Newton round of the
    slice is one array Newton per branch shape and one batched PMV kernel
    call per evaluation.  The results are then taken from
    :meth:`ScenarioSweeper.solve` in scenario-major order, so a failing
    slice raises the error of its first failing scenario in dataset order,
    and a scenario whose sweeper cannot be built raises only after the
    scenarios before it.  One :class:`ViewWeightsCache` serves the slice:
    every scenario, concept and window on one cabin layout reads its view
    weights from that layout's slot table, so a slice makes one
    ``panel_view_weights`` call per distinct layout.
    """
    scenarios, concepts, spec, windows, seed, method = args
    cache = ViewWeightsCache()
    rows: list[list[ScenarioSweeper]] = []
    build_error = None
    try:
        for scn in scenarios:
            rows.append([])
            for cfg, layout in concepts:
                rows[-1].append(ScenarioSweeper(scn, cfg, spec, layout, seed, cache, method))
    except CabinThermError as err:
        build_error = err
    settle([sw for row in rows for sw in row], windows)
    out = [[[sw.solve(lo, hi) for lo, hi in windows] for sw in row] for row in rows]
    if build_error is not None:
        raise build_error
    return out


# (workers, pool) of every pooled sweep of this process, or None; the lock
# lets one thread at a time pick, replace and use it
_pool: tuple[int, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _retire_pool() -> None:
    """Shut the shared pool down and join its workers and manager thread,
    so that the next pool forks from a process with no thread running."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=True)
        _pool = None


def _run_windows(sset: ScenarioSet, concepts, spec: ComfortSpec, windows,
                 seed: int, jobs: int = 1, method: str = "rootfind"
                 ) -> list[list[list[SolveResult]]]:
    """Solve every scenario for every (config, layout) pair in ``concepts``
    at every window; returns results[concept][window][scenario].

    A layout of None is the configuration's :func:`solver.default_layout`,
    built once here.  The scenarios go in slices of
    ``min(_LOCKSTEP_SCENARIOS, ceil(n / jobs))``: one after the other with
    ``jobs=1``, else over a pool of ``min(jobs, slices)`` workers, one slice
    a task.

    The pool lives as long as the process: the first pooled call forks it,
    later calls with the same worker count reuse its warm workers, and a
    call that needs another count joins it before forking the next.  Its
    workers end at interpreter exit.  A worker that dies breaks the call
    under way (``BrokenProcessPool``), and the next call starts a fresh
    pool.  Workers run the program's modules as they were when the pool
    was forked, not as they are at each call: every task carries its own
    configurations, layouts, comfort setting, windows, seed and method,
    and nothing else of the caller's state reaches a worker.
    """
    global _pool
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    concepts = [(cfg, default_layout(cfg) if layout is None else layout)
                for cfg, layout in concepts]
    scenarios = list(sset)
    size = max(1, min(_LOCKSTEP_SCENARIOS, math.ceil(len(scenarios) / jobs)))
    tasks = [(scenarios[i:i + size], concepts, spec, windows, seed, method)
             for i in range(0, len(scenarios), size)]
    per_scn = []
    if jobs == 1 or len(tasks) < 2:
        for task in tasks:
            per_scn += _solve_chunk(task)
    else:
        workers = min(jobs, len(tasks))
        with _pool_lock:
            if _pool is None or _pool[0] != workers:
                _retire_pool()
                _pool = (workers, ProcessPoolExecutor(max_workers=workers))
            try:
                for part in _pool[1].map(_solve_chunk, tasks):
                    per_scn += part
            except BrokenProcessPool:
                _retire_pool()
                raise
    return [[[row[ci][wi] for row in per_scn] for wi in range(len(windows))]
            for ci in range(len(concepts))]


def solve_set(sset: ScenarioSet, cfg: BusConfig, spec: ComfortSpec,
              layout: CabinLayout | None = None, seed: int = 0,
              jobs: int = 1, method: str = "rootfind") -> list[SolveResult]:
    """Solve every scenario at the window of ``spec``, in dataset order.

    A ``layout`` of None is the built-in cabin with ``cfg``'s panel area
    (:func:`solver.default_layout`), not a loaded configuration's
    ``AppConfig.layout``: pass that one to solve on the configured cabin.

    With ``jobs`` above 1 the scenarios are solved in worker processes of
    one pool that the process keeps for every later sweep and ends at
    exit (:func:`_run_windows`).  The workers see the program's modules as
    they were when the pool was forked; what they solve comes only from
    this call's arguments.
    """
    return _run_windows(sset, [(cfg, layout)], spec, [(spec.psi_min, spec.psi_max)],
                        seed, jobs, method)[0][0]


# ---------------------------------------------------------------------------
# Pareto sweeps and concept comparison
# ---------------------------------------------------------------------------

def _fronts(sset: ScenarioSet, concepts, half_widths, spec: ComfortSpec | None,
            seed: int, jobs: int) -> list[list[ParetoPoint]]:
    """One Pareto front per (config, layout) pair over symmetric windows."""
    hw = [float(w) for w in half_widths]
    if not hw:
        raise ConfigError("half_widths must not be empty")
    if any(w < 0.0 or w > 2.0 for w in hw):
        raise ConfigError("window half-widths must lie in [0, 2]")
    if any(b < a for a, b in zip(hw, hw[1:])):
        raise ConfigError("half_widths must be sorted ascending")
    results = _run_windows(sset, concepts, spec or ComfortSpec(),
                           [(-w, w) for w in hw], seed, jobs)
    fronts = []
    for per_window in results:
        points = []
        for w, res in zip(hw, per_window):
            summary = aggregate_annual(res, sset)
            points.append(ParetoPoint(half_width=w,
                                      annual_mean_P_tot=summary.annual_mean_P_tot,
                                      annual_mean_ppd=summary.annual_mean_ppd))
        fronts.append(points)
    return fronts


def pareto_sweep(sset: ScenarioSet, cfg: BusConfig, half_widths,
                 spec: ComfortSpec | None = None,
                 layout: CabinLayout | None = None, seed: int = 0,
                 jobs: int = 1) -> list[ParetoPoint]:
    """Annual power/discomfort trade-off over symmetric PMV windows.

    A ``layout`` of None is the built-in cabin (see :func:`solve_set`).
    """
    return _fronts(sset, [(cfg, layout)], half_widths, spec, seed, jobs)[0]


_CONCEPT_FIELDS_ALLOWED = {"cop_heating", "rh_enabled", "A_rh", "T_rh_tgt"}


def compare_concepts(sset: ScenarioSet, concepts: dict[str, BusConfig],
                     half_widths, spec: ComfortSpec | None = None,
                     seed: int = 0, jobs: int = 1,
                     layouts: dict[str, CabinLayout] | None = None
                     ) -> dict[str, list[ParetoPoint]]:
    """One Pareto curve per HVAC concept on the same scenarios and windows.

    Concepts may differ only in the heating COP curve and the radiant-heater
    configuration; anything else would make the comparison meaningless.
    ``layouts`` maps concept names to cabin layouts.  Without it every
    concept is solved on the built-in cabin with its own panel area
    (:func:`solver.default_layout`), not on a loaded configuration's
    ``ConceptConfig.layout``.
    """
    if not concepts:
        raise ConfigError("need at least one concept")
    names = list(concepts)
    ref = concepts[names[0]]
    for name in names[1:]:
        c = concepts[name]
        for fld in BusConfig.__dataclass_fields__:
            if fld in _CONCEPT_FIELDS_ALLOWED:
                continue
            if getattr(c, fld) != getattr(ref, fld):
                raise ConfigError(
                    f"concept {name!r} differs from {names[0]!r} in {fld!r}; only "
                    "the heating COP and RH configuration may vary")
    pairs = [(concepts[n], None if layouts is None else layouts[n]) for n in names]
    return dict(zip(names, _fronts(sset, pairs, half_widths, spec, seed, jobs)))


# ---------------------------------------------------------------------------
# one-at-a-time sensitivity
# ---------------------------------------------------------------------------

DEFAULT_SENSITIVITY_PARAMS = (
    "q_met_per_pass", "clothing", "cop_heating", "cop_cooling", "k_body",
    "door_loss", "tau_win", "alpha_paint", "h_out", "zeta_win",
)


def _apply_param(cfg: BusConfig, spec: ComfortSpec, name: str,
                 factor: float) -> tuple[BusConfig, ComfortSpec]:
    if name == "clothing":
        return cfg, replace(spec, clo_scale=spec.clo_scale * factor)
    if name == "cop_heating":
        return cfg.with_changes(cop_heating=cfg.cop_heating.scaled(factor)), spec
    if name == "cop_cooling":
        return cfg.with_changes(cop_cooling=cfg.cop_cooling.scaled(factor)), spec
    if name == "door_loss":
        return cfg.with_changes(C_d=cfg.C_d * factor), spec
    if name in BusConfig.__dataclass_fields__:
        return cfg.with_changes(**{name: getattr(cfg, name) * factor}), spec
    raise ConfigError(f"unknown sensitivity parameter {name!r}")


def oat_sensitivity(sset: ScenarioSet, cfg: BusConfig, spec: ComfortSpec,
                    parameters=DEFAULT_SENSITIVITY_PARAMS, delta: float = 0.01,
                    layout: CabinLayout | None = None, seed: int = 0,
                    jobs: int = 1) -> list[SensitivityEntry]:
    """One-at-a-time multiplicative perturbation study.

    Every parameter is scaled by (1 +/- delta), the whole set re-solved, and
    the relative change of the annual mean total power reported together
    with the 5th/95th percentiles of the per-scenario relative changes
    (scenarios with a baseline below 1 W carry no meaningful relative
    change and are excluded from the percentiles).  A ``layout`` of None
    is the built-in cabin of each perturbed configuration (see
    :func:`solve_set`).
    """
    for name in parameters:
        _apply_param(cfg, spec, name, 1.0)  # fail fast on unknown names

    base_results = solve_set(sset, cfg, spec, layout, seed, jobs)
    base_annual = aggregate_annual(base_results, sset).annual_mean_P_tot
    base_by_id = {r.scenario_id: r.P_tot for r in base_results}

    entries = [SensitivityEntry("baseline", 0, 0.0, 0.0, 0.0)]
    for name in parameters:
        for direction in (+1, -1):
            cfg2, spec2 = _apply_param(cfg, spec, name, 1.0 + direction * delta)
            layout2 = default_layout(cfg2) if layout is None else layout
            results = solve_set(sset, cfg2, spec2, layout2, seed, jobs)
            annual = aggregate_annual(results, sset).annual_mean_P_tot
            rel = ((annual - base_annual) / base_annual * 100.0
                   if base_annual > 0 else 0.0)
            per = [(r.P_tot - base_by_id[r.scenario_id]) / base_by_id[r.scenario_id] * 100.0
                   for r in results if base_by_id[r.scenario_id] > 1.0]
            if per:
                p5, p95 = np.quantile(per, [0.05, 0.95])
            else:
                p5 = p95 = 0.0
            entries.append(SensitivityEntry(name, direction, rel, float(p5), float(p95)))
    return entries
