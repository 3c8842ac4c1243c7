"""The four workloads: one round of work each, and the checks of a round.

A round is a fixed list of solves, the same in every round of a run, so a
run attempts whole rounds and any failure share is the same in every run.
Program functions are called through their modules (``analysis.solve_set``)
so that the tracer's rebinding sees the outermost call too.

Checks run after the timed phase and rest on :mod:`oracle`, never on the
program's own comfort, balance or aggregation code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from cabintherm import analysis, comfort, radiant_geometry, solver
from cabintherm.errors import EvaluationError, SolverError
from cabintherm.scenario import ScenarioSet, placement_seed
from inputs import HALF_WIDTHS, Setup

SOLVE_ERRORS = (SolverError, EvaluationError)

JOBS2_SAMPLE_PER_MONTH = 2      # jobs=2 results compared with jobs=1
CONCEPT_SAMPLE_PER_MONTH = 1    # re-solved with solve_best at every window
AGG_RTOL = 1e-6                 # annual means: sweep against solve_best re-solves


@dataclass(frozen=True)
class Round:
    """What one round returned; ``failed`` solves produced no output."""

    output: object
    failed: int
    digest: tuple               # compared across the rounds of a run


@dataclass(frozen=True)
class Workload:
    solves: Callable[[Setup], int]  # solves in one round
    run: Callable[[Setup], Round]
    check: Callable[[Setup, Round], list[str]]


def _clo(s: Setup, scn) -> float:
    return oracle.clothing(scn.T_inf, comfort.CLOTHING_CUBIC, comfort.CLOTHING_FLOOR,
                           s.spec.clo_scale)


def _view_weights(s: Setup, scn, layout, rh_used: bool):
    """Panel weights of the branch a result used (program geometry)."""
    if not rh_used:
        return np.zeros(scn.N_pass)
    pax = radiant_geometry.place_passengers(scn.N_pass, placement_seed(scn.id, s.seed),
                                            layout)
    return radiant_geometry.panel_view_weights(pax, layout)


def _by_month(sset: ScenarioSet, per_month: int) -> list:
    """The first ``per_month`` scenarios of every month, in set order."""
    taken = {m: 0 for m in range(1, 13)}
    out = []
    for scn in sset:
        if taken[scn.month] < per_month:
            taken[scn.month] += 1
            out.append(scn)
    return out


# ---------------------------------------------------------------------------
# annual sweep of the heat-pump bus, in-process or over the process pool
# ---------------------------------------------------------------------------

def _annual_run(jobs: int):
    def run(s: Setup) -> Round:
        concept = s.app.concepts["HP-AC"]
        try:
            results = analysis.solve_set(s.scenarios, concept.bus, s.spec,
                                         s.layouts["HP-AC"], seed=s.seed, jobs=jobs)
        except SOLVE_ERRORS:
            return Round(None, len(s.scenarios), ())
        summary = analysis.aggregate_annual(results, s.scenarios)
        return Round((results, summary), 0,
                     (summary.annual_mean_P_tot, summary.annual_mean_ppd))
    return run


def _annual_check(jobs: int):
    def check(s: Setup, rnd: Round) -> list[str]:
        results, summary = rnd.output
        bus = s.app.concepts["HP-AC"].bus
        if len(results) != len(s.scenarios):
            return [f"{len(results)} results for {len(s.scenarios)} scenarios"]
        errs = []
        for res, scn in zip(results, s.scenarios):
            if res.rh_used:
                errs.append(f"{scn.id}: radiant heaters used on a bus without panels")
            errs += oracle.check_result(res, scn, bus, s.spec, s.spec.psi_min,
                                        s.spec.psi_max, _clo(s, scn),
                                        np.zeros(scn.N_pass))
        p_tot, ppd = oracle.month_first_means(results, [x.month for x in s.scenarios])
        errs += oracle.check_agreement("annual mean P_tot", summary.annual_mean_P_tot,
                                       p_tot, 1e-12)
        errs += oracle.check_agreement("annual mean PPD", summary.annual_mean_ppd,
                                       ppd, 1e-12)
        if jobs > 1:
            errs += _same_as_serial(s, results)
        return errs
    return check


def _same_as_serial(s: Setup, results) -> list[str]:
    """A sample re-solved with ``jobs=1`` gives bit-identical results."""
    sample = _by_month(s.scenarios, JOBS2_SAMPLE_PER_MONTH)
    serial = analysis.solve_set(ScenarioSet(tuple(sample)), s.app.concepts["HP-AC"].bus,
                                s.spec, s.layouts["HP-AC"], seed=s.seed, jobs=1)
    pooled = {r.scenario_id: r for r in results}
    errs = []
    for a in serial:
        b = pooled[a.scenario_id]
        if (a.state, a.flows, a.per_passenger_pmv, a.mode) != \
                (b.state, b.flows, b.per_passenger_pmv, b.mode):
            errs.append(f"{a.scenario_id}: jobs=2 result differs from jobs=1")
    return errs


# ---------------------------------------------------------------------------
# the four configured vehicle concepts over a window sweep
# ---------------------------------------------------------------------------

def _concepts_solves(s: Setup) -> int:
    return len(s.scenarios) * len(HALF_WIDTHS) * len(s.layouts)


def _concepts_run(s: Setup) -> Round:
    buses = {name: s.app.concepts[name].bus for name in s.layouts}
    try:
        curves = analysis.compare_concepts(s.scenarios, buses, HALF_WIDTHS, s.spec,
                                           seed=s.seed, jobs=1)
    except SOLVE_ERRORS:
        return Round(None, _concepts_solves(s), ())
    digest = tuple((p.annual_mean_P_tot, p.annual_mean_ppd)
                   for pts in curves.values() for p in pts)
    return Round(curves, 0, digest)


def _concepts_check(s: Setup, rnd: Round) -> list[str]:
    curves = rnd.output
    errs = []
    if list(curves) != list(s.layouts):
        return [f"concepts {list(curves)}, expected {list(s.layouts)}"]
    p = {n: [pt.annual_mean_P_tot for pt in pts] for n, pts in curves.items()}
    for name, pts in curves.items():
        if [pt.half_width for pt in pts] != list(HALF_WIDTHS):
            errs.append(f"{name}: half-widths {[pt.half_width for pt in pts]}")
            continue
        errs += oracle.check_front(name, HALF_WIDTHS, p[name],
                                   [pt.annual_mean_ppd for pt in pts])
    for i, w in enumerate(HALF_WIDTHS):
        for low, high in (("HP-AC", "PTC-AC"), ("HP-AC+RH", "HP-AC"),
                          ("PTC-AC+RH", "PTC-AC")):
            errs += oracle.check_not_above(f"half-width {w}: {low} vs {high}",
                                           p[low][i], p[high][i])

    # Re-solve with solve_best: every scenario at the widest window (to
    # re-aggregate month-first), a month-stratified sample at the others.
    sample = {scn.id for scn in _by_month(s.scenarios, CONCEPT_SAMPLE_PER_MONTH)}
    widest = len(HALF_WIDTHS) - 1
    for name, layout in s.layouts.items():
        bus = s.app.concepts[name].bus
        for wi, w in enumerate(HALF_WIDTHS):
            spec = s.spec.with_window(-w, w)
            chosen = [scn for scn in s.scenarios if wi == widest or scn.id in sample]
            results = []
            for scn in chosen:
                res = solver.solve_best(scn, bus, spec, layout=layout, seed=s.seed)
                results.append(res)
                errs += oracle.check_result(
                    res, scn, bus, spec, -w, w, _clo(s, scn),
                    _view_weights(s, scn, layout, res.rh_used))
            if wi == widest:
                p_tot, ppd = oracle.month_first_means(results, [x.month for x in chosen])
                pt = curves[name][wi]
                errs += oracle.check_agreement(f"{name} w={w} annual P_tot",
                                               pt.annual_mean_P_tot, p_tot, AGG_RTOL)
                errs += oracle.check_agreement(f"{name} w={w} annual PPD",
                                               pt.annual_mean_ppd, ppd, AGG_RTOL)
    return errs


# ---------------------------------------------------------------------------
# root finding against SLSQP (acceptance criterion 1)
# ---------------------------------------------------------------------------

def _cross_solves(s: Setup) -> int:
    return len(s.scenarios) * len(HALF_WIDTHS) * 2


def _cross_run(s: Setup) -> Round:
    bus = s.app.concepts["HP-AC"].bus
    layout = s.layouts["HP-AC"]
    rows = []
    failed = 0
    for scn in s.scenarios:
        for w in HALF_WIDTHS:
            spec = s.spec.with_window(-w, w)
            pair = []
            for route in (solver.solve_window_rootfind, solver.solve_window_opt):
                try:
                    pair.append(route(scn, bus, spec, rh_on=False, layout=layout,
                                      seed=s.seed))
                except SOLVE_ERRORS:
                    pair.append(None)
                    failed += 1
            rows.append((scn, w, *pair))
    digest = tuple(None if r is None else r.P_tot for row in rows for r in row[2:])
    return Round(rows, failed, digest)


def _cross_check(s: Setup, rnd: Round) -> list[str]:
    bus = s.app.concepts["HP-AC"].bus
    errs = []
    for scn, w, root, opt in rnd.output:
        spec = s.spec.with_window(-w, w)
        for res in (root, opt):
            if res is not None:
                errs += oracle.check_result(res, scn, bus, spec, -w, w, _clo(s, scn),
                                            np.zeros(scn.N_pass))
        if root is not None and opt is not None:
            errs += oracle.check_agreement(f"{scn.id} w={w} rootfind vs opt P_tot",
                                           root.P_tot, opt.P_tot, oracle.ROUTE_RTOL)
    return errs


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    "annual_hp": Workload(lambda s: len(s.scenarios), _annual_run(1), _annual_check(1)),
    "concepts_rh": Workload(_concepts_solves, _concepts_run, _concepts_check),
    "crosscheck_opt": Workload(_cross_solves, _cross_run, _cross_check),
    "annual_hp_jobs2": Workload(lambda s: len(s.scenarios), _annual_run(2), _annual_check(2)),
}
