import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

import cabintherm
from cabintherm import analysis, solver
from cabintherm.analysis import (DEFAULT_SENSITIVITY_PARAMS, AnnualSummary,
                                 aggregate_annual, compare_concepts,
                                 monthly_table, oat_sensitivity, pareto_sweep,
                                 solve_set)
from cabintherm.comfort import ComfortSpec, clothing_insulation, ppd
from cabintherm.errors import ConfigError, DataError, EvaluationError, SolverError
from cabintherm.model_core import (BusConfig, CopCurve, HeatFlows, Scenario,
                                   ThermalState, c_to_k)
from cabintherm.radiant_geometry import placement_grid
from cabintherm.scenario import ScenarioSet, synthesize_dataset
from cabintherm.solver import SolveResult


def fake_scenario(sid, month, n_pass=10):
    return Scenario(T_inf=c_to_k(5.0), I_dni=0.0, I_dhi=0.0, beta=-0.1,
                    N_pass=n_pass, zeta_door=0.05, zeta_sh=0.4, month=month, id=sid)


def fake_result(sid, p_hvac=1000.0, p_rh=0.0, q_hvac=2000.0, psi=0.0,
                mode="heating"):
    state = ThermalState(T_cab=290.0, T_rh=363.0 if p_rh else 290.0, T_si=288.0,
                         T_so=280.0, Q_hvac=q_hvac, P_rh=p_rh)
    flows = HeatFlows(Q_pass=0, Q_door=0, Q_sol_cab=0, Q_sol_si=0, Q_sol_so=0,
                      Q_r_so=0, Q_r_rh=0, Q_h_rh=0, Q_h_si=0, Q_h_so=0, Q_k=0,
                      Q_hvac=q_hvac, P_rh=p_rh, P_hvac=p_hvac,
                      P_tot=p_hvac + p_rh)
    return SolveResult(scenario_id=sid, state=state, flows=flows,
                       per_passenger_pmv=(psi,), mean_psi=psi, ppd=ppd(psi),
                       P_tot=p_hvac + p_rh, mode=mode, rh_used=p_rh > 0,
                       solver="rootfind", iterations=1)


def full_year(counts):
    """One fake scenario set with `counts[m]` scenarios in month m+1."""
    scenarios = []
    for m in range(1, 13):
        for i in range(counts[m - 1]):
            scenarios.append(fake_scenario(f"m{m:02d}-{i}", m))
    return ScenarioSet(tuple(scenarios))


class TestAggregateAnnual:
    def test_identical_results(self):
        sset = full_year([2] * 12)
        results = [fake_result(s.id, p_hvac=800.0, q_hvac=1600.0, psi=0.5)
                   for s in sset]
        summary = aggregate_annual(results, sset)
        assert summary.annual_mean_P_tot == pytest.approx(800.0)
        assert summary.annual_mean_ppd == pytest.approx(ppd(0.5))
        assert summary.annual_mean_Q_heat == pytest.approx(1600.0)
        assert summary.annual_mean_Q_cool == 0.0

    def test_duplication_invariance(self):
        # doubling one month's scenario count must not move the annual mean
        base = full_year([1] * 12)
        results = {s.id: fake_result(s.id, p_hvac=100.0 * s.month) for s in base}
        annual_base = aggregate_annual([results[s.id] for s in base], base)

        heavy = full_year([4] + [1] * 11)
        res_heavy = [fake_result(s.id, p_hvac=100.0 * s.month) for s in heavy]
        annual_heavy = aggregate_annual(res_heavy, heavy)
        assert annual_heavy.annual_mean_P_tot == pytest.approx(
            annual_base.annual_mean_P_tot)

    def test_ppd_not_pmv_averaging(self):
        # +1 all summer, -1 all winter: annual PPD is ppd(1), far above 5 %
        sset = full_year([1] * 12)
        results = []
        for s in sset:
            psi = 1.0 if 4 <= s.month <= 9 else -1.0
            results.append(fake_result(s.id, psi=psi))
        summary = aggregate_annual(results, sset)
        assert summary.annual_mean_ppd == pytest.approx(ppd(1.0), rel=1e-6)
        assert summary.annual_mean_ppd > 5.0

    def test_missing_month_error(self):
        counts = [1] * 12
        counts[5] = 0
        scenarios = full_year([1] * 12).scenarios
        reduced = ScenarioSet(tuple(s for s in scenarios if s.month != 6))
        results = [fake_result(s.id) for s in reduced]
        with pytest.raises(DataError, match="6"):
            aggregate_annual(results, reduced)

    def test_fraction_rows_sum_to_one(self):
        sset = full_year([3] * 12)
        results = []
        for i, s in enumerate(sset):
            mode = ["heating", "cooling", "passive"][i % 3]
            q = {"heating": 1000.0, "cooling": -1000.0, "passive": 0.0}[mode]
            p = abs(q) / 2
            results.append(fake_result(s.id, p_hvac=p, q_hvac=q, mode=mode))
        summary = aggregate_annual(results, sset)
        for row in summary.monthly:
            assert row.frac_heating + row.frac_cooling + row.frac_passive \
                == pytest.approx(1.0)

    def test_permutation_invariance(self):
        sset = full_year([2] * 12)
        results = [fake_result(s.id, p_hvac=50.0 * (i + 1))
                   for i, s in enumerate(sset)]
        a = aggregate_annual(results, sset)
        b = aggregate_annual(list(reversed(results)), sset)
        assert a.annual_mean_P_tot == b.annual_mean_P_tot
        assert a.monthly == b.monthly

    def test_monthly_table_tolerates_missing(self):
        scenarios = tuple(fake_scenario(f"s{i}", 3) for i in range(4))
        sset = ScenarioSet(scenarios)
        rows = monthly_table([fake_result(s.id) for s in sset], sset)
        assert len(rows) == 12
        assert rows[2].n == 4
        assert all(r.n == 0 for r in rows if r.month != 3)


@pytest.fixture(scope="module")
def year_set():
    return synthesize_dataset(360, seed=21)


@pytest.fixture(scope="module")
def two_per_month(year_set):
    """The first two scenarios of every month of ``year_set``."""
    picked = []
    for m in range(1, 13):
        picked += [s for s in year_set if s.month == m][:2]
    return ScenarioSet(tuple(picked))


def comparable(results):
    return [(r.scenario_id, r.state, r.flows, r.per_passenger_pmv, r.mode, r.solver)
            for r in results]


@pytest.fixture
def fresh_pool():
    """Retires the process's shared pool before and after the test, so the
    test's monkeypatches reach freshly forked workers and no patched or fake
    pool outlives it."""
    analysis._retire_pool()
    yield
    analysis._retire_pool()


class TestPool:
    def test_opt_route_runs_in_the_pool(self, two_per_month, hp_cfg, fresh_pool,
                                        monkeypatch):
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
        sub = ScenarioSet(two_per_month.scenarios[:8])
        spec = ComfortSpec(psi_min=-0.5, psi_max=0.5)
        pooled = solve_set(sub, hp_cfg, spec, jobs=2, method="opt")
        assert pools == [2]
        serial = solve_set(sub, hp_cfg, spec, jobs=1, method="opt")
        assert comparable(pooled) == comparable(serial)
        assert {r.solver for r in pooled} == {"optimization"}

    @staticmethod
    def _rh_concepts(ptc_rh_cfg, hp_rh_cfg):
        # PTC-AC+RH and HP-AC+RH build value-equal layouts; the third
        # concept's smaller panels make a second layout
        return {"PTC-AC+RH": ptc_rh_cfg, "HP-AC+RH": hp_rh_cfg,
                "PTC-AC+RH3": ptc_rh_cfg.with_changes(A_rh=3.0)}

    def test_concepts_share_view_weights_in_the_pool(self, two_per_month,
                                                      ptc_rh_cfg, hp_rh_cfg,
                                                      tmp_path, fresh_view_weights,
                                                      monkeypatch):
        # the workers are forked, so they count into a file: one line per
        # call, the worker's pid and the panel area of its layout
        log = tmp_path / "calls"
        log.write_text("")
        original = solver.panel_view_weights

        def counting(passengers, layout):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}:{layout.panel_area:.3f}\n")
            return original(passengers, layout)

        monkeypatch.setattr(solver, "panel_view_weights", counting)
        monkeypatch.setattr(analysis, "_LOCKSTEP_SCENARIOS", 3)
        concepts = self._rh_concepts(ptc_rh_cfg, hp_rh_cfg)
        compare_concepts(two_per_month, concepts, [0.5, 1.0], jobs=2)
        # 24 scenarios in slices of 3 are eight tasks over two workers; a
        # worker computes one slot table per distinct layout, whatever its
        # tasks and their passengers
        calls = log.read_text().split()
        assert len(calls) == len(set(calls)) <= 4
        assert {c.split(":")[1] for c in calls} == {"3.000", "4.000"}
        assert str(os.getpid()) not in {c.split(":")[0] for c in calls}
        # the workers keep their tables for the next sweep of the process
        compare_concepts(two_per_month, concepts, [0.5], jobs=2)
        assert log.read_text().split() == calls

    def test_one_view_weight_table_per_layout_and_process(self, two_per_month,
                                                          ptc_rh_cfg, hp_rh_cfg,
                                                          fresh_view_weights,
                                                          monkeypatch):
        calls = []
        original = solver.panel_view_weights

        def counting(passengers, layout):
            calls.append((len(passengers), layout.panel_area))
            return original(passengers, layout)

        monkeypatch.setattr(solver, "panel_view_weights", counting)
        monkeypatch.setattr(analysis, "_LOCKSTEP_SCENARIOS", 5)
        concepts = self._rh_concepts(ptc_rh_cfg, hp_rh_cfg)
        compare_concepts(two_per_month, concepts, [0.5, 1.0], jobs=1)
        # 24 scenarios in slices of 5 are five slices, which share the
        # process's tables; each call covers every slot of the grid, however
        # many RH-on branches carry passengers
        slots = len(placement_grid(solver.default_layout(ptc_rh_cfg)))
        expected = [(slots, pytest.approx(3.0)), (slots, pytest.approx(4.0))]
        assert sorted(calls) == expected
        assert sum(s.N_pass > 0 for s in two_per_month) * len(concepts) > 6 * len(calls)
        # a later sweep of the process computes none again
        compare_concepts(two_per_month, concepts, [0.0], jobs=1)
        assert sorted(calls) == expected

    def test_pool_workers_never_exceed_batches(self, two_per_month, hp_cfg, fresh_pool,
                                               monkeypatch):
        pools = []

        class InlinePool:
            """Runs the chunks in this process, so no worker is started."""

            def __init__(self, max_workers=None):
                pools.append(max_workers)

            def shutdown(self, wait=True):
                pass

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", InlinePool)
        sub = ScenarioSet(two_per_month.scenarios[:3])
        spec = ComfortSpec(psi_min=-0.5, psi_max=0.5)
        pooled = solve_set(sub, hp_cfg, spec, jobs=8)
        assert pools == [3]
        assert comparable(pooled) == comparable(solve_set(sub, hp_cfg, spec, jobs=1))

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, two_per_month, hp_cfg, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            solve_set(two_per_month, hp_cfg, ComfortSpec(), jobs=jobs)


class TestSharedPool:
    """One pool serves every pooled sweep of the process."""

    SPEC = ComfortSpec(psi_min=-0.5, psi_max=0.5)

    @staticmethod
    def _recording(monkeypatch):
        """Replaces the pool class by one that logs its starts (with the
        threads running at the fork) and its shutdowns."""
        events = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None):
                events.append(("start", max_workers, threading.active_count()))
                super().__init__(max_workers=max_workers)
                self.workers = max_workers

            def shutdown(self, wait=True, **kwargs):
                events.append(("shutdown", self.workers, wait))
                super().shutdown(wait=wait, **kwargs)

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
        return events

    def test_consecutive_sweeps_share_one_pool(self, two_per_month, hp_cfg, fresh_pool,
                                               monkeypatch):
        events = self._recording(monkeypatch)
        sub = ScenarioSet(two_per_month.scenarios[:8])
        first = solve_set(sub, hp_cfg, self.SPEC, jobs=2)
        second = solve_set(sub, hp_cfg, self.SPEC, jobs=2)
        assert [e[:2] for e in events] == [("start", 2)]
        assert comparable(first) == comparable(second)

    def test_other_worker_count_replaces_the_pool(self, two_per_month, hp_cfg, fresh_pool,
                                                  monkeypatch):
        events = self._recording(monkeypatch)
        sub = ScenarioSet(two_per_month.scenarios[:6])
        solve_set(sub, hp_cfg, self.SPEC, jobs=2)
        pooled = solve_set(sub, hp_cfg, self.SPEC, jobs=3)
        assert [e[:2] for e in events] == [("start", 2), ("shutdown", 2), ("start", 3)]
        assert events[1][2] is True
        # the old pool's manager thread was joined before the new pool forked
        assert events[2][2] == events[0][2]
        assert comparable(pooled) == comparable(solve_set(sub, hp_cfg, self.SPEC, jobs=1))

    def test_solve_error_keeps_the_pool(self, two_per_month, hp_cfg, fresh_pool,
                                        monkeypatch):
        events = self._recording(monkeypatch)
        scenarios = [s for s in two_per_month if s.N_pass > 0][:8]
        bad = {scenarios[1].id, scenarios[6].id}
        original = solver._NewtonGroup.converged

        def converged(group, pos, r, scale):
            ids = np.array([group.models[i].scn.id for i in pos])
            return original(group, pos, r, scale) & ~np.isin(ids, list(bad))

        monkeypatch.setattr(solver._NewtonGroup, "converged", converged)
        # one failing scenario in each of the two tasks: the first in
        # dataset order is raised
        with pytest.raises(SolverError, match=f"scenario {scenarios[1].id!r}"):
            solve_set(ScenarioSet(tuple(scenarios)), hp_cfg, self.SPEC, jobs=2)
        good = ScenarioSet(tuple(scenarios[2:6]))
        pooled = solve_set(good, hp_cfg, self.SPEC, jobs=2)
        assert [e[:2] for e in events] == [("start", 2)]
        assert comparable(pooled) == comparable(solve_set(good, hp_cfg, self.SPEC, jobs=1))

    def test_killed_worker_breaks_one_call(self, two_per_month, hp_cfg, fresh_pool):
        sub = ScenarioSet(two_per_month.scenarios[:8])
        solve_set(sub, hp_cfg, self.SPEC, jobs=2)
        workers = multiprocessing.active_children()
        assert len(workers) == 2
        os.kill(workers[0].pid, signal.SIGKILL)
        # the signal is delivered asynchronously: without this wait the
        # other worker can finish the next call before the pool sees a death
        multiprocessing.connection.wait([workers[0].sentinel], timeout=30)
        with pytest.raises(BrokenProcessPool):
            solve_set(sub, hp_cfg, self.SPEC, jobs=2)
        pooled = solve_set(sub, hp_cfg, self.SPEC, jobs=2)
        assert not {p.pid for p in workers} & {p.pid for p in multiprocessing.active_children()}
        assert comparable(pooled) == comparable(solve_set(sub, hp_cfg, self.SPEC, jobs=1))

    def test_workers_end_with_the_interpreter(self):
        script = (
            "import multiprocessing\n"
            "from cabintherm.analysis import solve_set\n"
            "from cabintherm.comfort import ComfortSpec\n"
            "from cabintherm.model_core import BusConfig\n"
            "from cabintherm.scenario import synthesize_dataset\n"
            "solve_set(synthesize_dataset(24, seed=21), BusConfig(), ComfortSpec(), jobs=2)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n")
        src = os.path.dirname(os.path.dirname(cabintherm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("CABINTHERM_CONFIG", None)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestLockstep:
    """A sweep chunk solves its scenarios side by side with batched PMV."""

    WINDOWS = [(-0.5, 0.5), (-1.0, 1.0), (0.0, 0.0), (-0.5, 0.5)]

    @pytest.fixture(scope="class")
    def mixed(self, two_per_month):
        empty = [replace(s, N_pass=0, id=f"{s.id}-empty")
                 for s in two_per_month.scenarios[::6]]
        return ScenarioSet(two_per_month.scenarios + tuple(empty))

    @pytest.mark.parametrize("slice_size", [None, 5])
    def test_same_as_one_scenario_at_a_time(self, mixed, hp_cfg, ptc_rh_cfg, hp_rh_cfg,
                                            slice_size, monkeypatch):
        if slice_size is not None:
            monkeypatch.setattr(analysis, "_LOCKSTEP_SCENARIOS", slice_size)
        assert any(s.N_pass == 0 for s in mixed)
        concepts = [(c, solver.default_layout(c)) for c in (hp_cfg, ptc_rh_cfg, hp_rh_cfg)]
        spec = ComfortSpec()
        swept = analysis._run_windows(mixed, concepts, spec, self.WINDOWS, seed=3)
        for ci, (cfg, layout) in enumerate(concepts):
            for scn_i, scn in enumerate(mixed):
                # one sweeper per scenario keeps its warm starts across windows
                alone = solver.ScenarioSweeper(scn, cfg, spec, layout, 3)
                for wi, (lo, hi) in enumerate(self.WINDOWS):
                    got = swept[ci][wi][scn_i]
                    want = alone.solve(lo, hi)
                    assert comparable([got]) == comparable([want])
                    assert got.iterations == want.iterations
                first = solver.solve_best(scn, cfg, spec.with_window(*self.WINDOWS[0]),
                                          layout=layout, seed=3)
                assert comparable([swept[ci][0][scn_i]]) == comparable([first])
        assert any(r.rh_used for per_w in swept[1] for r in per_w)

    @pytest.mark.parametrize("n_windows", [1, 3])
    def test_one_newton_group_per_branch_and_pmv_row(self, hp_cfg, ptc_cfg, ptc_rh_cfg,
                                                     hp_rh_cfg, n_windows, monkeypatch):
        # the four configured concepts share one comfort setting, so a
        # window needs at most one array Newton per (branch, PMV row): the
        # passive solves at the first window, the pinned ones at each
        runs = []
        original = solver._NewtonGroup.run

        def run(group):
            runs.append((group.rh_on, group.use_psi))
            return original(group)

        monkeypatch.setattr(solver._NewtonGroup, "run", run)
        concepts = [(c, None) for c in (ptc_cfg, hp_cfg, ptc_rh_cfg, hp_rh_cfg)]
        windows = [(-0.5, 0.5), (-1.0, 1.0), (0.0, 0.0)][:n_windows]
        analysis._run_windows(synthesize_dataset(200, seed=7101), concepts, ComfortSpec(),
                              windows, seed=0)
        assert len(runs) <= 2 + 2 * n_windows
        assert runs[:2] == [(False, False), (True, False)]
        assert set(runs[2:]) == {(False, True), (True, True)}

    def test_default_layout_built_once_per_concept(self, two_per_month, ptc_rh_cfg,
                                                   monkeypatch):
        # one default panel strip per concept, not one per panel branch
        # with passengers aboard
        calls = []
        original = solver.ceiling_panel_strip

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "ceiling_panel_strip", counting)
        results = solve_set(two_per_month, ptc_rh_cfg, ComfortSpec())
        assert sum(s.N_pass > 0 for s in two_per_month) > 1
        assert any(r.rh_used for r in results)
        assert len(calls) == 1

    def test_pool_same_as_serial_with_panels(self, two_per_month, ptc_rh_cfg, hp_rh_cfg):
        concepts = {"PTC-AC+RH": ptc_rh_cfg, "HP-AC+RH": hp_rh_cfg}
        pooled = compare_concepts(two_per_month, concepts, [0.0, 1.0], jobs=2)
        assert pooled == compare_concepts(two_per_month, concepts, [0.0, 1.0], jobs=1)

    @pytest.mark.parametrize("slice_size", [None, 3])
    def test_first_failure_in_dataset_order(self, two_per_month, hp_cfg, slice_size,
                                            monkeypatch):
        if slice_size is not None:
            monkeypatch.setattr(analysis, "_LOCKSTEP_SCENARIOS", slice_size)
        scenarios = [s for s in two_per_month if s.N_pass > 0][:6]
        late, early = scenarios[1].id, scenarios[3].id
        original = solver._NewtonGroup.converged

        def converged(group, pos, r, scale):
            # ``early`` fails at the first window (passive), ``late`` only
            # when pinned at the second: the sweep meets ``early`` first
            ids = np.array([group.models[i].scn.id for i in pos])
            never = (ids == early) | ((ids == late) & group.use_psi)
            return original(group, pos, r, scale) & ~never

        monkeypatch.setattr(solver._NewtonGroup, "converged", converged)
        windows = [(-3.0, 3.0), (0.0, 0.0)]
        with pytest.raises(SolverError, match=f"scenario {late!r}"):
            analysis._run_windows(ScenarioSet(tuple(scenarios)), [(hp_cfg, None)],
                                  ComfortSpec(), windows, seed=0)

    @pytest.mark.parametrize("overfull_first", [True, False])
    def test_unbuildable_scenario_keeps_dataset_order(self, hp_rh_cfg, overfull_first,
                                                      monkeypatch):
        # a bus too full to seat: its panel sweeper cannot be built
        overfull = fake_scenario("overfull", 1, n_pass=10_000)
        failing = fake_scenario("failing", 1)
        scenarios = [fake_scenario("ok", 1)]
        scenarios += [overfull, failing] if overfull_first else [failing, overfull]
        original = solver._NewtonGroup.converged

        def converged(group, pos, r, scale):
            ids = np.array([group.models[i].scn.id for i in pos])
            return original(group, pos, r, scale) & (ids != "failing")

        monkeypatch.setattr(solver._NewtonGroup, "converged", converged)
        expected = ConfigError if overfull_first else SolverError
        with pytest.raises(expected):
            analysis._run_windows(ScenarioSet(tuple(scenarios)),
                                  [(hp_rh_cfg, solver.default_layout(hp_rh_cfg))],
                                  ComfortSpec(), [(-0.5, 0.5)], seed=0)

    def test_kernel_failure_names_its_scenario(self, hp_cfg, monkeypatch):
        scenarios = [fake_scenario(f"s{i}", 1) for i in range(4)]
        bad = replace(scenarios[2], T_inf=c_to_k(-12.0), id="cold")
        scenarios[2] = bad
        windows = [(-0.5, 0.5)]
        spec = ComfortSpec()
        clean = [solver.ScenarioSweeper(s, hp_cfg, spec).solve(*windows[0])
                 for s in scenarios if s is not bad]
        bad_clo = clothing_insulation(bad.T_inf)
        original = solver.pmv_array

        def failing(ta, tr, clo, *args, **kwargs):
            if np.any(np.asarray(clo) == bad_clo):
                raise EvaluationError("clothing surface temperature iteration did not converge")
            return original(ta, tr, clo, *args, **kwargs)

        monkeypatch.setattr(solver, "pmv_array", failing)
        sweepers = [solver.ScenarioSweeper(s, hp_cfg, spec) for s in scenarios]
        solver.settle(sweepers, windows)
        with pytest.raises(EvaluationError, match="scenario 'cold'"):
            sweepers[2].solve(*windows[0])
        others = [sw.solve(*windows[0]) for i, sw in enumerate(sweepers) if i != 2]
        assert comparable(others) == comparable(clean)


class TestParetoSweep:
    def test_monotone_and_bounded(self, year_set, hp_cfg):
        points = pareto_sweep(year_set, hp_cfg, [0.0, 0.5, 1.0, 2.0])
        assert points[0].annual_mean_P_tot == max(p.annual_mean_P_tot for p in points)
        for a, b in zip(points, points[1:]):
            assert b.annual_mean_P_tot <= a.annual_mean_P_tot * (1 + 1e-3) + 1e-6
        for p in points:
            assert p.annual_mean_ppd >= 5.0

    def test_wide_window_approaches_passive(self, year_set, hp_cfg):
        points = pareto_sweep(year_set, hp_cfg, [2.0])
        spec = ComfortSpec(psi_min=-3.0, psi_max=3.0)
        passive = solve_set(year_set, hp_cfg, spec)
        passive_ppd = aggregate_annual(passive, year_set).annual_mean_ppd
        assert points[0].annual_mean_ppd <= passive_ppd + 0.5

    def test_input_validation(self, year_set, hp_cfg):
        with pytest.raises(ConfigError):
            pareto_sweep(year_set, hp_cfg, [])
        with pytest.raises(ConfigError):
            pareto_sweep(year_set, hp_cfg, [1.0, 0.5])
        with pytest.raises(ConfigError):
            pareto_sweep(year_set, hp_cfg, [0.5, 2.5])


class TestCompareConcepts:
    def test_identical_configs_identical_curves(self, year_set, hp_cfg):
        curves = compare_concepts(year_set, {"a": hp_cfg, "b": hp_cfg}, [0.5, 1.0])
        assert curves["a"] == curves["b"]

    def test_hp_below_ptc(self, year_set, hp_cfg, ptc_cfg):
        curves = compare_concepts(year_set, {"PTC-AC": ptc_cfg, "HP-AC": hp_cfg},
                                  [1.0])
        assert curves["HP-AC"][0].annual_mean_P_tot \
            < curves["PTC-AC"][0].annual_mean_P_tot

    def test_rh_helps_ptc(self, year_set, ptc_cfg, ptc_rh_cfg):
        curves = compare_concepts(
            year_set, {"PTC-AC": ptc_cfg, "PTC-AC+RH": ptc_rh_cfg}, [1.0])
        assert curves["PTC-AC+RH"][0].annual_mean_P_tot \
            <= curves["PTC-AC"][0].annual_mean_P_tot

    def test_rejects_unrelated_configs(self, year_set, hp_cfg):
        other = hp_cfg.with_changes(k_body=999.0)
        with pytest.raises(ConfigError, match="k_body"):
            compare_concepts(year_set, {"a": hp_cfg, "b": other}, [1.0])


class TestSensitivity:
    def test_zero_delta_all_zero(self, year_set, hp_cfg):
        sub = year_set.subset(60, seed=1)
        entries = oat_sensitivity(sub, hp_cfg, ComfortSpec(psi_min=-1, psi_max=1),
                                  parameters=["k_body"], delta=0.0)
        for e in entries:
            assert e.rel_change_pct == 0.0
            assert e.p5_pct == 0.0 and e.p95_pct == 0.0

    def test_baseline_row(self, year_set, hp_cfg):
        sub = year_set.subset(40, seed=2)
        entries = oat_sensitivity(sub, hp_cfg, ComfortSpec(psi_min=-1, psi_max=1),
                                  parameters=["k_body"])
        assert entries[0].parameter == "baseline"
        assert entries[0].rel_change_pct == 0.0

    def test_signs_on_cold_set(self, year_set, hp_cfg):
        entries = oat_sensitivity(year_set, hp_cfg,
                                  ComfortSpec(psi_min=-1, psi_max=1),
                                  parameters=["cop_heating", "k_body"])
        by_key = {(e.parameter, e.direction): e for e in entries}
        # a better heating COP reduces annual power
        assert by_key[("cop_heating", 1)].rel_change_pct < 0
        # better insulation (smaller k_body) reduces it too
        assert by_key[("k_body", -1)].rel_change_pct < 0

    def test_unknown_parameter(self, year_set, hp_cfg):
        with pytest.raises(ConfigError):
            oat_sensitivity(year_set.subset(10), hp_cfg, ComfortSpec(),
                            parameters=["warp_drive"])

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, -0.01, 1.0, 1.5])
    def test_delta_outside_unit_interval_rejected(self, year_set, hp_cfg, delta):
        with pytest.raises(ConfigError, match="delta"):
            oat_sensitivity(year_set.subset(10), hp_cfg, ComfortSpec(),
                            parameters=["k_body"], delta=delta)
