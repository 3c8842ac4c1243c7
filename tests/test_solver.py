import math
from dataclasses import replace

import numpy as np
import pytest

from cabintherm import analysis, model_core, solver
from cabintherm.comfort import ComfortSpec, pmv
from cabintherm.errors import ConfigError, SolverError
from cabintherm.model_core import (Scenario, balance_residuals, c_to_k,
                                   compute_heat_flows, max_abs_flow)
from cabintherm.radiant_geometry import mixed_radiant_temperature
from cabintherm.scenario import synthesize_dataset
from cabintherm.solver import (default_layout, solve_best, solve_window_opt,
                               solve_window_rootfind)


def assert_balanced(res, scn, cfg):
    r = balance_residuals(res.state, scn, cfg, res.rh_used)
    tol = 1e-6 * max(1.0, max_abs_flow(res.flows))
    assert np.max(np.abs(r)) <= tol


def solve_at_target(scn, cfg, psi_tgt, rh_on=False):
    """Root finding with the mean PMV held at ``psi_tgt``: a window of zero
    width."""
    return solve_window_rootfind(scn, cfg, ComfortSpec(psi_min=psi_tgt, psi_max=psi_tgt),
                                 rh_on=rh_on)


class TestFixedPmv:
    def test_passive_target_needs_no_hvac(self, hp_cfg, mild_scn):
        passive = solve_window_rootfind(mild_scn, hp_cfg,
                                        ComfortSpec(psi_min=-3.0, psi_max=3.0),
                                        rh_on=False)
        res = solve_at_target(mild_scn, hp_cfg, passive.mean_psi)
        assert abs(res.state.Q_hvac) < 1.0

    def test_winter_heats(self, hp_cfg, winter_scn):
        res = solve_at_target(winter_scn, hp_cfg, -1.0)
        assert res.state.Q_hvac > 0
        assert res.state.T_cab > winter_scn.T_inf
        assert res.mean_psi == pytest.approx(-1.0, abs=1e-4)
        assert_balanced(res, winter_scn, hp_cfg)

    def test_summer_cools(self, hp_cfg, summer_scn):
        res = solve_at_target(summer_scn, hp_cfg, 1.0)
        assert res.state.Q_hvac < 0
        assert res.mean_psi == pytest.approx(1.0, abs=1e-4)
        assert_balanced(res, summer_scn, hp_cfg)

    def test_four_unknowns_on_both_branches(self, ptc_rh_cfg, winter_scn):
        from cabintherm.solver import _BranchModel, _NewtonGroup, _NewtonRequest
        for rh_on in (True, False):
            model = _BranchModel(winter_scn, ptc_rh_cfg, ComfortSpec(), rh_on)
            group = _NewtonGroup([_NewtonRequest(model, model.init_vector(), -1.0, None)])
            rows, _, bal_jac = group._system(None, group.x0, np.zeros(1))
            dx, singular = group._step(bal_jac, np.ones((1, 2)), rows)
            assert rows.shape == dx.shape == (1, 4)
            assert bal_jac.shape == (1, 3, 4) and singular is None
        # the panels are held at their target and draw what their row fixes
        res = solve_at_target(winter_scn, ptc_rh_cfg, -1.0, rh_on=True)
        assert res.rh_used and res.state.T_rh == ptc_rh_cfg.T_rh_tgt
        f = res.flows
        assert f.P_rh > 0.0
        assert f.P_rh == pytest.approx(f.Q_r_rh + f.Q_h_rh, rel=1e-12)
        assert_balanced(res, winter_scn, ptc_rh_cfg)


class TestWindowRootfind:
    def test_mild_scenario_passive(self, hp_cfg, mild_scn, window_spec):
        res = solve_window_rootfind(mild_scn, hp_cfg, window_spec, rh_on=False)
        assert res.mode == "passive"
        assert res.P_tot == 0.0
        assert window_spec.psi_min <= res.mean_psi <= window_spec.psi_max

    @pytest.mark.parametrize("solve", [solve_window_rootfind, solve_window_opt])
    def test_single_passenger_sees_the_panels(self, ptc_rh_cfg, winter_scn, window_spec,
                                              solve):
        # one kernel point, but at the passenger's own mean radiant temperature
        scn = replace(winter_scn, N_pass=1, id="alone")
        model = solver._BranchModel(scn, ptc_rh_cfg, window_spec, True)
        assert model.b_weights[0] > 0.0
        res = solve(scn, ptc_rh_cfg, window_spec, rh_on=True)
        st = res.state
        tmr = mixed_radiant_temperature(model.b_weights[0], st.T_si, st.T_rh)
        exact = pmv(st.T_cab, tmr, model.r_clo, window_spec)
        assert res.per_passenger_pmv[0] == pytest.approx(exact, abs=1e-9)
        assert res.mean_psi == pytest.approx(window_spec.psi_min, abs=1e-6)

    def test_cold_pinned_at_lower_limit(self, hp_cfg, winter_scn, window_spec):
        res = solve_window_rootfind(winter_scn, hp_cfg, window_spec, rh_on=False)
        assert res.mode == "heating"
        assert res.mean_psi == pytest.approx(-1.0, abs=1e-4)

    def test_boundary_is_cheapest(self, hp_cfg, winter_scn):
        # sweeping targets toward the passive side only raises the power
        base = solve_window_rootfind(winter_scn, hp_cfg,
                                     ComfortSpec(psi_min=-1.0, psi_max=1.0),
                                     rh_on=False)
        for tgt in (-0.8, -0.5, 0.0, 0.5, 1.0):
            res = solve_at_target(winter_scn, hp_cfg, tgt)
            assert res.P_tot >= base.P_tot - 1e-6

    def test_wide_window_everything_passive(self, hp_cfg, winter_scn, summer_scn):
        spec = ComfortSpec(psi_min=-3.0, psi_max=3.0)
        for scn in (winter_scn, summer_scn):
            res = solve_window_rootfind(scn, hp_cfg, spec, rh_on=False)
            assert res.state.Q_hvac == 0.0

    def test_zero_passengers_passive(self, hp_cfg, window_spec):
        scn = Scenario(T_inf=c_to_k(-10.0), I_dni=0.0, I_dhi=0.0, beta=-0.2,
                       N_pass=0, zeta_door=0.1, zeta_sh=0.4, month=1, id="empty")
        res = solve_window_rootfind(scn, hp_cfg, window_spec, rh_on=False)
        assert res.mode == "passive"
        assert np.isnan(res.mean_psi)

    def test_window_feasibility_tolerance(self, hp_cfg, window_spec):
        sset = synthesize_dataset(60, seed=31)
        for scn in sset:
            res = solve_window_rootfind(scn, hp_cfg, window_spec, rh_on=False)
            if scn.N_pass > 0:
                assert window_spec.psi_min - 1e-4 <= res.mean_psi \
                    <= window_spec.psi_max + 1e-4
            assert_balanced(res, scn, hp_cfg)


class TestWindowOpt:
    def test_agrees_with_rootfind(self, hp_cfg, window_spec):
        sset = synthesize_dataset(40, seed=32)
        for scn in sset:
            a = solve_window_rootfind(scn, hp_cfg, window_spec, rh_on=False)
            b = solve_window_opt(scn, hp_cfg, window_spec, rh_on=False)
            rel = abs(a.P_tot - b.P_tot) / max(a.P_tot, 1.0)
            assert rel <= 1e-4, f"{scn.id}: root={a.P_tot} opt={b.P_tot}"

    def test_agrees_with_rh(self, ptc_rh_cfg, winter_scn, summer_scn, window_spec):
        for scn in (winter_scn, summer_scn):
            for rh_on in (False, True):
                a = solve_window_rootfind(scn, ptc_rh_cfg, window_spec, rh_on=rh_on)
                b = solve_window_opt(scn, ptc_rh_cfg, window_spec, rh_on=rh_on)
                rel = abs(a.P_tot - b.P_tot) / max(a.P_tot, 1.0)
                assert rel <= 1e-4

    def test_no_simultaneous_heat_cool(self, hp_cfg, window_spec):
        sset = synthesize_dataset(25, seed=33)
        for scn in sset:
            res = solve_window_opt(scn, hp_cfg, window_spec, rh_on=False)
            q = res.state.Q_hvac
            q_hp, q_ac = max(q, 0.0), max(-q, 0.0)
            assert q_hp * q_ac <= 1e-6

    def test_ptc_power_equals_heat(self, ptc_cfg, winter_scn, window_spec):
        res = solve_window_opt(winter_scn, ptc_cfg, window_spec, rh_on=False)
        assert res.flows.P_hvac == pytest.approx(res.state.Q_hvac, rel=1e-9)

    def test_exact_comfort_after_refinement(self, hp_cfg, winter_scn, window_spec):
        res = solve_window_opt(winter_scn, hp_cfg, window_spec, rh_on=False)
        assert res.mean_psi == pytest.approx(-1.0, abs=1e-4)
        assert_balanced(res, winter_scn, hp_cfg)

    def test_zero_width_window(self, hp_cfg, winter_scn):
        spec = ComfortSpec(psi_min=0.0, psi_max=0.0)
        a = solve_window_rootfind(winter_scn, hp_cfg, spec, rh_on=False)
        b = solve_window_opt(winter_scn, hp_cfg, spec, rh_on=False)
        assert a.mean_psi == pytest.approx(0.0, abs=1e-4)
        assert abs(a.P_tot - b.P_tot) / max(a.P_tot, 1.0) <= 1e-4

    def test_slow_tail_needs_few_slsqp_runs(self, hp_cfg, monkeypatch):
        # with a polynomial PMV surrogate in the constraints, its bound moved
        # by the plain shift and finite-differenced constraints, this solve
        # ran SLSQP 5 times for 313 iterations, one run ending at the
        # 300-iteration limit; on the exact PMV it is one run that ends with
        # the optimality test met
        scn = next(s for s in synthesize_dataset(7500, 2303) if s.id == "syn-2303-07140")
        spec = ComfortSpec(psi_min=-1.0, psi_max=1.0)
        runs = []
        original = solver.minimize

        def counting(*args, **kwargs):
            res = original(*args, **kwargs)
            runs.append((int(res.nit), int(res.status)))
            return res

        monkeypatch.setattr(solver, "minimize", counting)
        b = solve_window_opt(scn, hp_cfg, spec, rh_on=False)
        a = solve_window_rootfind(scn, hp_cfg, spec, rh_on=False)
        assert len(runs) == 1 and runs[0][1] == 0, runs
        assert abs(a.P_tot - b.P_tot) / max(a.P_tot, 1.0) <= 1e-4


class TestSolveBest:
    def test_summer_never_uses_rh(self, ptc_rh_cfg, summer_scn, window_spec):
        res = solve_best(summer_scn, ptc_rh_cfg, window_spec)
        assert res.rh_used is False

    def test_no_panels_identical_to_off(self, hp_cfg, winter_scn, window_spec):
        res = solve_best(winter_scn, hp_cfg, window_spec)
        off = solve_window_rootfind(winter_scn, hp_cfg, window_spec, rh_on=False)
        assert res.P_tot == off.P_tot
        assert res.rh_used is False

    def test_rh_helps_ptc_in_winter(self, ptc_rh_cfg, winter_scn, window_spec):
        on = solve_window_rootfind(winter_scn, ptc_rh_cfg, window_spec, rh_on=True)
        off = solve_window_rootfind(winter_scn, ptc_rh_cfg, window_spec, rh_on=False)
        assert on.P_tot <= off.P_tot
        best = solve_best(winter_scn, ptc_rh_cfg, window_spec)
        assert best.P_tot == min(on.P_tot, off.P_tot)
        assert best.rh_used is True

    def test_best_never_worse_than_off(self, ptc_rh_cfg, window_spec):
        sset = synthesize_dataset(20, seed=34)
        for scn in sset:
            best = solve_best(scn, ptc_rh_cfg, window_spec)
            off = solve_window_rootfind(scn, ptc_rh_cfg, window_spec, rh_on=False)
            assert best.P_tot <= off.P_tot + 1e-9

    def test_opt_method(self, ptc_rh_cfg, winter_scn, window_spec):
        a = solve_best(winter_scn, ptc_rh_cfg, window_spec, method="rootfind")
        b = solve_best(winter_scn, ptc_rh_cfg, window_spec, method="opt")
        assert a.rh_used == b.rh_used
        assert abs(a.P_tot - b.P_tot) / max(a.P_tot, 1.0) <= 1e-4

    def test_unusable_panel_state_names_its_scenario(self, ptc_rh_cfg):
        # a June hour of synthesize_dataset(2000, 7101): with the panels
        # held at 30 C, the RH-on branch at +-2 solves to a cabin warmer
        # than its powered panels, which no ThermalState may hold
        scn = Scenario(T_inf=293.08299999999997, I_dni=695.05, I_dhi=65.82,
                       beta=0.9881460812846216, N_pass=15, zeta_door=0.1028, zeta_sh=0.25,
                       month=6, id="syn-7101-00018")
        cfg = replace(ptc_rh_cfg, T_rh_tgt=c_to_k(30.0))
        with pytest.raises(SolverError, match=r"scenario 'syn-7101-00018' \(rh_on=True\) "
                                              r"solved to T_rh = 303\.150 K, T_cab = 30") as err:
            solve_best(scn, cfg, ComfortSpec(psi_min=-2.0, psi_max=2.0))
        assert isinstance(err.value.__cause__, ConfigError)
        # the same configuration is usable at a narrower window
        assert solve_best(scn, cfg, ComfortSpec(psi_min=-0.5, psi_max=0.5)).P_tot > 0.0

    def test_unknown_method(self, hp_cfg, winter_scn, window_spec):
        with pytest.raises(ConfigError):
            solve_best(winter_scn, hp_cfg, window_spec, method="magic")


class TestInvariants:
    def test_window_monotonicity(self, hp_cfg, winter_scn, summer_scn):
        for scn in (winter_scn, summer_scn):
            prev = None
            for w in (0.0, 0.5, 1.0, 1.5, 2.0):
                spec = ComfortSpec(psi_min=-w, psi_max=w)
                res = solve_window_rootfind(scn, hp_cfg, spec, rh_on=False)
                if prev is not None:
                    assert res.P_tot <= prev * (1 + 1e-3) + 1e-6
                prev = res.P_tot

    def test_mode_flags_consistent(self, hp_cfg, window_spec):
        sset = synthesize_dataset(40, seed=35)
        for scn in sset:
            res = solve_window_rootfind(scn, hp_cfg, window_spec, rh_on=False)
            if res.mode == "passive":
                assert res.state.Q_hvac == 0.0 and res.state.P_rh == 0.0
            assert res.flows.P_hvac >= 0.0
            assert res.P_tot == pytest.approx(res.flows.P_rh + res.flows.P_hvac)

    def test_layout_mismatch_rejected(self, ptc_rh_cfg, winter_scn, window_spec):
        bad_layout = default_layout(ptc_rh_cfg.with_changes(A_rh=2.0))
        with pytest.raises(ConfigError):
            solve_window_rootfind(winter_scn, ptc_rh_cfg, window_spec, rh_on=True,
                                  layout=bad_layout)

    def test_panel_areas_computed_once(self, ptc_rh_cfg, winter_scn, window_spec,
                                       fresh_view_weights, monkeypatch):
        # the panels compute their areas when the layout is built: branch
        # models that check the layout's panel area compute none again
        layout = default_layout(ptc_rh_cfg)
        solver._BranchModel(winter_scn, ptc_rh_cfg, window_spec, True, layout)
        calls = []
        original = np.cross

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "cross", counting)
        for _ in range(10):
            solver._BranchModel(winter_scn, ptc_rh_cfg, window_spec, True, layout)
        assert calls == []

    def test_one_view_weight_table_per_layout_across_solves(self, ptc_rh_cfg,
                                                            fresh_view_weights,
                                                            monkeypatch):
        # separate solves on one layout read one slot table: the store is
        # the process's, not the call's
        calls = []
        original = solver.panel_view_weights

        def counting(passengers, layout):
            calls.append(len(passengers))
            return original(passengers, layout)

        monkeypatch.setattr(solver, "panel_view_weights", counting)
        layout = default_layout(ptc_rh_cfg)
        spec = ComfortSpec(psi_min=-0.5, psi_max=0.5)
        busy = [s for s in synthesize_dataset(200, seed=7101) if s.N_pass > 0][:80]
        results = [solve_best(scn, ptc_rh_cfg, spec, layout=layout) for scn in busy]
        assert len(results) == 80
        assert calls == [len(solver.placement_grid(layout))]
        assert fresh_view_weights._tables.keys() == {layout}


class TestNewton:
    @pytest.mark.parametrize("rh_on", [False, True])
    @pytest.mark.parametrize("psi_tgt", [None, -1.0])
    def test_one_balance_evaluation_per_iterate(self, hp_rh_cfg, winter_scn, rh_on,
                                                psi_tgt, monkeypatch):
        calls = []
        original = solver.reservoir_balance

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "reservoir_balance", counting)
        model = solver._BranchModel(winter_scn, hp_rh_cfg, ComfortSpec(), rh_on)
        frozen_q = 0.0 if psi_tgt is None else None
        _, iters, _ = solver._run(model.newton(model.init_vector(), psi_tgt, frozen_q))
        # every step here is a full Newton step: the Jacobian of an iterate
        # comes with its residual, so the start plus one balance per iterate
        assert iters > 0
        assert len(calls) == iters + 1

    @pytest.mark.parametrize("psi_tgt", [None, -1.0])
    def test_singular_jacobian_fails_its_row_alone(self, hp_cfg, small_set, psi_tgt,
                                                   monkeypatch):
        # no input has met a singular J; a zeroed balance Jacobian makes one
        models = [solver._BranchModel(s, hp_cfg, ComfortSpec(), False)
                  for s in small_set.scenarios if s.N_pass > 0][:4]
        bad = models[1].scn.id
        original = solver._NewtonGroup._system

        def system(group, pos, x, psi):
            rows, scale, jac = original(group, pos, x, psi)
            live = range(len(group.models)) if pos is None else pos
            jac = jac.copy()
            jac[[group.models[i].scn.id == bad for i in live]] = 0.0
            return rows, scale, jac

        monkeypatch.setattr(solver._NewtonGroup, "_system", system)
        frozen_q = 0.0 if psi_tgt is None else None
        requests = [solver._NewtonRequest(m, m.init_vector(), psi_tgt, frozen_q)
                    for m in models]
        stacked = solver._NewtonGroup(requests).run()
        err = stacked[1]
        assert isinstance(err, SolverError) and f"scenario {bad!r}" in str(err)
        # it failed at its start, the first Newton step
        assert err.last_x.tobytes() == requests[1].x0.tobytes()
        for i in (0, 2, 3):
            (x, iters, pmv), = solver._NewtonGroup([requests[i]]).run()
            assert stacked[i][1] == iters > 0
            assert stacked[i][0].tobytes() == x.tobytes()
            assert stacked[i][2].tobytes() == pmv.tobytes()

    def test_a_failing_row_ends_after_one_start(self, hp_cfg, window_spec, monkeypatch):
        scn = Scenario(T_inf=c_to_k(-5.0), I_dni=0.0, I_dhi=0.0, beta=-0.1, N_pass=20,
                       zeta_door=0.1, zeta_sh=0.4, month=1, id="cold")
        counts = {"_system": 0, "_step": 0}

        def counting(name):
            original = getattr(solver._NewtonGroup, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(solver._NewtonGroup, name, wrapper)

        for name in counts:
            counting(name)
        monkeypatch.setattr(solver._NewtonGroup, "converged",
                            lambda group, pos, r, scale: np.zeros(pos.size, bool))
        with pytest.raises(SolverError, match="scenario 'cold'") as failure:
            solve_window_rootfind(scn, hp_cfg, window_spec, rh_on=False)
        # the start, one full trial per Newton step, and the rejected trials
        # of one line search, whose step halves until below LINESEARCH_MIN
        halvings = math.ceil(math.log2(1.0 / solver.LINESEARCH_MIN))
        assert counts["_step"] > 0
        assert counts["_system"] <= counts["_step"] + 1 + halvings
        # the passive solve failed: its three balance rows, at its last iterate
        err = failure.value
        assert err.last_x.shape == (4,) and err.last_residuals.shape == (3,)
        assert np.all(np.isfinite(err.last_x)) and np.all(np.isfinite(err.last_residuals))


class TestKernelCalls:
    """The exact PMV a solve checks and reports is the answer of its Newton
    solves: each Newton group evaluates its solutions' kernel points once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = solver.pmv_array

        def counting(ta, *args, **kwargs):
            calls.append((np.size(ta), kwargs.get("grad", False)))
            return original(ta, *args, **kwargs)

        monkeypatch.setattr(solver, "pmv_array", counting)
        return calls

    def test_passive_in_window_one_call(self, hp_cfg, mild_scn, window_spec, calls):
        res = solve_window_rootfind(mild_scn, hp_cfg, window_spec, rh_on=False)
        assert res.mode == "passive"
        assert calls == [(1, False)]

    def test_empty_bus_no_call(self, hp_cfg, window_spec, calls):
        scn = Scenario(T_inf=c_to_k(-5.0), I_dni=0.0, I_dhi=0.0, beta=-0.1, N_pass=0,
                       zeta_door=0.1, zeta_sh=0.4, month=1, id="empty")
        solve_window_rootfind(scn, hp_cfg, window_spec, rh_on=False)
        assert calls == []

    def test_opt_one_call_per_polish(self, hp_cfg, winter_scn, window_spec, calls,
                                     monkeypatch):
        polishes = []
        original = solver._BranchModel.newton

        def counting(model, x0, psi_tgt, frozen_q=None):
            # a polish holds the decided heat and has no PMV row
            if frozen_q is not None and psi_tgt is None:
                polishes.append(frozen_q)
            return original(model, x0, psi_tgt, frozen_q)

        monkeypatch.setattr(solver._BranchModel, "newton", counting)
        res = solve_window_opt(winter_scn, hp_cfg, window_spec, rh_on=False)
        assert res.mode == "heating"
        # the polish answers the exact-PMV check and the report; the other
        # calls are the PMV constraint's, value and gradient together
        answers = [size for size, grad in calls if not grad]
        assert len(polishes) == 1 and answers == [1]


class TestResultAssembly:
    """A solve step's Newton answer becomes a result with one balance
    kernel call on its branch model's own coefficients."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"balance_coefficients": 0, "reservoir_balance": 0}

        def wrap(module, name):
            original = getattr(module, name)

            def counting(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counting)

        for module in (solver, model_core):
            for name in calls:
                wrap(module, name)
        return calls

    @pytest.mark.parametrize("cfg, per_scenario", [
        ("hp_cfg", 1), ("ptc_rh_cfg", 2)])
    def test_one_coefficient_set_per_branch_model(self, cfg, per_scenario, request,
                                                   counted):
        sset = synthesize_dataset(240, seed=7101)
        results = analysis.solve_set(sset, request.getfixturevalue(cfg),
                                     ComfortSpec(psi_min=-0.5, psi_max=0.5))
        assert len(results) == 240
        assert counted["balance_coefficients"] == 240 * per_scenario

    @pytest.mark.parametrize("rh_on", [False, True])
    @pytest.mark.parametrize("n_pass", [0, 30])
    def test_one_kernel_call_per_result(self, ptc_rh_cfg, winter_scn, window_spec, rh_on,
                                        n_pass, counted):
        scn = replace(winter_scn, N_pass=n_pass)
        model = solver._BranchModel(scn, ptc_rh_cfg, window_spec, rh_on)
        answer = solver._run(model.window(-0.5, 0.5))
        before = dict(counted)
        res = solver._finalize(model, answer, "rootfind")
        assert counted["reservoir_balance"] == before["reservoir_balance"] + 1
        assert counted["balance_coefficients"] == before["balance_coefficients"]
        assert res.iterations == answer[1]
        assert (res.state.P_rh > 0.0) == rh_on
        # the same flows as the reporting path, to the bit
        assert res.flows == compute_heat_flows(res.state, scn, ptc_rh_cfg, rh_on)
