from dataclasses import replace

import numpy as np
import pytest

from cabintherm import solver
from cabintherm.comfort import ComfortSpec, pmv
from cabintherm.errors import ConfigError
from cabintherm.model_core import (Scenario, balance_residuals, c_to_k,
                                   max_abs_flow)
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
        # with the surrogate bound moved by the plain shift and finite-
        # differenced constraints this solve ran SLSQP 5 times for 313
        # iterations, one run ending at the 300-iteration limit
        scn = next(s for s in synthesize_dataset(7500, 2303) if s.id == "syn-2303-07140")
        spec = ComfortSpec(psi_min=-1.0, psi_max=1.0)
        runs = []
        original = solver.minimize

        def counting(*args, **kwargs):
            res = original(*args, **kwargs)
            runs.append(int(res.nit))
            return res

        monkeypatch.setattr(solver, "minimize", counting)
        b = solve_window_opt(scn, hp_cfg, spec, rh_on=False)
        a = solve_window_rootfind(scn, hp_cfg, spec, rh_on=False)
        assert len(runs) <= 3, runs
        assert abs(a.P_tot - b.P_tot) / max(a.P_tot, 1.0) <= 1e-4


class TestSurrogateBoundStep:
    def test_first_round_shifts_by_the_miss(self):
        pairs = []
        assert solver._next_bound(pairs, -1.0, -1.0, -1.02) == pytest.approx(-0.98)
        assert pairs == [(-1.0, -1.02)]

    def test_secant_through_the_last_two_pairs(self):
        # exact PMV = 1.1 * bound + 0.08: the secant lands on the target
        pairs = [(-1.0, -1.02)]
        nxt = solver._next_bound(pairs, -0.98, -1.0, 1.1 * -0.98 + 0.08)
        assert 1.1 * nxt + 0.08 == pytest.approx(-1.0, abs=1e-12)

    def test_far_slope_falls_back_to_the_shift(self):
        # the bound was inactive in the first round: the exact PMV did not move
        pairs = [(0.5, 0.52)]
        assert solver._next_bound(pairs, 0.48, 0.5, 0.52) == pytest.approx(0.46)


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
                                       monkeypatch):
        # the panels compute their areas when the layout is built: branch
        # models that check the layout's panel area compute none again
        layout = default_layout(ptc_rh_cfg)
        cache = solver.ViewWeightsCache()
        solver._BranchModel(winter_scn, ptc_rh_cfg, window_spec, True, layout,
                            weights_cache=cache)
        calls = []
        original = np.cross

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "cross", counting)
        for _ in range(10):
            solver._BranchModel(winter_scn, ptc_rh_cfg, window_spec, True, layout,
                                weights_cache=cache)
        assert calls == []


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


class TestKernelCalls:
    """The exact PMV a solve checks and reports is the answer of its Newton
    solves: each Newton group evaluates its solutions' kernel points once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = solver.pmv_array

        def counting(ta, *args):
            calls.append(np.size(ta))
            return original(ta, *args)

        monkeypatch.setattr(solver, "pmv_array", counting)
        return calls

    def test_passive_in_window_one_call(self, hp_cfg, mild_scn, window_spec, calls):
        res = solve_window_rootfind(mild_scn, hp_cfg, window_spec, rh_on=False)
        assert res.mode == "passive"
        assert calls == [1]

    def test_empty_bus_no_call(self, hp_cfg, window_spec, calls):
        scn = Scenario(T_inf=c_to_k(-5.0), I_dni=0.0, I_dhi=0.0, beta=-0.1, N_pass=0,
                       zeta_door=0.1, zeta_sh=0.4, month=1, id="empty")
        solve_window_rootfind(scn, hp_cfg, window_spec, rh_on=False)
        assert calls == []

    def test_opt_one_call_per_polish(self, hp_cfg, winter_scn, window_spec, calls,
                                     monkeypatch):
        polishes = []
        original = solver._BranchModel.balance_with_q

        def counting(model, *args):
            polishes.append(args)
            return original(model, *args)

        monkeypatch.setattr(solver._BranchModel, "balance_with_q", counting)
        res = solve_window_opt(winter_scn, hp_cfg, window_spec, rh_on=False)
        assert res.mode == "heating"
        # the polish answers the exact-PMV check and, last, the report
        assert len(polishes) >= 1
        assert len(calls) == len(polishes)
