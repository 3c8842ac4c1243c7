"""Acceptance suite: exact property checks plus directional reproductions
on the default synthetic year (7500 scenarios, fixed seed).

Each criterion prints one PASS line with its measured numbers (run with
``pytest -s`` to see them even when green).
"""

import math
import time

import numpy as np
import pytest

from cabintherm.analysis import (aggregate_annual, compare_concepts,
                                 oat_sensitivity, pareto_sweep, solve_set)
from cabintherm.comfort import (ComfortSpec, get_pmv_surrogate, pmv, pmv_array,
                                ppd)
from cabintherm.model_core import (BusConfig, CopCurve, balance_residuals,
                                   c_to_k, irradiance_wall_mean, max_abs_flow)
from cabintherm.radiant_geometry import (Rect3, vf_parallel_rects,
                                         vf_perpendicular_rects)
from cabintherm.scenario import synthesize_dataset
from cabintherm.solver import solve_window_opt, solve_window_rootfind
from conftest import kernel_flows, mc_view_factor

SEED = 42
WINDOW = ComfortSpec(psi_min=-1.0, psi_max=1.0)

HP = BusConfig()
PTC = BusConfig(cop_heating=CopCurve.constant(1.0))
PTC_RH = BusConfig(cop_heating=CopCurve.constant(1.0), rh_enabled=True, A_rh=4.0)
HP_RH = BusConfig(rh_enabled=True, A_rh=4.0)


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def set7500():
    return synthesize_dataset(7500, seed=SEED)


@pytest.fixture(scope="module")
def set500():
    return synthesize_dataset(500, seed=7)


@pytest.fixture(scope="module")
def cross_run(set500):
    """Criteria 1-3 share this run: both solvers on 500 scenarios x 3 windows."""
    t0 = time.perf_counter()
    rows = []
    for scn in set500:
        for w in (0.0, 0.5, 1.0):
            spec = WINDOW.with_window(-w, w)
            root = solve_window_rootfind(scn, HP, spec, rh_on=False)
            opt = solve_window_opt(scn, HP, spec, rh_on=False)
            rows.append((scn, w, root, opt))
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def hp_annual_run(set7500):
    """Timed single-threaded full sweep of the reference HP-AC vehicle."""
    t0 = time.perf_counter()
    results = solve_set(set7500, HP, WINDOW, jobs=1)
    elapsed = time.perf_counter() - t0
    return results, aggregate_annual(results, set7500), elapsed


@pytest.fixture(scope="module")
def concept_points(set7500):
    curves = compare_concepts(
        set7500, {"PTC-AC": PTC, "PTC-AC+RH": PTC_RH, "HP-AC+RH": HP_RH},
        [1.0], spec=WINDOW, seed=0, jobs=1)
    return {name: pts[0] for name, pts in curves.items()}


class TestCriterion1SolverAgreement:
    def test_cross_agreement(self, cross_run):
        rows, elapsed = cross_run
        worst = 0.0
        for scn, w, root, opt in rows:
            rel = abs(root.P_tot - opt.P_tot) / max(root.P_tot, 1.0)
            assert rel <= 1e-4, (f"{scn.id} w={w}: root={root.P_tot:.4f} "
                                 f"opt={opt.P_tot:.4f} rel={rel:.2e}")
            worst = max(worst, rel)
        assert elapsed < 60.0, f"cross check took {elapsed:.1f} s"
        report(1, f"1500 solves agree, worst rel dev {worst:.2e}, "
                  f"runtime {elapsed:.1f} s < 60 s")


class TestCriterion2Complementarity:
    def test_no_simultaneous_heat_cool(self, cross_run):
        rows, _ = cross_run
        worst = 0.0
        for _, _, root, opt in rows:
            for res in (root, opt):
                q = res.state.Q_hvac
                prod = max(q, 0.0) * max(-q, 0.0)
                assert prod <= 1e-6
                worst = max(worst, prod)
        report(2, f"Q_hp*Q_ac <= 1e-6 W^2 at every optimum (max {worst:.2e})")


class TestCriterion3BalanceClosure:
    def test_residuals_relative(self, cross_run):
        rows, _ = cross_run
        worst = 0.0
        for scn, _, root, opt in rows:
            for res in (root, opt):
                r = balance_residuals(res.state, scn, HP, res.rh_used)
                rel = float(np.max(np.abs(r))) / max(1.0, max_abs_flow(res.flows))
                assert rel <= 1e-6
                worst = max(worst, rel)
        report(3, f"balance residuals <= 1e-6 of the largest flow "
                  f"(worst {worst:.2e})")


class TestCriterion4ViewFactors:
    def test_monte_carlo_reciprocity_closure(self):
        rng = np.random.default_rng(99)
        worst_mc = 0.0
        worst_rec = 0.0
        for i in range(25):
            ax = np.sort(rng.uniform(-1.5, 1.5, 2))
            ay = np.sort(rng.uniform(-1.5, 1.5, 2))
            bx = np.sort(rng.uniform(-1.5, 1.5, 2))
            by = np.sort(rng.uniform(-1.5, 1.5, 2))
            z = rng.uniform(0.2, 2.5)
            a = Rect3((ax[0], ay[0], 0.0), (ax[1] - ax[0], 0, 0),
                      (0, ay[1] - ay[0], 0))
            b = Rect3.horizontal(bx[0], bx[1], by[0], by[1], z, facing_up=False)
            f = vf_parallel_rects(a, b)
            worst_mc = max(worst_mc, abs(f - mc_view_factor(a, b, seed=i)))
            worst_rec = max(worst_rec, abs(a.area * f - b.area * vf_parallel_rects(b, a)))
        for i in range(25):
            x0 = rng.uniform(-0.5, 0.5)
            sy = np.sort(rng.uniform(-1.5, 1.5, 2))
            sz = np.sort(rng.uniform(0.0, 1.7, 2))
            src = Rect3((x0, sy[0], sz[0]), (0, sy[1] - sy[0], 0),
                        (0, 0, sz[1] - sz[0]))
            tx = np.sort(rng.uniform(-1.5, 1.5, 2))
            ty = np.sort(rng.uniform(-1.5, 1.5, 2))
            zp = rng.uniform(sz[1] + 0.05, 3.0)
            tgt = Rect3.horizontal(tx[0], tx[1], ty[0], ty[1], zp, facing_up=False)
            f = vf_perpendicular_rects(src, tgt)
            worst_mc = max(worst_mc, abs(f - mc_view_factor(src, tgt, seed=1000 + i)))
            worst_rec = max(worst_rec,
                            abs(src.area * f - tgt.area * vf_perpendicular_rects(tgt, src)))
        assert worst_mc <= 1e-3
        assert worst_rec <= 1e-9
        report(4, f"50 random geometries: max |analytic - MC| = {worst_mc:.2e} "
                  f"<= 1e-3; reciprocity defect {worst_rec:.2e} <= 1e-9 "
                  "(per-face closure is exact by construction)")

    def test_per_face_closure(self):
        from cabintherm.radiant_geometry import (CabinLayout, PassengerCuboid,
                                                 ceiling_panel_strip,
                                                 panel_view_weights)
        layout = CabinLayout(18.0, 2.4, 2.3,
                             ceiling_panel_strip(18.0, 2.4, 2.3, 4.0))
        w = panel_view_weights([PassengerCuboid(x, 1.2) for x in
                                (0.5, 4.0, 9.0, 13.0, 17.5)], layout)
        assert np.all((w >= 0.0) & (w <= 1.0))


class TestCriterion5Comfort:
    def test_iso_table(self):
        cases = [
            (22.0, 22.0, 0.10, 60.0, 1.2, 0.5, -0.75),
            (27.0, 27.0, 0.10, 60.0, 1.2, 0.5, 0.77),
            (27.0, 27.0, 0.30, 60.0, 1.2, 0.5, 0.44),
            (23.5, 25.5, 0.10, 60.0, 1.2, 0.5, -0.01),
            (23.5, 25.5, 0.30, 60.0, 1.2, 0.5, -0.55),
            (19.0, 19.0, 0.10, 40.0, 1.2, 1.0, -0.60),
            (23.5, 23.5, 0.30, 40.0, 1.2, 1.0, 0.12),
            (22.0, 22.0, 0.10, 60.0, 1.6, 0.5, 0.05),
            (27.0, 27.0, 0.10, 60.0, 1.6, 0.5, 1.17),
            (27.0, 27.0, 0.30, 60.0, 1.6, 0.5, 0.95),
        ]
        worst = 0.0
        for ta, tr, vel, rh, met, clo, expected in cases:
            spec = ComfortSpec(v_cab=vel, phi_cab=rh / 100.0, met=met)
            got = pmv(c_to_k(ta), c_to_k(tr), clo, spec)
            assert got == pytest.approx(expected, abs=0.05)
            worst = max(worst, abs(got - expected))
        assert ppd(0.0) == 5.0
        report(5, f"10 ISO validation rows within +/-0.05 (worst {worst:.3f}); "
                  "ppd(0) = 5 % exactly")

    def test_surrogate_envelope(self):
        surr = get_pmv_surrogate(ComfortSpec())
        rng = np.random.default_rng(123)
        pts = rng.uniform([0.0, 0.0, 0.3], [45.0, 45.0, 1.8], size=(10_000, 3))
        exact = pmv_array(pts[:, 0], pts[:, 1], pts[:, 2], 0.1, 40.0, 1.2)
        err = float(np.max(np.abs(surr.evaluate(pts[:, 0], pts[:, 1], pts[:, 2])
                                  - exact)))
        assert err <= 0.05
        report(5, f"surrogate max |error| over 10^4 envelope points = {err:.4f} "
                  "<= 0.05")


class TestCriterion6SpotValues:
    def test_closed_forms(self):
        q_door = kernel_flows(HP, c_to_k(0.0), T_cab=c_to_k(20.0), zeta_door=1.0)["Q_door"]
        assert q_door == pytest.approx(5.10e4, rel=0.01)
        i_wall = irradiance_wall_mean(math.radians(30.0), 800.0, 100.0)
        assert i_wall == pytest.approx(270.5, abs=0.1)
        q_rad = kernel_flows(HP, c_to_k(0.0), T_so=c_to_k(10.0))["Q_r_so"]
        assert q_rad == pytest.approx(7.35e3, rel=0.01)
        report(6, f"door {q_door:.0f} W ~ 5.10e4; wall {i_wall:.2f} W/m2 ~ 270.5; "
                  f"radiative {q_rad:.0f} W ~ 7.35e3")


class TestCriterion7YearRound:
    def test_a_hp_vs_ptc(self, hp_annual_run, concept_points):
        _, hp_summary, _ = hp_annual_run
        reduction = 1.0 - hp_summary.annual_mean_P_tot \
            / concept_points["PTC-AC"].annual_mean_P_tot
        assert 0.40 <= reduction <= 0.70
        report("7a", f"HP-AC is {100 * reduction:.1f} % below PTC-AC at "
                     "window [-1, 1] (band 40-70 %)")

    def test_b_rh_improves_ptc(self, concept_points):
        improvement = 1.0 - concept_points["PTC-AC+RH"].annual_mean_P_tot \
            / concept_points["PTC-AC"].annual_mean_P_tot
        assert 0.0 <= improvement <= 0.15
        report("7b", f"radiant heaters improve PTC-AC by "
                     f"{100 * improvement:.2f} % (band 0-15 %)")

    def test_c_rh_barely_helps_hp(self, hp_annual_run, concept_points):
        _, hp_summary, _ = hp_annual_run
        improvement = 1.0 - concept_points["HP-AC+RH"].annual_mean_P_tot \
            / hp_summary.annual_mean_P_tot
        assert improvement <= 0.02
        report("7c", f"radiant heaters improve HP-AC by only "
                     f"{100 * improvement:.3f} % (<= 2 %)")

    def test_d_heating_dominates_cooling(self, hp_annual_run):
        _, summary, _ = hp_annual_run
        assert summary.heating_cooling_ratio > 1.0
        report("7d", f"annual heating demand is {summary.heating_cooling_ratio:.1f}x "
                     "the cooling demand (> 1 required, paper reports ~8x)")

    def test_e_pareto_ppd_floor(self, set7500):
        points = pareto_sweep(set7500, HP, [0.0, 0.5, 1.0, 1.5, 2.0],
                              spec=WINDOW, jobs=1)
        for p in points:
            assert p.annual_mean_ppd >= 5.0
        for a, b in zip(points, points[1:]):
            assert b.annual_mean_P_tot <= a.annual_mean_P_tot * (1 + 1e-3) + 1e-6
        report("7e", "annual mean PPD >= 5 % at every Pareto point; front "
                     "monotone: " + ", ".join(
                         f"w={p.half_width:.1f}: {p.annual_mean_P_tot:.0f} W/"
                         f"{p.annual_mean_ppd:.1f} %" for p in points))

    def test_runtime_target(self, hp_annual_run):
        _, _, elapsed = hp_annual_run
        assert elapsed < 60.0
        per_scn = elapsed / 7500.0 * 1e3
        report("7 runtime", f"full 7500-scenario sweep in {elapsed:.1f} s "
                            f"single-threaded ({per_scn:.2f} ms/scenario) < 60 s")


class TestCriterion8SensitivitySigns:
    def test_signs_and_ranking(self, set7500):
        sub = set7500.subset(500, seed=2)
        entries = oat_sensitivity(
            sub, HP, WINDOW,
            parameters=("cop_heating", "cop_cooling", "k_body", "tau_win",
                        "alpha_paint"))
        by = {(e.parameter, e.direction): e.rel_change_pct for e in entries}
        hp_up = by[("cop_heating", 1)]
        assert hp_up < 0.0
        assert abs(hp_up) > abs(by[("cop_cooling", 1)])
        assert by[("k_body", -1)] < 0.0
        for solar in ("tau_win", "alpha_paint"):
            for d in (1, -1):
                assert abs(by[(solar, d)]) < abs(hp_up)
        report(8, f"+1% heating COP: {hp_up:+.3f} % (vs cooling COP "
                  f"{by[('cop_cooling', 1)]:+.3f} %); -1% k_body: "
                  f"{by[('k_body', -1)]:+.3f} %; solar params "
                  f"|{by[('tau_win', 1)]:.4f}|, |{by[('alpha_paint', 1)]:.4f}| "
                  "all smaller than the heating-COP lever")


class TestCriterion9Determinism:
    def test_gen_and_sweep_byte_identical(self, tmp_path):
        import os
        from cabintherm.cli import main

        def run(tag):
            gen_dir = str(tmp_path / f"gen-{tag}")
            assert main(["gen", "--n", "200", "--seed", "5", "--out", gen_dir]) == 0
            sweep_dir = str(tmp_path / f"sweep-{tag}")
            assert main(["sweep", "--scenarios",
                         os.path.join(gen_dir, "scenarios.csv"),
                         "--out", sweep_dir, "--windows", "0.5,1.0",
                         "--concepts", "HP-AC,PTC-AC+RH", "--seed", "5",
                         "--jobs", "1"]) == 0
            blobs = {}
            for name in ("scenarios.csv",):
                with open(os.path.join(gen_dir, name), "rb") as fh:
                    blobs[name] = fh.read()
            for name in ("pareto_HP-AC.csv", "pareto_PTC-AC+RH.csv",
                         "pareto_combined.csv", "sweep_report.json"):
                with open(os.path.join(sweep_dir, name), "rb") as fh:
                    blobs[name] = fh.read()
            return blobs

        first = run("a")
        second = run("b")
        assert first == second
        report(9, f"gen + sweep rerun: {len(first)} output files byte-identical")
