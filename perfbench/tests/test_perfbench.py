"""Tests of the benchmark itself: the oracle, the checks, the tracer, and a
tiny-size run of every workload."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import oracle  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from cabintherm import comfort, solver  # noqa: E402
from cabintherm.config import load_config  # noqa: E402
from cabintherm.scenario import ScenarioSet, synthesize_dataset  # noqa: E402

# ISO 7730 validation rows quoted by acceptance criterion 5:
# (t_a C, t_r C, v m/s, RH %, met, clo, PMV)
ISO_ROWS = [
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


def test_oracle_reproduces_iso7730_rows():
    for ta, tr, vel, rh, met, clo, expected in ISO_ROWS:
        assert oracle.pmv_iso7730(ta, tr, vel, rh, met, clo) == \
            pytest.approx(expected, abs=0.05)
    assert oracle.ppd_iso7730(0.0) == 5.0


def test_oracle_agrees_with_the_program_kernel():
    rng = np.random.default_rng(4)
    for ta, tr, clo in rng.uniform([0.0, 0.0, 0.3], [45.0, 45.0, 1.8], size=(200, 3)):
        ref = float(comfort.pmv_array(ta, tr, clo, 0.1, 40.0, 1.2))
        assert oracle.pmv_iso7730(ta, tr, 0.1, 40.0, 1.2, clo) == pytest.approx(ref, abs=1e-8)


# ---------------------------------------------------------------------------
# checks reject corrupted results
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved():
    """Solved points of the reference bus, one per mode, plus one with the
    radiant heaters in use; each with what ``check_result`` needs."""
    app = load_config(None)
    spec = app.comfort
    sset = synthesize_dataset(150, seed=11)
    hp = app.concepts["HP-AC"].bus
    rh = app.concepts["PTC-AC+RH"].bus
    rh_layout = solver.default_layout(rh)
    empty = dataclasses.replace(sset.scenarios[0], N_pass=0, id="empty-bus")
    picked = {}
    for scn in (*sset, empty):
        res = solver.solve_best(scn, hp, spec, seed=0)
        key = "empty" if scn.N_pass == 0 else res.mode
        picked.setdefault(key, (res, scn, hp, np.zeros(scn.N_pass)))
        if "rh" not in picked and scn.N_pass > 0:
            res = solver.solve_best(scn, rh, spec, layout=rh_layout, seed=0)
            if res.rh_used:
                s = workloads.Setup(app, sset, {}, spec, 0)
                picked["rh"] = (res, scn, rh, workloads._view_weights(s, scn, rh_layout, True))
    assert set(picked) == {"heating", "cooling", "passive", "empty", "rh"}
    return spec, picked


def _check(spec, res, scn, cfg, weights):
    clo = oracle.clothing(scn.T_inf, comfort.CLOTHING_CUBIC, comfort.CLOTHING_FLOOR)
    return oracle.check_result(res, scn, cfg, spec, spec.psi_min, spec.psi_max, clo,
                               weights)


def test_checks_accept_program_results(solved):
    spec, picked = solved
    for key, (res, scn, cfg, w) in picked.items():
        assert _check(spec, res, scn, cfg, w) == [], key


def _with_state(res, **changes):
    return dataclasses.replace(res, state=dataclasses.replace(res.state, **changes))


CORRUPTIONS = {
    "shifted Q_hvac": ("heating", lambda r: dataclasses.replace(
        _with_state(r, Q_hvac=r.state.Q_hvac + 5.0),
        flows=dataclasses.replace(r.flows, Q_hvac=r.state.Q_hvac + 5.0))),
    "moved T_cab": ("heating", lambda r: _with_state(r, T_cab=r.state.T_cab + 0.01)),
    "moved T_cab, passive": ("passive", lambda r: _with_state(r, T_cab=r.state.T_cab - 0.5)),
    "moved T_so": ("cooling", lambda r: _with_state(r, T_so=r.state.T_so + 0.01)),
    "P_tot off": ("cooling", lambda r: dataclasses.replace(r, P_tot=r.P_tot * 1.001)),
    "flows disagree with state": ("heating", lambda r: dataclasses.replace(
        r, flows=dataclasses.replace(r.flows, Q_hvac=r.flows.Q_hvac * 0.5))),
    "passenger PMV off": ("heating", lambda r: dataclasses.replace(
        r, per_passenger_pmv=tuple(v + 1e-3 for v in r.per_passenger_pmv))),
    "mean PMV off": ("passive", lambda r: dataclasses.replace(r, mean_psi=r.mean_psi + 0.01)),
    "PPD off": ("passive", lambda r: dataclasses.replace(r, ppd=r.ppd + 0.1)),
    "empty bus heated": ("empty", lambda r: _with_state(r, Q_hvac=100.0)),
    "panel power off": ("rh", lambda r: dataclasses.replace(
        _with_state(r, P_rh=r.state.P_rh + 10.0), P_tot=r.P_tot + 10.0)),
    "panel temperature moved": ("rh", lambda r: _with_state(r, T_rh=r.state.T_rh + 0.1)),
    "wrong scenario": ("heating", lambda r: dataclasses.replace(r, scenario_id="other")),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_result_rejects(solved, name):
    spec, picked = solved
    key, corrupt = CORRUPTIONS[name]
    res, scn, cfg, w = picked[key]
    assert _check(spec, corrupt(res), scn, cfg, w) != []


def test_window_and_bound_checks_reject(solved):
    spec, picked = solved
    res, scn, cfg, w = picked["heating"]
    clo = oracle.clothing(scn.T_inf, comfort.CLOTHING_CUBIC, comfort.CLOTHING_FLOOR)
    # the same point judged against a window it does not satisfy or sit on
    assert oracle.check_result(res, scn, cfg, spec, -0.5, 0.5, clo, w) != []
    assert oracle.check_result(res, scn, cfg, spec, -1.5, 1.0, clo, w) != []


def test_aggregate_checks_reject():
    hw = (0.0, 0.5, 1.0)
    assert oracle.check_front("ok", hw, [30.0, 20.0, 10.0], [5.0, 8.0, 12.0]) == []
    assert oracle.check_front("rises", hw, [30.0, 31.0, 10.0], [5.0, 8.0, 12.0]) != []
    assert oracle.check_front("ppd floor", hw, [30.0, 20.0, 10.0], [5.0, 4.9, 12.0]) != []
    assert oracle.check_front("ppd at 0", hw, [30.0, 20.0, 10.0], [5.1, 8.0, 12.0]) != []
    assert oracle.check_not_above("order", 10.0, 10.0) == []
    assert oracle.check_not_above("order", 10.01, 10.0) != []
    assert oracle.check_agreement("routes", 100.0, 100.005, oracle.ROUTE_RTOL) == []
    assert oracle.check_agreement("routes", 100.0, 100.02, oracle.ROUTE_RTOL) != []


def test_month_first_means():
    R = dataclasses.make_dataclass("R", ["P_tot", "ppd"])
    months = [m for m in range(1, 13) for _ in range(2)]
    results = [R(float(m), 5.0) for m in months]
    results[0] = R(3.0, float("nan"))   # January: 3 W and 1 W, one empty bus
    p_tot, ppd = oracle.month_first_means(results, months)
    assert p_tot == pytest.approx((2.0 + sum(range(2, 13))) / 12.0)
    assert ppd == 5.0
    with pytest.raises(ValueError):
        oracle.month_first_means(results[2:], months[2:])


def test_pool_comparison_rejects_a_changed_result(monkeypatch):
    app = load_config(None)
    sset = ScenarioSet(tuple(synthesize_dataset(60, seed=3)))
    s = workloads.Setup(app, sset, {"HP-AC": solver.default_layout(app.concepts["HP-AC"].bus)},
                        app.comfort, 3)
    monkeypatch.setattr(workloads, "JOBS2_SAMPLE_PER_MONTH", 1)
    results = workloads.analysis.solve_set(sset, app.concepts["HP-AC"].bus, app.comfort,
                                           s.layouts["HP-AC"], seed=3)
    assert workloads._same_as_serial(s, results) == []
    sample_id = workloads._by_month(sset, 1)[0].id
    changed = [_with_state(r, T_cab=r.state.T_cab + 1e-9) if r.scenario_id == sample_id
               else r for r in results]
    assert workloads._same_as_serial(s, changed) != []


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _program_namespace():
    """Every attribute of every loaded cabintherm module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("cabintherm"):
            continue
        for key, val in vars(mod).items():
            out[(name, key)] = val
            if isinstance(val, type) and val.__module__ == name:
                out.update({(name, key, k): v for k, v in vars(val).items()})
    return out


def test_tracer_rebinds_every_importer_and_restores():
    original = comfort.pmv_array
    before = _program_namespace()
    assert solver.pmv_array is original
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert comfort.pmv_array is not original
        assert solver.pmv_array is comfort.pmv_array
        tr.phase = "timed"
        comfort.pmv_array(np.array([20.0, 21.0]), 20.0, 1.0, 0.1, 40.0, 1.2)
        solver.pmv_array(20.0, 20.0, 1.0, 0.1, 40.0, 1.2)
    finally:
        tr.uninstall()
    after = _program_namespace()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tr.missing == []
    assert tr.total("timed", "comfort.pmv_array")[0] == 2
    assert tr.extra[("timed", "comfort.pmv_array.points")] == 3


# ---------------------------------------------------------------------------
# tiny-size runs of every workload, in a fresh interpreter each
# ---------------------------------------------------------------------------

SMOKE = textwrap.dedent("""
    import dataclasses, sys
    sys.path[:0] = [{src!r}, {bench!r}]
    import inputs, run
    for name, shape in list(inputs.SHAPES.items()):
        inputs.SHAPES[name] = dataclasses.replace(shape, per_month=1)
    run.OUT_DIR = {out!r}
    run.SETUP_REPEATS = 1
    sys.exit(run.main(sys.argv[1:]))
""")


def _smoke(tmp_path, workload, trace):
    script = tmp_path / "smoke.py"
    script.write_text(SMOKE.format(src=os.path.join(ROOT, "src"), bench=BENCH,
                                    out=str(tmp_path)))
    proc = subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", "5", "--seconds", "0.01", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(tmp_path, workload):
    metrics = _smoke(tmp_path, workload, 0)
    assert set(metrics) == {"setup_s", "solves_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced_zero_predictions(tmp_path, workload):
    m = {k: v["value"] for k, v in _smoke(tmp_path, workload, 1).items()}
    assert m["trace.missing_targets"] == 0
    assert (m["comfort.fit_pmv_surrogate.self_s"] > 0) == (workload == "crosscheck_opt")
    if workload == "annual_hp_jobs2":
        return      # the solves run in pool workers, whose spans do not come back
    # one scenario a month: 12 scenarios, times windows and concepts or routes
    assert m["solver.solves"] == 12 * {"annual_hp": 1, "concepts_rh": 12,
                                       "crosscheck_opt": 6}[workload]
    if workload == "annual_hp":
        assert m["radiant_geometry.panel_view_weights.calls"] == 0
        assert m["radiant_geometry.place_passengers.calls"] == 0
    if workload != "crosscheck_opt":
        assert m["solver.slsqp.calls"] == 0
    if workload == "concepts_rh":
        assert m["solver.view_weights_cache.hit_ratio"] > 0
    if workload == "crosscheck_opt":
        assert m["solver.slsqp.calls_per_solve"] >= 1


def test_exits_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "annual_hp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
