"""Property tests on randomized states, scenarios, configurations,
PMV kernel batches and panel layouts, and of the optimization route's
exact gradients against central differences.

Examples are derandomized so every run checks the same draws; each test
stays within a few seconds.
"""

import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cabintherm.comfort import ComfortSpec, pmv_array
from cabintherm.errors import CabinThermError, SolverError
from cabintherm.model_core import (BalanceCoefficients, BusConfig, CopCurve, Scenario,
                                   balance_coefficients, balance_residuals, c_to_k, k_to_c,
                                   max_abs_flow, reservoir_balance)
from cabintherm.radiant_geometry import (PASSENGER_HEIGHT, CabinLayout, PassengerCuboid,
                                         Rect3, ceiling_panel_strip, panel_view_weights,
                                         place_passengers, placement_grid, placement_slots)
from cabintherm.solver import (T_BOX, _BranchModel, _NewtonGroup, _NewtonRequest, _OptProgram,
                               _run, _solve_branch, ScenarioSweeper, default_layout,
                               solve_best, solve_window_opt, solve_window_rootfind)
from flow_reference import (conduction_shell, convective_cabin_to_shell,
                            convective_rh_to_cabin, convective_shell_to_ambient,
                            door_loss, radiative_loss_outer, radiative_rh_to_shell)
from geometry_reference import footprint, vf_parallel_rects, vf_perpendicular_rects

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)


def _load_oracle():
    """The benchmark's reference physics, written apart from the program."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


@st.composite
def scenarios(draw):
    beta = draw(st.floats(-0.5, 1.4))
    sun = beta > 0.0
    return Scenario(
        T_inf=c_to_k(draw(st.floats(-20.0, 38.0))),
        I_dni=draw(st.floats(0.0, 900.0)) if sun else 0.0,
        I_dhi=draw(st.floats(0.0, 250.0)) if sun else 0.0,
        beta=beta,
        N_pass=draw(st.integers(0, 60)),
        zeta_door=draw(st.floats(0.0, 0.5)),
        zeta_sh=draw(st.floats(0.0, 1.0)),
        month=draw(st.integers(1, 12)),
        id=f"p{draw(st.integers(0, 10 ** 6))}",
    )


@st.composite
def configs(draw, rh: bool):
    return BusConfig(
        k_body=draw(st.floats(250.0, 700.0)),
        h_in=draw(st.floats(4.0, 10.0)),
        h_out=draw(st.floats(10.0, 30.0)),
        h_rh=draw(st.floats(1.0, 6.0)),
        alpha_paint=draw(st.floats(0.1, 0.9)),
        tau_win=draw(st.floats(0.3, 0.9)),
        cop_heating=(CopCurve.constant(1.0) if draw(st.booleans())
                     else BusConfig().cop_heating),
        rh_enabled=rh,
        A_rh=draw(st.floats(1.0, 8.0)) if rh else 0.0,
    )


@pytest.mark.parametrize("rh_on", [False, True])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_kernel_jacobian_matches_central_differences(rh_on, data):
    scn = data.draw(scenarios())
    cfg = data.draw(configs(rh=rh_on))
    temps = [data.draw(st.floats(240.0, 380.0)) for _ in range(4)]
    # the door flow grows with |dT|^1.5: differences across its cusp at
    # T_cab = T_inf say nothing about the derivative
    assume(abs(temps[0] - scn.T_inf) > 0.5)
    x = np.array(temps + [data.draw(st.floats(-2e4, 2e4)),
                          data.draw(st.floats(0.0, 5e3))])
    coef = balance_coefficients(scn, cfg)

    def rows(v):
        return reservoir_balance(*v, coef, rh_on)[1]

    jac = reservoir_balance(*x, coef, rh_on)[2]
    # the unknowns T_cab, T_si, T_so, Q_hvac among the kernel's arguments
    cols = [0, 2, 3, 4]
    assert jac.shape == (len(rows(x)), len(cols))
    atol = 1e-6 * max(1.0, float(np.max(np.abs(jac))))
    for j, col in enumerate(cols):
        h = 1e-3 if col < 4 else 1.0
        up, down = x.copy(), x.copy()
        up[col] += h
        down[col] -= h
        fd = (rows(up) - rows(down)) / (2.0 * h)
        np.testing.assert_allclose(jac[:, j], fd, rtol=1e-6, atol=atol)


@pytest.mark.parametrize("rh_on", [False, True])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_stacked_balance_equals_one_row_calls(rh_on, data):
    # Newton evaluates every live row of a lockstep round in one kernel call:
    # a row must give the same bits there as alone, as floats or as arrays
    n = data.draw(st.integers(1, 12))
    coefs, states = [], []
    for _ in range(n):
        scn = data.draw(scenarios())
        coefs.append(balance_coefficients(scn, data.draw(configs(rh=rh_on))))
        temps = [data.draw(st.floats(240.0, 380.0)) for _ in range(4)]
        if data.draw(st.booleans()):
            temps[0] = scn.T_inf          # no door flow: the Jacobian's special case
        states.append(temps + [data.draw(st.floats(-2e4, 2e4)),
                               data.draw(st.floats(0.0, 5e3))])
    stacked = np.array(states)
    flows, rows, jac = reservoir_balance(*stacked.T, BalanceCoefficients(*np.array(coefs).T),
                                         rh_on)
    assert rows.shape == (n, 4 if rh_on else 3)
    assert jac.shape == rows.shape + (4,)
    for i, (coef, state) in enumerate(zip(coefs, states)):
        alone = (reservoir_balance(*state, coef, rh_on),
                 reservoir_balance(*stacked[i:i + 1].T,
                                   BalanceCoefficients(*np.array([coef]).T), rh_on))
        for f1, rows1, jac1 in alone:
            assert _bits(rows1) == _bits(rows[i])
            assert _bits(jac1) == _bits(jac[i])
            for name, value in flows.items():
                assert _bits(f1[name]) == _bits(value[i]), name


@PROPERTY_SETTINGS
@given(scn=scenarios(), cfg=configs(rh=True), data=st.data())
def test_kernel_flows_match_the_flow_functions(scn, cfg, data):
    # the kernel evaluates each flow from lumped coefficients; the
    # reference writes each out on its own
    t_cab, t_rh, t_si, t_so = (data.draw(st.floats(240.0, 380.0)) for _ in range(4))
    flows = reservoir_balance(t_cab, t_rh, t_si, t_so, 0.0, 0.0,
                              balance_coefficients(scn, cfg), True)[0]
    expected = {
        "Q_door": door_loss(t_cab, scn.T_inf, scn.zeta_door, cfg),
        "Q_h_si": convective_cabin_to_shell(t_cab, t_si, cfg),
        "Q_k": conduction_shell(t_si, t_so, cfg),
        "Q_h_so": convective_shell_to_ambient(t_so, scn.T_inf, cfg),
        "Q_r_so": radiative_loss_outer(t_so, scn.T_inf, cfg),
        "Q_r_rh": radiative_rh_to_shell(t_rh, t_si, cfg),
        "Q_h_rh": convective_rh_to_cabin(t_rh, t_cab, cfg),
    }
    assert set(flows) == set(expected)
    for name, value in expected.items():
        # the radiative flows difference two fourth powers of ~1e10
        assert flows[name] == pytest.approx(value, rel=1e-12, abs=1e-9), name


@PROPERTY_SETTINGS
@given(data=st.data())
def test_pmv_rises_with_air_and_radiant_temperature(data):
    # 200 000 random points gave a slope of at least 0.046 per K in the air
    # and 0.014 per K in the radiant temperature over these ranges
    step = data.draw(st.floats(0.05, 5.0))
    ta = data.draw(st.floats(-20.0, 50.0 - step))
    tr = data.draw(st.floats(-20.0, 70.0 - step))
    clo = data.draw(st.floats(0.0, 2.0))
    setting = (data.draw(st.floats(0.05, 1.0)), data.draw(st.floats(10.0, 90.0)),
               data.draw(st.floats(0.8, 2.0)))
    base = pmv_array(ta, tr, clo, *setting)
    assert pmv_array(ta + step, tr, clo, *setting) - base >= 0.01 * step
    assert pmv_array(ta, tr + step, clo, *setting) - base >= 0.005 * step


def _check_kernel_against_the_iso_program(data, ta_range, tr_range, clo_range):
    """One batch of random points in the ranges, within 1e-9 of the oracle."""
    vel, rh, met = (data.draw(st.floats(0.05, 1.0)), data.draw(st.floats(10.0, 90.0)),
                    data.draw(st.floats(0.8, 2.0)))
    points = [(data.draw(st.floats(*ta_range)), data.draw(st.floats(*tr_range)),
               data.draw(st.floats(*clo_range)))
              for _ in range(data.draw(st.integers(1, 20)))]
    got = pmv_array(*np.array(points).T, vel, rh, met)
    for (ta, tr, clo), value in zip(points, got):
        assert value == pytest.approx(oracle.pmv_iso7730(ta, tr, vel, rh, met, clo), abs=1e-9)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_pmv_kernel_matches_the_iso_program(data):
    # 20 000 random points differed by at most 1.1e-10 over these ranges
    _check_kernel_against_the_iso_program(data, (-20.0, 50.0), (-20.0, 70.0), (0.0, 2.0))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_pmv_kernel_matches_the_iso_program_over_the_optimizer_box(data):
    # SLSQP may evaluate any air and radiant temperature in T_BOX; 20 000
    # random points differed by at most 1.4e-10 over these ranges
    box = (k_to_c(T_BOX[0]), k_to_c(T_BOX[1]))
    _check_kernel_against_the_iso_program(data, box, box, (0.3, 1.8))


@PROPERTY_SETTINGS
@given(scn=scenarios(), cfg=st.one_of(configs(rh=False), configs(rh=True)),
       half_width=st.sampled_from([0.0, 0.5, 1.0]))
def test_rootfind_closes_the_balance(scn, cfg, half_width):
    res = solve_best(scn, cfg, ComfortSpec(psi_min=-half_width, psi_max=half_width))
    r = balance_residuals(res.state, scn, cfg, res.rh_used)
    assert float(np.max(np.abs(r))) <= 1e-6 * max(1.0, max_abs_flow(res.flows))


@pytest.mark.parametrize("rh_on", [False, True])
@settings(PROPERTY_SETTINGS, max_examples=40)
@given(scn=scenarios(), data=st.data(), half_width=st.sampled_from([0.0, 0.5, 1.0]))
def test_routes_agree(rh_on, scn, data, half_width):
    # root finding and SLSQP find the same minimum power on either branch
    cfg = data.draw(configs(rh=rh_on))
    spec = ComfortSpec(psi_min=-half_width, psi_max=half_width)
    root = solve_window_rootfind(scn, cfg, spec, rh_on)
    opt = solve_window_opt(scn, cfg, spec, rh_on)
    assert abs(root.P_tot - opt.P_tot) <= 1e-4 * max(1.0, root.P_tot)


@PROPERTY_SETTINGS
@given(scn=scenarios(), cfg=st.one_of(configs(rh=False), configs(rh=True)))
def test_power_does_not_rise_with_the_window(scn, cfg):
    # a wider window admits every state a narrower one does
    sweeper = ScenarioSweeper(scn, cfg, ComfortSpec())
    p_tot = [sweeper.solve(-w, w).P_tot for w in (0.0, 0.25, 0.5, 1.0, 2.0)]
    for narrow, wide in zip(p_tot, p_tot[1:]):
        assert wide <= narrow + 1e-9 * max(1.0, narrow)


# ---------------------------------------------------------------------------
# Newton's one start per request
# ---------------------------------------------------------------------------

# the starts Newton once restarted a failed request from, after its own:
# that start with each shift added to its temperatures
_RESTART_SHIFTS = [np.random.default_rng(1000 + a).uniform(-5.0, 5.0, 3) for a in range(1, 6)]
_SEATS = len(placement_grid(default_layout(BusConfig(A_rh=1.0))))
# a PMV window bound: an end of the scale, or anywhere on it
_PMV_BOUND = st.one_of(st.just(-3.0), st.just(3.0), st.floats(-3.0, 3.0))
_WINDOWS = st.lists(st.one_of(st.tuples(_PMV_BOUND, _PMV_BOUND).map(sorted),
                              _PMV_BOUND.map(lambda b: (b, b))), min_size=1, max_size=4)


@st.composite
def wide_cases(draw):
    """A scenario and a configuration, either branch, over a wider
    envelope than :func:`scenarios` and :func:`configs`: -45 to 60 C, a
    sealed to an always-open door, up to 200 passengers (the cabin's seats
    with panels), 20 to 5000 W/K of shell and panels at 40 to 140 C."""
    rh = draw(st.booleans())
    cfg = BusConfig(
        k_body=math.exp(draw(st.floats(math.log(20.0), math.log(5000.0)))),
        h_in=draw(st.floats(1.0, 30.0)),
        h_out=draw(st.floats(3.0, 80.0)),
        h_rh=draw(st.floats(1.0, 6.0)),
        alpha_paint=draw(st.floats(0.1, 0.9)),
        tau_win=draw(st.floats(0.3, 0.9)),
        cop_heating=(CopCurve.constant(1.0) if draw(st.booleans())
                     else BusConfig().cop_heating),
        rh_enabled=rh,
        A_rh=draw(st.floats(1.0, 8.0)) if rh else 0.0,
        T_rh_tgt=c_to_k(draw(st.floats(40.0, 140.0))),
    )
    beta = draw(st.floats(-0.5, 1.4))
    sun = beta > 0.0
    scn = Scenario(
        T_inf=c_to_k(draw(st.floats(-45.0, 60.0))),
        I_dni=draw(st.floats(0.0, 900.0)) if sun else 0.0,
        I_dhi=draw(st.floats(0.0, 250.0)) if sun else 0.0,
        beta=beta,
        N_pass=draw(st.integers(0, _SEATS if rh else 200)),
        zeta_door=draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))),
        zeta_sh=draw(st.floats(0.0, 1.0)),
        month=draw(st.integers(1, 12)),
        id=f"w{draw(st.integers(0, 10 ** 6))}",
    )
    return scn, cfg


def test_no_failed_request_is_solved_from_a_shifted_start():
    # Newton gives a request one start: the balance has one root.  Every
    # Newton request of this search that fails (passive, warm and cold
    # pinned solves, the SLSQP polish) must fail from each shifted start
    # too; an input that a shifted start solves would need restarts back
    original = _NewtonGroup.run
    failed = []

    def run(group):
        out = original(group)
        for i, answer in enumerate(out):
            if isinstance(answer, SolverError):
                x0 = group.x0[i]
                failed.append(_NewtonRequest(group.models[i], x0, group.psi_tgts[i],
                                             x0[3] if group.shape.frozen else None))
        return out

    @settings(PROPERTY_SETTINGS, max_examples=200)
    @given(case=wide_cases(), windows=_WINDOWS,
           method=st.sampled_from(["rootfind", "rootfind", "rootfind", "opt"]))
    def search(case, windows, method):
        # each branch on its own: a sweeper stops at its first failure
        for model in ScenarioSweeper(*case, ComfortSpec(), method=method).models:
            for lo, hi in windows:
                try:
                    _run(_solve_branch(model, method, lo, hi))
                except CabinThermError:
                    pass

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_NewtonGroup, "run", run)
        search()
    # the search reaches requests with no root on both branches: a nearly
    # sealed, well-insulated bus whose passive cabin air runs into the
    # iterate clamp at 400 K
    assert {req.model.rh_on for req in failed} == {False, True}
    for req in failed:
        for shift in _RESTART_SHIFTS:
            x0 = req.x0.copy()
            x0[:3] += shift
            answer, = original(_NewtonGroup([req._replace(x0=x0)]))
            assert isinstance(answer, SolverError), (req.model.scn, req.model.cfg, req.psi_tgt)


def _passenger_faces(p):
    """The five radiating faces of a passenger cuboid, normals outward."""
    x0, x1, y0, y1 = footprint(p)
    h = PASSENGER_HEIGHT
    return [Rect3.horizontal(x0, x1, y0, y1, h, facing_up=True),
            Rect3((x1, y0, 0.0), (0.0, y1 - y0, 0.0), (0.0, 0.0, h)),
            Rect3((x0, y0, 0.0), (0.0, 0.0, h), (0.0, y1 - y0, 0.0)),
            Rect3((x0, y1, 0.0), (0.0, 0.0, h), (x1 - x0, 0.0, 0.0)),
            Rect3((x0, y0, 0.0), (x1 - x0, 0.0, 0.0), (0.0, 0.0, h))]


@PROPERTY_SETTINGS
@given(data=st.data())
def test_view_weights_are_the_area_weighted_face_sums(data):
    n_panels = data.draw(st.integers(1, 6))
    panel_width = data.draw(st.floats(0.6, 1.2))
    area = data.draw(st.one_of(st.just(0.0), st.floats(0.5, 8.0)))
    panels = ceiling_panel_strip(18.0, 2.4, 2.3, area, n_panels, panel_width)
    layout = CabinLayout(18.0, 2.4, 2.3, panels)
    passengers = place_passengers(data.draw(st.integers(1, 8)),
                                  data.draw(st.integers(0, 10 ** 6)), layout)
    weights = panel_view_weights(passengers, layout)
    assert weights.shape == (len(passengers),)
    assert np.all((weights >= 0.0) & (weights <= 1.0))
    if not panels:
        assert not np.any(weights)
    for p, w in zip(passengers, weights):
        faces = _passenger_faces(p)
        top, sides = faces[0], faces[1:]
        seen = sum(top.area * vf_parallel_rects(top, q) for q in panels)
        seen += sum(f.area * vf_perpendicular_rects(f, q) for f in sides for q in panels)
        assert w == pytest.approx(seen / sum(f.area for f in faces), abs=1e-12)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_slot_table_gives_each_placements_view_weights(data):
    length = data.draw(st.floats(2.0, 20.0))
    width = data.draw(st.floats(1.0, 3.0))
    height = data.draw(st.floats(1.8, 3.0))
    n_panels = data.draw(st.integers(1, 12))
    panel_width = data.draw(st.floats(0.2, width))
    # up to 95 % of the area the strip's span holds
    area = data.draw(st.floats(0.05, 0.95)) * length * 7.0 / 9.0 * panel_width
    layout = CabinLayout(length, width, height,
                         ceiling_panel_strip(length, width, height, area, n_panels,
                                             panel_width))
    grid = placement_grid(layout)
    n = data.draw(st.integers(1, len(grid)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    table = panel_view_weights([PassengerCuboid(x, y) for x, y in grid], layout)
    slots = placement_slots(n, seed, layout)
    passengers = place_passengers(n, seed, layout)
    assert [grid[i] for i in slots] == [(p.x, p.y) for p in passengers]
    assert table[slots].tobytes() == panel_view_weights(passengers, layout).tobytes()


# each draw is up to 120 scalar view factors, about 0.5 ms each
@settings(PROPERTY_SETTINGS, max_examples=40)
@given(data=st.data())
def test_passenger_face_to_panel_reciprocity(data):
    # a passenger on a random slot of a random cabin and strip; panels may
    # lie partly behind a side face, which the view factor clips away
    length = data.draw(st.floats(2.0, 20.0))
    width = data.draw(st.floats(1.0, 3.0))
    height = data.draw(st.floats(1.8, 3.0))
    n_panels = data.draw(st.integers(1, 12))
    panel_width = data.draw(st.floats(0.2, width))
    area = data.draw(st.floats(0.05, 0.95)) * length * 7.0 / 9.0 * panel_width
    layout = CabinLayout(length, width, height,
                         ceiling_panel_strip(length, width, height, area, n_panels,
                                             panel_width))
    x, y = data.draw(st.sampled_from(placement_grid(layout)))
    faces = _passenger_faces(PassengerCuboid(x, y))
    for f in faces:
        vf = vf_parallel_rects if f is faces[0] else vf_perpendicular_rects
        for q in layout.rh_panels:
            assert abs(f.area * vf(f, q) - q.area * vf(q, f)) <= 1e-9


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# the kernel's documented envelope: SLSQP's temperature box, and the
# clothing, air speeds and metabolic rates of its iteration limit
# (comfort._MAX_TCL_ITER), at 5-95 % humidity
_BOX_C = st.floats(T_BOX[0] - 273.15, T_BOX[1] - 273.15)
_KERNEL_POINT = st.tuples(_BOX_C, _BOX_C, st.floats(0.0, 2.5))
_KERNEL_SETTING = st.tuples(st.floats(0.001, 3.2), st.floats(5.0, 95.0), st.floats(0.7, 4.0))
# clothing on either side of the switch of fcl at icl = 0.155 clo = 0.078,
# and none at all
_FCL_SWITCH = 0.078 / 0.155
_EDGE_CLO = (math.nextafter(_FCL_SWITCH, 0.0), _FCL_SWITCH,
             math.nextafter(_FCL_SWITCH, math.inf), 0.0)


@PROPERTY_SETTINGS
@given(points=st.lists(_KERNEL_POINT, min_size=2, max_size=40), setting=_KERNEL_SETTING,
       sub=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=80))
@example(points=[(22.0, 25.0, c) for c in _EDGE_CLO], setting=(0.1, 40.0, 1.2), sub=[3, 0])
@example(points=[(T_BOX[0] - 273.15, T_BOX[1] - 273.15, c) for c in _EDGE_CLO],
         setting=(3.2, 95.0, 4.0), sub=[1, 2])
@example(points=[(T_BOX[1] - 273.15, T_BOX[0] - 273.15, c) for c in _EDGE_CLO],
         setting=(0.001, 5.0, 0.7), sub=[0, 1, 2, 3])
def test_pmv_value_does_not_depend_on_its_batch(points, setting, sub):
    # a call of one point runs the float path, a larger one the array loop
    n = len(points)
    ta, tr, clo = (np.array(col) for col in zip(*points))
    sub = [k % n for k in sub]
    batch = pmv_array(ta, tr, clo, *setting)
    outs = pmv_array(ta, tr, clo, *setting, grad=True)
    for i in range(n):
        alone = pmv_array(ta[i], tr[i], clo[i], *setting)
        assert type(alone) is np.float64 and _bits(alone) == _bits(batch[i])
        one = pmv_array(ta[i:i + 1], tr[i:i + 1], clo[i:i + 1], *setting)
        assert one.shape == (1,) and _bits(one) == _bits(batch[i:i + 1])
        # the value and both partial derivatives
        alone = pmv_array(ta[i], tr[i], clo[i], *setting, grad=True)
        assert all(type(a) is np.float64 for a in alone)
        assert [_bits(a) for a in alone] == [_bits(out[i]) for out in outs]
        one = pmv_array(ta[i:i + 1], tr[i:i + 1], clo[i:i + 1], *setting, grad=True)
        assert all(o.shape == (1,) for o in one)
        assert [_bits(o) for o in one] == [_bits(out[i:i + 1]) for out in outs]
    assert _bits(pmv_array(ta[sub], tr[sub], clo[sub], *setting)) == _bits(batch[sub])
    assert [_bits(a) for a in pmv_array(ta[sub], tr[sub], clo[sub], *setting, grad=True)] \
        == [_bits(out[sub]) for out in outs]


@PROPERTY_SETTINGS
@given(data=st.data())
def test_pmv_gradient_matches_central_differences(data):
    temps = np.array([data.draw(st.floats(-20.0, 50.0)), data.draw(st.floats(-20.0, 70.0))])
    clo = data.draw(st.floats(0.0, 2.0))
    setting = (data.draw(st.floats(0.05, 1.0)), data.draw(st.floats(10.0, 90.0)),
               data.draw(st.floats(0.8, 2.0)))
    value, *grad = pmv_array(*temps, clo, *setting, grad=True)
    assert _bits(value) == _bits(pmv_array(*temps, clo, *setting))
    h = 1e-3
    for j in range(2):
        up, down = temps.copy(), temps.copy()
        up[j] += h
        down[j] -= h
        f_up, *g_up = pmv_array(*up, clo, *setting, grad=True)
        f_down, *g_down = pmv_array(*down, clo, *setting, grad=True)
        # away from the kink of hc = max(hcf, hcn), where the partials jump
        # by about 0.01; they move by about 1e-5 between the two points else
        assume(abs(g_up[j] - g_down[j]) < 1e-3)
        fd = (f_up - f_down) / (2.0 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# exact gradients of the optimization route
# ---------------------------------------------------------------------------

def central_differences(fun, x, steps):
    """Columns d(fun)/dx_j by central differences with per-column steps."""
    cols = []
    for j, h in enumerate(steps):
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        cols.append((np.asarray(fun(up)) - np.asarray(fun(down))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def decision_vector(data, prog, t_lo=240.0, t_hi=380.0):
    """A random decision vector of ``prog`` (temperatures in K, powers in kW)."""
    z = np.zeros(prog.nvar)
    for j in range(prog.n_temps):
        z[j] = data.draw(st.floats(t_lo, t_hi))
    for j in range(prog.n_temps, prog.nvar):
        z[j] = data.draw(st.floats(0.0, 20.0))
    return z


@pytest.mark.parametrize("rh_on", [False, True])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_equality_jacobian_matches_central_differences(rh_on, data):
    scn = data.draw(scenarios())
    cfg = data.draw(configs(rh=rh_on))
    prog = _OptProgram(_BranchModel(scn, cfg, ComfortSpec(), rh_on))
    z = decision_vector(data, prog)
    # the door flow's |dT|^1.5 cusp at T_cab = T_inf
    assume(abs(z[prog.tc] - scn.T_inf) > 0.5)
    jac = prog.equalities_jac(z)
    fd = central_differences(prog.equalities, z, [1e-3] * prog.nvar)
    assert jac.shape == fd.shape == (len(prog.equalities(z)), prog.nvar)
    np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * max(1.0, np.max(np.abs(jac))))


@pytest.mark.parametrize("view_weights", [False, True])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_pmv_constraint_gradient_matches_central_differences(view_weights, data):
    scn = data.draw(scenarios().filter(lambda s: s.N_pass > 0))
    cfg = data.draw(configs(rh=view_weights))
    model = _BranchModel(scn, cfg, ComfortSpec(), view_weights)
    if view_weights:
        # random per-passenger panel view weights, in place of the placement's
        model.b_weights = np.array(data.draw(st.lists(
            st.floats(0.0, 0.6), min_size=scn.N_pass, max_size=scn.N_pass)))
        model.uniform_tmr = False
    prog = _OptProgram(model)
    z = decision_vector(data, prog, 265.0, 320.0)
    grad = prog.psi_grad(z)
    fd = central_differences(prog.psi, z, [1e-3] * prog.nvar)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7 * max(1.0, np.max(np.abs(fd))))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_objective_gradient_matches_central_differences(data):
    scn = data.draw(scenarios())
    cfg = data.draw(st.one_of(configs(rh=False), configs(rh=True)))
    prog = _OptProgram(_BranchModel(scn, cfg, ComfortSpec(), cfg.rh_enabled))
    z = decision_vector(data, prog)
    h = 1e-3
    # away from the COP breakpoints, where the curve has no derivative
    dt = z[prog.tc] - scn.T_inf
    assume(all(abs(dt - d) > 2 * h for d, _ in cfg.cop_heating.breakpoints))
    assume(all(abs(-dt - d) > 2 * h for d, _ in cfg.cop_cooling.breakpoints))
    grad = prog.objective_grad(z)
    fd = central_differences(prog.objective, z, [1e-3] * prog.nvar)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


@st.composite
def cop_curves(draw):
    n = draw(st.integers(1, 5))
    deltas = sorted(draw(st.lists(st.floats(-10.0, 50.0), min_size=n, max_size=n,
                                  unique=True)))
    assume(all(b - a > 0.1 for a, b in zip(deltas, deltas[1:])))
    cops = draw(st.lists(st.floats(1.0, 5.0), min_size=n, max_size=n))
    return CopCurve(tuple(zip(deltas, cops)))


@PROPERTY_SETTINGS
@given(curve=cop_curves())
def test_cop_slope_on_each_side_of_a_breakpoint(curve):
    pts = curve.breakpoints
    eps = 1e-4
    # slope of each piece: flat ends, then the segments
    seg = [(c1 - c0) / (d1 - d0) for (d0, c0), (d1, c1) in zip(pts, pts[1:])]
    left = [0.0] + seg
    right = seg + [0.0]
    for k, (d, _) in enumerate(pts):
        assert curve.slope(d - eps) == pytest.approx(left[k], abs=1e-12)
        assert curve.slope(d + eps) == pytest.approx(right[k], abs=1e-12)
        for side, s in ((-1.0, left[k]), (1.0, right[k])):
            quotient = (curve(d + side * 2 * eps) - curve(d + side * eps)) / (side * eps)
            assert quotient == pytest.approx(s, abs=1e-6)
        # at the breakpoint itself the side __call__ interpolates on: the
        # segment to the left, or the flat end at either extreme
        assert curve.slope(d) == (0.0 if k in (0, len(pts) - 1) else left[k])
