"""Property tests on randomized states, scenarios, configurations,
PMV kernel batches and panel layouts, and of the optimization route's
exact gradients against central differences.

Examples are derandomized so every run checks the same draws; each test
stays within a few seconds.
"""

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cabintherm.comfort import (SURROGATE_DOMAIN_HI, SURROGATE_DOMAIN_LO,
                                ComfortSpec, get_pmv_surrogate, pmv_array)
from cabintherm.model_core import (BalanceCoefficients, BusConfig, CopCurve, Scenario,
                                   balance_coefficients, balance_residuals, c_to_k,
                                   max_abs_flow, reservoir_balance)
from cabintherm.radiant_geometry import (CabinLayout, Rect3, ceiling_panel_strip,
                                         panel_view_weights, place_passengers,
                                         vf_parallel_rects, vf_perpendicular_rects)
from cabintherm.solver import (_BranchModel, _OptProgram, ScenarioSweeper, solve_best,
                               solve_window_opt, solve_window_rootfind)
from flow_reference import (conduction_shell, convective_cabin_to_shell,
                            convective_rh_to_cabin, convective_shell_to_ambient,
                            door_loss, radiative_loss_outer, radiative_rh_to_shell)

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


@PROPERTY_SETTINGS
@given(data=st.data())
def test_pmv_kernel_matches_the_iso_program(data):
    # 20 000 random points differed by at most 4.2e-10 over these ranges
    vel, rh, met = (data.draw(st.floats(0.05, 1.0)), data.draw(st.floats(10.0, 90.0)),
                    data.draw(st.floats(0.8, 2.0)))
    points = [(data.draw(st.floats(-20.0, 50.0)), data.draw(st.floats(-20.0, 70.0)),
               data.draw(st.floats(0.0, 2.0))) for _ in range(data.draw(st.integers(1, 20)))]
    got = pmv_array(*np.array(points).T, vel, rh, met)
    for (ta, tr, clo), value in zip(points, got):
        assert value == pytest.approx(oracle.pmv_iso7730(ta, tr, vel, rh, met, clo), abs=1e-9)


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


def _passenger_faces(p):
    """The five radiating faces of a passenger cuboid, normals outward."""
    x0, x1, y0, y1 = p.footprint
    h = p.height
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


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@PROPERTY_SETTINGS
@given(data=st.data())
def test_pmv_value_does_not_depend_on_its_batch(data):
    n = data.draw(st.integers(1, 40))
    points = data.draw(st.lists(st.tuples(st.floats(-20.0, 50.0), st.floats(-20.0, 70.0),
                                          st.floats(0.0, 2.0)),
                                min_size=n, max_size=n))
    ta, tr, clo = (np.array(col) for col in zip(*points))
    setting = (data.draw(st.floats(0.05, 1.0)), data.draw(st.floats(10.0, 90.0)),
               data.draw(st.floats(0.8, 2.0)))
    batch = pmv_array(ta, tr, clo, *setting)
    for i in range(n):
        assert _bits(pmv_array(ta[i:i + 1], tr[i:i + 1], clo[i:i + 1], *setting)) \
            == _bits(batch[i:i + 1])
        assert _bits(pmv_array(ta[i], tr[i], clo[i], *setting)) == _bits(batch[i])
    sub = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    assert _bits(pmv_array(ta[sub], tr[sub], clo[sub], *setting)) == _bits(batch[sub])


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


@PROPERTY_SETTINGS
@given(data=st.data())
def test_surrogate_gradient_matches_central_differences(data):
    surr = get_pmv_surrogate(ComfortSpec())
    p = np.array([data.draw(st.floats(lo, hi))
                  for lo, hi in zip(SURROGATE_DOMAIN_LO, SURROGATE_DOMAIN_HI)])
    value, grad = surr.value_and_grad(*p)
    assert value == surr.evaluate(*p)
    fd = central_differences(lambda q: surr.evaluate(*q), p, [1e-4, 1e-4, 1e-5])
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7 * max(1.0, np.max(np.abs(fd))))
    # a batch gives each point the gradient it has alone
    vals, grads = surr.value_and_grad(np.full(3, p[0]), np.full(3, p[1]), p[2])
    assert grads.shape == (3, 3)
    np.testing.assert_allclose(grads, np.tile(grad, (3, 1)), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(vals, value, rtol=1e-12, atol=1e-14)


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
