"""Property tests on randomized states, scenarios, configurations and
PMV kernel batches.

Examples are derandomized so every run checks the same draws; each test
stays within a few seconds.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cabintherm.comfort import ComfortSpec, pmv_array
from cabintherm.model_core import (BusConfig, CopCurve, Scenario,
                                   balance_residuals, c_to_k, max_abs_flow,
                                   reservoir_balance, scenario_loads)
from cabintherm.solver import solve_best

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)


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
    loads = scenario_loads(scn, cfg)

    def rows(v):
        return np.array(reservoir_balance(*v, scn, loads, cfg, rh_on)[1])

    jac = np.array(reservoir_balance(*x, scn, loads, cfg, rh_on)[2])
    cols = [0, 1, 2, 3, 4, 5] if rh_on else [0, 2, 3, 4]
    assert jac.shape == (len(rows(x)), len(cols))
    atol = 1e-6 * max(1.0, float(np.max(np.abs(jac))))
    for j, col in enumerate(cols):
        h = 1e-3 if col < 4 else 1.0
        up, down = x.copy(), x.copy()
        up[col] += h
        down[col] -= h
        fd = (rows(up) - rows(down)) / (2.0 * h)
        np.testing.assert_allclose(jac[:, j], fd, rtol=1e-6, atol=atol)


@PROPERTY_SETTINGS
@given(scn=scenarios(), cfg=st.one_of(configs(rh=False), configs(rh=True)),
       half_width=st.sampled_from([0.0, 0.5, 1.0]))
def test_rootfind_closes_the_balance(scn, cfg, half_width):
    res = solve_best(scn, cfg, ComfortSpec(psi_min=-half_width, psi_max=half_width))
    r = balance_residuals(res.state, scn, cfg, res.rh_used)
    assert float(np.max(np.abs(r))) <= 1e-6 * max(1.0, max_abs_flow(res.flows))



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
