import math

import numpy as np
import pytest

from cabintherm.comfort import (ComfortSpec, clothing_insulation,
                                get_pmv_surrogate, mean_pmv, pmv, pmv_array,
                                ppd)
from cabintherm.errors import ConfigError, EvaluationError
from cabintherm.model_core import c_to_k

# EN ISO 7730 validation cases: (ta C, tr C, vel m/s, rh %, met, clo) -> PMV
ISO_CASES = [
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


class TestClothing:
    def test_summer_floor(self):
        for t_c in (26.0, 28.0, 35.0, 45.0):
            assert clothing_insulation(c_to_k(t_c)) == 0.3

    def test_winter_value(self):
        assert clothing_insulation(c_to_k(-8.0)) == pytest.approx(1.4, abs=0.005)

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t1, t2 = sorted(rng.uniform(-40.0, 50.0, 2))
            assert clothing_insulation(c_to_k(t1)) >= clothing_insulation(c_to_k(t2))

    def test_never_below_floor(self):
        for t_c in np.linspace(-40, 50, 50):
            assert clothing_insulation(c_to_k(t_c)) >= 0.3

    def test_scale_applies_before_floor(self):
        # scaling down a hot-weather value still lands on the floor
        assert clothing_insulation(c_to_k(30.0), scale=0.5) == 0.3
        cold = clothing_insulation(c_to_k(-8.0))
        assert clothing_insulation(c_to_k(-8.0), scale=1.1) == pytest.approx(1.1 * cold)


class TestPmv:
    @pytest.mark.parametrize("ta,tr,vel,rh,met,clo,expected", ISO_CASES)
    def test_iso_validation_table(self, ta, tr, vel, rh, met, clo, expected):
        spec = ComfortSpec(v_cab=vel, phi_cab=rh / 100.0, met=met)
        value = pmv(c_to_k(ta), c_to_k(tr), clo, spec)
        assert value == pytest.approx(expected, abs=0.05)

    def test_monotone_in_radiant_temperature(self):
        spec = ComfortSpec()
        vals = [pmv(c_to_k(22.0), c_to_k(tr), 0.8, spec, clamp=False)
                for tr in np.linspace(10, 40, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_air_temperature(self):
        spec = ComfortSpec()
        for clo in (0.5, 1.0):
            vals = [pmv(c_to_k(t), c_to_k(t), clo, spec, clamp=False)
                    for t in np.linspace(5, 40, 20)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_clothing_warms_when_cold(self):
        spec = ComfortSpec()
        light = pmv(c_to_k(10.0), c_to_k(10.0), 0.5, spec, clamp=False)
        heavy = pmv(c_to_k(10.0), c_to_k(10.0), 1.5, spec, clamp=False)
        assert heavy > light

    def test_reporting_clamp(self):
        spec = ComfortSpec()
        assert pmv(c_to_k(-10.0), c_to_k(-10.0), 0.3, spec) == -3.0
        assert pmv(c_to_k(-10.0), c_to_k(-10.0), 0.3, spec, clamp=False) < -3.0

    def test_array_broadcasting(self):
        ta = np.array([20.0, 25.0])
        out = pmv_array(ta, ta, 0.7, 0.1, 40.0, 1.2)
        assert out.shape == (2,)
        assert out[1] > out[0]


class TestPpd:
    def test_minimum_five_percent(self):
        assert ppd(0.0) == pytest.approx(5.0)

    def test_extreme_vote(self):
        assert ppd(3.0) == pytest.approx(99.1, abs=0.1)
        assert ppd(-3.0) == pytest.approx(99.1, abs=0.1)

    def test_even_function(self):
        rng = np.random.default_rng(9)
        for x in rng.uniform(0, 3, 50):
            assert ppd(x) == pytest.approx(ppd(-x))

    def test_nonfinite_rejected(self):
        with pytest.raises(EvaluationError):
            ppd(float("nan"))


class TestMeanPmv:
    def test_singleton(self):
        assert mean_pmv([0.5]) == 0.5

    def test_symmetric_pair(self):
        assert mean_pmv([1.0, -1.0]) == 0.0

    def test_three_values(self):
        assert mean_pmv([0.2, 0.4, 0.9]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            mean_pmv([])

    def test_ppd_of_mean_vs_mean_of_ppd(self):
        # averaging votes hides discomfort; averaging PPD does not
        for psi in (0.5, 1.0, 2.0):
            assert ppd(mean_pmv([psi, -psi])) == pytest.approx(5.0)
            assert (ppd(psi) + ppd(-psi)) / 2 > 5.0


class TestSurrogate:
    def test_fit_error_within_bound(self):
        surr = get_pmv_surrogate(ComfortSpec())
        assert surr.max_fit_error <= 0.05

    def test_random_envelope_error(self):
        surr = get_pmv_surrogate(ComfortSpec())
        rng = np.random.default_rng(17)
        pts = rng.uniform([0.0, 0.0, 0.3], [45.0, 45.0, 1.8], size=(2000, 3))
        exact = pmv_array(pts[:, 0], pts[:, 1], pts[:, 2], 0.1, 40.0, 1.2)
        approx = surr.evaluate(pts[:, 0], pts[:, 1], pts[:, 2])
        assert np.max(np.abs(exact - approx)) <= 0.05

    def test_monotone_in_air_temperature_on_grid(self):
        surr = get_pmv_surrogate(ComfortSpec())
        ta = np.linspace(0.0, 45.0, 90)
        for tr in (10.0, 22.0, 35.0):
            for clo in (0.3, 0.9, 1.6):
                vals = surr.evaluate(ta, np.full_like(ta, tr), clo)
                assert np.all(np.diff(vals) > 0)

    def test_evaluate_broadcasts(self):
        surr = get_pmv_surrogate(ComfortSpec())
        ta = np.array([[10.0, 20.0, 30.0], [15.0, 25.0, 35.0]])
        vals = surr.evaluate(ta, np.array([18.0, 22.0, 26.0]), 0.9)
        assert vals.shape == (2, 3)
        one = surr.evaluate(25.0, 22.0, 0.9)
        assert isinstance(one, float)
        assert one == pytest.approx(vals[1, 1], abs=1e-12)

    def test_design_matrix_terms(self):
        from cabintherm.comfort import _exponents, _monomials
        x = np.random.default_rng(5).uniform(-1.0, 1.0, (7, 3))
        exps = np.stack(_exponents(3), axis=1)
        expect = np.prod(x[:, None, :] ** exps[None, :, :], axis=2)
        m = _monomials(x, 3)
        assert m.shape == (7, 20) and m.flags.f_contiguous
        np.testing.assert_allclose(m, expect, rtol=1e-13)

    def test_cache_reuse(self):
        a = get_pmv_surrogate(ComfortSpec())
        b = get_pmv_surrogate(ComfortSpec(psi_min=-2.0, psi_max=2.0))
        assert a is b  # window bounds do not affect the fit


class TestSpecValidation:
    def test_window_order(self):
        with pytest.raises(ConfigError):
            ComfortSpec(psi_min=1.0, psi_max=-1.0)

    def test_window_range(self):
        with pytest.raises(ConfigError):
            ComfortSpec(psi_min=-4.0, psi_max=0.0)

    def test_humidity_range(self):
        with pytest.raises(ConfigError):
            ComfortSpec(phi_cab=1.2)

    def test_with_helpers_preserve_fields(self):
        spec = ComfortSpec(v_cab=0.2, clo_scale=1.1)
        w = spec.with_window(-2.0, 2.0)
        assert w.v_cab == 0.2 and w.clo_scale == 1.1
        assert (w.psi_min, w.psi_max) == (-2.0, 2.0)
