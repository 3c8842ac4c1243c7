import numpy as np
import pytest

from cabintherm.errors import ConfigError
from cabintherm.model_core import c_to_k
from cabintherm.radiant_geometry import (PASSENGER_HEIGHT, CabinLayout,
                                         PassengerCuboid, Rect3,
                                         ceiling_panel_strip,
                                         mixed_radiant_temperature,
                                         panel_view_weights, place_passengers,
                                         placement_grid, vf_parallel_rects,
                                         vf_perpendicular_rects)
from conftest import mc_view_factor


def unit_square_pair(separation):
    a = Rect3.horizontal(0.0, 1.0, 0.0, 1.0, 0.0, facing_up=True)
    b = Rect3.horizontal(0.0, 1.0, 0.0, 1.0, separation, facing_up=False)
    return a, b


class TestRect3:
    def test_requires_orthogonal_edges(self):
        with pytest.raises(ConfigError):
            Rect3((0, 0, 0), (1, 0, 0), (1, 1, 0))

    def test_requires_positive_area(self):
        with pytest.raises(ConfigError):
            Rect3((0, 0, 0), (0, 0, 0), (0, 1, 0))

    def test_normal_and_extent(self):
        r = Rect3.horizontal(1.0, 3.0, -1.0, 1.0, 2.0, facing_up=False)
        assert r.axis == 2
        assert r.normal[2] == pytest.approx(-1.0)
        assert r.extent(0) == (1.0, 3.0)
        assert r.area == pytest.approx(4.0)


class TestParallelViewFactor:
    def test_far_separation_vanishes(self):
        a, b = unit_square_pair(1e4)
        assert vf_parallel_rects(a, b) < 1e-6

    def test_near_closure(self):
        a, b = unit_square_pair(1e-3)
        assert vf_parallel_rects(a, b) > 0.99

    def test_catalog_value(self):
        # coaxial unit squares one apart: classic tabulated value
        a, b = unit_square_pair(1.0)
        assert vf_parallel_rects(a, b) == pytest.approx(0.1998249, abs=1e-6)

    def test_not_facing_is_zero(self):
        a = Rect3.horizontal(0, 1, 0, 1, 0.0, facing_up=False)
        b = Rect3.horizontal(0, 1, 0, 1, 1.0, facing_up=False)
        assert vf_parallel_rects(a, b) == 0.0

    def test_reciprocity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            ax = np.sort(rng.uniform(-2, 2, 2))
            ay = np.sort(rng.uniform(-2, 2, 2))
            bx = np.sort(rng.uniform(-2, 2, 2))
            by = np.sort(rng.uniform(-2, 2, 2))
            z = rng.uniform(0.1, 3.0)
            a = Rect3((ax[0], ay[0], 0.0), (ax[1] - ax[0], 0, 0), (0, ay[1] - ay[0], 0))
            b = Rect3.horizontal(bx[0], bx[1], by[0], by[1], z, facing_up=False)
            lhs = a.area * vf_parallel_rects(a, b)
            rhs = b.area * vf_parallel_rects(b, a)
            assert abs(lhs - rhs) < 1e-9

    def test_additivity(self):
        a = Rect3.horizontal(0, 1, 0, 1, 0.0, facing_up=True)
        whole = Rect3.horizontal(-0.5, 1.5, -0.3, 1.3, 0.8, facing_up=False)
        left = Rect3.horizontal(-0.5, 0.4, -0.3, 1.3, 0.8, facing_up=False)
        right = Rect3.horizontal(0.4, 1.5, -0.3, 1.3, 0.8, facing_up=False)
        f_whole = vf_parallel_rects(a, whole)
        f_split = vf_parallel_rects(a, left) + vf_parallel_rects(a, right)
        assert abs(f_whole - f_split) < 1e-9

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(22)
        for i in range(5):
            ax = np.sort(rng.uniform(-1.5, 1.5, 2))
            ay = np.sort(rng.uniform(-1.5, 1.5, 2))
            bx = np.sort(rng.uniform(-1.5, 1.5, 2))
            by = np.sort(rng.uniform(-1.5, 1.5, 2))
            z = rng.uniform(0.2, 2.0)
            a = Rect3((ax[0], ay[0], 0.0), (ax[1] - ax[0], 0, 0), (0, ay[1] - ay[0], 0))
            b = Rect3.horizontal(bx[0], bx[1], by[0], by[1], z, facing_up=False)
            assert vf_parallel_rects(a, b) == pytest.approx(
                mc_view_factor(a, b, seed=i), abs=1e-3)


class TestPerpendicularViewFactor:
    def test_common_edge_catalog_value(self):
        src = Rect3.horizontal(0, 1, 0, 1, 0.0, facing_up=True)
        tgt = Rect3((0, 1, 0), (1, 0, 0), (0, 0, 1))  # vertical, facing -y
        assert vf_perpendicular_rects(src, tgt) == pytest.approx(0.2000437, abs=1e-6)

    def test_reciprocity(self):
        src = Rect3.horizontal(0, 1.5, 0, 0.8, 0.0, facing_up=True)
        tgt = Rect3((-0.2, 1.1, 0.3), (1.6, 0, 0), (0, 0, 0.9))
        lhs = src.area * vf_perpendicular_rects(src, tgt)
        rhs = tgt.area * vf_perpendicular_rects(tgt, src)
        assert abs(lhs - rhs) < 1e-9

    def test_additivity(self):
        src = Rect3.horizontal(0, 1, 0, 1, 0.0, facing_up=True)
        whole = Rect3((-0.5, 1.2, 0.1), (2.0, 0, 0), (0, 0, 1.4))
        lower = Rect3((-0.5, 1.2, 0.1), (2.0, 0, 0), (0, 0, 0.6))
        upper = Rect3((-0.5, 1.2, 0.7), (2.0, 0, 0), (0, 0, 0.8))
        f = vf_perpendicular_rects(src, whole)
        f2 = vf_perpendicular_rects(src, lower) + vf_perpendicular_rects(src, upper)
        assert abs(f - f2) < 1e-9

    def test_target_behind_source_is_zero(self):
        # vertical face looking +x, panel entirely at x < face plane
        src = Rect3((0.5, 0.0, 0.0), (0, 1, 0), (0, 0, 1))  # normal +x
        tgt = Rect3.horizontal(-1.0, 0.4, 0.0, 1.0, 2.0, facing_up=False)
        assert vf_perpendicular_rects(src, tgt) == 0.0

    def test_straddling_target_clipped(self):
        src = Rect3((0.0, -0.5, 0.0), (0, 1, 0), (0, 0, 1.5))  # normal +x
        tgt = Rect3.horizontal(-1.0, 1.0, -0.6, 0.6, 2.2, facing_up=False)
        f = vf_perpendicular_rects(src, tgt)
        assert 0.0 < f < 1.0
        assert f == pytest.approx(mc_view_factor(src, tgt, seed=5), abs=1e-3)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(23)
        for i in range(5):
            x0 = rng.uniform(-0.5, 0.5)
            sy = np.sort(rng.uniform(-1.5, 1.5, 2))
            sz = np.sort(rng.uniform(0.0, 1.7, 2))
            src = Rect3((x0, sy[0], sz[0]), (0, sy[1] - sy[0], 0), (0, 0, sz[1] - sz[0]))
            tx = np.sort(rng.uniform(-1.5, 1.5, 2))
            ty = np.sort(rng.uniform(-1.5, 1.5, 2))
            zp = rng.uniform(sz[1] + 0.1, 3.0)
            tgt = Rect3.horizontal(tx[0], tx[1], ty[0], ty[1], zp, facing_up=False)
            assert vf_perpendicular_rects(src, tgt) == pytest.approx(
                mc_view_factor(src, tgt, seed=100 + i), abs=1e-3)


class TestPlacement:
    def test_zero_passengers(self):
        assert place_passengers(0, 1, CabinLayout()) == []

    def test_deterministic(self):
        layout = CabinLayout()
        a = place_passengers(30, 42, layout)
        b = place_passengers(30, 42, layout)
        assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]
        c = place_passengers(30, 43, layout)
        assert [(p.x, p.y) for p in a] != [(p.x, p.y) for p in c]

    def test_inside_and_disjoint(self):
        layout = CabinLayout()
        pax = place_passengers(30, 7, layout)
        assert len(pax) == 30
        for p in pax:
            x0, x1, y0, y1 = p.footprint
            assert 0 <= x0 and x1 <= layout.length
            assert 0 <= y0 and y1 <= layout.width
        for i, p in enumerate(pax):
            for q in pax[i + 1:]:
                # grid pitch exceeds the cuboid side, so footprints are disjoint
                assert abs(p.x - q.x) > 0.26 or abs(p.y - q.y) > 0.26

    def test_capacity_error(self):
        layout = CabinLayout()
        cap = len(placement_grid(layout))
        with pytest.raises(ConfigError):
            place_passengers(cap + 1, 0, layout)


def fig4_layout():
    panels = ceiling_panel_strip(18.0, 2.4, 2.3, total_area=4.0)
    return CabinLayout(18.0, 2.4, 2.3, panels)


def cabin_tmr(passengers, layout, t_si, t_rh):
    """Per-passenger mean radiant temperatures (K), by the solver's path."""
    return mixed_radiant_temperature(panel_view_weights(passengers, layout), t_si, t_rh)


def mean_radiant_temperature(p, layout, t_si, t_rh):
    return float(cabin_tmr([p], layout, t_si, t_rh)[0])


class TestMeanRadiantTemperature:
    def test_equal_temperatures_collapse(self):
        layout = fig4_layout()
        p = PassengerCuboid(9.0, 1.2)
        assert mean_radiant_temperature(p, layout, 293.15, 293.15) == pytest.approx(293.15)

    def test_no_panels_gives_shell(self):
        layout = CabinLayout()
        p = PassengerCuboid(9.0, 1.2)
        assert mean_radiant_temperature(p, layout, 290.0, 363.0) == pytest.approx(290.0)

    def test_bounded_by_surface_temperatures(self):
        layout = fig4_layout()
        t_si, t_rh = c_to_k(20.0), c_to_k(70.0)
        for p in (PassengerCuboid(0.5, 0.5), PassengerCuboid(9.0, 1.2)):
            t = mean_radiant_temperature(p, layout, t_si, t_rh)
            assert t_si <= t <= t_rh

    def test_under_panel_warmer_than_cabin_ends(self):
        layout = fig4_layout()
        t_si, t_rh = c_to_k(20.0), c_to_k(70.0)
        under = mean_radiant_temperature(PassengerCuboid(9.0, 1.2), layout, t_si, t_rh)
        front = mean_radiant_temperature(PassengerCuboid(0.4, 1.2), layout, t_si, t_rh)
        rear = mean_radiant_temperature(PassengerCuboid(17.6, 1.2), layout, t_si, t_rh)
        assert under > front and under > rear
        # cabin ends barely see the panels: close to the shell temperature
        assert front == pytest.approx(t_si, abs=1.5)
        assert rear == pytest.approx(t_si, abs=1.5)

    def test_per_face_closure(self):
        layout = fig4_layout()
        w = panel_view_weights([PassengerCuboid(9.0, 1.2)], layout)
        assert 0.0 < w[0] < 1.0

    def test_set_matches_single(self):
        layout = fig4_layout()
        pax = place_passengers(1, 3, layout)
        vals = cabin_tmr(pax, layout, 293.15, 343.15)
        single = mean_radiant_temperature(pax[0], layout, 293.15, 343.15)
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(single)

    def test_empty_set(self):
        layout = fig4_layout()
        assert cabin_tmr([], layout, 293.15, 343.15).size == 0

    def test_thirty_passengers_span(self):
        layout = fig4_layout()
        t_si, t_rh = c_to_k(20.0), c_to_k(70.0)
        vals = cabin_tmr(place_passengers(30, 8, layout), layout, t_si, t_rh)
        assert vals.min() >= t_si
        assert vals.min() < t_si + 0.6      # someone far from the strip
        assert vals.max() > t_si + 1.2      # someone right under a panel


class TestLayoutValidation:
    def test_panels_must_be_on_ceiling(self):
        panel = Rect3.horizontal(1.0, 2.0, 0.8, 1.6, 1.9, facing_up=False)
        with pytest.raises(ConfigError):
            CabinLayout(18.0, 2.4, 2.3, (panel,))

    def test_panels_must_face_down(self):
        panel = Rect3.horizontal(1.0, 2.0, 0.8, 1.6, 2.3, facing_up=True)
        with pytest.raises(ConfigError):
            CabinLayout(18.0, 2.4, 2.3, (panel,))

    def test_overlapping_panels_rejected(self):
        p1 = Rect3.horizontal(1.0, 3.0, 0.8, 1.6, 2.3, facing_up=False)
        p2 = Rect3.horizontal(2.5, 4.0, 0.8, 1.6, 2.3, facing_up=False)
        with pytest.raises(ConfigError):
            CabinLayout(18.0, 2.4, 2.3, (p1, p2))

    def test_strip_total_area(self):
        panels = ceiling_panel_strip(18.0, 2.4, 2.3, total_area=4.0)
        assert sum(p.area for p in panels) == pytest.approx(4.0)

    def test_passenger_may_stand_under_panel(self):
        # panels sit at the ceiling, well above a 1.7 m passenger
        layout = fig4_layout()
        assert panel_view_weights([PassengerCuboid(9.0, 1.2)], layout)[0] > 0.0

    @pytest.mark.parametrize("height", [1.6, PASSENGER_HEIGHT])
    def test_panels_need_a_ceiling_above_the_passengers(self, height):
        panels = ceiling_panel_strip(18.0, 2.4, height, total_area=4.0)
        with pytest.raises(ConfigError, match="higher than"):
            CabinLayout(18.0, 2.4, height, panels)
        assert CabinLayout(18.0, 2.4, height).height == height  # no panels: any height
