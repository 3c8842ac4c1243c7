import math
from datetime import datetime, timezone

import numpy as np
import pytest

from cabintherm.errors import ConfigError, DataError
from cabintherm.model_core import KELVIN
from cabintherm.scenario import (ClimateProfile, SOLAR_CONSTANT, ScenarioSet,
                                 load_scenarios_csv, placement_seed,
                                 save_scenarios_csv, scenarios_to_csv,
                                 solar_altitude, synthesize_dataset)

HEADER = "id,month,T_inf_C,I_dni,I_dhi,beta_deg,N_pass,zeta_door,zeta_sh\n"


def write(tmp_path, body, name="s.csv"):
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    return str(p)


class TestCsvLoading:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, HEADER
                     + "a,1,-5.0,0,0,-10,12,0.1,0.45\n"
                     + "b,6,22.5,600,90,40,25,0.08,0.25\n"
                     + "c,9,14.0,0,50,12,8,0.05,0.35\n")
        sset = load_scenarios_csv(path)
        assert len(sset) == 3
        assert sset.scenarios[1].T_inf == pytest.approx(22.5 + KELVIN)
        assert sset.scenarios[1].month == 6

    def test_negative_irradiance_rejected_with_line(self, tmp_path):
        path = write(tmp_path, HEADER
                     + "a,1,-5.0,0,0,-10,12,0.1,0.45\n"
                     + "bad,6,22.5,-600,90,40,25,0.08,0.25\n")
        with pytest.raises(DataError, match="line 3"):
            load_scenarios_csv(path)

    @pytest.mark.parametrize("row, field", [
        ("bad,6,inf,600,90,40,25,0.08,0.25", "T_inf"),
        ("bad,6,22.5,nan,90,40,25,0.08,0.25", "I_dni"),
        ("bad,6,22.5,600,inf,40,25,0.08,0.25", "I_dhi"),
        ("bad,6,22.5,600,90,nan,25,0.08,0.25", "beta")])
    def test_non_finite_value_rejected_with_line(self, tmp_path, row, field):
        path = write(tmp_path, HEADER + "a,1,-5.0,0,0,-10,12,0.1,0.45\n" + row + "\n")
        with pytest.raises(DataError, match=f"line 3: {field} must be finite"):
            load_scenarios_csv(path)

    @pytest.mark.parametrize("row, column", [
        ("bad,6,22.5,600,90,40,nan,0.08,0.25", "N_pass"),
        ("bad,6,22.5,600,90,40,2.5,0.08,0.25", "N_pass"),
        ("bad,inf,22.5,600,90,40,25,0.08,0.25", "month")])
    def test_non_integer_count_rejected_with_line(self, tmp_path, row, column):
        path = write(tmp_path, HEADER + "a,1,-5.0,0,0,-10,12,0.1,0.45\n" + row + "\n")
        with pytest.raises(DataError, match=f"line 3: non-integer value .* '{column}'"):
            load_scenarios_csv(path)

    def test_night_sun_zeroed_with_warning(self, tmp_path):
        path = write(tmp_path, HEADER + "a,1,-5.0,300,50,-10,12,0.1,0.45\n")
        with pytest.warns(UserWarning, match="zeroing"):
            sset = load_scenarios_csv(path)
        assert sset.scenarios[0].I_dni == 0.0
        assert sset.scenarios[0].I_dhi == 0.0

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "id,month,T_inf_C\n" + "a,1,-5.0\n")
        with pytest.raises(DataError, match="missing columns"):
            load_scenarios_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_scenarios_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, HEADER)
        with pytest.raises(DataError, match="no data rows"):
            load_scenarios_csv(path)

    def test_duplicate_id_rejected_with_both_lines(self, tmp_path):
        # a June and a December hour under one id would otherwise both be
        # filed under December by the month-first aggregation
        path = write(tmp_path, HEADER
                     + "a,1,-5.0,0,0,-10,12,0.1,0.45\n"
                     + "dup,6,22.5,600,90,40,25,0.08,0.25\n"
                     + "dup,12,-2.0,0,0,-10,12,0.1,0.45\n")
        with pytest.raises(DataError, match=r"line 4: duplicate scenario id 'dup' "
                                            r"\(first on line 3\)"):
            load_scenarios_csv(path)

    @pytest.mark.parametrize("row, count", [
        # a short row crashed the loader with float(None), a long one loaded
        ("short,6,22.5,600,90,40,25,0.08", "fewer"),
        ("long,6,22.5,600,90,40,25,0.08,0.25,7", "more")])
    def test_row_with_the_wrong_field_count_rejected_with_line(self, tmp_path, row, count):
        path = write(tmp_path, HEADER + "a,1,-5.0,0,0,-10,12,0.1,0.45\n" + row + "\n"
                     + "bad,6,22.5,-600,90,40,25,0.08,0.25\n")
        with pytest.raises(DataError, match=rf"2 invalid rows rejected: line 3: {count} "
                                            r"fields than the 9 of the header; line 4"):
            load_scenarios_csv(path)

    def test_errors_name_the_first_line_of_their_record(self, tmp_path):
        # a quoted id spans lines 2-3; the records after it start on 4 and 5
        path = write(tmp_path, HEADER
                     + '"a\nb",1,-5.0,0,0,-10,12,0.1,0.45\n'
                     + "bad,6,22.5,-600,90,40,25,0.08,0.25\n"
                     + "short,6,22.5,600,90,40,25,0.08\n"
                     + '"a\nb",2,-5.0,0,0,-10,12,0.1,0.45\n')
        with pytest.raises(DataError, match=r"3 invalid rows rejected: line 4: irradiances "
                                            r".*; line 5: fewer fields .*; line 6: duplicate "
                                            r"scenario id 'a\\nb' \(first on line 2\)"):
            load_scenarios_csv(path)

    def test_blank_lines_count_toward_line_numbers(self, tmp_path):
        path = write(tmp_path, HEADER + "a,1,-5.0,0,0,-10,12,0.1,0.45\n\n"
                     + "bad,6,22.5,-600,90,40,25,0.08,0.25\n")
        with pytest.raises(DataError, match="line 4: "):
            load_scenarios_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = write(tmp_path, HEADER + "a,1,cold,0,0,-10,12,0.1,0.45\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_scenarios_csv(path)

    def test_solar_position_columns(self, tmp_path):
        ts = datetime(2022, 6, 21, 11, 30, tzinfo=timezone.utc).timestamp()
        header = ("id,month,T_inf_C,I_dni,I_dhi,timestamp,latitude_deg,"
                  "longitude_deg,N_pass,zeta_door,zeta_sh\n")
        path = write(tmp_path, header + f"a,6,22.0,600,90,{ts},47.38,8.54,10,0.1,0.25\n")
        sset = load_scenarios_csv(path)
        assert math.degrees(sset.scenarios[0].beta) == pytest.approx(65.6, abs=1.5)


class TestSolarAltitude:
    def test_equator_equinox_noon(self):
        # max altitude over the equinox day at the equator is ~90 deg
        day = datetime(2022, 3, 20, tzinfo=timezone.utc)
        best = max(solar_altitude(day.timestamp() + s, 0.0, 0.0)
                   for s in range(0, 86400, 300))
        assert math.degrees(best) == pytest.approx(90.0, abs=1.0)

    def test_local_midnight_below_horizon(self):
        ts = datetime(2022, 3, 20, 0, 0, tzinfo=timezone.utc).timestamp()
        assert solar_altitude(ts, 0.0, 0.0) < 0.0

    def test_zurich_summer_solstice(self):
        lat, lon = math.radians(47.4), math.radians(8.54)
        day = datetime(2022, 6, 21, tzinfo=timezone.utc)
        best = max(solar_altitude(day.timestamp() + s, lat, lon)
                   for s in range(0, 86400, 300))
        # 90 - latitude + obliquity
        assert math.degrees(best) == pytest.approx(66.0, abs=1.0)

    def test_year_range(self):
        with pytest.raises(DataError):
            solar_altitude(datetime(1901, 1, 1, tzinfo=timezone.utc).timestamp(),
                           0.0, 0.0)
        with pytest.raises(DataError, match="supported years"):
            solar_altitude(1e20, 0.0, 0.0)

    @pytest.mark.parametrize("args", [(math.nan, 0.8, 0.1), (1.6e9, math.nan, 0.1),
                                      (1.6e9, 0.8, math.inf)])
    def test_non_finite_inputs_rejected(self, args):
        # a NaN latitude would otherwise clamp to the nadir, a night hour
        with pytest.raises(DataError, match="must be finite"):
            solar_altitude(*args)


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_dataset(200, seed=5)
        b = synthesize_dataset(200, seed=5)
        assert a.scenarios == b.scenarios
        c = synthesize_dataset(200, seed=6)
        assert a.scenarios != c.scenarios

    def test_invariants_hold(self):
        sset = synthesize_dataset(1500, seed=1)
        for s in sset:
            assert s.T_inf > 0
            assert s.I_dni >= 0 and s.I_dhi >= 0
            assert s.I_dni <= SOLAR_CONSTANT
            assert 0 <= s.zeta_door <= 1 and 0 <= s.zeta_sh <= 1
            assert 1 <= s.month <= 12
            if s.beta <= 0:
                assert s.I_dni == 0 and s.I_dhi == 0

    def test_seasonal_temperatures(self):
        sset = synthesize_dataset(3000, seed=2)
        jan = [s.T_inf for s in sset if s.month == 1]
        jul = [s.T_inf for s in sset if s.month == 7]
        assert np.mean(jan) < np.mean(jul)

    def test_months_roughly_uniform(self):
        sset = synthesize_dataset(2400, seed=3)
        hist = sset.month_histogram()
        assert min(hist.values()) > 100

    def test_needs_at_least_one(self):
        with pytest.raises(DataError):
            synthesize_dataset(0, seed=1)


class TestRoundTrip:
    def test_write_load_identical(self, tmp_path):
        sset = synthesize_dataset(300, seed=9)
        path = str(tmp_path / "rt.csv")
        save_scenarios_csv(sset, path)
        loaded = load_scenarios_csv(path)
        assert loaded.scenarios == sset.scenarios

    def test_generator_output_byte_identical(self):
        a = scenarios_to_csv(synthesize_dataset(150, seed=4))
        b = scenarios_to_csv(synthesize_dataset(150, seed=4))
        assert a == b


class TestPlacementSeed:
    def test_deterministic_and_id_dependent(self):
        assert placement_seed("a", 0) == placement_seed("a", 0)
        assert placement_seed("a", 0) != placement_seed("b", 0)
        assert placement_seed("a", 0) != placement_seed("a", 1)


class TestScenarioSet:
    def test_empty_rejected(self):
        with pytest.raises(DataError):
            ScenarioSet(())

    def test_subset_deterministic(self):
        sset = synthesize_dataset(100, seed=1)
        a = sset.subset(20, seed=2)
        b = sset.subset(20, seed=2)
        assert a.scenarios == b.scenarios
        assert len(a) == 20

    def test_negative_subset_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            synthesize_dataset(50, seed=1).subset(-3)

    def test_climate_profile_validation(self):
        with pytest.raises(Exception):
            ClimateProfile(monthly_mean_C=(1.0,) * 11)

    @pytest.mark.parametrize("field, value", [
        ("service_hour_start", 24), ("service_hour_end", 5.5), ("door_beta_a", 0.0),
        ("door_beta_b", -1.0), ("door_max_fraction", 1.5), ("passenger_max", -1),
        ("passenger_max", 2.5), ("passenger_max", 60.0), ("passenger_max", True),
        ("year", 10000), ("year", 1900), ("p_clear", (0.3,) * 11 + (1.2,)),
        ("passenger_lambda_by_hour", (2.0,) * 5 + (-1.0,) + (2.0,) * 18)])
    def test_climate_profile_rejects_what_generation_cannot_use(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ClimateProfile(**{field: value})
