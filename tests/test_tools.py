"""The report of ``tools/result_compare.py``, which says whether a change
moved the solved bits."""

import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "result_compare", Path(__file__).resolve().parents[1] / "tools" / "result_compare.py")
result_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(result_compare)
compare = result_compare.compare


def row(scn_id, p_tot=1000.0, t_cab=293.0, mean_psi=0.5, iterations=5, mode="heating",
        rh_used=False):
    """A result row: P_tot, T_cab, then T_rh, T_si, T_so fixed, mean_psi."""
    return (scn_id, p_tot, t_cab, t_cab, 280.0, 270.0, mean_psi, iterations, mode, rh_used)


def field_line(lines, name):
    (line,) = [ln for ln in lines if ln.split()[0] == name]
    return line


def test_identical_rows_report_no_change():
    rows = [row("a"), row("b", mean_psi=math.nan)]
    lines = compare(rows, list(rows))
    assert lines[0] == "2 results"
    for name in result_compare.FIELDS:
        assert field_line(lines, name).endswith("largest relative change 0, absolute 0")
    assert lines[-1] == "0 results whose iterations, mode or rh_used differ"


def test_two_nans_are_equal_and_a_nan_against_a_number_is_not():
    lines = compare([row("a", mean_psi=math.nan)], [row("a", mean_psi=math.nan)])
    assert "relative change 0, absolute 0" in field_line(lines, "mean_psi")
    lines = compare([row("a", mean_psi=math.nan)], [row("a", mean_psi=0.0)])
    assert "relative change nan, absolute nan" in field_line(lines, "mean_psi")


def test_largest_change_per_field():
    old = [row("a", p_tot=1000.0, t_cab=293.0), row("b", p_tot=10.0, t_cab=300.0)]
    # a: P_tot +50 W (5 %); b: P_tot +2 W (20 %), T_cab -3 K (1 %)
    new = [row("a", p_tot=1050.0, t_cab=293.0), row("b", p_tot=12.0, t_cab=297.0)]
    lines = compare(old, new)
    assert field_line(lines, "P_tot").endswith("largest relative change 0.2, absolute 50")
    # T_rh follows T_cab in these rows; T_si and T_so do not move
    assert field_line(lines, "T_cab").endswith("largest relative change 0.01, absolute 3")
    assert field_line(lines, "T_rh").endswith("largest relative change 0.01, absolute 3")
    assert field_line(lines, "T_si").endswith("largest relative change 0, absolute 0")
    assert lines[-1] == "0 results whose iterations, mode or rh_used differ"


def test_discrete_changes_counted_once_per_result():
    old = [row("a"), row("b"), row("c"), row("d")]
    new = [row("a", iterations=6), row("b", mode="passive", rh_used=True),
           row("c", rh_used=True), row("d")]
    assert compare(old, new)[-1] == "3 results whose iterations, mode or rh_used differ"


@pytest.mark.parametrize("new_ids", [("a", "c"), ("b", "a"), ("a",)])
def test_different_scenario_sequences_exit(new_ids):
    with pytest.raises(SystemExit, match="different scenario sequences"):
        compare([row("a"), row("b")], [row(i) for i in new_ids])
