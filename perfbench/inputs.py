"""Benchmark inputs and the program set-up that a run pays before solving.

``setup`` is everything a user's process does before its first solve:
import the program, load the configuration and the scenario CSV, pick the
subset, build the cabin layouts and, for the optimization route, fit the
PMV surrogate.  The set-up probe and the benchmark itself both call it,
so ``setup_s`` and the timed phase see the same state.

The program never sees a seed it did not get from here: the synthetic
year, the subset draw and the passenger placement all derive from the
benchmark's ``--seed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# The program is called through its modules so that the tracer's rebinding
# reaches these calls.  The timed phase calls into analysis; importing it
# here puts its import, scipy's among it, into the measured set-up.
from cabintherm import analysis, comfort, config, scenario, solver  # noqa: F401
from cabintherm.comfort import ComfortSpec
from cabintherm.config import AppConfig
from cabintherm.radiant_geometry import CabinLayout
from cabintherm.scenario import ScenarioSet

YEAR_SIZE = 7500               # scenarios in the synthetic year, as in the paper
HALF_WIDTHS = (0.0, 0.5, 1.0)  # PMV window half-widths of the window sweeps


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload's inputs."""

    per_month: int             # scenarios drawn from each month of the year
    concepts: tuple[str, ...]  # configured vehicle concepts, in this order
    fit_surrogate: bool        # the optimization route needs the PMV surrogate
    fixed_seed: int | None = None  # inputs from this seed, not from --seed


# About 2 % of the optimization solves take 5 to 50 median solves each
# (SLSQP runs 3 to 5 times, refinement rounds and restarts, up to 300
# iterations in all) and carry a fifth to a quarter of the time.  How many
# of them a seeded draw holds is close to Poisson, which spread
# solves_per_s over five seeds by 19 % (IQR/median) even at 144 scenarios
# a round, so crosscheck_opt solves one fixed draw in every run: the slow
# solves stay in it, the same in every run, and the spread left is the
# machine's.
CROSSCHECK_SEED = 2303

SHAPES = {
    "annual_hp": Shape(40, ("HP-AC",), False),
    "annual_hp_jobs2": Shape(40, ("HP-AC",), False),
    "concepts_rh": Shape(4, ("PTC-AC", "HP-AC", "PTC-AC+RH", "HP-AC+RH"), False),
    "crosscheck_opt": Shape(6, ("HP-AC",), True, CROSSCHECK_SEED),
}


def input_seed(workload: str, seed: int) -> int:
    """The seed the workload's inputs are made from."""
    fixed = SHAPES[workload].fixed_seed
    return seed if fixed is None else fixed


@dataclass(frozen=True)
class Setup:
    """Everything the timed phase needs, built by :func:`setup`."""

    app: AppConfig
    scenarios: ScenarioSet
    layouts: dict[str, CabinLayout]
    spec: ComfortSpec
    seed: int


def year_csv(out_dir: str, seed: int) -> str:
    """Write the seeded synthetic year to CSV and return its path."""
    path = os.path.join(out_dir, f"year-{YEAR_SIZE}-seed{seed}.csv")
    tmp = f"{path}.{os.getpid()}.tmp"
    scenario.save_scenarios_csv(scenario.synthesize_dataset(YEAR_SIZE, seed), tmp)
    os.replace(tmp, path)
    return path


def month_stratified(year: ScenarioSet, per_month: int, seed: int) -> ScenarioSet:
    """``per_month`` scenarios of every month, drawn with ``ScenarioSet.subset``.

    A fixed month mix keeps every month present, which the month-first
    annual aggregation requires, and keeps the work per run independent of
    how the seed happens to spread the draw over the seasons.
    """
    picked = []
    for month in range(1, 13):
        pool = ScenarioSet(tuple(s for s in year if s.month == month))
        if len(pool) < per_month:
            raise ValueError(f"month {month} has {len(pool)} scenarios, "
                             f"{per_month} needed")
        picked.extend(pool.subset(per_month, seed=seed * 100 + month))
    return ScenarioSet(tuple(picked), provenance=f"{year.provenance} "
                       f"({per_month} per month, seed {seed})")


def setup(workload: str, csv_path: str, seed: int) -> Setup:
    """The program's set-up for ``workload`` on the year in ``csv_path``."""
    shape = SHAPES[workload]
    app = config.load_config(None)
    year = scenario.load_scenarios_csv(csv_path)
    scenarios = month_stratified(year, shape.per_month, seed)
    layouts = {name: solver.default_layout(app.concepts[name].bus) for name in shape.concepts}
    if shape.fit_surrogate:
        comfort.get_pmv_surrogate(app.comfort)
    return Setup(app, scenarios, layouts, app.comfort, seed)
