"""One SHA-256 over every solved result of a fixed set of sweeps.

Solves a seeded synthetic year by every route the program has and hashes
the ``repr`` of each :class:`cabintherm.solver.SolveResult`, so that two
source trees that give the same digest give the same bits for every
state, flow, comfort figure, mode and iteration count.  ``repr`` and not
``==``: an empty bus's NaN comfort fields never compare equal.

The sweeps, all in one process and one worker:

* the four configured concepts at the PMV windows +-0, +-0.5 and +-1 on
  the whole year, windows in that order, as a concept comparison solves
  them;
* the optimization route (``solve_set(method="opt")``) on a sample of the
  year, for PTC-AC+RH, whose panels are used;
* ``solve_best`` on the same sample for HP-AC+RH.

Run it against each tree and compare the last line::

    PYTHONPATH=path/to/tree/src python tools/result_digest.py
"""

from __future__ import annotations

import hashlib

from cabintherm.analysis import _run_windows, solve_set
from cabintherm.config import load_config
from cabintherm.scenario import synthesize_dataset
from cabintherm.solver import solve_best

SEED = 7101
WINDOWS = ((-0.0, 0.0), (-0.5, 0.5), (-1.0, 1.0))


def results(n_year: int, n_sample: int):
    """Every result of the sweeps above, in a fixed order."""
    app = load_config(None)
    year = synthesize_dataset(n_year, SEED)
    sample = year.subset(n_sample, seed=SEED)
    concepts = list(app.concepts.values())
    for per_window in _run_windows(year, [(c.bus, c.layout) for c in concepts],
                                   app.comfort, WINDOWS, SEED):
        for per_scn in per_window:
            yield from per_scn
    rh = app.concepts["PTC-AC+RH"]
    yield from solve_set(sample, rh.bus, app.comfort, rh.layout, SEED, method="opt")
    rh = app.concepts["HP-AC+RH"]
    for scn in sample:
        yield solve_best(scn, rh.bus, app.comfort, layout=rh.layout, seed=SEED)


def digest(n_year: int = 600, n_sample: int = 60) -> tuple[int, str]:
    """(number of results, hex SHA-256 of their ``repr`` lines)."""
    h = hashlib.sha256()
    n = 0
    for res in results(n_year, n_sample):
        h.update(repr(res).encode("utf-8") + b"\n")
        n += 1
    return n, h.hexdigest()


if __name__ == "__main__":
    n, hexdigest = digest()
    print(f"{n} results")
    print(hexdigest)
