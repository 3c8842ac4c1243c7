"""How far the solved results of two source trees lie apart.

Runs :func:`result_digest.results` (the sweeps whose ``repr`` lines
``tools/result_digest.py`` hashes) once under each tree, each in its own
interpreter, and prints for ``P_tot``, every state temperature and
``mean_psi`` the largest relative and absolute change from the first tree
to the second, then the number of results whose iteration count, mode or
RH branch differ.  Two NaNs (an empty bus's ``mean_psi``) count as equal.

    python tools/result_compare.py path/to/old/src path/to/new/src
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np

FIELDS = ("P_tot", "T_cab", "T_rh", "T_si", "T_so", "mean_psi")
DISCRETE = ("iterations", "mode", "rh_used")


def _rows():
    """One tuple ``(scenario_id, *FIELDS, *DISCRETE)`` per result."""
    from result_digest import results

    return [(r.scenario_id, r.P_tot, r.state.T_cab, r.state.T_rh, r.state.T_si,
             r.state.T_so, r.mean_psi, r.iterations, r.mode, r.rh_used)
            for r in results(600, 60)]


def rows_of(src: str) -> list[tuple]:
    """The result rows of the package under ``src``, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("CABINTHERM_CONFIG", None)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--rows"],
                          env=env, capture_output=True, check=True)
    return pickle.loads(proc.stdout)


def compare(old: list[tuple], new: list[tuple]) -> list[str]:
    """The report lines of the change from ``old`` rows to ``new`` rows."""
    if [r[0] for r in old] != [r[0] for r in new]:
        raise SystemExit("the two trees solve different scenario sequences")
    lines = [f"{len(old)} results"]
    a = np.array([r[1:1 + len(FIELDS)] for r in old], dtype=float)
    b = np.array([r[1:1 + len(FIELDS)] for r in new], dtype=float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    diff = np.where(same, 0.0, np.abs(b - a))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(same, 0.0, diff / np.abs(a))
    for j, name in enumerate(FIELDS):
        lines.append(f"{name:9s} largest relative change {rel[:, j].max():.3g}, "
                     f"absolute {diff[:, j].max():.3g}")
    changed = sum(o[-len(DISCRETE):] != n[-len(DISCRETE):] for o, n in zip(old, new))
    lines.append(f"{changed} results whose iterations, mode or rh_used differ")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] == ["--rows"]:
        sys.stdout.buffer.write(pickle.dumps(_rows()))
    elif len(sys.argv) == 3:
        print("\n".join(compare(rows_of(sys.argv[1]), rows_of(sys.argv[2]))))
    else:
        raise SystemExit(__doc__)
