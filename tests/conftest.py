import re
import warnings

import numpy as np
import pytest

from cabintherm.comfort import ComfortSpec
from cabintherm.model_core import (BusConfig, CopCurve, Scenario, balance_coefficients,
                                   c_to_k, reservoir_balance)
from cabintherm.scenario import synthesize_dataset

# Python 3.12+ warns when a process forks while another of its threads runs
# (such as a live process pool's manager thread).  os.fork clears that
# warning when a filter turns it into an error, so a filterwarnings entry
# cannot fail a test on it; this fixture records it and fails the test.
FORK_WITH_THREADS = r"This process .* is multi-threaded, use of fork"


@pytest.fixture(autouse=True)
def no_fork_with_threads():
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", FORK_WITH_THREADS, DeprecationWarning)
        yield
    forks = []
    for w in caught:
        if re.match(FORK_WITH_THREADS, str(w.message)):
            forks.append(str(w.message))
        else:       # back to pytest's own record
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)
    if forks:
        pytest.fail(f"forked while a thread ran: {forks[0]}")


@pytest.fixture(scope="session")
def hp_cfg():
    return BusConfig()


@pytest.fixture(scope="session")
def ptc_cfg():
    return BusConfig(cop_heating=CopCurve.constant(1.0))


@pytest.fixture(scope="session")
def ptc_rh_cfg():
    return BusConfig(cop_heating=CopCurve.constant(1.0), rh_enabled=True, A_rh=4.0)


@pytest.fixture(scope="session")
def hp_rh_cfg():
    return BusConfig(rh_enabled=True, A_rh=4.0)


@pytest.fixture(scope="session")
def window_spec():
    return ComfortSpec(psi_min=-1.0, psi_max=1.0)


@pytest.fixture(scope="session")
def winter_scn():
    # cold, dark, busy: the clothing model yields 1.4 clo at -8 C
    return Scenario(T_inf=c_to_k(-8.0), I_dni=0.0, I_dhi=0.0, beta=-0.1,
                    N_pass=30, zeta_door=0.1, zeta_sh=0.45, month=1, id="winter")


@pytest.fixture(scope="session")
def summer_scn():
    return Scenario(T_inf=c_to_k(30.0), I_dni=800.0, I_dhi=120.0, beta=1.0,
                    N_pass=30, zeta_door=0.1, zeta_sh=0.25, month=7, id="summer")


@pytest.fixture(scope="session")
def mild_scn():
    return Scenario(T_inf=c_to_k(18.0), I_dni=200.0, I_dhi=80.0, beta=0.7,
                    N_pass=20, zeta_door=0.08, zeta_sh=0.35, month=5, id="mild")


@pytest.fixture(scope="session")
def small_set():
    """Synthetic temperate set small enough for unit-level sweeps."""
    return synthesize_dataset(400, seed=11)


def kernel_flows(cfg, T_inf, T_cab=None, T_rh=None, T_si=None, T_so=None, zeta_door=0.0):
    """The state-dependent heat flows of one operating point (W, by
    :class:`HeatFlows` name), as the balance kernel evaluates them with the
    panels on.  Temperatures left out equal the ambient ``T_inf``."""
    t_cab, t_rh, t_si, t_so = (T_inf if t is None else t for t in (T_cab, T_rh, T_si, T_so))
    scn = Scenario(T_inf=T_inf, I_dni=0.0, I_dhi=0.0, beta=-0.1, N_pass=0,
                   zeta_door=zeta_door, zeta_sh=0.0, month=1)
    flows = reservoir_balance(t_cab, t_rh, t_si, t_so, 0.0, 0.0,
                              balance_coefficients(scn, cfg), True)[0]
    return {name: float(q) for name, q in flows.items()}


def mc_view_factor(a, b, n=1_000_000, seed=0):
    """Monte Carlo view factor oracle: cosine-weighted ray sampling from the
    source rectangle, counting hits on the front face of the target."""
    rng = np.random.default_rng(seed)
    o = np.asarray(a.origin, float)
    e1 = np.asarray(a.edge1, float)
    e2 = np.asarray(a.edge2, float)
    na = a.normal
    pts = o + rng.random((n, 1)) * e1 + rng.random((n, 1)) * e2
    u1 = rng.random(n)
    u2 = rng.random(n)
    r = np.sqrt(u1)
    phi = 2 * np.pi * u2
    t1 = e1 / np.linalg.norm(e1)
    t2 = np.cross(na, t1)
    dirs = (r * np.cos(phi))[:, None] * t1 + (r * np.sin(phi))[:, None] * t2 \
        + np.sqrt(1 - u1)[:, None] * na
    axis = b.axis
    nb = b.normal
    denom = dirs[:, axis]
    ok = np.abs(denom) > 1e-12
    t = np.where(ok, (b.plane_coord - pts[:, axis]) / np.where(ok, denom, 1.0), -1.0)
    hit = pts + t[:, None] * dirs
    inside = ok & (t > 1e-12) & ((dirs @ nb) < 0)
    for ax2 in range(3):
        if ax2 == axis:
            continue
        lo, hi = b.extent(ax2)
        inside &= (hit[:, ax2] >= lo) & (hit[:, ax2] <= hi)
    return float(inside.mean())
