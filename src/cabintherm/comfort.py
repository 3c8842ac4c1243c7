"""Thermal comfort: PMV/PPD per EN ISO 7730 and a polynomial PMV surrogate.

The predicted mean vote (PMV) is computed with the full iterative heat
balance of the standard, its clothing surface temperature solved by
Newton's method where the standard's program uses a damped fixed point.
:func:`pmv_array` also returns the exact partial derivatives of the PMV in
air and radiant temperature, by implicit differentiation of the converged
balance; both solve routes use that one kernel and its gradient.

The kernel has two paths through the same balance.  A call whose
broadcast inputs hold exactly one point (the scalar :func:`pmv`, and the
comfort of one solver state whose passengers all see the inner shell's
temperature, as in every SLSQP evaluation with the panels off) runs it in
Python floats.  Any other call runs the masked array loop, the reference
the tests compare the float path against.  The two give the same bits
because both are written in IEEE basic operations (``+ - * /`` and the
square root, correctly rounded on every platform; powers are products,
``|s|^0.25`` is two square roots) plus one transcendental, the vapour
pressure's ``np.exp``, a numpy ufunc on both paths (on a float it runs the
array loop on one element; ``math.exp`` differs from it on some CPUs).  The
metabolic factor's ``math.exp`` is one float, the same on both paths.

:func:`fit_pmv_surrogate` builds a polynomial approximation in (air
temperature, mean radiant temperature, clothing insulation).  No solve
uses it: it is kept with its checked accuracy envelope, and the benchmark
fits it in its set-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

import numpy as np

from .errors import ConfigError, EvaluationError
from .model_core import KELVIN, k_to_c

# Clothing insulation vs ambient temperature: cubic with the shape of the
# UTCI clothing model, anchored so the 0.3 clo summer floor engages at 26 C
# (and winter wear reaches 1.4 clo around -8 C).
CLOTHING_CUBIC = (1.27695, -0.01866, -4.849e-4, -9.333e-6)
CLOTHING_FLOOR = 0.3

# Newton took at most 6 steps on 200 000 random points of SLSQP's
# temperature box with clo 0-2.5, v 0.001-3.2 m/s and met 0.7-4; a point
# still moving after 20 has a bad input, such as a NaN
_MAX_TCL_ITER = 20
# Bound on the last Newton step in tcl/100.  Far tighter than the 1e-6 K the
# comfort numbers need: the solvers pin PMV residuals to 1e-8, which
# requires the clothing-surface temperature to be reproducible well below
# that level.
_TCL_TOL = 1e-11

_OUT_OF_DOMAIN = "PMV inputs must be finite, with the air temperature above -235 C"
_NO_CONVERGENCE = "clothing surface temperature iteration did not converge"


@dataclass(frozen=True)
class ComfortSpec:
    """Comfort evaluation settings and the requested PMV window.

    ``clo_scale`` multiplies the clothing curve before its floor and exists
    for sensitivity studies; it is 1 in normal operation.
    """

    v_cab: float = 0.1        # m/s, cabin air velocity
    phi_cab: float = 0.40     # relative humidity fraction
    met: float = 1.2          # metabolic rate, met
    psi_min: float = -0.5
    psi_max: float = 0.5
    clo_scale: float = 1.0

    def __post_init__(self):
        for name in ("v_cab", "met", "clo_scale"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:      # also rejects NaN
                raise ConfigError(f"{name} must be finite and positive, got {v}")
        if not 0.0 < self.phi_cab < 1.0:
            raise ConfigError("phi_cab must be in (0, 1)")
        if self.psi_min > self.psi_max:
            raise ConfigError("psi_min must not exceed psi_max")
        for name in ("psi_min", "psi_max"):
            v = getattr(self, name)
            if not -3.0 <= v <= 3.0:
                raise ConfigError(f"{name} must be in [-3, 3], got {v}")

    def with_window(self, psi_min: float, psi_max: float) -> "ComfortSpec":
        return replace(self, psi_min=psi_min, psi_max=psi_max)


def clothing_insulation(T_inf: float, scale: float = 1.0) -> float:
    """Clothing insulation worn at ambient temperature ``T_inf`` (clo).

    A monotone non-increasing cubic in the ambient temperature with a lower
    floor (people do not dress lighter than 0.3 clo in summer).  ``scale``
    multiplies the curve output before the floor is applied; sensitivity
    studies use it to perturb clothing without moving the floor.
    """
    t = k_to_c(T_inf)
    a, b, c, d = CLOTHING_CUBIC
    return max(CLOTHING_FLOOR, scale * (a + b * t + c * t * t + d * t ** 3))


def _vapor_pressure_pa(ta_c, rh_pct):
    """Water vapor partial pressure (Pa) at air temperature/relative humidity."""
    return rh_pct * 10.0 * np.exp(16.6536 - 4030.183 / (ta_c + 235.0))


def pmv_array(ta_c, tr_c, clo, vel: float, rh_pct: float, met: float,
              grad: bool = False):
    """Vectorized PMV for arrays of air/radiant temperature and clothing.

    Solves the clothing-surface-temperature balance by Newton's method;
    raises :class:`EvaluationError` if a point (a NaN input, say) does not
    converge within 20 steps, and before any arithmetic if an input is
    infinite or an air temperature is at or below the vapour-pressure
    pole (-235 C).  Inputs in Celsius/clo; broadcasting follows numpy
    rules.

    With ``grad`` it returns ``(pmv, dpmv_dta, dpmv_dtr)``, the partial
    derivatives in the air and the radiant temperature (per K), each shaped
    like the value.  They differentiate the converged clothing-surface
    balance ``G(x) = 0`` implicitly, ``dx = -G_theta / G_x`` with ``x =
    t_cl / 100`` in kelvin, and chain that through the heat losses.  On the
    kink of ``hc = max(hcf, hcn)`` they take the side the value uses.  The
    values are the same bits with and without ``grad``.

    Every point stops at its own convergence step, and the derivatives are
    elementwise, so a point's outputs do not depend on the other points of
    the call: they are bit for bit the same alone (0-d or 1-element),
    inside any batch and inside any sub-batch.  Callers may therefore
    gather the points of many solves into one call.

    A call of exactly one point (0-d, or any shape of size 1) takes the
    float path of :func:`_pmv_point`, about ten times faster on one point
    than the array loop; it returns a numpy float (0-d inputs) or an array
    of the broadcast shape, as the loop does.  Larger calls run the loop,
    the reference for both paths.
    """
    ta, tr, clo = (np.asarray(ta_c, dtype=float), np.asarray(tr_c, dtype=float),
                   np.asarray(clo, dtype=float))
    if not ta.shape == tr.shape == clo.shape:
        ta, tr, clo = np.broadcast_arrays(ta, tr, clo)
    shape = ta.shape
    if ta.size == 1:
        outs = [np.array([o]).reshape(shape) if shape else np.float64(o)
                for o in _pmv_point(ta.item(), tr.item(), clo.item(), vel, rh_pct, met, grad)]
        return tuple(outs) if grad else outs[0]
    ta, tr, clo = ta.ravel(), tr.ravel(), clo.ravel()
    # such inputs would make numpy warn below; a NaN fails to converge
    infinite = np.count_nonzero(np.isinf(np.concatenate((ta, tr, clo))))
    if infinite or np.count_nonzero(ta <= -235.0):
        raise EvaluationError(_OUT_OF_DOMAIN)

    pa = _vapor_pressure_pa(ta, rh_pct)
    icl = 0.155 * clo
    m = met * 58.15
    mw = m  # no external work
    fcl = np.where(icl < 0.078, 1.0 + 1.29 * icl, 1.05 + 0.645 * icl)
    hcf = 12.1 * math.sqrt(vel)
    taa = ta + 273.0
    tra = tr + 273.0

    tcla = taa + (35.5 - ta) / (3.5 * (6.45 * icl + 0.1))
    p1 = icl * fcl
    p2 = p1 * 3.96
    r = tra / 100.0
    r2 = r * r
    r3 = r2 * r
    r4 = r2 * r2
    p5 = 308.7 - 0.028 * mw + p2 * r4

    # Newton on G(x) = 100 x + p1 hc s + p2 x^4 - p5 with s = 100 x - taa,
    # G_x >= 100.  Every point steps until its first step shorter than the
    # tolerance; from then on ``live`` is False there and its x (after that
    # step) and hc are kept.  A NaN step never ends, so a NaN point stays live.
    live = np.ones(ta.size, dtype=bool)
    xn = tcla / 100.0
    hc = hcf   # every point is live in the first step
    g1, g4 = 100.0 * p1, 4.0 * p2
    for _ in range(_MAX_TCL_ITER):
        x100 = 100.0 * xn
        s = x100 - taa
        hcn = 2.38 * np.sqrt(np.sqrt(np.abs(s)))
        hc_t = np.maximum(hcf, hcn)
        x3 = xn * xn * xn
        # where hc = hcn, d(hc s)/ds = 1.25 hc; at hc = hcf it is hc
        step = ((x100 + p1 * hc_t * s + p2 * x3 * xn - p5)
                / (100.0 + g1 * np.where(hcn > hcf, 1.25 * hc_t, hc_t) + g4 * x3))
        xn = np.where(live, xn - step, xn)
        hc = np.where(live, hc_t, hc)
        live &= ~(np.abs(step) < _TCL_TOL)
        if not np.count_nonzero(live):   # cheaper than live.any() on small arrays
            break
    else:
        raise EvaluationError(_NO_CONVERGENCE)

    tcl = 100.0 * xn - 273.0
    hl1 = 3.05e-3 * (5733.0 - 6.99 * mw - pa)
    hl2 = max(0.42 * (mw - 58.15), 0.0)
    hl3 = 1.7e-5 * m * (5867.0 - pa)
    hl4 = 0.0014 * m * (34.0 - ta)
    x2 = xn * xn
    x3 = x2 * xn
    hl5 = 3.96 * fcl * (x2 * x2 - r4)
    hl6 = fcl * hc * (tcl - ta)
    ts = 0.303 * math.exp(-0.036 * m) + 0.028
    out = ts * (mw - hl1 - hl2 - hl3 - hl4 - hl5 - hl6)
    if not grad:
        return out.reshape(shape)

    # With s = 100 x - taa (= t_cl - t_a), G = 100 x + p1 hc s - p5 + p2 x^4
    # and hl6 = fcl hc s.  Where hc = hcn = 2.38 |s|^0.25, d(hc s)/ds =
    # 1.25 hc, so no derivative divides by s; at hc = hcf it is hc.
    dhcs = np.where(hc > hcf, 1.25 * hc, hc)
    g_x = 100.0 + 100.0 * p1 * dhcs + 4.0 * p2 * x3
    dx_ta = p1 * dhcs / g_x         # -G_ta / G_x, as dtaa/dta = 1
    dx_tr = 0.04 * p2 * r3 / g_x    # -G_tr / G_x, from p5
    dpa = pa * 4030.183 / ((ta + 235.0) * (ta + 235.0))
    d_ta = -ts * ((-3.05e-3 - 1.7e-5 * m) * dpa - 0.0014 * m
                  + 3.96 * fcl * 4.0 * x3 * dx_ta
                  + fcl * dhcs * (100.0 * dx_ta - 1.0))
    d_tr = -ts * (3.96 * fcl * 4.0 * (x3 * dx_tr - r3 / 100.0)
                  + fcl * dhcs * 100.0 * dx_tr)
    return out.reshape(shape), d_ta.reshape(shape), d_tr.reshape(shape)


def _pmv_point(ta: float, tr: float, clo: float, vel: float, rh_pct: float, met: float,
               grad: bool):
    """The balance of :func:`pmv_array` for one point, in Python floats:
    ``(pmv,)``, or with ``grad`` ``(pmv, dpmv_dta, dpmv_dtr)``.

    Line for line the array loop, in its operation order: ``+ - * /``,
    ``math.sqrt``, ``abs``, ``max`` and ``if``, and the vapour pressure's
    ``np.exp`` applied to a float (see the module docstring).
    """
    if math.isinf(ta) or math.isinf(tr) or math.isinf(clo) or ta <= -235.0:
        raise EvaluationError(_OUT_OF_DOMAIN)
    pa = float(_vapor_pressure_pa(ta, rh_pct))
    icl = 0.155 * clo
    m = met * 58.15
    mw = m  # no external work
    fcl = 1.0 + 1.29 * icl if icl < 0.078 else 1.05 + 0.645 * icl
    hcf = 12.1 * math.sqrt(vel)
    taa = ta + 273.0
    tra = tr + 273.0

    tcla = taa + (35.5 - ta) / (3.5 * (6.45 * icl + 0.1))
    p1 = icl * fcl
    p2 = p1 * 3.96
    r = tra / 100.0
    r2 = r * r
    r3 = r2 * r
    r4 = r2 * r2
    p5 = 308.7 - 0.028 * mw + p2 * r4

    xn = tcla / 100.0
    g1, g4 = 100.0 * p1, 4.0 * p2
    for _ in range(_MAX_TCL_ITER):
        x100 = 100.0 * xn
        s = x100 - taa
        hcn = 2.38 * math.sqrt(math.sqrt(abs(s)))
        hc = max(hcf, hcn)
        x3 = xn * xn * xn
        step = ((x100 + p1 * hc * s + p2 * x3 * xn - p5)
                / (100.0 + g1 * (1.25 * hc if hcn > hcf else hc) + g4 * x3))
        xn = xn - step
        if abs(step) < _TCL_TOL:
            break
    else:
        raise EvaluationError(_NO_CONVERGENCE)

    tcl = 100.0 * xn - 273.0
    hl1 = 3.05e-3 * (5733.0 - 6.99 * mw - pa)
    hl2 = max(0.42 * (mw - 58.15), 0.0)
    hl3 = 1.7e-5 * m * (5867.0 - pa)
    hl4 = 0.0014 * m * (34.0 - ta)
    x2 = xn * xn
    x3 = x2 * xn
    hl5 = 3.96 * fcl * (x2 * x2 - r4)
    hl6 = fcl * hc * (tcl - ta)
    ts = 0.303 * math.exp(-0.036 * m) + 0.028
    out = ts * (mw - hl1 - hl2 - hl3 - hl4 - hl5 - hl6)
    if not grad:
        return (out,)

    dhcs = 1.25 * hc if hc > hcf else hc
    g_x = 100.0 + 100.0 * p1 * dhcs + 4.0 * p2 * x3
    dx_ta = p1 * dhcs / g_x
    dx_tr = 0.04 * p2 * r3 / g_x
    dpa = pa * 4030.183 / ((ta + 235.0) * (ta + 235.0))
    d_ta = -ts * ((-3.05e-3 - 1.7e-5 * m) * dpa - 0.0014 * m
                  + 3.96 * fcl * 4.0 * x3 * dx_ta
                  + fcl * dhcs * (100.0 * dx_ta - 1.0))
    d_tr = -ts * (3.96 * fcl * 4.0 * (x3 * dx_tr - r3 / 100.0)
                  + fcl * dhcs * 100.0 * dx_tr)
    return out, d_ta, d_tr


def pmv(T_cab: float, T_mr: float, R_clo: float, spec: ComfortSpec,
        clamp: bool = True) -> float:
    """Predicted mean vote for one occupant.

    Temperatures in kelvin; the result is clamped to the reporting range
    [-3, 3] unless ``clamp`` is False (the raw value is used internally by
    the solvers).
    """
    val = float(pmv_array(k_to_c(T_cab), k_to_c(T_mr), R_clo,
                          spec.v_cab, spec.phi_cab * 100.0, spec.met))
    if clamp:
        return min(3.0, max(-3.0, val))
    return val


def ppd(psi: float) -> float:
    """Predicted percentage dissatisfied (%) for a PMV value."""
    if not math.isfinite(psi):
        raise EvaluationError(f"PPD of non-finite PMV {psi}")
    return 100.0 - 95.0 * math.exp(-0.03353 * psi ** 4 - 0.2179 * psi ** 2)


def mean_pmv(per_passenger_pmv) -> float:
    """Arithmetic mean of per-passenger PMV values."""
    arr = np.asarray(per_passenger_pmv, dtype=float)
    if arr.size == 0:
        raise EvaluationError("mean_pmv of an empty passenger list")
    return float(arr.mean())


# ---------------------------------------------------------------------------
# polynomial surrogate
# ---------------------------------------------------------------------------

# Fit domain in C/clo.  Slightly wider than the operating envelope
# (0..45 C) so solver iterates just outside it stay accurate.  Total degree
# 3 leaves errors around 0.25 PMV over this envelope; degree 7 is the
# smallest comfortable margin below the 0.05 PMV accuracy target.
SURROGATE_DOMAIN_LO = (-5.0, -5.0, CLOTHING_FLOOR)
SURROGATE_DOMAIN_HI = (46.0, 46.0, 1.8)
SURROGATE_DEGREE = 7
# Chebyshev nodes of the fit grid on each temperature axis and on the
# clothing axis, and the Lawson reweighting rounds that follow the fit
_FIT_NODES_T, _FIT_NODES_CLO = 25, 13
_LAWSON_ROUNDS = 8


@dataclass(frozen=True)
class PmvSurrogate:
    """Polynomial PMV approximation in (T_cab, T_mr, R_clo).

    Inputs are normalized to [-1, 1] over the fit domain before the
    monomials are evaluated.  ``max_fit_error`` is the maximum absolute
    deviation from the exact PMV observed on the fit grid.
    """

    coeffs: np.ndarray
    degree: int
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    max_fit_error: float

    def evaluate(self, ta_c, tr_c, clo):
        """Surrogate PMV; inputs in Celsius/clo, broadcastable."""
        shape = np.broadcast(ta_c, tr_c, clo).shape
        pts = np.empty(shape + (3,))
        pts[..., 0] = ta_c
        pts[..., 1] = tr_c
        pts[..., 2] = clo
        x = _normalize(pts.reshape(-1, 3), self.lo, self.hi)
        out = _monomials(x, self.degree) @ self.coeffs
        return out.reshape(shape) if shape else float(out[0])


def _normalize(pts: np.ndarray, lo, hi) -> np.ndarray:
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    return 2.0 * (pts - lo) / (hi - lo) - 1.0


_exponent_cache: dict[int, tuple[np.ndarray, ...]] = {}


def _exponents(degree: int) -> tuple[np.ndarray, ...]:
    """Per-variable exponent columns of all trivariate monomials up to
    ``degree``, one contiguous index array per variable."""
    exps = _exponent_cache.get(degree)
    if exps is None:
        rows = [(0, 0, 0)]
        for d in range(1, degree + 1):
            for combo in combinations_with_replacement(range(3), d):
                rows.append(tuple(combo.count(i) for i in range(3)))
        exps = tuple(np.array(col, dtype=np.intp) for col in zip(*rows))
        _exponent_cache[degree] = exps
    return exps


def _monomials(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomial design matrix of the ``(n, 3)`` points ``x`` via per-variable
    power tables (no Python loop over terms).

    The matrix is Fortran-ordered: ``m @ coeffs`` then sums in the order
    the surrogate was fitted and evaluated with.
    """
    e0, e1, e2 = _exponents(degree)
    pows = _power_tables(x, degree)
    return (pows[0].take(e0, axis=0) * pows[1].take(e1, axis=0)
            * pows[2].take(e2, axis=0)).T


def _power_tables(x: np.ndarray, degree: int) -> np.ndarray:
    """``pows[k, d] = x[:, k] ** d`` for ``d = 0..degree``, shape
    ``(3, degree + 1, n)``.

    The running product builds ``x**d`` as ``x**(d-1) * x`` in one numpy
    call; on a single point a call per power would dominate.
    """
    pows = np.empty((3, degree + 1, x.shape[0]))
    pows[:, 0] = 1.0
    pows[:, 1:] = x.T[:, None, :]
    np.multiply.accumulate(pows, axis=1, out=pows)
    return pows


def _chebyshev_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    # Chebyshev-Lobatto points: denser at the edges, tames the fit there
    k = np.arange(n)
    x = np.cos(np.pi * k / (n - 1))
    return lo + (hi - lo) * (1.0 - x) / 2.0


def fit_pmv_surrogate(spec: ComfortSpec) -> PmvSurrogate:
    """Least-squares polynomial PMV surrogate over the operating envelope.

    The fit runs on a Chebyshev tensor grid over the surrogate domain and
    is sharpened toward the minimax optimum by a few Lawson reweighting
    rounds.
    """
    lo, hi = SURROGATE_DOMAIN_LO, SURROGATE_DOMAIN_HI
    t_grid = _chebyshev_nodes(lo[0], hi[0], _FIT_NODES_T)
    c_grid = _chebyshev_nodes(lo[2], hi[2], _FIT_NODES_CLO)
    ta, tr, cl = np.meshgrid(t_grid, t_grid, c_grid, indexing="ij")
    pts = np.stack([ta.ravel(), tr.ravel(), cl.ravel()], axis=1)
    exact = pmv_array(pts[:, 0], pts[:, 1], pts[:, 2],
                      spec.v_cab, spec.phi_cab * 100.0, spec.met)

    m = _monomials(_normalize(pts, lo, hi), SURROGATE_DEGREE)
    w = np.ones(len(pts))
    for _ in range(_LAWSON_ROUNDS):
        sw = np.sqrt(w)
        coeffs, *_ = np.linalg.lstsq(m * sw[:, None], exact * sw, rcond=None)
        err = np.abs(m @ coeffs - exact)
        # Lawson: re-weight by the current error to push toward minimax
        w = w * np.maximum(err, 1e-12)
        w /= w.sum()
    max_err = float(np.max(np.abs(m @ coeffs - exact)))
    return PmvSurrogate(coeffs=coeffs, degree=SURROGATE_DEGREE, lo=lo, hi=hi,
                        max_fit_error=max_err)


_surrogate_cache: dict[tuple, PmvSurrogate] = {}


def get_pmv_surrogate(spec: ComfortSpec) -> PmvSurrogate:
    """Cached surrogate for the evaluation settings of ``spec``.

    The window bounds do not affect the fit, only (v_cab, phi_cab, met) do.
    """
    key = (spec.v_cab, spec.phi_cab, spec.met)
    surr = _surrogate_cache.get(key)
    if surr is None:
        surr = fit_pmv_surrogate(spec)
        _surrogate_cache[key] = surr
    return surr
