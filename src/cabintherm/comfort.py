"""Thermal comfort: PMV/PPD per EN ISO 7730 and a polynomial PMV surrogate.

The predicted mean vote (PMV) is computed with the full iterative heat
balance of the standard (clothing surface temperature solved by damped
fixed-point iteration).  Because that iteration is awkward inside
derivative-based optimization, :func:`fit_pmv_surrogate` builds a polynomial
approximation in (air temperature, mean radiant temperature, clothing
insulation), with exact derivatives for the optimizer; the exact form is
always used for final reporting.
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

_MAX_TCL_ITER = 150
# Convergence on tcl/100.  Far tighter than the 1e-6 K the comfort numbers
# need: the solvers pin PMV residuals to 1e-8, which requires the underlying
# fixed point to be reproducible well below that level.
_TCL_TOL = 1e-11


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
        if not self.v_cab > 0:
            raise ConfigError("v_cab must be positive")
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


def pmv_array(ta_c, tr_c, clo, vel: float, rh_pct: float, met: float):
    """Vectorized PMV for arrays of air/radiant temperature and clothing.

    Implements the iterative clothing-surface-temperature balance; raises
    :class:`EvaluationError` if it fails to converge within 150 steps.
    Inputs in Celsius/clo; broadcasting follows numpy rules.

    Every point stops at its own convergence step, so its value does not
    depend on the other points of the call: it is bit for bit the same
    alone (0-d or 1-element), inside any batch and inside any sub-batch.
    Callers may therefore gather the points of many solves into one call.
    """
    ta, tr, clo = np.broadcast_arrays(np.asarray(ta_c, dtype=float),
                                      np.asarray(tr_c, dtype=float),
                                      np.asarray(clo, dtype=float))
    shape = ta.shape
    ta, tr, clo = ta.ravel(), tr.ravel(), clo.ravel()

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
    p3 = p1 * 100.0
    p4 = p1 * taa
    p5 = 308.7 - 0.028 * mw + p2 * (tra / 100.0) ** 4

    # fixed point on the points still iterating (``live``); a point's xn and
    # hc are kept from the first step at which it meets the tolerance
    xn_done = np.empty(ta.size)
    hc_done = np.empty(ta.size)
    live = np.arange(ta.size)
    xn = tcla / 100.0
    xf = xn / 2.0
    for _ in range(_MAX_TCL_ITER):
        xf = (xf + xn) / 2.0
        hcn = 2.38 * np.abs(100.0 * xf - taa) ** 0.25
        hc = np.maximum(hcf, hcn)
        xn = (p5 + p4 * hc - p2 * xf ** 4) / (100.0 + p3 * hc)
        done = np.abs(xn - xf) < _TCL_TOL
        if np.count_nonzero(done):     # cheaper than done.any() on small arrays
            xn_done[live[done]] = xn[done]
            hc_done[live[done]] = hc[done]
            go = ~done
            live, xf, xn = live[go], xf[go], xn[go]
            taa, p2, p3, p4, p5 = taa[go], p2[go], p3[go], p4[go], p5[go]
        if not live.size:
            break
    else:
        raise EvaluationError("clothing surface temperature iteration did not converge")
    xn, hc = xn_done, hc_done

    tcl = 100.0 * xn - 273.0
    hl1 = 3.05e-3 * (5733.0 - 6.99 * mw - pa)
    hl2 = max(0.42 * (mw - 58.15), 0.0)
    hl3 = 1.7e-5 * m * (5867.0 - pa)
    hl4 = 0.0014 * m * (34.0 - ta)
    hl5 = 3.96 * fcl * (xn ** 4 - (tra / 100.0) ** 4)
    hl6 = fcl * hc * (tcl - ta)
    ts = 0.303 * math.exp(-0.036 * m) + 0.028
    out = ts * (mw - hl1 - hl2 - hl3 - hl4 - hl5 - hl6)
    return out.reshape(shape) if shape else out[0]


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

    def _points(self, ta_c, tr_c, clo) -> tuple[tuple, np.ndarray]:
        """Broadcast shape of the inputs and their normalized ``(n, 3)`` points."""
        shape = np.broadcast(ta_c, tr_c, clo).shape
        pts = np.empty(shape + (3,))
        pts[..., 0] = ta_c
        pts[..., 1] = tr_c
        pts[..., 2] = clo
        return shape, _normalize(pts.reshape(-1, 3), self.lo, self.hi)

    def evaluate(self, ta_c, tr_c, clo):
        """Surrogate PMV; inputs in Celsius/clo, broadcastable."""
        shape, x = self._points(ta_c, tr_c, clo)
        out = _monomials(x, self.degree) @ self.coeffs
        return out.reshape(shape) if shape else float(out[0])

    def value_and_grad(self, ta_c, tr_c, clo):
        """Surrogate PMV and its exact gradient in (ta_c, tr_c, clo).

        The value is the one :meth:`evaluate` returns.  Each monomial is
        differentiated exactly, ``d(x**e)/dx = e * x**(e-1)``, and scaled by
        the normalization's ``2 / (hi - lo)``.  Returns the value (a float
        for scalar inputs) and the gradient, of shape ``shape + (3,)``.
        """
        shape, x = self._points(ta_c, tr_c, clo)
        exps = _exponents(self.degree)
        pows = _power_tables(x, self.degree)
        f0, f1, f2 = (p.take(e, axis=0) for p, e in zip(pows, exps))
        d0, d1, d2 = (p.take(np.maximum(e - 1, 0), axis=0) for p, e in zip(pows, exps))
        c = self.coeffs
        value = (f0 * f1 * f2).T @ c
        grad = np.stack([(d0 * f1 * f2).T @ (exps[0] * c),
                         (f0 * d1 * f2).T @ (exps[1] * c),
                         (f0 * f1 * d2).T @ (exps[2] * c)], axis=-1)
        grad *= 2.0 / (np.asarray(self.hi) - np.asarray(self.lo))
        if not shape:
            return float(value[0]), grad[0]
        return value.reshape(shape), grad.reshape(shape + (3,))


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
    call; the optimizer evaluates single points, where a call per power
    would dominate.
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
