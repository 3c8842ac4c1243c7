"""Scalar rectangle-to-rectangle view factors, one pair at a time.

The program evaluates the passengers' panel view weights in one place,
:func:`cabintherm.radiant_geometry.panel_view_weights`, which sums the
analytic corner sums over every face and panel at once.  These functions
evaluate one rectangle pair each, with the same corner sums, so the tests
can check them against Monte Carlo and reciprocity, and the view weights
against the area-weighted sums of the faces' view factors.
"""

import numpy as np

from cabintherm.errors import ConfigError
from cabintherm.radiant_geometry import (_EPS_AREA, PASSENGER_SIDE, PassengerCuboid, Rect3,
                                         _parallel_corner_sum, _perp_corner_sum)


def footprint(p: PassengerCuboid) -> tuple[float, float, float, float]:
    """``(x0, x1, y0, y1)`` of a passenger's square footprint."""
    h = PASSENGER_SIDE / 2.0
    return (p.x - h, p.x + h, p.y - h, p.y + h)


def _facing_parallel(a: Rect3, b: Rect3) -> bool:
    gap = b.plane_coord - a.plane_coord
    na = a.normal[a.axis]
    nb = b.normal[b.axis]
    # b in front of a, a in front of b, normals opposed
    return gap * na > 0 and -gap * nb > 0


def vf_parallel_rects(a: Rect3, b: Rect3) -> float:
    """View factor from ``a`` to a parallel rectangle ``b``.

    The rectangles must lie in distinct parallel axis-aligned planes; the
    result is zero unless they face each other.  Reciprocity
    ``A_a F_ab = A_b F_ba`` holds to machine precision by symmetry of the
    corner sum.
    """
    if a.axis != b.axis:
        raise ConfigError("rectangles are not parallel")
    if abs(a.plane_coord - b.plane_coord) < 1e-12:
        raise ConfigError("parallel rectangles must lie in distinct planes")
    if not _facing_parallel(a, b):
        return 0.0
    axes = [ax for ax in range(3) if ax != a.axis]
    z = abs(b.plane_coord - a.plane_coord)
    f = _parallel_corner_sum(a.extent(axes[0]), a.extent(axes[1]),
                             b.extent(axes[0]), b.extent(axes[1]), z)
    return float(np.clip(f, 0.0, 1.0))


def vf_perpendicular_rects(a: Rect3, b: Rect3) -> float:
    """View factor from ``a`` to a perpendicular rectangle ``b``.

    Portions of either rectangle behind the other's plane exchange no
    radiation; they are clipped away analytically (the source area in the
    denominator stays the full area of ``a``).
    """
    if a.axis == b.axis:
        raise ConfigError("rectangles are not perpendicular")
    shared = ({0, 1, 2} - {a.axis, b.axis}).pop()

    # clip target to the source's front half-space along a's normal
    bw_lo, bw_hi = b.extent(a.axis)
    if a.normal[a.axis] > 0:
        w0 = max(bw_lo - a.plane_coord, 0.0)
        w1 = max(bw_hi - a.plane_coord, 0.0)
    else:
        w0 = max(a.plane_coord - bw_hi, 0.0)
        w1 = max(a.plane_coord - bw_lo, 0.0)
    if w1 - w0 <= _EPS_AREA:
        return 0.0

    # clip source to the target's front half-space along b's normal
    av_lo, av_hi = a.extent(b.axis)
    if b.normal[b.axis] > 0:
        v0 = max(av_lo - b.plane_coord, 0.0)
        v1 = max(av_hi - b.plane_coord, 0.0)
    else:
        v0 = max(b.plane_coord - av_hi, 0.0)
        v1 = max(b.plane_coord - av_lo, 0.0)
    if v1 - v0 <= _EPS_AREA:
        return 0.0

    frac_a = (v1 - v0) / (av_hi - av_lo)  # clipped share of the source area
    f = _perp_corner_sum(a.extent(shared), (v0, v1), b.extent(shared), (w0, w1))
    return float(np.clip(f * frac_a, 0.0, 1.0))
