"""View factors, passenger placement, and mean radiant temperature.

Ceiling-mounted radiant-heater panels exchange long-wave radiation with the
cabin.  A passenger is an upright 0.25 m x 0.25 m x 1.7 m cuboid that acts
as a passive sensor: its five exposed faces (four sides and the top) see
either a panel or the inner shell, so per face the two view factors close
to one exactly.  The analytic rectangle-rectangle view factors below handle
parallel and perpendicular rectangles of arbitrary size and position with
parallel boundaries.  Mean radiant temperature has one path, for the
solver and the reports alike: :func:`mixed_radiant_temperature` of the
passengers' :func:`panel_view_weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

PASSENGER_SIDE = 0.25   # m, square footprint edge
PASSENGER_HEIGHT = 1.7  # m

_EPS_AREA = 1e-12


# ---------------------------------------------------------------------------
# rectangle primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rect3:
    """Axis-aligned rectangle in 3-D given by a corner and two edge vectors.

    The unit normal follows the right-hand rule ``e1 x e2`` and defines the
    radiating side.
    """

    origin: tuple[float, float, float]
    edge1: tuple[float, float, float]
    edge2: tuple[float, float, float]

    def __post_init__(self):
        e1 = np.asarray(self.edge1, float)
        e2 = np.asarray(self.edge2, float)
        if abs(float(e1 @ e2)) > 1e-9:
            raise ConfigError("rectangle edge vectors must be orthogonal")
        if self.area <= _EPS_AREA:
            raise ConfigError("rectangle must have positive area")
        n = np.cross(e1, e2)
        if np.count_nonzero(np.abs(n) > 1e-12) != 1:
            raise ConfigError("rectangle must be axis-aligned")

    @cached_property
    def area(self) -> float:
        return float(np.linalg.norm(np.cross(self.edge1, self.edge2)))

    @property
    def normal(self) -> np.ndarray:
        n = np.cross(self.edge1, self.edge2)
        return n / np.linalg.norm(n)

    @property
    def axis(self) -> int:
        """Index of the coordinate axis the normal is parallel to."""
        return int(np.argmax(np.abs(self.normal)))

    @property
    def plane_coord(self) -> float:
        return float(self.origin[self.axis])

    def extent(self, axis: int) -> tuple[float, float]:
        """(lo, hi) of the rectangle along a coordinate axis."""
        o = self.origin[axis]
        d = self.edge1[axis] + self.edge2[axis]
        return (min(o, o + d), max(o, o + d))

    @staticmethod
    def horizontal(x0: float, x1: float, y0: float, y1: float, z: float,
                   facing_up: bool) -> "Rect3":
        """Horizontal rectangle spanning [x0,x1] x [y0,y1] at height ``z``."""
        if facing_up:
            return Rect3((x0, y0, z), (x1 - x0, 0.0, 0.0), (0.0, y1 - y0, 0.0))
        return Rect3((x0, y0, z), (0.0, y1 - y0, 0.0), (x1 - x0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# analytic view-factor kernels (corner sums, vectorized over leading dims)
# ---------------------------------------------------------------------------

def _parallel_corner_sum(ax, ay, bx, by, z):
    """View factor between parallel rectangles with parallel boundaries.

    ``ax``/``ay`` are *(lo, hi)* pairs of the source rectangle in its plane,
    ``bx``/``by`` of the target rectangle, ``z`` the positive separation of
    the planes.  All inputs broadcast; returns the view factor array.
    """
    z = np.asarray(z, float)
    z2 = z * z
    total = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for lidx in range(2):
                    u = ax[i] - bx[k]
                    v = ay[j] - by[lidx]
                    p = np.sqrt(u * u + z2)
                    q = np.sqrt(v * v + z2)
                    b = (v * p * np.arctan(v / p) + u * q * np.arctan(u / q)
                         - 0.5 * z2 * np.log(u * u + v * v + z2))
                    total = total + ((-1.0) ** (i + j + k + lidx)) * b
    area = (ax[1] - ax[0]) * (ay[1] - ay[0])
    return total / (2.0 * math.pi * area)


def _perp_corner_sum(sa, va, sb, wb):
    """View factor between perpendicular rectangles with parallel boundaries.

    The source spans ``sa`` along the shared axis and has edge distances
    ``va`` (both positive) from the target's plane; the target spans ``sb``
    along the shared axis and offsets ``wb`` (non-negative) from the
    source's plane, measured toward the source normal.  Inputs broadcast.
    """
    total = 0.0
    for j in range(2):
        for lidx in range(2):
            v = va[j]
            w = wb[lidx]
            s = v * v + w * w
            sq = np.sqrt(s)
            sgn_jl = 1.0 if j == lidx else -1.0
            for i in range(2):
                for k in range(2):
                    u = sa[i] - sb[k]
                    sgn_ik = -1.0 if i == k else 1.0
                    u2s = u * u + s
                    log_term = np.where(u2s > 1e-300,
                                        (u * u - s) * np.log(np.maximum(u2s, 1e-300)),
                                        0.0)
                    h = -0.125 * log_term - 0.5 * sq * u * np.arctan2(u, sq)
                    total = total + sgn_ik * sgn_jl * h
    area = (sa[1] - sa[0]) * (va[1] - va[0])
    return total / (math.pi * np.abs(area))


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


# ---------------------------------------------------------------------------
# cabin layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PassengerCuboid:
    """Standing passenger with a square footprint centered at ``(x, y)``."""

    x: float
    y: float
    side: float = PASSENGER_SIDE
    height: float = PASSENGER_HEIGHT

    @property
    def footprint(self) -> tuple[float, float, float, float]:
        h = self.side / 2.0
        return (self.x - h, self.x + h, self.y - h, self.y + h)


@dataclass(frozen=True)
class CabinLayout:
    """Cabin interior box and its ceiling RH panels."""

    length: float = 18.0
    width: float = 2.4
    height: float = 2.3
    rh_panels: tuple[Rect3, ...] = ()

    def __post_init__(self):
        for d in (self.length, self.width, self.height):
            if d <= 0:
                raise ConfigError("cabin dimensions must be positive")
        if self.rh_panels and self.height <= PASSENGER_HEIGHT:
            raise ConfigError(f"a cabin with ceiling panels must be higher than a "
                              f"{PASSENGER_HEIGHT} m passenger, got {self.height} m")
        for p in self.rh_panels:
            if p.axis != 2 or abs(p.plane_coord - self.height) > 1e-9:
                raise ConfigError("RH panels must be coplanar on the ceiling")
            if p.normal[2] > 0:
                raise ConfigError("ceiling panels must face downward")
            (x0, x1), (y0, y1) = p.extent(0), p.extent(1)
            if x0 < -1e-9 or x1 > self.length + 1e-9 or y0 < -1e-9 or y1 > self.width + 1e-9:
                raise ConfigError("RH panel outside the cabin footprint")
        for i, p in enumerate(self.rh_panels):
            for q in self.rh_panels[i + 1:]:
                if _rects_overlap_2d(p, q):
                    raise ConfigError("RH panels must not overlap")

    @property
    def panel_area(self) -> float:
        return sum(p.area for p in self.rh_panels)


def _rects_overlap_2d(p: Rect3, q: Rect3) -> bool:
    (px0, px1), (py0, py1) = p.extent(0), p.extent(1)
    (qx0, qx1), (qy0, qy1) = q.extent(0), q.extent(1)
    return px0 < qx1 - 1e-12 and qx0 < px1 - 1e-12 and py0 < qy1 - 1e-12 and qy0 < py1 - 1e-12


def ceiling_panel_strip(layout_length: float, layout_width: float, layout_height: float,
                        total_area: float, n_panels: int = 5,
                        panel_width: float = 0.8,
                        span: tuple[float, float] | None = None) -> tuple[Rect3, ...]:
    """Evenly spaced centered ceiling strip of ``n_panels`` with a given total area."""
    if total_area <= 0:
        return ()
    if span is None:
        span = (layout_length / 9.0, layout_length * 8.0 / 9.0)
    panel_len = total_area / (n_panels * panel_width)
    gap = ((span[1] - span[0]) - n_panels * panel_len) / max(n_panels - 1, 1)
    if gap < 0:
        raise ConfigError("ceiling strip span too short for the requested panel area")
    y0 = (layout_width - panel_width) / 2.0
    panels = []
    for i in range(n_panels):
        x0 = span[0] + i * (panel_len + gap)
        panels.append(Rect3.horizontal(x0, x0 + panel_len, y0, y0 + panel_width,
                                       layout_height, facing_up=False))
    return tuple(panels)


# ---------------------------------------------------------------------------
# passenger placement
# ---------------------------------------------------------------------------

PLACEMENT_PITCH = 0.5   # m
PLACEMENT_MARGIN = 0.25  # m, slot center clearance from the walls


def placement_grid(layout: CabinLayout) -> list[tuple[float, float]]:
    """Slot centers of the walkable placement grid."""
    xs = np.arange(PLACEMENT_MARGIN, layout.length - PLACEMENT_MARGIN + 1e-9, PLACEMENT_PITCH)
    ys = np.arange(PLACEMENT_MARGIN, layout.width - PLACEMENT_MARGIN + 1e-9, PLACEMENT_PITCH)
    return [(float(x), float(y)) for x in xs for y in ys]


def place_passengers(n: int, seed: int, layout: CabinLayout) -> list[PassengerCuboid]:
    """Pseudo-random, overlap-free placement of ``n`` passengers.

    Slots of a fixed 0.5 m grid over the walkable area are drawn without
    replacement; the draw is deterministic for a given seed.
    """
    if n < 0:
        raise ConfigError("cannot place a negative number of passengers")
    if n == 0:
        return []
    slots = placement_grid(layout)
    if n > len(slots):
        raise ConfigError(f"cannot place {n} passengers on a {len(slots)}-slot grid")
    rng = np.random.default_rng(seed)
    chosen = rng.permutation(len(slots))[:n]
    return [PassengerCuboid(*slots[i]) for i in chosen]


# ---------------------------------------------------------------------------
# mean radiant temperature
# ---------------------------------------------------------------------------

def panel_view_weights(passengers, layout: CabinLayout) -> np.ndarray:
    """Area-weighted panel view factor of each passenger.

    Returns ``b`` with one entry per passenger such that
    ``T_mr^4 = (1 - b) T_si^4 + b T_rh^4``; zero when there are no panels.
    Vectorized across passengers and panels.
    """
    n = len(passengers)
    if n == 0:
        return np.zeros(0)
    if not layout.rh_panels:
        return np.zeros(n)
    px = np.array([p.extent(0) for p in layout.rh_panels])  # (P, 2)
    py = np.array([p.extent(1) for p in layout.rh_panels])
    cx = np.array([p.x for p in passengers])[:, None]  # (N, 1)
    cy = np.array([p.y for p in passengers])[:, None]
    half = np.array([p.side / 2.0 for p in passengers])[:, None]
    hgt = np.array([p.height for p in passengers])[:, None]
    zp = layout.height

    # top face: parallel to the ceiling panels
    a_top = (2 * half[:, 0]) ** 2
    f_top = _parallel_corner_sum(
        (cx - half, cx + half), (cy - half, cy + half),
        (px[None, :, 0], px[None, :, 1]), (py[None, :, 0], py[None, :, 1]),
        zp - hgt,
    ).sum(axis=1)

    # side faces: perpendicular to the panels; clip each panel to the
    # half-space in front of the face
    v_pair = (zp - hgt, zp * np.ones_like(hgt))  # distances of face top/bottom edges
    a_side = (2 * half[:, 0]) * hgt[:, 0]

    def side(face_plane, outward_pos, shared_a, shared_b, off):
        # off: panel bounds along the face normal axis, shape (1, P, 2)
        if outward_pos:
            w0 = np.maximum(off[..., 0] - face_plane, 0.0)
            w1 = np.maximum(off[..., 1] - face_plane, 0.0)
        else:
            w0 = np.maximum(face_plane - off[..., 1], 0.0)
            w1 = np.maximum(face_plane - off[..., 0], 0.0)
        ok = (w1 - w0) > _EPS_AREA
        f = _perp_corner_sum(shared_a, v_pair, shared_b, (w0, w1))
        return np.where(ok, f, 0.0).sum(axis=1)

    px_b = px[None, :, :]
    py_b = py[None, :, :]
    f_xp = side(cx + half, True, (cy - half, cy + half),
                (py_b[..., 0], py_b[..., 1]), px_b)
    f_xm = side(cx - half, False, (cy - half, cy + half),
                (py_b[..., 0], py_b[..., 1]), px_b)
    f_yp = side(cy + half, True, (cx - half, cx + half),
                (px_b[..., 0], px_b[..., 1]), py_b)
    f_ym = side(cy - half, False, (cx - half, cx + half),
                (px_b[..., 0], px_b[..., 1]), py_b)

    f_top = np.clip(f_top, 0.0, 1.0)
    f_sides = np.clip(np.stack([f_xp, f_xm, f_yp, f_ym]), 0.0, 1.0)
    total_area = a_top + 4 * a_side
    weighted = a_top * f_top + a_side * f_sides.sum(axis=0)
    return np.clip(weighted / total_area, 0.0, 1.0)


def mixed_radiant_temperature(b, T_si, T_rh):
    """Mean radiant temperature (K) behind panel view weight ``b``:
    ``((1 - b) T_si^4 + b T_rh^4)^(1/4)``, broadcasting over arrays."""
    return ((1.0 - b) * T_si ** 4 + b * T_rh ** 4) ** 0.25

