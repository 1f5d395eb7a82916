"""Low-level planar predicates and constructions.

Sign predicates are evaluated in floating point with a forward error bound;
ambiguous cases fall back to exact rational arithmetic (floats are dyadic
rationals, so ``Fraction(float)`` is lossless).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DegeneracyError

# Relative error bound for a float cross-product determinant (Shewchuk-style
# static filter: |det| above this multiple of the magnitude sum is trusted).
_ORIENT_EPS = 8.0 * 2.0**-52

PROPER = "proper"
ENDPOINT_TOUCH = "endpoint-touch"
COLLINEAR_OVERLAP = "collinear-overlap"


def orient(ax, ay, bx, by, cx, cy):
    """Sign of cross(b - a, c - a): +1 left turn, -1 right turn, 0 collinear."""
    detleft = (bx - ax) * (cy - ay)
    detright = (by - ay) * (cx - ax)
    det = detleft - detright
    bound = _ORIENT_EPS * (abs(detleft) + abs(detright))
    if det > bound:
        return 1
    if det < -bound:
        return -1
    return orient_exact(ax, ay, bx, by, cx, cy)


def orient_filtered(ax, ay, bx, by, cx, cy):
    """``orient`` elementwise on arrays where the float filter is sure of the
    sign, else 0: undecided, for the exact test to settle."""
    detleft = (bx - ax) * (cy - ay)
    detright = (by - ay) * (cx - ax)
    det = detleft - detright
    sure = np.abs(det) > _ORIENT_EPS * (np.abs(detleft) + np.abs(detright))
    return np.where(sure, np.sign(det), 0.0)


def orient_exact(ax, ay, bx, by, cx, cy):
    det = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) - (
        Fraction(by) - Fraction(ay)
    ) * (Fraction(cx) - Fraction(ax))
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def _collinear_point_in_box(px, py, ax, ay, bx, by):
    """For p collinear with segment ab: is p within the closed segment?"""
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segment_contact(ax, ay, bx, by, cx, cy, dx, dy):
    """Classify the contact between closed segments ab and cd.

    Returns (kind, point) where kind is one of PROPER, ENDPOINT_TOUCH,
    COLLINEAR_OVERLAP or None (disjoint).  For PROPER the point is the
    interior intersection; for ENDPOINT_TOUCH it is the touch point; for
    COLLINEAR_OVERLAP it is the midpoint of the shared sub-segment.
    """
    if max(ax, bx) < min(cx, dx) or max(cx, dx) < min(ax, bx):
        return None, None
    if max(ay, by) < min(cy, dy) or max(cy, dy) < min(ay, by):
        return None, None

    o1 = orient(ax, ay, bx, by, cx, cy)
    o2 = orient(ax, ay, bx, by, dx, dy)
    o3 = orient(cx, cy, dx, dy, ax, ay)
    o4 = orient(cx, cy, dx, dy, bx, by)

    if o1 == 0 and o2 == 0:
        return _collinear_contact(ax, ay, bx, by, cx, cy, dx, dy)

    if o1 * o2 < 0 and o3 * o4 < 0:
        return PROPER, intersection_point(ax, ay, bx, by, cx, cy, dx, dy)

    # Touching configurations: some endpoint lies on the other segment.
    if o1 == 0 and _collinear_point_in_box(cx, cy, ax, ay, bx, by):
        return ENDPOINT_TOUCH, (cx, cy)
    if o2 == 0 and _collinear_point_in_box(dx, dy, ax, ay, bx, by):
        return ENDPOINT_TOUCH, (dx, dy)
    if o3 == 0 and _collinear_point_in_box(ax, ay, cx, cy, dx, dy):
        return ENDPOINT_TOUCH, (ax, ay)
    if o4 == 0 and _collinear_point_in_box(bx, by, cx, cy, dx, dy):
        return ENDPOINT_TOUCH, (bx, by)
    return None, None


def _collinear_contact(ax, ay, bx, by, cx, cy, dx, dy):
    # Project on the dominant axis; exact because inputs are compared only.
    if abs(bx - ax) >= abs(by - ay):
        a0, a1 = sorted((ax, bx))
        c0, c1 = sorted((cx, dx))
        horizontal = True
    else:
        a0, a1 = sorted((ay, by))
        c0, c1 = sorted((cy, dy))
        horizontal = False
    lo = max(a0, c0)
    hi = min(a1, c1)
    if lo > hi:
        return None, None
    if lo == hi:
        # Single shared point; recover the full coordinate pair.
        for px, py in ((ax, ay), (bx, by), (cx, cy), (dx, dy)):
            if (px if horizontal else py) == lo:
                return ENDPOINT_TOUCH, (px, py)
        return ENDPOINT_TOUCH, (lo, lo)  # unreachable
    mid = 0.5 * (lo + hi)
    if horizontal:
        # Interpolate y on segment ab at x = mid.
        t = (mid - ax) / (bx - ax)
        return COLLINEAR_OVERLAP, (mid, ay + t * (by - ay))
    t = (mid - ay) / (by - ay)
    return COLLINEAR_OVERLAP, (ax + t * (bx - ax), mid)


def intersection_point(ax, ay, bx, by, cx, cy, dx, dy):
    """Interior intersection point of properly crossing segments ab, cd,
    elementwise on arrays; DegeneracyError where floats cannot represent it
    (the denominator is 0 or not finite, or the point is not finite)."""
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = rx * sy - ry * sx
    if (np.isfinite(denom) & (denom != 0.0)).all():
        t = ((cx - ax) * sy - (cy - ay) * sx) / denom
        x, y = ax + t * rx, ay + t * ry
        if np.isfinite(x).all() and np.isfinite(y).all():
            return x, y
    raise DegeneracyError("a proper crossing point is not representable in floats")


def circle_pair_points(q1x, q1y, r1, q2x, q2y, r2):
    """Intersection points of the circle pairs given as equal-length arrays.

    Returns (row, x, y): the points in row order, ``row`` naming the pair of
    each; a crossing pair gives two points, the one left of the line from
    center 1 to center 2 first, and a tangent pair one.  Tangency is
    detected by exact float comparison of squared distances, which is
    reliable for the lattice-derived systems this package builds.  Every
    point is computed by the scalar expressions in their scalar order
    (``np.sqrt`` rounds as ``math.sqrt`` does), so a pair's points do not
    depend on the other rows.  Identical circles raise ValueError, with the
    first such row as its second argument.
    """
    q1x, q1y, r1, q2x, q2y, r2 = (
        np.asarray(a, dtype=np.float64) for a in (q1x, q1y, r1, q2x, q2y, r2)
    )
    dx = q2x - q1x
    dy = q2y - q1y
    d2 = dx * dx + dy * dy
    rsum = r1 + r2
    rdiff = r1 - r2
    same = np.flatnonzero((d2 == 0.0) & (r1 == r2))
    if len(same):
        raise ValueError("identical circles", int(same[0]))
    hit = np.flatnonzero(~((d2 > rsum * rsum) | (d2 < rdiff * rdiff)))
    q1x, q1y, r1, r2, dx, dy, d2, rsum, rdiff = (
        a[hit] for a in (q1x, q1y, r1, r2, dx, dy, d2, rsum, rdiff)
    )
    with np.errstate(all="ignore"):
        d = np.sqrt(d2)
        a = (d2 + r1 * r1 - r2 * r2) / (2.0 * d)
        bx = q1x + a * dx / d
        by = q1y + a * dy / d
        h2 = r1 * r1 - a * a
        two = ~((d2 == rsum * rsum) | (d2 == rdiff * rdiff) | (h2 <= 0.0))
        h = np.sqrt(h2[two])
        ox = -dy[two] * h / d[two]
        oy = dx[two] * h / d[two]
    count = 1 + two
    first = np.cumsum(count) - count
    row = np.repeat(hit, count)
    x, y = np.repeat(bx, count), np.repeat(by, count)
    lead, trail = first[two], first[two] + 1
    x[lead], y[lead] = bx[two] + ox, by[two] + oy
    x[trail], y[trail] = bx[two] - ox, by[two] - oy
    return row, x, y


def circumcircles(pts):
    """Circles through the three points of each row of ``pts`` (k, 3, 2).

    Rows whose points are (numerically) collinear, or whose circle is not
    finite, are dropped.  Returns (ux, uy, r, rows): the circles of the kept
    rows and their row indices, in row order.  The radius is ``math.hypot``
    per row: ``np.hypot`` rounds a few of them differently.
    """
    (ax, ay), (bx, by), (cx, cy) = pts.transpose(1, 2, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        scale = np.maximum(np.abs(pts).max(axis=(1, 2)), 1.0)
        keep = ~(np.abs(d) < 1e-12 * scale * scale)
        ax, ay, bx, by, cx, cy, d = (a[keep] for a in (ax, ay, bx, by, cx, cy, d))
        a2 = ax * ax + ay * ay
        b2 = bx * bx + by * by
        c2 = cx * cx + cy * cy
        ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
        uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
        dx, dy = (ax - ux).tolist(), (ay - uy).tolist()
    r = np.array([math.hypot(x, y) for x, y in zip(dx, dy)], dtype=np.float64)
    finite = np.isfinite(ux) & np.isfinite(uy) & np.isfinite(r)
    return ux[finite], uy[finite], r[finite], np.flatnonzero(keep)[finite]
