"""Exact check oracles for the crossing search and the disk pair index.

``all_pairs_crossings`` classifies every edge pair with exact rational
arithmetic, and ``all_pairs_disk_pairs`` tests every disk pair; neither
reuses the package's candidate generation or classification.  The
benchmark imports this module for its correctness checks, so it holds
only these two; every other reference the tests use is in ``reference.py``.
"""

from fractions import Fraction

import numpy as np


def _sign(x):
    return (x > 0) - (x < 0)


def orient_frac(ax, ay, bx, by, cx, cy):
    det = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) - (
        Fraction(by) - Fraction(ay)
    ) * (Fraction(cx) - Fraction(ax))
    return _sign(det)


def classify_pair_exact(p1, p2, p3, p4, share_vertex):
    """Contact kind of closed segments p1p2 / p3p4 under exact arithmetic.

    Returns (kind, point) like the production classifier; pairs that share a
    graph vertex only ever count as collinear overlaps.
    """
    (ax, ay), (bx, by) = p1, p2
    (cx, cy), (dx, dy) = p3, p4
    o1 = orient_frac(ax, ay, bx, by, cx, cy)
    o2 = orient_frac(ax, ay, bx, by, dx, dy)
    o3 = orient_frac(cx, cy, dx, dy, ax, ay)
    o4 = orient_frac(cx, cy, dx, dy, bx, by)

    if o1 == 0 and o2 == 0:
        horizontal = abs(Fraction(bx) - Fraction(ax)) >= abs(Fraction(by) - Fraction(ay))
        if horizontal:
            a0, a1 = sorted((Fraction(ax), Fraction(bx)))
            c0, c1 = sorted((Fraction(cx), Fraction(dx)))
        else:
            a0, a1 = sorted((Fraction(ay), Fraction(by)))
            c0, c1 = sorted((Fraction(cy), Fraction(dy)))
        lo, hi = max(a0, c0), min(a1, c1)
        if lo > hi:
            return None, None
        if lo == hi:
            if share_vertex:
                return None, None
            for px, py in (p1, p2, p3, p4):
                if Fraction(px if horizontal else py) == lo:
                    return "endpoint-touch", (px, py)
        return "collinear-overlap", None

    if share_vertex:
        return None, None

    if o1 * o2 < 0 and o3 * o4 < 0:
        rx, ry = Fraction(bx) - Fraction(ax), Fraction(by) - Fraction(ay)
        sx, sy = Fraction(dx) - Fraction(cx), Fraction(dy) - Fraction(cy)
        denom = rx * sy - ry * sx
        t = ((Fraction(cx) - Fraction(ax)) * sy - (Fraction(cy) - Fraction(ay)) * sx) / denom
        return "proper", (float(Fraction(ax) + t * rx), float(Fraction(ay) + t * ry))

    def between(px, py, qx, qy, rx_, ry_):
        return (
            min(qx, rx_) <= px <= max(qx, rx_)
            and min(qy, ry_) <= py <= max(qy, ry_)
        )

    if o1 == 0 and between(cx, cy, ax, ay, bx, by):
        return "endpoint-touch", (cx, cy)
    if o2 == 0 and between(dx, dy, ax, ay, bx, by):
        return "endpoint-touch", (dx, dy)
    if o3 == 0 and between(ax, ay, cx, cy, dx, dy):
        return "endpoint-touch", (ax, ay)
    if o4 == 0 and between(bx, by, cx, cy, dx, dy):
        return "endpoint-touch", (bx, by)
    return None, None


def all_pairs_crossings(g):
    """Exact O(m^2) contact enumeration: {(e1, e2): (kind, point)}."""
    m = g.m
    x1, y1, x2, y2 = g.segment_arrays()
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            if (
                max(x1[i], x2[i]) < min(x1[j], x2[j])
                or max(x1[j], x2[j]) < min(x1[i], x2[i])
                or max(y1[i], y2[i]) < min(y1[j], y2[j])
                or max(y1[j], y2[j]) < min(y1[i], y2[i])
            ):
                continue
            share = len(
                {int(g.edge_u[i]), int(g.edge_v[i])}
                & {int(g.edge_u[j]), int(g.edge_v[j])}
            ) > 0
            kind, point = classify_pair_exact(
                (float(x1[i]), float(y1[i])),
                (float(x2[i]), float(y2[i])),
                (float(x1[j]), float(y1[j])),
                (float(x2[j]), float(y2[j])),
                share,
            )
            if kind is not None:
                out[(i, j)] = (kind, point)
    return out


def all_pairs_disk_pairs(g_or_system):
    """O(n^2) closed-disk intersection pairs: hypot(ci - cj) <= ri + rj."""
    centers = g_or_system.centers
    radii = g_or_system.radii
    n = len(radii)
    pairs = set()
    for i in range(n):
        d = np.hypot(centers[:, 0] - centers[i, 0], centers[:, 1] - centers[i, 1])
        for j in np.flatnonzero(d <= radii[i] + radii):
            if j > i:
                pairs.add((i, int(j)))
    return pairs
