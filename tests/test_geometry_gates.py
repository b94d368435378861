"""The box gates of `geometry` against ungated copies of the walks they skip.

`_ring_location` runs the EPS boundary test only for edges whose grown box
holds the point, `_sample_points` classifies only segment pairs whose
closed boxes meet, and `sf_crosses` calls a sample outside the area's
grown box exterior without walking the rings. The copies below test every
edge and every pair; gated and ungated must give the same answer for every
probe, at coordinates near 0, 1e6 and 1e8 (where one ulp exceeds EPS and
the rounding of the distance test reaches past an edge's box).
"""

from __future__ import annotations

import collections
import math
import random

from evkg import geometry
from evkg.geometry import (
    BOUNDARY,
    EPS,
    EXTERIOR,
    INTERIOR,
    SEG_OVERLAP,
    GeometryValidationError,
    LineString,
    MultiLineString,
    MultiPolygon,
    Point,
    Polygon,
    _between,
    _on_segment,
    _orient,
    _param_on_segment,
    _sample_points,
    _segment_relation,
    _segments,
    _vertices,
    bbox,
    bbox_disjoint,
    locate_point,
    sf_crosses,
)


def ungated_ring_location(p: Point, ring) -> str:
    """`_ring_location` with the EPS test on every edge."""
    inside = False
    for a, b in zip(ring, ring[1:]):
        if _on_segment(p, a, b):
            return BOUNDARY
        if (a.y > p.y) != (b.y > p.y) and _orient(a, b, p) == (1 if b.y > a.y else -1):
            inside = not inside
    return INTERIOR if inside else EXTERIOR


def ungated_sample_points(geom, other):
    """`_sample_points` classifying every pair of segments."""
    yield from _vertices(geom)
    other_segments = list(_segments(other))
    for a, b in _segments(geom):
        cuts = [0.0, 1.0]
        for qa, qb in other_segments:
            kind, pt = _segment_relation(a, b, qa, qb)
            if pt is not None:
                cuts.append(_param_on_segment(a, b, pt))
            elif kind == SEG_OVERLAP:
                for q in (qa, qb):
                    if _between(a, b, q) and _orient(a, b, q) == 0:
                        cuts.append(_param_on_segment(a, b, q))
        cuts = sorted(set(cuts))
        for t0, t1 in zip(cuts, cuts[1:]):
            tm = (t0 + t1) / 2.0
            yield Point(a.x + (b.x - a.x) * tm, a.y + (b.y - a.y) * tm)


def ungated_sf_crosses(line, area) -> bool:
    """`sf_crosses` locating every sample, after a box check with EPS."""
    if bbox_disjoint(bbox(line), bbox(area)):
        return False
    inside = outside = False
    for p in ungated_sample_points(line, area):
        loc = geometry.locate_point(p, area)
        inside = inside or loc == INTERIOR
        outside = outside or loc == EXTERIOR
        if inside and outside:
            return True
    return False


# (origin, unit): vertices lie at origin + unit·v for v on a jittered half grid
_SCALES = [(0.0, 1.0), (1e6, 1.0), (1e8, 1.0), (-1e8, 1e7)]
_EPS_OFFSETS = [0.0, EPS / 2, -EPS / 2, EPS, -EPS, 2 * EPS, -2 * EPS, 3 * EPS, -3 * EPS]
_ULP_STEPS = [0.25, -0.25, 0.5, -0.5, 1, -1, 2, -2, 4, -4, 16, -16, 64, -64, 256, -256]


def _ring(rng: random.Random, origin: float, unit: float, jitter: bool):
    """3 to 6 vertices on a half grid, each moved off it by up to a tenth
    when `jitter`, so that differences of coordinates round."""
    def coordinate() -> float:
        v = rng.randrange(12) / 2 + (rng.uniform(-0.1, 0.1) if jitter else 0.0)
        return origin + unit * v
    pts = [Point(coordinate(), coordinate()) for _ in range(rng.randrange(3, 7))]
    return tuple(pts + [pts[0]])


def _long_ring(rng: random.Random, magnitude: float):
    """A quadrilateral whose nearly horizontal edges run from about -magnitude
    to +magnitude, or to a corner near 0, so that b - a rounds and the
    nearest point of an edge can land past its end."""
    near_zero = rng.random() < 0.5
    y0 = rng.uniform(-1e-3, 1e-3) if near_zero else rng.uniform(-magnitude, magnitude)
    y1 = y0 + rng.uniform(0.5, 2.0) * magnitude
    left = -rng.uniform(0.5, 1.0) * magnitude
    right = rng.uniform(0.0, 1e-3) if near_zero else rng.uniform(0.5, 1.0) * magnitude
    tilt = rng.choice([0.0, math.ulp(magnitude), rng.uniform(-1, 1)])
    pts = [Point(left, y0), Point(right, y0 + tilt), Point(right, y1), Point(left, y1 - tilt)]
    return tuple(pts + [pts[0]])


def _areas(rng: random.Random, origin: float, unit: float):
    """Valid polygons (some with a hole) and multipolygons at one scale."""
    areas = []
    while len(areas) < 16:
        kind = rng.random()
        try:
            if kind < 0.3:
                areas.append(Polygon(_long_ring(rng, max(abs(origin), 1e3))))
                continue
            ring = _ring(rng, origin, unit, rng.random() < 0.6)
            poly = Polygon(ring)
            if kind < 0.45:
                # the ring scaled into a 20 x 20 square, as a hole
                big = tuple(Point(origin + unit * x, origin + unit * y)
                            for x, y in [(-1, -1), (19, -1), (19, 19), (-1, 19), (-1, -1)])
                hole = tuple(Point(3 * v.x - 2 * origin + unit, 3 * v.y - 2 * origin + unit) for v in ring)
                poly = Polygon(big, (hole,))
            elif kind < 0.6:
                shifted = tuple(Point(v.x + 20 * unit, v.y) for v in ring)
                poly = MultiPolygon((poly, Polygon(shifted)))
            areas.append(poly)
        except GeometryValidationError:
            pass
    return areas


def _rings_of(area):
    return geometry._SHAPE_OF[type(area)].paths(area)


def _probes(rng: random.Random, area) -> list[Point]:
    """Vertices and points on edges, each also moved along and across its
    edge by the EPS offsets and by a quarter to 256 ulps of the edge's largest
    coordinate."""
    points = []
    for ring in _rings_of(area):
        for a, b in zip(ring, ring[1:]):
            dx, dy = b.x - a.x, b.y - a.y
            length = math.hypot(dx, dy)
            ulp = math.ulp(max(abs(a.x), abs(a.y), abs(b.x), abs(b.y)))
            t = rng.random()
            for q in (a, b, Point(a.x + t * dx, a.y + t * dy), Point(a.x + dx / 2, a.y + dy / 2)):
                points.append(q)
                if not length:
                    continue
                ux, uy = dx / length, dy / length
                for off in _EPS_OFFSETS + [k * ulp for k in rng.sample(_ULP_STEPS, 6)]:
                    points.append(Point(q.x + off * ux, q.y + off * uy))  # along
                    points.append(Point(q.x - off * uy, q.y + off * ux))  # across
            for k in rng.sample(_ULP_STEPS, 3):  # one coordinate stepped by ulps
                points.append(Point(a.x + k * math.ulp(a.x), a.y))
                points.append(Point(a.x, a.y + k * math.ulp(a.y)))
    return points


def _lines(rng: random.Random, area, probes: list[Point]) -> list:
    """Lines through vertices, along edges (on past either end, or moved
    across by an offset), between probe points, and to the middle of the
    area's box from points just past the end of an edge."""
    x0, y0, x1, y1 = bbox(area)
    middle = Point((x0 + x1) / 2, (y0 + y1) / 2)
    lines = []
    for ring in _rings_of(area):
        for a, b in zip(ring, ring[1:]):
            if a == b:
                continue
            dx, dy = b.x - a.x, b.y - a.y
            length = math.hypot(dx, dy)
            ulp = math.ulp(max(abs(a.x), abs(a.y), abs(b.x), abs(b.y)))
            for k in rng.sample(_ULP_STEPS, 4):
                step = abs(k) * ulp / length
                past = Point(b.x + step * dx, b.y + step * dy)
                if past != middle:
                    lines.append(LineString((past, middle)))
            t0, t1 = rng.choice([-0.5, 0.0, 0.25]), rng.choice([0.75, 1.0, 1.5])
            off = rng.choice(_EPS_OFFSETS) * rng.choice([1.0, 1e3])
            along = [Point(a.x + t * dx - off * dy / length, a.y + t * dy + off * dx / length)
                     for t in (t0, t1)]
            if along[0] != along[1]:
                lines.append(LineString(tuple(along)))
            through = rng.choice(probes)
            if through != a:
                lines.append(LineString((through, a, b) if through != b else (through, a)))
    for _ in range(6):
        pts = rng.sample(probes, rng.randint(2, 3))
        if all(p != q for p, q in zip(pts, pts[1:])):
            lines.append(LineString(tuple(pts)))
    lines.append(MultiLineString(tuple(line for line in lines[-2:] if isinstance(line, LineString))))
    return lines


def _past_every_edge_box(p: Point, area) -> bool:
    """Does p lie more than 3·EPS outside the box of every edge of the area?"""
    return all(
        max(min(a.x, b.x) - p.x, p.x - max(a.x, b.x), min(a.y, b.y) - p.y, p.y - max(a.y, b.y)) > 3 * EPS
        for ring in _rings_of(area) for a, b in zip(ring, ring[1:])
    )


def _answers(monkeypatch, cases) -> list[tuple[list[str], list[bool]]]:
    """The gated `locate_point` of each probe and `sf_crosses` of each line,
    for (area, probes, lines) cases, once the ungated walks gave the same."""
    gated = [([locate_point(p, area) for p in probes], [sf_crosses(line, area) for line in lines])
             for area, probes, lines in cases]
    for area, _, lines in cases:
        for line in lines:
            assert list(_sample_points(line, area)) == list(ungated_sample_points(line, area))
    with monkeypatch.context() as patched:
        patched.setattr(geometry, "_ring_location", ungated_ring_location)
        for (area, probes, lines), (where, crosses) in zip(cases, gated):
            assert where == [locate_point(p, area) for p in probes], area
            assert crosses == [ungated_sf_crosses(line, area) for line in lines], area
    return gated


def test_gated_location_and_crosses_match_the_ungated_walks(monkeypatch):
    rng = random.Random(3305)
    cases, scales = [], []
    for origin, unit in _SCALES:
        for area in _areas(rng, origin, unit):
            probes = _probes(rng, area)
            cases.append((area, probes, _lines(rng, area, probes)))
            scales.append(f"{origin:g}")
    seen = collections.Counter()
    for scale, (area, probes, _), (where, crosses) in zip(scales, cases, _answers(monkeypatch, cases)):
        seen.update(f"{scale} {loc}" for loc in where)
        seen.update(f"{scale} crosses {c}" for c in crosses)
        # on the boundary only through the rounding term of the gate's reach
        seen["snap past every edge box"] += sum(
            loc == BOUNDARY and _past_every_edge_box(p, area) for p, loc in zip(probes, where)
        )
    assert len(seen) == 4 * 5 + 1 and min(seen.values()) > 5, seen


def test_gates_keep_snaps_past_the_end_of_a_long_edge(monkeypatch):
    """A bottom edge from about -1e8 to a corner b near 0 rounds b - a by up
    to an ulp of 1e8 (1.5e-8), so a point a quarter or half ulp past b can
    snap to it though it lies more than 3·EPS outside every edge's box. A
    line of a piece that stays at such a point and a piece inside the area
    does not cross it. Seeded search for such points; the gates must keep
    every answer."""
    rng = random.Random(1994)
    cases = []
    for _ in range(40_000):
        a = Point(-rng.uniform(0.3, 1.0) * 1e8, rng.uniform(-1e-3, 1e-3))
        b = Point(rng.uniform(0.0, 1e-3), a.y + rng.choice([0.0, rng.uniform(-1e-9, 1e-9)]))
        area = Polygon((a, b, Point(b.x, 5e7), Point(a.x, 5e7), a))
        step = rng.choice([0.25, 0.5, 1.0]) * math.ulp(1e8) / math.hypot(b.x - a.x, b.y - a.y)
        p = Point(b.x + step * (b.x - a.x), b.y + step * (b.y - a.y))
        if _past_every_edge_box(p, area) and _on_segment(p, a, b):
            inner = LineString((Point(a.x / 2, 1e7), Point(a.x / 2, 2e7)))
            cases.append((area, [p], [MultiLineString((LineString((p, p)), inner))]))
            if len(cases) == 12:
                break
    assert len(cases) == 12
    assert _answers(monkeypatch, cases) == [([BOUNDARY], [False])] * 12
