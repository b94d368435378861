from __future__ import annotations

import collections
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evkg import geometry
from evkg.geometry import (
    BOUNDARY,
    EPS,
    EXTERIOR,
    INTERIOR,
    SEG_NONE,
    SEG_OVERLAP,
    SEG_PROPER,
    SEG_TOUCH,
    GeometryValidationError,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    WktParseError,
    _edge_fault,
    _on_segment,
    _orient,
    _ring_location,
    _sample_points,
    _segment_relation,
    bbox,
    bbox_disjoint,
    locate_point,
    parse_wkt,
    sf_crosses,
    write_wkt,
)
from evkg.terms import SF
from evkg.vocabulary import registry

SQUARE = Polygon((Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4), Point(0, 0)))


def to_wkt(geom) -> str:
    return write_wkt(geom)[0]


# --- independent ray-casting oracle (classic float even-odd test) ----------


def oracle_point_in_polygon(x: float, y: float, ring) -> bool:
    inside = False
    j = len(ring) - 2
    for i in range(len(ring) - 1):
        xi, yi = ring[i].x, ring[i].y
        xj, yj = ring[j].x, ring[j].y
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def oracle_dist_to_ring(x: float, y: float, ring) -> float:
    best = math.inf
    for a, b in zip(ring, ring[1:]):
        dx, dy = b.x - a.x, b.y - a.y
        seg2 = dx * dx + dy * dy
        t = 0.0 if seg2 == 0 else max(0.0, min(1.0, ((x - a.x) * dx + (y - a.y) * dy) / seg2))
        best = min(best, math.hypot(x - (a.x + t * dx), y - (a.y + t * dy)))
    return best


def random_convex_polygon(rng: random.Random, n: int = 8) -> Polygon:
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    radius = rng.uniform(1.0, 5.0)
    cx, cy = rng.uniform(-3, 3), rng.uniform(-3, 3)
    pts = [Point(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles]
    return Polygon(tuple(pts + [pts[0]]))


# --- WKT -----------------------------------------------------------------


def test_parse_point():
    assert parse_wkt("POINT (0 0)") == Point(0, 0)


def test_parse_polygon_round_trip():
    text = "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"
    assert to_wkt(parse_wkt(text)) == text


_TRIANGLE = (Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 0))
_ONE_OF_EACH_KIND = {
    Point: Point(1, 2),
    MultiPoint: MultiPoint((Point(0, 0), Point(1, 1))),
    LineString: LineString((Point(0, 0), Point(1, 1))),
    MultiLineString: MultiLineString((LineString(_TRIANGLE[:2]), LineString(_TRIANGLE[1:3]))),
    Polygon: SQUARE,
    MultiPolygon: MultiPolygon((
        Polygon(_TRIANGLE),
        Polygon(tuple(Point(p.x + 2, p.y) for p in _TRIANGLE)),
    )),
}


@pytest.mark.parametrize("kind", list(geometry._SHAPE_OF), ids=lambda kind: kind.__name__)
def test_each_geometry_kind_round_trips_and_names_its_sf_class(kind):
    """The reader finds a kind by the keyword the writer spells from its type
    name, and ingest types a geometry node by the `sf:` class of that name."""
    geom = _ONE_OF_EACH_KIND[kind]
    text, survives = write_wkt(geom)
    assert survives and text.startswith(kind.__name__.upper() + " (")
    assert parse_wkt(text) == geom
    assert registry().is_class(getattr(SF, kind.__name__))


def test_keywords_case_insensitive():
    assert parse_wkt("point(1 2)") == Point(1, 2)
    assert isinstance(parse_wkt("multipolygon(((0 0, 1 0, 1 1, 0 0)))"), MultiPolygon)


def test_short_ring_rejected():
    with pytest.raises(WktParseError):
        parse_wkt("POLYGON ((0 0, 1 1))")


def test_unclosed_ring_rejected():
    with pytest.raises(WktParseError):
        parse_wkt("POLYGON ((0 0, 4 0, 4 4, 0 4))")


def test_self_intersecting_outer_ring_rejected():
    with pytest.raises(GeometryValidationError):
        Polygon((Point(0, 0), Point(4, 4), Point(4, 0), Point(0, 4), Point(0, 0)))


def test_malformed_wkt_reports_position():
    with pytest.raises(WktParseError) as exc:
        parse_wkt("POINT (0, 0)")
    assert exc.value.position > 0


def test_wkt_coordinate_formatting():
    assert to_wkt(Point(-74.123456789123, 40.0)) == "POINT (-74.123456789 40)"


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_wkt_round_trip_points(x, y):
    p = Point(float(x) + 0.5, float(y) + 0.25)
    assert parse_wkt(to_wkt(p)) == p


def _rectangle(x0: float, y0: float, x1: float, y1: float) -> tuple[Point, ...]:
    return (Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1), Point(x0, y0))


# Coordinates on the 9-decimal grid, which survive the writer, and any finite float.
_coordinate = st.one_of(
    st.integers(-10**12, 10**12).map(lambda n: n / 1e9),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _polygons(draw, members: int = 1) -> tuple[Polygon, ...]:
    """Rectangles side by side, so that no two meet, each perhaps with a
    rectangular hole strictly inside it."""
    xs = sorted(draw(st.lists(_coordinate, min_size=4 * members, max_size=4 * members,
                              unique=True)))
    polygons = []
    for x0, x1, x2, x3 in zip(*[iter(xs)] * 4):
        ys = sorted(draw(st.lists(_coordinate, min_size=4, max_size=4, unique=True)))
        holes = (_rectangle(x1, ys[1], x2, ys[2]),) if draw(st.booleans()) else ()
        polygons.append(Polygon(_rectangle(x0, ys[0], x3, ys[3]), holes))
    return tuple(polygons)


_points = st.builds(Point, _coordinate, _coordinate)
_lines = st.lists(_points, min_size=2, max_size=4).map(lambda pts: LineString(tuple(pts)))
_geometries = st.one_of(
    _points,
    _lines,
    _polygons().map(lambda ps: ps[0]),
    st.lists(_points, min_size=1, max_size=3).map(lambda pts: MultiPoint(tuple(pts))),
    st.lists(_lines, min_size=1, max_size=3).map(lambda ls: MultiLineString(tuple(ls))),
    st.integers(1, 2).flatmap(_polygons).map(MultiPolygon),
)


@settings(max_examples=300, deadline=None)
@given(_geometries)
def test_wkt_parses_back_to_an_equal_geometry_exactly_when_it_survives(geom):
    text, survives = write_wkt(geom)
    try:
        back = parse_wkt(text)
    except WktParseError:  # rounding made a ring invalid
        back = None
    assert survives == (back == geom)


# One row per message the reader raises, with its offset: the start of the
# offending token, except after an unknown keyword (its end) and for a
# validation error (just past the ')' that closes the checked part).
@pytest.mark.parametrize("text, message, position", [
    ("1 2", "expected a geometry keyword", 0),
    ("  (1 2)", "expected a geometry keyword", 2),
    ("POINTZ (1 2 3)", "unknown geometry keyword 'POINTZ'", 6),
    ("POINT EMPTY", "expected '('", 6),
    ("POINT (1 2, 3 4)", "expected ')'", 10),
    ("LINESTRING (0 0, 1 1 2)", "expected ')'", 21),
    ("POINT (1)", "expected a number", 8),
    ("LINESTRING ((0 0, 1 1))", "expected a number", 12),
    ("MULTIPOINT ((1 2), x)", "expected a number", 19),
    ("POINT (1 2) x", "trailing content after geometry", 12),
    ("LINESTRING (0 0)", "LineString needs at least 2 points", 16),
    ("MULTILINESTRING ((0 0, 1 1), (2 2), (3 3, 4 4))", "LineString needs at least 2 points", 47),
    ("POLYGON ((0 0, 1 1))", "ring needs at least 4 points (closed)", 20),
    ("POLYGON ((0 0, 4 0, 4 4, 0 4))", "ring is not closed (first point != last)", 30),
    ("POLYGON ((0 0, 4 4, 4 0, 0 4, 0 0))", "outer ring is self-intersecting", 35),
    ("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((0 0, 4 4, 4 0, 0 4, 0 0)), ((5 5, 6 5, 6 6, 5 5)))",
     "outer ring is self-intersecting", 65),
    ("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 3, 3 1, 1 3, 1 1))", "hole is self-intersecting", 62),
    ("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 5 1, 5 2, 1 2, 1 1))", "hole crosses the outer ring", 62),
    ("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (5 5, 6 5, 6 6, 5 5))", "hole reaches outside the outer ring", 57),
    # No hole edge crosses the outer ring and no vertex lies outside it, but
    # the hole's edge x = 6 spans the mouth of the C, outside the polygon.
    ("POLYGON ((0 0, 6 0, 6 2, 2 2, 2 4, 6 4, 6 6, 0 6, 0 0), (1 1, 6 2, 6 4, 1 5, 1 1))",
     "hole reaches outside the outer ring", 82),
    # Holes that overlap, nest (in either order) or repeat one another.
    ("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 6 2, 6 6, 2 6, 2 2), (4 4, 8 4, 8 8, 4 8, 4 4))",
     "hole crosses another hole", 93),
    ("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 8 2, 8 8, 2 8, 2 2), (3 3, 4 3, 4 4, 3 4, 3 3))",
     "hole lies inside another hole", 93),
    ("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (3 3, 4 3, 4 4, 3 4, 3 3), (2 2, 8 2, 8 8, 2 8, 2 2))",
     "hole lies inside another hole", 93),
    ("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2), (4 2, 4 4, 2 4, 2 2, 3 2, 4 2))",
     "hole shares an edge with another hole", 98),
    # Rings may touch only at points, not along a stretch of edge.
    ("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2), (4 2, 6 2, 6 4, 4 4, 4 2))",
     "hole shares an edge with another hole", 93),
    ("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (0 0, 2 0, 2 2, 0 2, 0 0))",
     "hole shares an edge with the outer ring", 62),
    # The members of a multipolygon may touch only at points: none nests in,
    # crosses, repeats or shares an edge with another.
    ("MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4, 0 0)), ((1 1, 3 1, 3 3, 1 3, 1 1)))",
     "polygons of a multipolygon overlap", 71),
    ("MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4, 0 0)), ((2 0, 6 0, 6 4, 2 4, 2 0)))",
     "polygons of a multipolygon overlap", 71),
    ("MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4, 0 0)), ((0 0, 4 0, 4 4, 0 4, 0 0)))",
     "polygons of a multipolygon overlap", 71),
    ("MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4, 0 0)), ((4 0, 8 0, 8 4, 4 4, 4 0)))",
     "polygons of a multipolygon overlap", 71),
])
def test_wkt_error_messages_and_positions_pinned(text, message, position):
    with pytest.raises(WktParseError) as exc:
        parse_wkt(text)
    assert (str(exc.value), exc.value.position) == (f"at offset {position}: {message}", position)


@pytest.mark.parametrize("text", [
    "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
    "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (2 0, 3 1, 1 1, 2 0))",  # a vertex on an outer edge
    "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 1), (2 2, 3 2, 3 3, 2 2))",
    "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2), (4 4, 6 4, 6 6, 4 6, 4 4))",
])
def test_holes_inside_or_touching_the_outer_boundary_are_accepted(text):
    assert parse_wkt(text).holes


@pytest.mark.parametrize("text", [
    "MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4, 0 0)), ((4 4, 8 4, 8 8, 4 8, 4 4)))",  # at a corner
    # an island inside the other member's hole
    "MULTIPOLYGON (((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 8 2, 8 8, 2 8, 2 2)),"
    " ((3 3, 7 3, 7 7, 3 7, 3 3)))",
])
def test_multipolygon_members_touching_at_points_are_accepted(text):
    assert len(parse_wkt(text).polygons) == 2


# Members that overlap though their edges only touch and neither repeats the
# other: a vertex, or a point between two boundary contacts, of one lies
# inside the other.
@pytest.mark.parametrize("first, second", [
    # a diamond whose corners all lie on the square's edges: only the
    # midpoints of its edges lie inside the square
    ("((2 0, 4 2, 2 4, 0 2, 2 0))", "((0 0, 4 0, 4 4, 0 4, 0 0))"),
    # an edge of the first leaves through a notch between two boundary contacts
    ("((1 1, 9 1, 9 2, 6 10, 4 10, 1 2, 1 1))",
     "((0 0, 10 0, 10 10, 6 10, 5 5, 4 10, 0 10, 0 0))"),
    # the first covers the second's hole
    ("((1 1, 2 1, 3 1, 9 1, 9 9, 1 9, 1 1))",
     "((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))"),
    # an edge runs from a shared vertex to a vertex on the second's edge
    ("((2.5 1, 2 1.5, 1.5 1.5, 2 -1, 2.5 1))",
     "((3 1.5, 3 2, 0.5 1.5, 1 0, 2 -1, 2 0.5, 3 1.5))"),
])
def test_multipolygon_members_overlapping_with_touching_edges_are_rejected(first, second):
    for a, b in ((first, second), (second, first)):
        with pytest.raises(WktParseError, match="polygons of a multipolygon overlap"):
            parse_wkt(f"MULTIPOLYGON ({a}, {b})")


# A number is ASCII, ends at a blank, ',', ')' or the end, and is finite.
@pytest.mark.parametrize("text, message, position", [
    ("POINT (1.2.3)", "expected a number", 7),
    ("POINT (\u0663 1)", "expected a number", 7),
    ("POINT (1e999 1)", "number out of range: '1e999'", 7),
    ("POINT (-1e999 1)", "number out of range: '-1e999'", 7),
    ("POINT (1e5e5 1)", "expected a number", 7),
    ("POINT (12a 1)", "expected a number", 7),
    # Was an OverflowError from ring validation.
    ("POLYGON ((0 0, 1e999 0, 1 1, 0 0))", "number out of range: '1e999'", 15),
])
def test_wkt_number_must_be_ascii_separated_and_finite(text, message, position):
    with pytest.raises(WktParseError) as exc:
        parse_wkt(text)
    assert (str(exc.value), exc.value.position) == (f"at offset {position}: {message}", position)


def test_long_glued_number_fails_in_linear_time():
    # A pattern that could split the digits between integer and fraction in
    # many ways would take about 25 s here; the one-way split takes a few ms.
    start = time.perf_counter()
    with pytest.raises(WktParseError) as exc:
        parse_wkt("POINT (" + "1" * 20_000 + "a 1)")
    assert exc.value.position == 7
    assert time.perf_counter() - start < 1.0


_WKT_FUZZ_PIECES = [
    "POINT", "LINESTRING", "POLYGON", "MULTIPOINT", "MULTILINESTRING", "MULTIPOLYGON", "point", "EMPTY",
    "(", ")", ",", " ", "\t", "\n", "\xa0", "0", "1", "-1.5", ".5", "5.", "1e3", "1e999", "1.2.3", "\u0663",
    "+", "-", ".", "e", "x",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_WKT_FUZZ_PIECES), st.characters()), max_size=40))
def test_parse_wkt_raises_only_wkt_parse_errors(pieces):
    try:
        parse_wkt("".join(pieces))
    except WktParseError:
        pass


# --- exact predicates against Fraction references --------------------------


def fraction_orient(a: Point, b: Point, c: Point) -> int:
    ax, ay = Fraction(a.x), Fraction(a.y)
    det = (Fraction(b.x) - ax) * (Fraction(c.y) - ay) - (Fraction(b.y) - ay) * (Fraction(c.x) - ax)
    return (det > 0) - (det < 0)


def all_pairs_self_intersects(ring) -> bool:
    n = len(ring) - 1
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            kind, _ = _segment_relation(ring[i], ring[i + 1], ring[j], ring[j + 1])
            if kind == SEG_OVERLAP or (kind != SEG_NONE and not adjacent):
                return True
    return False


def fraction_point_in_ring(p: Point, ring) -> bool:
    """Even-odd parity with the crossing's x computed in rationals."""
    inside = False
    px, py = Fraction(p.x), Fraction(p.y)
    for a, b in zip(ring, ring[1:]):
        ay, by = Fraction(a.y), Fraction(b.y)
        if (ay > py) != (by > py):
            ax, bx = Fraction(a.x), Fraction(b.x)
            if ax + (py - ay) * (bx - ax) / (by - ay) > px:
                inside = not inside
    return inside


def nudge(v: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


def orient_case(rng: random.Random, scale: float) -> tuple[Point, Point, Point]:
    """Three points at `scale`, mostly collinear or nearly so."""
    kind = rng.randrange(5)
    if kind == 0:  # on the line through a and b, rounded, then a few ulps off
        a = Point(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
        b = Point(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
        t = rng.uniform(-2, 3)
        c = Point(nudge(a.x + t * (b.x - a.x), rng.randint(-2, 2)),
                  nudge(a.y + t * (b.y - a.y), rng.randint(-2, 2)))
        return a, b, c
    if kind == 1:  # snapped to 9 decimals, as stored literals are
        def snap(v: float) -> float:
            return round(v / scale, 9) * scale
        a = Point(snap(rng.uniform(-1, 1) * scale), snap(rng.uniform(-1, 1) * scale))
        b = Point(snap(rng.uniform(-1, 1) * scale), snap(rng.uniform(-1, 1) * scale))
        t = rng.uniform(-1, 2)
        return a, b, Point(snap(a.x + t * (b.x - a.x)), snap(a.y + t * (b.y - a.y)))
    if kind == 2:  # shared and axis-aligned coordinates
        values = [rng.choice((0.0, 1.0, -1.0, 0.5, 0.1, 0.3)) * scale for _ in range(3)]
        return tuple(Point(rng.choice(values), rng.choice(values)) for _ in range(3))
    if kind == 3:  # a collinear triple of inexact decimals, one point nudged
        a, b = Point(0.1 * scale, 0.2 * scale), Point(0.3 * scale, 0.6 * scale)
        c = Point(nudge(0.2 * scale, rng.randint(-3, 3)), nudge(0.4 * scale, rng.randint(-3, 3)))
        return a, b, c
    base = Point(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)  # ulps apart
    return tuple(Point(nudge(base.x, rng.randint(-4, 4)), nudge(base.y, rng.randint(-4, 4)))
                 for _ in range(3))


def test_orient_agrees_with_fraction_determinant():
    # 1e-170 and 1e160 put the float products below the normal range and
    # past the largest float, where only the rational answer may decide.
    rng = random.Random(1997)
    scales = (1.0, 180.0, 1e-170, 1.0, 180.0, 1e160)
    for i in range(100_000):
        a, b, c = orient_case(rng, scales[i % len(scales)])
        assert _orient(a, b, c) == fraction_orient(a, b, c), (a, b, c)


def fraction_crossing_point(p1: Point, p2: Point, q1: Point, q2: Point) -> Point:
    x1, y1, x2, y2 = map(Fraction, (p1.x, p1.y, p2.x, p2.y))
    x3, y3, x4, y4 = map(Fraction, (q1.x, q1.y, q2.x, q2.y))
    denom = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / denom
    return Point(float(x1 + t * (x2 - x1)), float(y1 + t * (y2 - y1)))


@st.composite
def _crossings(draw) -> tuple[Point, Point, Point, Point]:
    """Two segments through a common centre, at 2**scale, with the centre up
    to 2**60 times farther out: from subnormal to near the largest float."""
    scale = draw(st.integers(-1070, 960))
    offset = draw(st.integers(0, 60))

    def size(exponent: int, low: float) -> float:
        return math.ldexp(draw(st.floats(low, 1.0)), exponent)

    cx, cy = (size(scale + offset, -1.0) for _ in range(2))
    a, b, c, d = (size(scale, 0.125) for _ in range(4))
    return Point(cx - a, cy - b), Point(cx + a, cy + b), Point(cx - c, cy + d), Point(cx + c, cy - d)


@settings(max_examples=500, deadline=None)
@given(_crossings())
def test_crossing_point_equals_the_rational_one_bit_for_bit(segments):
    kind, point = _segment_relation(*segments)
    assume(kind == SEG_PROPER)
    expected = fraction_crossing_point(*segments)
    assert [(v, math.copysign(1.0, v)) for v in (point.x, point.y)] == [
        (v, math.copysign(1.0, v)) for v in (expected.x, expected.y)
    ]


def random_grid_ring(rng: random.Random) -> tuple[Point, ...]:
    """3 to 8 vertices on a half-unit grid: many shared, collinear and touching edges."""
    pts = [Point(rng.randrange(12) / 2, rng.randrange(12) / 2) for _ in range(rng.randrange(3, 9))]
    return tuple(pts + [pts[0]])


def test_ring_sweep_and_point_in_ring_agree_with_references():
    rng = random.Random(1976)
    simple = 0
    for _ in range(5_000):
        ring = random_grid_ring(rng)
        expected = all_pairs_self_intersects(ring)
        simple += not expected
        assert (_edge_fault((ring,)) is not None) == expected, ring
        for _ in range(4):
            # Quarter-grid points: some off the ring, some on its boundary,
            # where the two crossing formulas agree as well.
            p = Point(rng.randrange(-1, 25) / 4, rng.randrange(-1, 25) / 4)
            inside = fraction_point_in_ring(p, ring)
            assert two_pass_point_in_ring(p, ring) == inside, (p, ring)
            where = _ring_location(p, ring)
            assert where in (BOUNDARY, INTERIOR if inside else EXTERIOR), (p, ring)
    assert 1_000 < simple < 4_000  # both answers are well represented


# --- one-pass ring location against the two-pass formulation ---------------


def two_pass_point_in_ring(p: Point, ring) -> bool:
    """Even-odd parity with the half-open rule on y and one exact orientation
    sign per crossing; assumes p is not on the ring boundary."""
    inside = False
    for a, b in zip(ring, ring[1:]):
        if (a.y > p.y) != (b.y > p.y) and _orient(a, b, p) == (1 if b.y > a.y else -1):
            inside = not inside
    return inside


def two_pass_ring_location(p: Point, ring) -> str:
    """The reference: every edge tested for the EPS boundary first, then parity."""
    if any(_on_segment(p, a, b) for a, b in zip(ring, ring[1:])):
        return BOUNDARY
    return INTERIOR if two_pass_point_in_ring(p, ring) else EXTERIOR


def ring_probe_points(rng: random.Random, ring) -> list[Point]:
    """Vertices, points on edges (horizontal ones included), points off an
    edge by half and by one and a half EPS, points on the horizontal ray
    through each vertex, and quarter-grid points around the ring."""
    points = []
    for a, b in zip(ring, ring[1:]):
        dx, dy = b.x - a.x, b.y - a.y
        length = math.hypot(dx, dy)
        t = rng.random()
        on_edge = Point(a.x + t * dx, a.y + t * dy)
        points += [a, on_edge, Point(a.x - rng.choice((0.5, 1.25, 3)), a.y), Point(a.x + 0.75, a.y)]
        if length:
            for off in (0.5 * EPS, -0.5 * EPS, 1.5 * EPS, -1.5 * EPS):
                points.append(Point(on_edge.x - off * dy / length, on_edge.y + off * dx / length))
        points.append(Point(a.x + rng.choice((0.5, 1.5)) * EPS, a.y))
    points += [Point(rng.randrange(-4, 28) / 4, rng.randrange(-4, 28) / 4) for _ in range(8)]
    return points


def test_one_pass_ring_location_matches_two_pass_reference(monkeypatch):
    """Seeded grid rings, polygons with holes and multipolygons: the one-pass
    `_ring_location` and `locate_point` built on it give what the two-pass
    formulation gives, for every probe point."""
    rng = random.Random(4417)
    seen = collections.Counter()
    polygons = []
    for _ in range(1_000):
        ring = random_grid_ring(rng)
        for p in ring_probe_points(rng, ring):
            where = _ring_location(p, ring)
            assert where == two_pass_ring_location(p, ring), (p, ring)
            seen[where] += 1
            seen["on a horizontal edge"] += where == BOUNDARY and any(
                a.y == b.y == p.y for a, b in zip(ring, ring[1:])
            )
        if _edge_fault((ring,)) is None:
            # Scaled into a 20 x 20 square, the simple ring is a hole.
            hole = tuple(Point(1 + 3 * v.x, 1 + 3 * v.y) for v in ring)
            polygons.append(Polygon(_rectangle(0, 0, 20, 20), (hole,)))
    multipolygons = [
        MultiPolygon((a, Polygon(tuple(Point(v.x + 20, v.y) for v in b.holes[0]))))
        for a, b in zip(polygons[::2], polygons[1::2])
    ]
    probes = [
        (geom, p)
        for geom in polygons[:200] + multipolygons[:200]
        for ring in geometry._SHAPE_OF[type(geom)].paths(geom)
        for p in ring_probe_points(rng, ring)
    ]
    one_pass = [locate_point(p, geom) for geom, p in probes]
    monkeypatch.setattr(geometry, "_ring_location", two_pass_ring_location)
    assert [locate_point(p, geom) for geom, p in probes] == one_pass
    for (geom, p), where in zip(probes, one_pass):
        seen[f"{type(geom).__name__} {where}"] += 1
        seen["in a hole"] += isinstance(geom, Polygon) and where == EXTERIOR and (
            two_pass_ring_location(p, geom.outer) == INTERIOR
        )
    assert min(seen.values()) > 100 and len(seen) == 11, seen


def all_pairs_edge_faults(rings) -> tuple[set[str], bool]:
    """The message of every forbidden edge contact, from all edge pairs within
    each ring and across each pair of rings, and whether two rings touch."""
    faults, touch = set(), False
    for r, ring in enumerate(rings):
        if all_pairs_self_intersects(ring):
            faults.add("hole is self-intersecting" if r else "outer ring is self-intersecting")
    for (q, ring), (_, other) in itertools.combinations(enumerate(rings), 2):
        target = "another hole" if q else "the outer ring"
        for (a, b), (c, d) in itertools.product(zip(ring, ring[1:]), zip(other, other[1:])):
            kind, _ = _segment_relation(a, b, c, d)
            if kind == SEG_PROPER:
                faults.add(f"hole crosses {target}")
            elif kind == SEG_OVERLAP:
                faults.add(f"hole shares an edge with {target}")
            touch = touch or kind == SEG_TOUCH
    return faults, touch


def random_small_ring(rng: random.Random) -> tuple[Point, ...]:
    """3 or 4 vertices on a half-unit grid, in one unit square inside [0, 5] x [0, 5]."""
    x, y = rng.randrange(5), rng.randrange(5)
    pts = [Point(x + rng.randrange(3) / 2, y + rng.randrange(3) / 2) for _ in range(rng.randrange(3, 5))]
    return tuple(pts + [pts[0]])


def test_polygon_sweep_agrees_with_all_edge_pairs_within_and_across_rings():
    """Seeded polygons with one to three holes: the sweep finds a fault
    exactly when some pair of edges has one, and reports one of them; a
    polygon with none is refused only for where a hole lies."""
    rng = random.Random(2024)
    seen = collections.Counter()
    for _ in range(2_000):
        outer = _rectangle(0, 0, 6, 6) if rng.random() < 0.5 else random_grid_ring(rng)
        rings = (outer, *(random_small_ring(rng) for _ in range(rng.randrange(1, 4))))
        faults, touch = all_pairs_edge_faults(rings)
        fault = _edge_fault(rings)
        assert (fault is None) == (not faults) and (fault is None or fault in faults), rings
        seen[fault] += 1
        try:
            Polygon(rings[0], rings[1:])
        except GeometryValidationError as exc:
            assert str(exc) == fault or fault is None and "hole" in str(exc), rings
        else:
            assert fault is None, rings
            seen["accepted, rings touch"] += touch
    same_ring = seen["outer ring is self-intersecting"] + seen["hole is self-intersecting"]
    crossing = seen["hole crosses the outer ring"] + seen["hole crosses another hole"]
    shared = seen["hole shares an edge with the outer ring"] + seen["hole shares an edge with another hole"]
    assert min(same_ring, crossing, shared, seen["accepted, rings touch"]) > 20, seen


def edge_fault_testing_every_pair(rings) -> str | None:
    """Reference: the sweep of `_edge_fault` with every pair of edges whose
    boxes meet classified by `_segment_relation`, adjacent ones included."""
    edges = sorted(
        (min(a.x, b.x), max(a.x, b.x), min(a.y, b.y), max(a.y, b.y), r, i, a, b)
        for r, ring in enumerate(rings)
        for i, (a, b) in enumerate(zip(ring, ring[1:]))
    )
    active: list[tuple] = []
    for x0, x1, y0, y1, r, j, a, b in edges:
        active = [edge for edge in active if edge[0] >= x0]
        for _, other_y0, other_y1, q, i, c, d in active:
            if other_y0 <= y1 and y0 <= other_y1:
                kind, _ = _segment_relation(c, d, a, b)
                if q != r and kind in (SEG_PROPER, SEG_OVERLAP):
                    verb = "crosses" if kind == SEG_PROPER else "shares an edge with"
                    return f"hole {verb} {'another hole' if q and r else 'the outer ring'}"
                adjacent = abs(i - j) in (1, len(rings[r]) - 2)
                if q == r and (kind == SEG_OVERLAP or kind != SEG_NONE and not adjacent):
                    return "hole is self-intersecting" if r else "outer ring is self-intersecting"
        active.append((x1, y0, y1, r, j, a, b))
    return None


def random_spiky_ring(rng: random.Random, x: float = 0, y: float = 0) -> tuple[Point, ...]:
    """A triangle or a grid ring at (x, y), with up to two of: a collinear
    spike (out along a line and back), a vertex on the line of the next edge,
    short of it or past its end, and a repeated vertex (a zero-length edge).
    The ring starts at a random vertex, so the closing vertex takes its turn."""
    pts = [Point(x + rng.randrange(9) / 2, y + rng.randrange(9) / 2)
           for _ in range(3 if rng.random() < 0.3 else rng.randrange(4, 8))]
    for _ in range(rng.randrange(3)):
        i = rng.randrange(len(pts))
        v, w = pts[i], pts[(i + 1) % len(pts)]
        kind = rng.randrange(3)
        if kind == 0:
            dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (-1, 2)])
            k = rng.choice([-1, 1]) * rng.randrange(1, 3) / 2
            pts[i + 1:i + 1] = [Point(v.x + k * dx, v.y + k * dy), v]
        elif kind == 1:
            t = rng.choice([0.5, 2.0, -1.0])
            pts.insert(i + 1, Point(v.x + t * (w.x - v.x), v.y + t * (w.y - v.y)))
        else:
            pts.insert(i + 1, v)
    start = rng.randrange(len(pts))
    pts = pts[start:] + pts[:start]
    return tuple(pts + [pts[0]])


def test_adjacent_edge_shortcut_matches_testing_every_pair():
    """Seeded rings with collinear spikes, zero-length edges and triangles,
    alone or with holes: `_edge_fault` reports the fault the sweep testing
    every pair reports, and finds one exactly when some pair of edges has one."""
    rng = random.Random(3203)
    seen = collections.Counter()
    for _ in range(3_000):
        rings = [random_spiky_ring(rng)]
        if rng.random() < 0.4:
            rings[0] = _rectangle(-1, -1, 6, 6)
            rings += [random_spiky_ring(rng, *rng.choice([(0, 0), (1, 1)]))
                      for _ in range(rng.randrange(1, 3))]
        rings = tuple(rings)
        fault = _edge_fault(rings)
        assert fault == edge_fault_testing_every_pair(rings), rings
        assert (fault is None) == (not all_pairs_edge_faults(rings)[0]), rings
        seen[fault] += 1
        # A zero-length edge always leaves two edges that meet and are not adjacent.
        seen["zero-length edge"] += any(a == b for ring in rings for a, b in zip(ring, ring[1:]))
        seen["accepted with a straight vertex"] += fault is None and any(
            _orient(u, v, w) == 0 for ring in rings for u, v, w in zip(ring[-2:] + ring[1:], ring, ring[1:])
        )
    assert min(seen[None], seen["outer ring is self-intersecting"], seen["hole is self-intersecting"],
               seen["zero-length edge"], seen["accepted with a straight vertex"]) > 50, seen


_FAST_WKT_SEEDS = [
    "MULTIPOINT ((1 2), (3 4))", "MULTIPOINT (1 2, (3 4))", "MULTIPOINT ((1 2), 3 4)", "LINESTRING (1 2)",
    "MULTIPOINT (1 2, 3 4)", "POINT (1 2)", "LINESTRING (0 0,1 1)", "LINESTRING(0 0 , 1 1 )",
    "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))", "POLYGON ((0 0, 1e999 0, 1 1, 0 0))",
    "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
    "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((2 2, 3 2, 3 3, 2 2)))",
]
# What a mutation puts in place of a number, or beside it.
_NUMBER_MUTATIONS = ["1.2.3", "1e999", "-1e999", "1E-999", "\u0663", "1\u0663", "12a", "1e5e5", ".5", "5.",
                     "+1", "-.5e+3", "1 2", "", "(1 2)", "00012"]
_BLANKS = [" ", "  ", "\t", "\n", "\xa0", "\u2003", ""]
_WKT_PIECE = re.compile(r"[A-Za-z]+|[^\s(),A-Za-z]+|\s+|[(),]")


def _wkt_outcome(text: str):
    try:
        return parse_wkt(text)
    except WktParseError as exc:
        return str(exc), exc.position


def _mutated_wkt(rng: random.Random, text: str) -> str:
    """`text` with one or two of its pieces changed: a number replaced or
    doubled, a comma or parenthesis dropped, a blank changed or removed."""
    pieces = _WKT_PIECE.findall(text)
    for _ in range(rng.randrange(1, 3)):
        i = rng.randrange(len(pieces))
        piece = pieces[i]
        if not piece:  # dropped by the first change
            continue
        if piece[0] in "(),":
            pieces[i] = rng.choice(["", piece * 2, " "])
        elif piece.isspace():
            pieces[i] = rng.choice(_BLANKS)
        elif not piece[0].isalpha():
            pieces[i] = rng.choice([*_NUMBER_MUTATIONS, f"{piece} {piece}", f"{piece}{piece}"])
    return "".join(pieces)


def test_one_match_coordinate_lists_match_the_token_walk(monkeypatch):
    """Seeded valid texts, respaced, and one- or two-piece mutations of them:
    with and without the one-match path, each parses to an equal geometry
    or fails with the same message at the same offset."""
    rng = random.Random(6604)
    texts = list(_FAST_WKT_SEEDS)
    for _ in range(400):
        ring = random_spiky_ring(rng)
        geom = rng.choice([
            LineString(ring),
            MultiPoint(ring),
            Polygon(_rectangle(-1, -1, 6, 6), (ring,)),
            MultiLineString((LineString(ring), LineString(ring[::-1]))),
        ]) if _edge_fault((ring,)) is None else LineString(ring)
        text = to_wkt(geom)
        blank = rng.choice(_BLANKS[:-1])
        texts += [text, text.replace(" ", blank).replace(",", rng.choice([",", " ,", "," + blank]))]
    texts += [_mutated_wkt(rng, text) for text in texts for _ in range(3)]
    fast = [_wkt_outcome(text) for text in texts]
    monkeypatch.setattr(geometry, "_WKT_COORDINATES", re.compile(r"(?!)"))  # never matches
    walked = [_wkt_outcome(text) for text in texts]
    for text, got, expected in zip(texts, fast, walked):
        assert got == expected, text
    messages = collections.Counter(outcome[0].split(": ", 1)[1] for outcome in fast
                                   if isinstance(outcome, tuple))
    assert 1_000 < sum(messages.values()) < len(texts) - 1_000
    assert min(messages[m] for m in ("expected a number", "expected ')'", "number out of range: '1e999'",
                                     "ring is not closed (first point != last)")) > 5, messages
    assert messages["LineString needs at least 2 points"], messages


def test_simple_2000_vertex_ring_parses_quickly():
    # Comparing all pairs of its edges takes minutes; the sweep a fraction of a second.
    n = 2_000
    coords = ", ".join(
        f"{10 * math.cos(2 * math.pi * i / n):.9f} {10 * math.sin(2 * math.pi * i / n):.9f}"
        for i in range(n)
    )
    text = f"POLYGON (({coords}, 10 0))"
    start = time.perf_counter()
    assert len(parse_wkt(text).outer) == n + 1
    assert time.perf_counter() - start < 2.0


# --- point location ---------------------------------------------------------


def test_point_within_square():
    assert locate_point(Point(2, 2), SQUARE) == INTERIOR


def test_within_agrees_with_ray_casting_oracle():
    rng = random.Random(20240229)
    for _ in range(50):
        poly = random_convex_polygon(rng)
        x0, y0, x1, y1 = bbox(poly)
        for _ in range(20):
            x = rng.uniform(x0 - 1, x1 + 1)
            y = rng.uniform(y0 - 1, y1 + 1)
            if oracle_dist_to_ring(x, y, poly.outer) <= 1e-9:
                continue  # too close to an edge for the oracle to be meaningful
            expected = INTERIOR if oracle_point_in_polygon(x, y, poly.outer) else EXTERIOR
            assert locate_point(Point(x, y), poly) == expected


def test_point_in_hole_is_not_within():
    holed = Polygon(
        (Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10), Point(0, 0)),
        ((Point(4, 4), Point(6, 4), Point(6, 6), Point(4, 6), Point(4, 4)),),
    )
    assert locate_point(Point(5, 5), holed) == EXTERIOR
    assert locate_point(Point(2, 2), holed) == INTERIOR
    assert locate_point(Point(4, 5), holed) == BOUNDARY


def test_point_in_an_island_inside_a_members_hole():
    islanded = parse_wkt("MULTIPOLYGON (((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 8 2, 8 8, 2 8, 2 2)),"
                         " ((3 3, 7 3, 7 7, 3 7, 3 3)))")
    assert locate_point(Point(1, 5), islanded) == INTERIOR  # the holed member
    assert locate_point(Point(2.5, 5), islanded) == EXTERIOR  # in the hole, off the island
    assert locate_point(Point(5, 5), islanded) == INTERIOR  # the island
    assert locate_point(Point(3, 5), islanded) == BOUNDARY
    assert locate_point(Point(2, 5), islanded) == BOUNDARY


def test_multipolygon_location_is_its_members_best():
    """A point is interior to a multipolygon when it is interior to a member,
    else on its boundary when on a member's boundary: a member far away
    changes nothing, and where two members touch a point stays on the
    boundary."""
    rng = random.Random(5)
    far = Polygon(_rectangle(100, 100, 101, 101))
    for _ in range(300):
        poly = random_convex_polygon(rng)
        x0, y0, x1, y1 = bbox(poly)
        p = Point(rng.uniform(x0 - 1, x1 + 1), rng.uniform(y0 - 1, y1 + 1))
        assert locate_point(p, MultiPolygon((poly,))) == locate_point(p, poly)
        assert locate_point(p, MultiPolygon((poly, far))) == locate_point(p, poly)
    corners = MultiPolygon((Polygon(_rectangle(0, 0, 4, 4)), Polygon(_rectangle(4, 4, 8, 8))))
    assert locate_point(Point(4, 4), corners) == BOUNDARY
    assert locate_point(Point(6, 2), corners) == EXTERIOR


def random_grid_polygon(rng: random.Random, cx: float, cy: float, radius: float):
    """A star-shaped polygon on a half-unit grid, half of them with a hole; None if invalid."""

    def star(r: float) -> tuple[Point, ...]:
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(rng.randrange(3, 8)))
        pts = []
        for t in angles:
            d = r * rng.uniform(0.3, 1.0)
            x, y = cx + d * math.cos(t), cy + d * math.sin(t)
            pts.append(Point(round(2 * x) / 2, round(2 * y) / 2))
        pts = [p for i, p in enumerate(pts) if p != pts[i - 1]]
        return tuple(pts + pts[:1])

    rings = [star(radius)] + ([star(radius / 3)] if rng.random() < 1 / 2 else [])
    try:
        return Polygon(rings[0], tuple(rings[1:]))
    except GeometryValidationError:
        return None


def fraction_interior(p: Point, poly: Polygon) -> bool:
    """Is p strictly inside poly, decided in rationals?"""
    rings = (poly.outer, *poly.holes)
    for ring in rings:
        for a, b in zip(ring, ring[1:]):
            if fraction_orient(a, b, p) == 0 and min(a.x, b.x) <= p.x <= max(a.x, b.x) \
                    and min(a.y, b.y) <= p.y <= max(a.y, b.y):
                return False
    return fraction_point_in_ring(p, poly.outer) and not any(
        fraction_point_in_ring(p, hole) for hole in poly.holes
    )


def test_multipolygon_refuses_every_pair_of_members_that_overlap():
    """Seeded pairs of grid polygons make a multipolygon exactly when no edges
    of the two cross or run along each other and no point of an eighth-unit
    grid lies strictly inside both."""
    rng = random.Random(4)
    seen = collections.Counter()
    for _ in range(2_000):
        b = random_grid_polygon(rng, 5, 5, rng.uniform(3, 5))
        a = random_grid_polygon(rng, rng.uniform(2, 11), rng.uniform(2, 11), rng.uniform(1, 3))
        if a is None or b is None:
            continue
        edges_meet = any(
            _segment_relation(p, q, r, s)[0] in (SEG_PROPER, SEG_OVERLAP)
            for ring in (a.outer, *a.holes) for p, q in zip(ring, ring[1:])
            for other in (b.outer, *b.holes) for r, s in zip(other, other[1:])
        )
        ax0, ay0, ax1, ay1 = bbox(a)
        bx0, by0, bx1, by1 = bbox(b)
        grid = (
            Point(i / 8, j / 8)
            for i in range(math.ceil(8 * max(ax0, bx0)), math.floor(8 * min(ax1, bx1)) + 1)
            for j in range(math.ceil(8 * max(ay0, by0)), math.floor(8 * min(ay1, by1)) + 1)
        )
        overlap = edges_meet or any(fraction_interior(p, a) and fraction_interior(p, b) for p in grid)
        try:
            MultiPolygon((a, b))
        except GeometryValidationError:
            assert overlap, (to_wkt(a), to_wkt(b))
            seen["refused"] += 1
        else:
            assert not overlap, (to_wkt(a), to_wkt(b))
            seen["accepted, apart" if bbox_disjoint(bbox(a), bbox(b)) else "accepted, boxes meet"] += 1
    assert min(seen.values()) > 100 and len(seen) == 3, seen


# --- crosses ---------------------------------------------------------------


def test_segment_through_square_crosses():
    assert sf_crosses(LineString((Point(-1, 2), Point(5, 2))), SQUARE) is True


def test_inner_segment_is_within_not_crosses():
    inner = LineString((Point(1, 1), Point(2, 2)))
    assert sf_crosses(inner, SQUARE) is False


def test_line_ending_inside_crosses():
    assert sf_crosses(LineString((Point(-1, 2), Point(2, 2))), SQUARE) is True


def test_disjoint_line_does_not_cross():
    assert sf_crosses(LineString((Point(10, 10), Point(12, 12))), SQUARE) is False


# A line crosses an area when part of it is interior and part exterior; its
# boundary points take no side.
@pytest.mark.parametrize("line, area, expected", [
    ("LINESTRING (0 0, 4 0, 4 4)", "SQUARE", False),  # along the boundary only
    ("LINESTRING (0 2, 2 2)", "SQUARE", False),  # from the boundary inwards
    ("LINESTRING (4 2, 6 2)", "SQUARE", False),  # from the boundary outwards
    ("LINESTRING (-1 0, 5 0)", "SQUARE", False),  # along an edge and past both ends
    ("LINESTRING (-1 -1, 5 5)", "SQUARE", True),  # through two corners
    ("LINESTRING (1.5 2, 2.5 2)", "_HOLED", False),  # inside the hole
    ("LINESTRING (0.5 2, 2 2)", "_HOLED", True),  # from the ring into the hole
    ("LINESTRING (1 1, 4 4, 5 4)", "_TWO_SQUARES", True),  # a member, then the gap between
    ("MULTILINESTRING ((0 1, 1 1), (3 4, 4 4))", "_TWO_SQUARES", False),  # parts in each member
    ("MULTILINESTRING ((-1 1, 0 1), (1 1, 1.5 1.5))", "_TWO_SQUARES", True),  # one part out, one in
])
def test_line_crosses_area_only_running_both_inside_and_outside(line, area, expected):
    assert sf_crosses(parse_wkt(line), globals()[area]) is expected


def _sampling_crosses_oracle(line, area, samples: int = 2048):
    """Classify dense sample points along each segment of a line or
    multiline as inside/outside a polygon or multipolygon by ray casting,
    holes included; a sample within 1e-9 of an edge is skipped. Shares no
    code with `sf_crosses`."""
    polygons = getattr(area, "polygons", (area,))
    rings = [ring for poly in polygons for ring in (poly.outer, *poly.holes)]
    xs = [p.x for poly in polygons for p in poly.outer]
    ys = [p.y for poly in polygons for p in poly.outer]
    x0, y0, x1, y1 = min(xs) - 1e-9, min(ys) - 1e-9, max(xs) + 1e-9, max(ys) + 1e-9
    saw_in = saw_out = False
    for part in getattr(line, "lines", (line,)):
        for a, b in zip(part.points, part.points[1:]):
            for i in range(samples + 1):
                t = i / samples
                x = a.x + (b.x - a.x) * t
                y = a.y + (b.y - a.y) * t
                if not (x0 < x < x1 and y0 < y < y1):
                    inside = False  # beyond every edge by more than 1e-9
                elif any(oracle_dist_to_ring(x, y, ring) <= 1e-9 for ring in rings):
                    continue
                else:
                    inside = any(
                        oracle_point_in_polygon(x, y, poly.outer)
                        and not any(oracle_point_in_polygon(x, y, hole) for hole in poly.holes)
                        for poly in polygons
                    )
                saw_in |= inside
                saw_out |= not inside
                if saw_in and saw_out:
                    return True
    return False


def test_crosses_agrees_with_sampling_oracle_on_random_segments():
    rng = random.Random(13)
    poly = SQUARE
    checked = 0
    for _ in range(200):
        seg = LineString(
            (
                Point(rng.uniform(-3, 7), rng.uniform(-3, 7)),
                Point(rng.uniform(-3, 7), rng.uniform(-3, 7)),
            )
        )
        # Skip segments that graze an edge closer than the snap tolerance:
        # the sampling oracle cannot classify those reliably.
        if any(oracle_dist_to_ring(p.x, p.y, poly.outer) <= 1e-6 for p in seg.points):
            continue
        checked += 1
        assert sf_crosses(seg, poly) == _sampling_crosses_oracle(seg, poly), to_wkt(seg)
    assert checked > 150


def _crosses_by_every_sample(line, poly) -> bool:
    """Line-vs-polygon crosses as first written: locate every sample point,
    then look for one inside and one outside."""
    if bbox_disjoint(bbox(line), bbox(poly)):
        return False
    locs = {locate_point(p, poly) for p in _sample_points(line, poly)}
    return INTERIOR in locs and EXTERIOR in locs


_L_SHAPE = Polygon(tuple(Point(x, y) for x, y in
                         [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4), (0, 0)]))
_HOLED = Polygon(SQUARE.outer, ((Point(1, 1), Point(1, 3), Point(3, 3), Point(3, 1), Point(1, 1)),))
_TWO_SQUARES = MultiPolygon((
    Polygon((Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2), Point(0, 0))),
    Polygon((Point(3, 3), Point(5, 3), Point(5, 5), Point(3, 5), Point(3, 3))),
))


def _random_line(rng: random.Random, poly) -> LineString:
    """A 2-4 point line on the integer grid around `poly`, or one that runs
    along one of its edges and may go on past either end."""
    if rng.random() < 0.3:
        parts = getattr(poly, "polygons", (poly,))
        rings = [ring for part in parts for ring in (part.outer, *part.holes)]
        ring = rng.choice(rings)
        i = rng.randrange(len(ring) - 1)
        a, b = ring[i], ring[i + 1]
        t0, t1 = rng.choice([-0.5, 0.0, 0.25]), rng.choice([0.75, 1.0, 1.5])
        along = [Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t) for t in (t0, t1)]
        return LineString(tuple(along) + ((Point(rng.randint(-1, 6), rng.randint(-1, 6)),)
                                          if rng.random() < 0.5 else ()))
    points = [Point(rng.randint(-1, 6), rng.randint(-1, 6))]
    while len(points) < rng.randint(2, 4):
        nxt = Point(rng.randint(-1, 6), rng.randint(-1, 6))
        if nxt != points[-1]:
            points.append(nxt)
    return LineString(tuple(points))


def test_crosses_stops_early_yet_agrees_with_every_sample():
    rng = random.Random(20)
    polygons = [SQUARE, _L_SHAPE, _HOLED, _TWO_SQUARES]
    outcomes = set()
    for _ in range(600):
        x0, y0 = rng.randint(-1, 3), rng.randint(-1, 3)
        x1, y1 = x0 + rng.randint(1, 4), y0 + rng.randint(1, 4)
        box = Polygon((Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1), Point(x0, y0)))
        poly = rng.choice(polygons + [box])
        line = _random_line(rng, poly)
        if rng.random() < 0.2:
            line = MultiLineString((line, _random_line(rng, poly)))
        expected = _crosses_by_every_sample(line, poly)
        assert sf_crosses(line, poly) is expected, (to_wkt(line), to_wkt(poly))
        outcomes.add(expected)
    assert outcomes == {True, False}


# --- bbox -------------------------------------------------------------------


def test_bbox_tight():
    assert bbox(SQUARE) == (0.0, 0.0, 4.0, 4.0)
    assert bbox(LineString((Point(-1, 5), Point(3, -2)))) == (-1.0, -2.0, 3.0, 5.0)


@given(
    st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 5), st.floats(0.1, 5),
    st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 5), st.floats(0.1, 5),
)
def test_bbox_disjoint_implies_not_intersects(ax, ay, aw, ah, bx, by, bw, bh):
    a = Polygon((Point(ax, ay), Point(ax + aw, ay), Point(ax + aw, ay + ah), Point(ax, ay + ah), Point(ax, ay)))
    b = Polygon((Point(bx, by), Point(bx + bw, by), Point(bx + bw, by + bh), Point(bx, by + bh), Point(bx, by)))
    if bbox_disjoint(bbox(a), bbox(b)):
        assert all(locate_point(p, b) == EXTERIOR for p in _sample_points(a, b))


def test_bbox_disjoint_only_beyond_eps():
    unit = bbox(SQUARE)
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        near = (unit[0] + 4 * dx + EPS / 2 * dx, unit[1] + 4 * dy + EPS / 2 * dy,
                unit[2] + 4 * dx + EPS / 2 * dx, unit[3] + 4 * dy + EPS / 2 * dy)
        apart = tuple(v + 2 * EPS * (dx if i % 2 == 0 else dy) for i, v in enumerate(near))
        assert not bbox_disjoint(unit, near) and not bbox_disjoint(near, unit)
        assert bbox_disjoint(unit, apart) and bbox_disjoint(apart, unit)


def test_locate_point_classes():
    assert locate_point(Point(2, 2), SQUARE) == INTERIOR
    assert locate_point(Point(0, 2), SQUARE) == BOUNDARY
    assert locate_point(Point(9, 9), SQUARE) == EXTERIOR
    assert locate_point(Point(0, 2 + EPS / 10), SQUARE) == BOUNDARY
