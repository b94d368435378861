"""WKT geometry and the two planar predicates spatial materialization runs.

`locate_point` places a point in, on or outside a polygon or multipolygon;
`sf_crosses` decides whether a line runs partly inside and partly outside
one.

Coordinates are treated as Cartesian (lon/lat on a plane). Every sign
decision is exact: an orientation sign, and the segment-crossing,
point-in-ring and ring-validity tests built on it, comes from float products
whenever Shewchuk's proven error bound separates it from zero, and from exact
integer arithmetic only when the bound cannot decide (nearly collinear
points, or products that underflow or overflow). The point where two
segments properly cross is solved exactly in integers and rounded once, to
the nearest float. Exact arithmetic scales the coordinates to integers over
their common power-of-two denominator (`_integers`), which every finite
float has. The only approximate step is snapping a point to a boundary when
it lies within EPS of an edge.

Boundary semantics follow DE-9IM interiors: a point exactly on a polygon
boundary is neither interior nor exterior to it.

Boxes skip exact work whose outcome they already settle, so every answer
is the one the full walk gives:
- `_sample_points` classifies two segments only when their closed boxes
  meet; segments whose boxes are apart have no contact.
- `_ring_location` runs the EPS test of an edge only when the point lies
  in the edge's box grown by `_reach`, which covers EPS and the rounding of
  `_dist2_point_segment` (see `_reach`); outside it the test cannot pass.
- `sf_crosses` takes the area's box once per call. A sample outside it,
  grown by `_reach`, is within EPS of no edge, and a ray from a point
  outside a ring's box crosses the ring an even number of times, so it is
  exterior without a walk of the rings.

`_SHAPE_OF` gives each geometry type's WKT nesting, point paths (each
point, line or ring) and reader builders; the reader finds a type by its
WKT keyword, the type's name in upper case, as the writer spells it.

The WKT reader walks the text one token at a time, except that each
innermost coordinate list is read by one `_WKT_COORDINATES` match and one
`findall` when it is spelled as the walk would take it and every number is
finite; any other list is left to the walk, which gives every message and
offset. Ring validation sweeps the edges once (`_edge_fault`); two
adjacent edges of a ring are settled by one orientation sign of the far
end of one against the other's line when it is not zero, and by the full
segment classification otherwise. The writer, `write_wkt`, gives the text
and whether it parses back to an equal geometry from one walk of the
coordinates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Union

# Snap tolerance for on-boundary classification, in coordinate units.
EPS = 1e-9

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


class WktParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"at offset {position}: {message}")
        self.position = position


class GeometryValidationError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float


Ring = tuple[Point, ...]


@dataclass(frozen=True, slots=True)
class LineString:
    points: tuple[Point, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise GeometryValidationError("LineString needs at least 2 points")


@dataclass(frozen=True, slots=True)
class Polygon:
    outer: Ring
    holes: tuple[Ring, ...] = ()

    def __post_init__(self):
        for ring in _rings(self):
            if len(ring) < 4:
                raise GeometryValidationError("ring needs at least 4 points (closed)")
            if ring[0] != ring[-1]:
                raise GeometryValidationError("ring is not closed (first point != last)")
        fault = _edge_fault(_rings(self))
        if fault:
            raise GeometryValidationError(fault)
        # The rings meet only at points, so a hole is placed right when no vertex
        # or piece of edge between contacts lies on the wrong side of the other
        # ring. A hole whose samples all lie on another's boundary repeats it.
        for i, hole in enumerate(self.holes):
            if EXTERIOR in _locations(hole, self.outer):
                raise GeometryValidationError("hole reaches outside the outer ring")
            for other in self.holes[:i]:
                where = set(_locations(hole, other))
                if INTERIOR in where or where == {BOUNDARY} or INTERIOR in _locations(other, hole):
                    raise GeometryValidationError("hole lies inside another hole")


@dataclass(frozen=True, slots=True)
class MultiPoint:
    points: tuple[Point, ...]


@dataclass(frozen=True, slots=True)
class MultiLineString:
    lines: tuple[LineString, ...]


@dataclass(frozen=True, slots=True)
class MultiPolygon:
    polygons: tuple[Polygon, ...]

    def __post_init__(self):
        # Members may touch only at points (OGC SF 1.2.1 §6.1.14). Each member's
        # rings passed, so a fault of the sweep over all rings is an edge of one
        # member crossing or running along another's; with none, two members
        # overlap exactly when a boundary sample of one is interior to the other.
        boxes = [bbox(poly) for poly in self.polygons]
        if _edge_fault(_SHAPE_OF[MultiPolygon].paths(self)) or any(
            not bbox_disjoint(boxes[i], boxes[j]) and (_reaches_into(a, b) or _reaches_into(b, a))
            for i, a in enumerate(self.polygons)
            for j, b in enumerate(self.polygons[:i])
        ):
            raise GeometryValidationError("polygons of a multipolygon overlap")


Geometry = Union[Point, LineString, Polygon, MultiPoint, MultiLineString, MultiPolygon]
Area = Union[Polygon, MultiPolygon]


class _Shape(NamedTuple):
    nested: Callable  # its points, nested in tuples as its WKT text nests them
    paths: Callable  # each point, line or ring, as a tuple of points
    # the reader's builder applied as each nesting level of its text closes,
    # innermost first; a point is one coordinate in parentheses (depth 0)
    builders: tuple


def _rings(poly: Polygon) -> tuple[Ring, ...]:
    return (poly.outer, *poly.holes)


def _polygon(rings: tuple[Ring, ...]) -> Polygon:
    return Polygon(rings[0], rings[1:])


# geometry type -> its structure; code that treats every type alike reads it here
_SHAPE_OF = {
    Point: _Shape(lambda g: (g,), lambda g: ((g,),), ()),
    MultiPoint: _Shape(lambda g: g.points, lambda g: [(p,) for p in g.points], (MultiPoint,)),
    LineString: _Shape(lambda g: g.points, lambda g: (g.points,), (LineString,)),
    MultiLineString: _Shape(lambda g: [line.points for line in g.lines],
                            lambda g: [line.points for line in g.lines],
                            (tuple, lambda lines: MultiLineString(tuple(map(LineString, lines))))),
    Polygon: _Shape(_rings, _rings, (tuple, _polygon)),
    MultiPolygon: _Shape(lambda g: [_rings(poly) for poly in g.polygons],
                         lambda g: [ring for poly in g.polygons for ring in _rings(poly)],
                         (tuple, _polygon, MultiPolygon)),
}


# ---------------------------------------------------------------------------
# WKT
# ---------------------------------------------------------------------------

# One token per match: an ASCII number that a blank, ',', ')' or the end of
# the text follows, a keyword, or one punctuation character. Digits split
# between integer and fraction in one way only, so a long glued run fails
# the lookahead in linear time.
_WKT_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_WKT_TOKEN = re.compile(rf"""\s*(?:
      (?P<number>{_WKT_NUMBER})(?=[\s,)]|\Z)
    | (?P<keyword>[A-Za-z]+)
    | (?P<punct>[(),])
    | (?P<end>\Z)
    | (?P<bad>.))""", re.VERBOSE | re.DOTALL)


# An innermost coordinate list spelled so that the token walk reads it as
# '(' number number (',' number number)* ')': each number is `_WKT_TOKEN`'s,
# and a blank, ',' or ')' follows it, so the two read the same numbers.
# `_WKT_NUMBER_RUN` then picks those numbers out of the matched span.
_WKT_COORDINATES = re.compile(
    rf"\(\s*{_WKT_NUMBER}\s+{_WKT_NUMBER}(?:\s*,\s*{_WKT_NUMBER}\s+{_WKT_NUMBER})*\s*\)"
)
_WKT_NUMBER_RUN = re.compile(r"[^\s,()]+")


# WKT keyword -> its type's builders; `write_wkt` names each type the same way
_KEYWORDS = {kind.__name__.upper(): shape.builders for kind, shape in _SHAPE_OF.items()}


class _WktReader:
    def __init__(self, text: str):
        self.text = text
        self.resume(0)

    def resume(self, position: int) -> None:
        """Read tokens from `position` on."""
        self.tokens = _WKT_TOKEN.finditer(self.text, position)
        self.advance()

    def advance(self) -> None:
        m = next(self.tokens)
        self.kind, self.value, self.at = m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)

    def expect(self, ch: str) -> None:
        if self.value != ch:
            raise WktParseError(f"expected {ch!r}", self.at)
        self.advance()

    def number(self) -> float:
        if self.kind != "number":
            raise WktParseError("expected a number", self.at)
        value = float(self.value)
        if not math.isfinite(value):
            raise WktParseError(f"number out of range: {self.value!r}", self.at)
        self.advance()
        return value

    def coordinates(self, builder: Callable):
        """`builder` applied to the points of an innermost list read by one
        match, with the tokens resumed after its ')'; None, having read
        nothing, unless `_WKT_COORDINATES` takes the list and every number
        is finite."""
        m = _WKT_COORDINATES.match(self.text, self.at)
        if m is None:
            return None
        values = list(map(float, _WKT_NUMBER_RUN.findall(self.text, self.at, m.end())))
        if not all(map(math.isfinite, values)):
            return None
        self.resume(m.end())
        return self.build(builder, tuple(map(Point, values[::2], values[1::2])), m.end())

    def read(self, builders: tuple):
        """One parenthesized level: a coordinate at depth 0, else a list of
        the level below. An innermost list is read by one match when it can be."""
        if len(builders) == 1:
            item = self.coordinates(builders[0])
            if item is not None:
                return item
        self.expect("(")
        if not builders:
            item = Point(self.number(), self.number())
            self.expect(")")
            return item
        items = []
        while True:
            if len(builders) > 1:
                items.append(self.read(builders[:-1]))
            elif builders == (MultiPoint,) and self.value == "(":
                items.append(self.read(()))  # a MULTIPOINT member may stand in parentheses
            else:
                items.append(Point(self.number(), self.number()))
            if self.value != ",":
                break
            self.advance()
        closed = self.at + 1
        self.expect(")")
        return self.build(builders[-1], tuple(items), closed)

    @staticmethod
    def build(builder: Callable, items: tuple, closed: int):
        """`builder(items)` for the level whose ')' ends at `closed`."""
        try:
            return builder(items)
        except GeometryValidationError as exc:
            raise WktParseError(str(exc), closed) from None


def parse_wkt(text: str) -> Geometry:
    reader = _WktReader(text)
    if reader.kind != "keyword":
        raise WktParseError("expected a geometry keyword", reader.at)
    keyword = reader.value.upper()
    builders = _KEYWORDS.get(keyword)
    if builders is None:
        raise WktParseError(f"unknown geometry keyword {keyword!r}", reader.at + len(keyword))
    reader.advance()
    geom = reader.read(builders)
    if reader.kind != "end":
        raise WktParseError("trailing content after geometry", reader.at)
    return geom


def _fmt(v: float, changed: list[float]) -> str:
    """v with up to 9 decimal places, trailing zeros trimmed, -0 as 0; v goes
    to `changed` when that text reads back as another float."""
    text = f"{v:.9f}"
    if float(text) != v:
        changed.append(v)
    text = text.rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def _text(item: Union[Point, tuple], changed: list[float]) -> str:
    if isinstance(item, Point):
        return f"{_fmt(item.x, changed)} {_fmt(item.y, changed)}"
    return "(" + ", ".join([_text(part, changed) for part in item]) + ")"


def write_wkt(geom: Geometry) -> tuple[str, bool]:
    """The WKT text of geom, and whether it parses back to an equal geometry:
    it does when every coordinate survives the 9 decimals, since the same
    coordinates in the same structure pass the same validation. Both come
    from one walk of the coordinates."""
    if type(geom) not in _SHAPE_OF:
        raise TypeError(f"not a geometry: {geom!r}")
    changed: list[float] = []
    text = _text(_SHAPE_OF[type(geom)].nested(geom), changed)
    return f"{type(geom).__name__.upper()} {text}", not changed


# ---------------------------------------------------------------------------
# Exact predicates on segments
# ---------------------------------------------------------------------------


# Shewchuk's orient2d error bound (DCG 1997) for eps = 2**-53: when
# |left - right| exceeds it times |left| + |right|, the float determinant has
# the sign of the exact one. The bound assumes no underflow, so a nonzero
# product below _TINY, where the bound itself would be a subnormal float, is
# decided exactly; a product that overflows makes the bound infinite or NaN,
# which no difference exceeds, so it is decided exactly as well.
_ORIENT_BOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_TINY = 2.0**-969


def _orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b-a) x (c-a), exact.

    The sign comes from the float products when they decide it: opposite
    signs, exact zeros (an exactly-zero factor, as on axis-aligned edges), or
    a difference beyond the rounding bound. Only the rest are decided in
    integers.
    """
    bx, cy, by, cx = b.x - a.x, c.y - a.y, b.y - a.y, c.x - a.x
    left, right = bx * cy, by * cx
    if left > 0.0 > right:
        return 1
    if left < 0.0 < right:
        return -1
    if (bx == 0.0 or cy == 0.0 or abs(left) >= _TINY) and (
        by == 0.0 or cx == 0.0 or abs(right) >= _TINY
    ):
        det = left - right
        bound = _ORIENT_BOUND * (abs(left) + abs(right))
        if det > bound:
            return 1
        if -det > bound:
            return -1
        if bound == 0.0:
            return 0
    (ax, ay, bx, by, cx, cy), _ = _integers(a.x, a.y, b.x, b.y, c.x, c.y)
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _integers(*values: float) -> tuple[list[int], int]:
    """The values as integers over their common denominator, and that
    denominator: a power of two, as every finite float's denominator is."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios], scale


def _crossing_point(p1: Point, p2: Point, q1: Point, q2: Point) -> Point:
    """Where lines p1p2 and q1q2 meet, each coordinate the float nearest the
    exact rational (p1 + t·(p2 - p1)); the lines must not be parallel.
    Dividing one int by another rounds correctly."""
    (x1, y1, x2, y2, x3, y3, x4, y4), scale = _integers(
        p1.x, p1.y, p2.x, p2.y, q1.x, q1.y, q2.x, q2.y
    )
    denom = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    t = (x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)  # over denom
    if denom < 0:
        denom, t = -denom, -t
    return Point(
        (x1 * denom + t * (x2 - x1)) / (denom * scale),
        (y1 * denom + t * (y2 - y1)) / (denom * scale),
    )


def _dist2_point_segment(p: Point, a: Point, b: Point) -> float:
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        ex, ey = p.x - ax, p.y - ay
        return ex * ex + ey * ey
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / seg2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    ex, ey = p.x - (ax + t * dx), p.y - (ay + t * dy)
    return ex * ex + ey * ey


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    return _dist2_point_segment(p, a, b) <= EPS * EPS


_ROUNDING = 2.0**-48  # per coordinate magnitude, in `_reach`


def _reach(x: float, y: float, extent: float) -> float:
    """How far a point (x, y) may lie outside a box whose width plus height
    is `extent` and still pass `_on_segment` for an edge in the box.

    The nearest point of edge ab to p is a + t·(b - a) with t clamped to
    [0, 1], so exactly it lies in the edge's box, and as
    `_dist2_point_segment` rounds it, within 6·2**-53·M of that box on each
    axis, M being the edge's largest coordinate magnitude on that axis. If
    p lies d outside the box on one axis, M <= |p| + d + extent there, so
    when d exceeds the reach, the float distance along that axis alone is
    over 2·EPS and its square over EPS². The factors 3 and 2**-48, against
    2 and 6·2**-53, also cover the rounding of the box test itself.
    """
    return 3.0 * EPS + _ROUNDING * (abs(x) + abs(y) + extent)


SEG_NONE = 0
SEG_PROPER = 1  # interiors cross at a single point
SEG_TOUCH = 2  # contact involving an endpoint or a collinear single point
SEG_OVERLAP = 3  # collinear with a shared sub-segment


def _between(a: Point, b: Point, c: Point) -> bool:
    """Is c on segment ab assuming the three points are collinear (exact)?"""
    return min(a.x, b.x) <= c.x <= max(a.x, b.x) and min(a.y, b.y) <= c.y <= max(a.y, b.y)


def _segment_relation(p1: Point, p2: Point, q1: Point, q2: Point) -> tuple[int, Optional[Point]]:
    """Classify how two segments meet; returns (kind, crossing point if proper)."""
    o1 = _orient(p1, p2, q1)
    o2 = _orient(p1, p2, q2)
    o3 = _orient(q1, q2, p1)
    o4 = _orient(q1, q2, p2)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return SEG_PROPER, _crossing_point(p1, p2, q1, q2)
    if o1 == o2 == o3 == o4 == 0:
        # Collinear: overlap if the projections share more than a point.
        touches = [c for c in (q1, q2) if _between(p1, p2, c)] + [
            c for c in (p1, p2) if _between(q1, q2, c)
        ]
        if not touches:
            return SEG_NONE, None
        xs = {(c.x, c.y) for c in touches}
        if len(xs) > 1:
            return SEG_OVERLAP, None
        only = touches[0]
        return SEG_TOUCH, only
    # Non-collinear with some zero orientation: endpoint contact.
    if o1 == 0 and _between(p1, p2, q1):
        return SEG_TOUCH, q1
    if o2 == 0 and _between(p1, p2, q2):
        return SEG_TOUCH, q2
    if o3 == 0 and _between(q1, q2, p1):
        return SEG_TOUCH, p1
    if o4 == 0 and _between(q1, q2, p2):
        return SEG_TOUCH, p2
    return SEG_NONE, None


def _edge_fault(rings: tuple[Ring, ...]) -> Optional[str]:
    """The first forbidden contact between edges of the rings, as a validation
    message, or None: edges of one ring may meet only where adjacent edges
    share a vertex, and edges of two rings only at a point. Edges are swept in
    order of their smallest x; each is compared only with the earlier edges
    whose x-extent reaches it and whose y-extent meets its own, touching
    extents included."""
    edges = sorted(
        (min(a.x, b.x), max(a.x, b.x), min(a.y, b.y), max(a.y, b.y), r, i, a, b)
        for r, ring in enumerate(rings)
        for i, (a, b) in enumerate(zip(ring, ring[1:]))
    )
    sides = [len(ring) - 1 for ring in rings]
    active: list[tuple] = []  # (max x, min y, max y, ring, index, ends) of earlier edges
    for x0, x1, y0, y1, r, j, a, b in edges:
        active = [edge for edge in active if edge[0] >= x0]
        for _, other_y0, other_y1, q, i, c, d in active:
            if other_y0 <= y1 and y0 <= other_y1:
                # Adjacent edges of a ring of n edges: j follows i (step 1, a is d)
                # or i follows j (step n - 1, b is c), edge 0 following edge n - 1.
                # When the far end of a, b is off the line through c, d, the shared
                # vertex is their only contact, which adjacent edges may have.
                n = sides[r]
                step = (j - i) % n if q == r else 0
                adjacent = step == 1 or step == n - 1
                if adjacent and _orient(c, d, b if step == 1 else a):
                    continue
                kind, _ = _segment_relation(c, d, a, b)
                if q != r and kind in (SEG_PROPER, SEG_OVERLAP):
                    verb = "crosses" if kind == SEG_PROPER else "shares an edge with"
                    return f"hole {verb} {'another hole' if q and r else 'the outer ring'}"
                if q == r and (kind == SEG_OVERLAP or kind != SEG_NONE and not adjacent):
                    return "hole is self-intersecting" if r else "outer ring is self-intersecting"
        active.append((x1, y0, y1, r, j, a, b))
    return None


# ---------------------------------------------------------------------------
# Point location
# ---------------------------------------------------------------------------


def _ring_location(p: Point, ring: Ring) -> str:
    """Where p lies against the area `ring` bounds, in one walk of its edges:
    on the boundary at the first edge within EPS, else by even-odd parity.

    The EPS test runs only for an edge whose box, grown by `_reach`, holds
    p; outside that box it cannot pass. Parity uses the half-open rule on y
    so edges through vertices count once. An upward edge crosses the ray
    right of p exactly when p lies to its left, a downward one when p lies
    to its right, so each crossing is one exact orientation sign.
    """
    px, py = p.x, p.y
    reach = _reach(px, py, 0.0)
    inside = False
    for a, b in zip(ring, ring[1:]):
        ax, ay, bx, by = a.x, a.y, b.x, b.y
        x0, x1 = (ax, bx) if ax < bx else (bx, ax)
        y0, y1 = (ay, by) if ay < by else (by, ay)
        grow = reach + _ROUNDING * (x1 - x0 + y1 - y0)  # _reach(px, py, w + h), inline
        if x0 - grow <= px <= x1 + grow and y0 - grow <= py <= y1 + grow and _on_segment(p, a, b):
            return BOUNDARY
        if (ay > py) != (by > py) and _orient(a, b, p) == (1 if by > ay else -1):
            inside = not inside
    return INTERIOR if inside else EXTERIOR


def _locations(ring: Ring, other: Ring) -> Iterator[str]:
    """Where each sample point of `ring` lies against the area `other` bounds."""
    return (_ring_location(p, other) for p in _sample_points(LineString(ring), LineString(other)))


def _reaches_into(a: Polygon, b: Polygon) -> bool:
    """Does a sample point of a's boundary lie in b's interior?"""
    return any(locate_point(p, b) == INTERIOR for p in _sample_points(a, b))


def locate_point(p: Point, area: Area) -> str:
    """Classify p as interior/boundary/exterior of a polygon or multipolygon
    (EPS boundary snap)."""
    if isinstance(area, Polygon):
        where = [_ring_location(p, ring) for ring in _rings(area)]
        if BOUNDARY in where:
            return BOUNDARY
        return INTERIOR if where[0] == INTERIOR and INTERIOR not in where[1:] else EXTERIOR
    locs = {locate_point(p, poly) for poly in area.polygons}
    if INTERIOR in locs:
        return INTERIOR
    if BOUNDARY in locs:
        return BOUNDARY
    return EXTERIOR


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------


def _vertices(geom: Geometry) -> Iterator[Point]:
    return (p for path in _SHAPE_OF[type(geom)].paths(geom) for p in path)


def _segments(geom: Geometry) -> Iterator[tuple[Point, Point]]:
    return (seg for path in _SHAPE_OF[type(geom)].paths(geom) for seg in zip(path, path[1:]))


Box = tuple[float, float, float, float]


def bbox(geom: Geometry) -> Box:
    """Tight axis-aligned bounds (minx, miny, maxx, maxy)."""
    if type(geom) is Point:
        return (geom.x, geom.y, geom.x, geom.y)
    xs, ys = [], []
    for v in _vertices(geom):
        xs.append(v.x)
        ys.append(v.y)
    return (min(xs), min(ys), max(xs), max(ys))


def bbox_disjoint(a: Box, b: Box, eps: float = EPS) -> bool:
    """Are two `bbox` boxes more than eps apart on some axis?"""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return ax1 < bx0 - eps or bx1 < ax0 - eps or ay1 < by0 - eps or by1 < ay0 - eps


# ---------------------------------------------------------------------------
# Sample points of a point set or line against another geometry
# ---------------------------------------------------------------------------


def _sample_points(geom: Geometry, other: Geometry) -> Iterator[Point]:
    """Points of geom that take every location geom's points take in other.

    Yields every vertex, then splits every segment at its contacts with
    other's edges and yields the midpoint of each piece, so a segment that
    enters and leaves between its endpoints is still seen on both sides.
    """
    yield from _vertices(geom)
    other_edges = [
        (min(qa.x, qb.x), max(qa.x, qb.x), min(qa.y, qb.y), max(qa.y, qb.y), qa, qb)
        for qa, qb in _segments(other)
    ]
    for a, b in _segments(geom):
        x0, x1, y0, y1 = min(a.x, b.x), max(a.x, b.x), min(a.y, b.y), max(a.y, b.y)
        cuts = [0.0, 1.0]
        for qx0, qx1, qy0, qy1, qa, qb in other_edges:
            if qx0 > x1 or x0 > qx1 or qy0 > y1 or y0 > qy1:
                continue  # closed boxes apart: the segments do not meet
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


def _param_on_segment(a: Point, b: Point, p: Point) -> float:
    dx, dy = b.x - a.x, b.y - a.y
    if abs(dx) >= abs(dy):
        return (p.x - a.x) / dx if dx else 0.0
    return (p.y - a.y) / dy if dy else 0.0


# ---------------------------------------------------------------------------
# Public predicates
# ---------------------------------------------------------------------------


def sf_crosses(line: Union[LineString, MultiLineString], area: Area) -> bool:
    """Simple-features crosses for a line against a polygon or multipolygon:
    the line runs partly inside and partly outside. Its sample points are
    located until one is inside and another outside. A sample outside the
    area's box, grown by `_reach`, is exterior without a walk of the rings:
    it is within EPS of no edge, and the ray from a point outside a ring's
    box crosses the ring an even number of times."""
    x0, y0, x1, y1 = bbox(area)
    extent = x1 - x0 + y1 - y0
    inside = outside = False
    for p in _sample_points(line, area):
        grow = _reach(p.x, p.y, extent)
        if x0 - grow <= p.x <= x1 + grow and y0 - grow <= p.y <= y1 + grow:
            loc = locate_point(p, area)
        else:
            loc = EXTERIOR
        inside = inside or loc == INTERIOR
        outside = outside or loc == EXTERIOR
        if inside and outside:
            return True
    return False
