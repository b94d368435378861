"""Pre-compute implied triples: feature-to-zip spatial relations and
subclass type closure.

Storing these relations explicitly keeps queries away from on-the-fly
geometry evaluation; with a declared snap tolerance the containment
decisions are auditable instead of silently brittle. Both operations are
idempotent: re-running them adds nothing.

Features meet zips through a sparse uniform grid, `_ZipGrid`. Its cell
side is the largest zip box extent plus 2·EPS, so a zip's EPS-grown box
reaches about 2×2 cells and the index holds O(zips) entries whatever the
input. A feature collects the zips listed in the cells its EPS-grown box
covers and box-checks only those, in zip order; so `geometry.bbox_checks`
grows with the number of features, not features × zips, and the new
triples and boundary reports come in the same order as an all-pairs loop.
The new triples are collected in that order and written with one
`Graph.update`.

Each pair that passes the box check goes to `geometry.locate_point` or
`geometry.sf_crosses`, always through the module. Those skip exact work a
box settles, and only that, so every relation and boundary report is the
one the full walks give: `sf_crosses` takes the zip's box once per call
(it no longer box-checks the pair again), calls a sample point outside
that box, grown by `geometry._reach`, exterior without walking the rings,
and classifies a line segment only against zip edges whose closed boxes
meet it; `locate_point` runs the EPS boundary test only against edges
whose grown box holds the point. The EPS snap stays the only approximate
step.

Each member's geometry is its stored `geo:asWKT` literal; of several, the
one on the geometry node with the smallest IRI, and within that node the
smallest literal, so the choice never follows set order. A caller that
built the geometries passes them keyed by their stored text, and only a
literal missing there is parsed: `build_graph` passes every geometry whose
text parses back to an equal one, so an ingest parses each WKT once, while
`evkg materialize` on a snapshot parses every literal.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Optional

from . import geometry
from .graph import Graph
from .terms import EV_ONT, GEO, KWG_ONT, RDF_TYPE, Iri, Literal, Triple
from .vocabulary import registry

# Instance classes whose members participate in feature-vs-zip materialization.
FEATURE_CLASSES = (
    EV_ONT.ChargingStation,
    EV_ONT.PublicChargingStation,
    EV_ONT.PrivateChargingStation,
    EV_ONT.NetworkedChargingStation,
    EV_ONT.NonNetworkedChargingStation,
    EV_ONT.Substation,
    EV_ONT.PowerPlant,
    EV_ONT.TransmissionLine,
)


@dataclass
class SpatialReport:
    added_within: int = 0
    added_contains: int = 0
    added_crosses: int = 0
    skipped_no_geometry: list[Iri] = field(default_factory=list)
    boundary_features: list[tuple[Iri, Iri]] = field(default_factory=list)

    @property
    def added_total(self) -> int:
        return self.added_within + self.added_contains + self.added_crosses

    def summary_lines(self) -> list[str]:
        lines = [
            f"sfWithin triples added:   {self.added_within}",
            f"sfContains triples added: {self.added_contains}",
            f"sfCrosses triples added:  {self.added_crosses}",
            f"features without geometry (skipped): {len(self.skipped_no_geometry)}",
            f"boundary-touching point features (assigned to no zip): {len(self.boundary_features)}",
        ]
        for feature, zip_area in self.boundary_features:
            lines.append(f"  boundary: {feature.value} on {zip_area.value}")
        for feature in self.skipped_no_geometry:
            lines.append(f"  no geometry: {feature.value}")
        return lines


class StoredGeometryError(ValueError):
    """A feature's stored geo:asWKT literal does not parse, or a zip area's is
    not a polygon; the message names the feature IRI."""


def _geometries(
    graph: Graph, classes: tuple[Iri, ...], parsed: Mapping[str, geometry.Geometry]
) -> list[tuple[Iri, Optional[geometry.Geometry]]]:
    """IRI-sorted (member, stored geometry or None) for the members of classes."""
    members = {s for cls in classes for s in graph.subjects(RDF_TYPE, cls) if isinstance(s, Iri)}
    out = []
    for member in sorted(members, key=lambda iri: iri.value):
        # The stored 9-decimal literal, not the source WKT: it is the geometry
        # the snapshot states, and a reloaded snapshot has nothing else. Of
        # several, the smallest node's smallest literal, whatever the set order.
        stored = min(
            ((node, w) for node in graph.objects(member, GEO.hasGeometry)
             for w in graph.objects(node, GEO.asWKT) if isinstance(w, Literal)),
            default=None,
        )
        if stored is None:
            out.append((member, None))
            continue
        text = stored[1].lexical
        geom = parsed.get(text)
        if geom is None:
            try:
                geom = geometry.parse_wkt(text)
            except geometry.WktParseError as exc:
                raise StoredGeometryError(
                    f"{member.value}: stored geometry does not parse: {exc}"
                ) from None
        out.append((member, geom))
    return out


_FAR_CELL = 2.0**62


class _ZipGrid:
    """Zip box indexes by grid cell, for the box checks a feature needs.

    Cells are keyed `(floor(x / side), floor(y / side))` and list, in zip
    order, each zip whose EPS-grown box reaches them. Growing both the zip
    and the feature box by EPS keeps every pair that `bbox_disjoint` (which
    allows EPS) would pass among the candidates, rounding included.
    """

    def __init__(self, boxes: list[geometry.Box]):
        self.side = 2 * geometry.EPS + max(
            (max(x1 - x0, y1 - y0) for x0, y0, x1, y1 in boxes), default=0.0
        )
        self.cells: dict[tuple[int, int], list[int]] = {}
        for index, box in enumerate(boxes):
            i0, j0, i1, j1 = self._span(box)
            for key in product(range(i0, i1 + 1), range(j0, j1 + 1)):
                self.cells.setdefault(key, []).append(index)

    def _span(self, box: geometry.Box) -> tuple[int, int, int, int]:
        """First and last cell column and row that the EPS-grown box covers.
        Cell numbers are clamped to ±2**62, so a far coordinate over a small
        side cannot overflow; clamping keeps their order, so no pair is lost."""
        x0, y0, x1, y1 = box
        eps, side = geometry.EPS, self.side
        i0, j0, i1, j1 = (
            math.floor(min(max(v / side, -_FAR_CELL), _FAR_CELL))
            for v in (x0 - eps, y0 - eps, x1 + eps, y1 + eps)
        )
        return i0, j0, i1, j1

    def candidates(self, box: geometry.Box) -> list[int]:
        """Ascending indexes of the zips listed in the cells `box` covers. A
        box that covers more cells than are occupied scans the occupied ones
        instead, so no feature costs more than the index holds."""
        i0, j0, i1, j1 = self._span(box)
        if (i1 - i0 + 1) * (j1 - j0 + 1) <= len(self.cells):
            keys = product(range(i0, i1 + 1), range(j0, j1 + 1))
        else:
            keys = [(i, j) for i, j in self.cells if i0 <= i <= i1 and j0 <= j <= j1]
        found: set[int] = set()
        for key in keys:
            found.update(self.cells.get(key, ()))
        return sorted(found)


def materialize_spatial_relations(
    graph: Graph, parsed: Optional[Mapping[str, geometry.Geometry]] = None
) -> SpatialReport:
    """Assert point-in-zip (sfWithin/sfContains) and line-crosses-zip triples.

    `parsed` maps stored `geo:asWKT` texts to the geometries they parse to,
    so that a caller which built them need not have them parsed again; a
    text it lacks is parsed. A point exactly on a zip boundary (within the
    geometry EPS) is assigned to no zip but reported, so sliver-boundary
    cases stay auditable. The relations are collected in all-pairs order;
    those not yet in the graph are written with one `Graph.update` and
    counted in the report. Raises StoredGeometryError for a stored geometry
    that does not parse or a zip area that is not a polygon.
    """
    report = SpatialReport()
    found: list[Triple] = []  # the relations, in all-pairs order
    parsed = parsed or {}
    zip_areas = []
    for zip_iri, zip_geom in _geometries(graph, (KWG_ONT.ZipCodeArea,), parsed):
        if zip_geom is None:
            continue
        if not isinstance(zip_geom, (geometry.Polygon, geometry.MultiPolygon)):
            raise StoredGeometryError(f"{zip_iri.value}: zip area geometry must be a polygon")
        zip_areas.append((zip_iri, zip_geom, geometry.bbox(zip_geom)))
    grid = _ZipGrid([zip_box for _, _, zip_box in zip_areas])

    for feature, geom in _geometries(graph, FEATURE_CLASSES, parsed):
        if geom is None:
            report.skipped_no_geometry.append(feature)
            continue
        is_point = isinstance(geom, geometry.Point)
        if not is_point and not isinstance(geom, (geometry.LineString, geometry.MultiLineString)):
            continue
        box = geometry.bbox(geom)
        for index in grid.candidates(box):
            zip_iri, zip_geom, zip_box = zip_areas[index]
            if geometry.bbox_disjoint(box, zip_box):
                continue
            if is_point:
                loc = geometry.locate_point(geom, zip_geom)
                if loc == geometry.INTERIOR:
                    found.append(Triple(feature, KWG_ONT.sfWithin, zip_iri))
                    found.append(Triple(zip_iri, KWG_ONT.sfContains, feature))
                elif loc == geometry.BOUNDARY:
                    report.boundary_features.append((feature, zip_iri))
            elif geometry.sf_crosses(geom, zip_geom):
                found.append(Triple(feature, KWG_ONT.sfCrosses, zip_iri))
    # Each (feature, zip) pair comes once, so `found` repeats no triple.
    added = [t for t in found if t not in graph]
    graph.update(added)
    kinds = Counter(t.predicate for t in added)
    report.added_within = kinds[KWG_ONT.sfWithin]
    report.added_contains = kinds[KWG_ONT.sfContains]
    report.added_crosses = kinds[KWG_ONT.sfCrosses]
    return report


def materialize_subclass_closure(graph: Graph) -> int:
    """For every typed instance, also assert all registry superclasses.

    Works one class at a time: each distinct IRI object of rdf:type, with
    the subjects typed by it, comes once from the predicate-first index; its
    superclasses are looked up once, and all the triples they imply go to
    one `Graph.update`. Their terms come from the graph, so `Triple`'s
    checks are skipped. Blank-node and literal type objects have no
    superclasses and are skipped. Returns the number of new triples.
    """
    reg = registry()
    added = 0
    for cls, members in graph.object_subjects(RDF_TYPE):
        if not isinstance(cls, Iri):
            continue
        added += graph.update(
            tuple.__new__(Triple, (member, RDF_TYPE, sup))
            for sup in reg.superclasses(cls)
            for member in members
        )
    return added
