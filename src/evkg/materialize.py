"""Pre-compute implied triples: feature-to-zip spatial relations and
subclass type closure.

Storing these relations explicitly keeps queries away from on-the-fly
geometry evaluation; with a declared snap tolerance the containment
decisions are auditable instead of silently brittle. Both operations are
idempotent: re-running them adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import geometry
from .graph import Graph
from .terms import EV_ONT, GEO, KWG_ONT, RDF, Iri, Literal, Triple
from .vocabulary import OntologyRegistry, registry

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


def _feature_geometry(graph: Graph, feature: Iri) -> Optional[geometry.Geometry]:
    # Parse the stored 9-decimal literal, not the source WKT: it is the geometry
    # the snapshot states, and a reloaded snapshot has nothing else.
    for node in graph.objects(feature, GEO.hasGeometry):
        for wkt in graph.objects(node, GEO.asWKT):
            if isinstance(wkt, Literal):
                return geometry.parse_wkt(wkt.lexical)
    return None


def materialize_spatial_relations(graph: Graph) -> SpatialReport:
    """Assert point-in-zip (sfWithin/sfContains) and line-crosses-zip triples.

    A point exactly on a zip boundary (within the geometry EPS) is assigned
    to no zip but reported, so sliver-boundary cases stay auditable.
    """
    report = SpatialReport()

    zip_areas: list[tuple[Iri, geometry.Geometry]] = []
    for subject in sorted(
        {s for s in graph.subjects(RDF.type, KWG_ONT.ZipCodeArea) if isinstance(s, Iri)},
        key=lambda iri: iri.value,
    ):
        geom = _feature_geometry(graph, subject)
        if geom is not None:
            zip_areas.append((subject, geom))

    features: set[Iri] = set()
    for cls in FEATURE_CLASSES:
        features.update(s for s in graph.subjects(RDF.type, cls) if isinstance(s, Iri))

    for feature in sorted(features, key=lambda iri: iri.value):
        geom = _feature_geometry(graph, feature)
        if geom is None:
            report.skipped_no_geometry.append(feature)
            continue
        if isinstance(geom, geometry.Point):
            for zip_iri, zip_geom in zip_areas:
                if geometry.bbox_disjoint(geom, zip_geom):
                    continue
                loc = geometry.locate_point(geom, zip_geom)
                if loc == geometry.INTERIOR:
                    if graph.insert(Triple(feature, KWG_ONT.sfWithin, zip_iri)):
                        report.added_within += 1
                    if graph.insert(Triple(zip_iri, KWG_ONT.sfContains, feature)):
                        report.added_contains += 1
                elif loc == geometry.BOUNDARY:
                    report.boundary_features.append((feature, zip_iri))
        elif isinstance(geom, (geometry.LineString, geometry.MultiLineString)):
            for zip_iri, zip_geom in zip_areas:
                if geometry.bbox_disjoint(geom, zip_geom):
                    continue
                if geometry.sf_crosses(geom, zip_geom):
                    if graph.insert(Triple(feature, KWG_ONT.sfCrosses, zip_iri)):
                        report.added_crosses += 1
    return report


def materialize_subclass_closure(graph: Graph, reg: Optional[OntologyRegistry] = None) -> int:
    """For every typed instance, also assert all registry superclasses."""
    reg = reg or registry()
    added = 0
    for t in list(graph.match(None, RDF.type, None)):
        if not isinstance(t.object, Iri):
            continue
        for sup in reg.superclasses(t.object):
            if graph.insert(Triple(t.subject, RDF.type, sup)):
                added += 1
    return added
