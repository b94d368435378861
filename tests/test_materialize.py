from __future__ import annotations

import math

import pytest

from evkg import geometry
from evkg.graph import Graph
from evkg.ingest import (
    StationRecord,
    TransmissionAssetRecord,
    ZipAreaRecord,
    triplify_places,
    triplify_stations,
    triplify_transmission,
    zip_area_iri,
)
from evkg.materialize import (
    FEATURE_CLASSES,
    SpatialReport,
    materialize_spatial_relations,
    materialize_subclass_closure,
)
from evkg.terms import EV_ONT, EVR, GEO, KWG_ONT, RDF, BlankNode, Iri, Literal, Triple
from evkg.vocabulary import registry

from conftest import index_sizes


def _small_world() -> Graph:
    g = Graph()
    g.update(
        triplify_places(
            (rec, 1) for rec in [
                ZipAreaRecord("07677", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "New Jersey", "Bergen"),
                ZipAreaRecord("07001", "POLYGON ((6 0, 10 0, 10 4, 6 4, 6 0))", "New Jersey", "Middlesex"),
                ZipAreaRecord("07002", "POLYGON ((12 0, 16 0, 16 4, 12 4, 12 0))", "New Jersey", "Hudson"),
            ]
        )
    )
    g.update(
        triplify_stations(
            (rec, 1) for rec in [
                StationRecord("A", "In first zip", 2.0, 2.0, "07677", "public", None,
                              "24 hours daily", "2020-01-01", 2020, None, None, ()),
                StationRecord("B", "On boundary", 6.0, 2.0, "07001", "public", None,
                              "24 hours daily", "2020-01-01", 2020, None, None, ()),
                StationRecord("C", "Outside all", 40.0, 40.0, "07002", "public", None,
                              "24 hours daily", "2020-01-01", 2020, None, None, ()),
            ]
        )
    )
    g.update(
        triplify_transmission(
            [
                # crosses the first two zips, stops short of the third
                (TransmissionAssetRecord("L1", "line", "LINESTRING (-1 2, 11 2)", "500"), 1),
            ]
        )
    )
    return g


def test_point_in_zip_adds_within_and_contains():
    g = _small_world()
    report = materialize_spatial_relations(g)
    station = EVR["chargingstation.A"]
    zip_area = zip_area_iri("07677")
    assert Triple(station, KWG_ONT.sfWithin, zip_area) in g
    assert Triple(zip_area, KWG_ONT.sfContains, station) in g
    assert report.added_within == 1
    assert report.added_contains == 1


def test_line_crossing_two_of_three_zips():
    g = _small_world()
    report = materialize_spatial_relations(g)
    line = EVR["transmissionline.L1"]
    crossed = {t.object for t in g.match(line, KWG_ONT.sfCrosses, None)}
    # Oracle: brute-force pairwise predicate evaluation over the records.
    assert crossed == {zip_area_iri("07677"), zip_area_iri("07001")}
    assert report.added_crosses == 2


def test_boundary_point_assigned_to_no_zip_but_reported():
    g = _small_world()
    report = materialize_spatial_relations(g)
    station = EVR["chargingstation.B"]
    assert list(g.match(station, KWG_ONT.sfWithin, None)) == []
    assert (station, zip_area_iri("07001")) in report.boundary_features


def test_remote_feature_gets_no_relations():
    g = _small_world()
    materialize_spatial_relations(g)
    assert list(g.match(EVR["chargingstation.C"], KWG_ONT.sfWithin, None)) == []


def test_feature_without_geometry_skipped_and_counted():
    g = _small_world()
    g.insert(Triple(EVR["substation.ghost"], RDF.type, EV_ONT.Substation))
    report = materialize_spatial_relations(g)
    assert EVR["substation.ghost"] in report.skipped_no_geometry


def test_rerun_adds_zero():
    g = _small_world()
    first = materialize_spatial_relations(g)
    assert first.added_total > 0
    size = len(g)
    second = materialize_spatial_relations(g)
    assert second.added_total == 0
    assert len(g) == size


def test_materialization_monotone():
    g = _small_world()
    before = set(g)
    materialize_spatial_relations(g)
    assert before <= set(g)


def test_within_contains_duality_after_materialization(fixture_graph):
    within = {(t.subject, t.object) for t in fixture_graph.match(None, KWG_ONT.sfWithin, None)}
    contains = {(t.subject, t.object) for t in fixture_graph.match(None, KWG_ONT.sfContains, None)}
    assert {(b, a) for (a, b) in within} == contains


def test_fixture_matches_brute_force_pairwise_oracle(raw_fixture_graph):
    """Materialized relations equal O(features x zips) predicate evaluation."""
    g = raw_fixture_graph
    # Brute force, independently of the materializer's candidate filtering:
    def geometry_of(feature):
        for node in g.objects(feature, GEO.hasGeometry):
            for wkt in g.objects(node, GEO.asWKT):
                return geometry.parse_wkt(wkt.lexical)
        return None

    zips = {
        s: geometry_of(s)
        for s in g.subjects(RDF.type, KWG_ONT.ZipCodeArea)
        if isinstance(s, Iri)
    }
    features = set()
    for cls in FEATURE_CLASSES:
        features.update(s for s in g.subjects(RDF.type, cls) if isinstance(s, Iri))

    expected = set()
    for f in features:
        geom = geometry_of(f)
        if geom is None:
            continue
        for z, zgeom in zips.items():
            if isinstance(geom, geometry.Point):
                if geometry.locate_point(geom, zgeom) == geometry.INTERIOR:
                    expected.add(Triple(f, KWG_ONT.sfWithin, z))
                    expected.add(Triple(z, KWG_ONT.sfContains, f))
            elif isinstance(geom, (geometry.LineString, geometry.MultiLineString)):
                if geometry.sf_crosses(geom, zgeom):
                    expected.add(Triple(f, KWG_ONT.sfCrosses, z))

    work = Graph(set(g))
    materialize_spatial_relations(work)
    actual = set(work) - set(g)
    # Only relation triples are added.
    assert actual == expected


def test_one_box_per_geometry(raw_fixture_graph, monkeypatch):
    """bbox runs once per zip and per feature, plus once (the zip's) per
    sf_crosses call."""
    calls = {"bbox": 0, "sf_crosses": 0}

    def counted(name):
        fn = getattr(geometry, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(geometry, name, wrapper)

    counted("bbox")
    counted("sf_crosses")
    g = Graph(set(raw_fixture_graph))
    zips = {s for s in g.subjects(RDF.type, KWG_ONT.ZipCodeArea)}
    features = {s for cls in FEATURE_CLASSES for s in g.subjects(RDF.type, cls)}
    materialize_spatial_relations(g)
    assert calls["sf_crosses"] > 0
    assert calls["bbox"] <= len(zips) + len(features) + calls["sf_crosses"]


# --- subclass closure -------------------------------------------------------


def test_closure_types_public_station_as_charging_station():
    g = Graph()
    g.insert(Triple(EVR["x"], RDF.type, EV_ONT.PublicChargingStation))
    added = materialize_subclass_closure(g)
    assert Triple(EVR["x"], RDF.type, EV_ONT.ChargingStation) in g
    assert Triple(EVR["x"], RDF.type, GEO.Feature) in g
    assert added == 2


def test_closure_on_root_class_adds_nothing():
    g = Graph()
    g.insert(Triple(EVR["x"], RDF.type, EV_ONT.ChargerCollection))
    assert materialize_subclass_closure(g) == 0


def test_closure_idempotent():
    g = Graph()
    g.insert(Triple(EVR["x"], RDF.type, EV_ONT.PublicChargingStation))
    materialize_subclass_closure(g)
    assert materialize_subclass_closure(g) == 0


def test_closure_skips_non_iri_types_and_counts_what_it_adds():
    g = Graph([
        Triple(EVR["x"], RDF.type, EV_ONT.PublicChargingStation),
        Triple(EVR["y"], RDF.type, EV_ONT.PublicChargingStation),
        Triple(EVR["y"], RDF.type, EV_ONT.ChargingStation),  # already half closed
        Triple(EVR["z"], RDF.type, BlankNode("cls")),
        Triple(BlankNode("b"), RDF.type, Literal("ChargingStation")),
        Triple(BlankNode("b"), RDF.type, EV_ONT.Substation),
    ])
    before = set(g)
    added = materialize_subclass_closure(g)
    new = set(g) - before
    assert added == len(new) == len(g) - len(before)
    assert {t.subject for t in new} == {EVR["x"], EVR["y"], BlankNode("b")}
    assert not any(t.subject == EVR["z"] for t in new)
    assert len(g) == index_sizes(g)[0] == index_sizes(g)[1]
    assert materialize_subclass_closure(g) == 0
    assert set(g) == before | new


def test_closure_equals_reachability_oracle(raw_fixture_graph):
    g = Graph(set(raw_fixture_graph))
    materialize_subclass_closure(g)
    class_defs = {c.iri: c for c in registry().classes}
    # Oracle: BFS over the registry's direct-superclass edges.
    def reachable(cls):
        seen, stack = set(), [cls]
        while stack:
            current = stack.pop()
            cdef = class_defs.get(current)
            if cdef is None:
                continue
            for sup in cdef.super_classes:
                if sup not in seen:
                    seen.add(sup)
                    stack.append(sup)
        return seen

    expected = set(raw_fixture_graph)
    for t in raw_fixture_graph.match(None, RDF.type, None):
        if isinstance(t.object, Iri):
            for sup in reachable(t.object):
                expected.add(Triple(t.subject, RDF.type, sup))
    assert set(g) == expected


# --- grid candidates against all pairs -----------------------------------------


def _square(zip_code: str, x0: float, y0: float, size: float) -> tuple[str, str]:
    x1, y1 = x0 + size, y0 + size
    return zip_code, f"POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))"


def _world(zips: list[tuple[str, str]], assets: list[tuple[str, str, str]]) -> Graph:
    """Zip areas (zip, wkt) and transmission assets (id, kind, wkt) in one graph."""
    g = Graph()
    g.update(triplify_places([(ZipAreaRecord(z, wkt, "New Jersey", "Bergen"), 1) for z, wkt in zips]))
    g.update(triplify_transmission([(TransmissionAssetRecord(a, k, wkt), 1) for a, k, wkt in assets]))
    return g


def _all_pairs(graph: Graph) -> SpatialReport:
    """The reference: every feature against every zip, no boxes, no grid."""
    report = SpatialReport()

    def members(classes):
        found = {s for c in classes for s in graph.subjects(RDF.type, c) if isinstance(s, Iri)}
        return sorted(found, key=lambda iri: iri.value)

    def geometry_of(member):
        for node in graph.objects(member, GEO.hasGeometry):
            for wkt in graph.objects(node, GEO.asWKT):
                return geometry.parse_wkt(wkt.lexical)
        return None

    zips = [(z, geometry_of(z)) for z in members((KWG_ONT.ZipCodeArea,))]
    for feature in members(FEATURE_CLASSES):
        geom = geometry_of(feature)
        if geom is None:
            report.skipped_no_geometry.append(feature)
            continue
        for zip_iri, zip_geom in zips:
            if zip_geom is None:
                continue
            if isinstance(geom, geometry.Point):
                loc = geometry.locate_point(geom, zip_geom)
                if loc == geometry.INTERIOR:
                    report.added_within += graph.insert(Triple(feature, KWG_ONT.sfWithin, zip_iri))
                    report.added_contains += graph.insert(Triple(zip_iri, KWG_ONT.sfContains, feature))
                elif loc == geometry.BOUNDARY:
                    report.boundary_features.append((feature, zip_iri))
            elif geometry.sf_crosses(geom, zip_geom):
                report.added_crosses += graph.insert(Triple(feature, KWG_ONT.sfCrosses, zip_iri))
    return report


def _inserts(graph: Graph, materialize) -> tuple[list[Triple], SpatialReport]:
    """The new triples `materialize(graph)` adds, in order, and its report:
    whether it inserts them one at a time or writes them in one batch, since
    `Graph.insert` is an `update` of one triple."""
    inserted = []
    update = graph.update

    def recording(triples):
        added = 0
        for t in triples:
            if update((t,)):
                inserted.append(t)
                added += 1
        return added

    graph.update = recording
    return inserted, materialize(graph)


_LINE_ZIPS = [_square(f"{10000 + i}", 2 * i, 0, 1) for i in range(10)]
_GRID_CASES = {
    "point on a shared zip boundary": (
        [_square("07001", 0, 0, 4), _square("07002", 4, 0, 4)],
        [("S1", "substation", "POINT (4 2)"), ("S2", "substation", "POINT (2 2)"),
         ("S3", "substation", "POINT (6 4)")],
    ),
    # The largest extent is 4, so cell edges sit at multiples of 4 + 2e-9: S1
    # lies in the cell after 07002's box and S2 in the cell before 07003's,
    # each within EPS of the box edge.
    "box touch within EPS at a cell edge": (
        [_square("07001", 0, 0, 4),
         ("07002", "POLYGON ((9 0, 12.000000005 0, 12.000000005 4, 9 4, 9 0))"),
         ("07003", "POLYGON ((16.000000008 0, 18 0, 18 4, 16.000000008 4, 16.000000008 0))")],
        [("S1", "substation", "POINT (12.000000006 2)"),
         ("S2", "substation", "POINT (16.000000007 2)"),
         ("S3", "substation", "POINT (12.000000005 2)")],
    ),
    "line over many cells and zips": (
        _LINE_ZIPS,
        [("L1", "line", "LINESTRING (-1 0.5, 21 0.5)"),
         ("L2", "line", "LINESTRING (0.5 -1, 6.5 2)"),
         ("S1", "substation", "POINT (4.5 0.5)")],
    ),
    "one zip much larger than the rest": (
        [_square("07001", 0, 0, 1), _square("07002", 2, 0, 1), _square("07003", 100, 100, 200),
         _square("07004", 150, 150, 1)],
        [("S1", "substation", "POINT (150.5 150.5)"), ("S2", "substation", "POINT (0.5 0.5)"),
         ("S3", "substation", "POINT (299 299)"), ("L1", "line", "LINESTRING (-1 0.5, 120 120)")],
    ),
    "no zips": (
        [],
        [("S1", "substation", "POINT (1 1)"), ("L1", "line", "LINESTRING (0 0, 5 5)")],
    ),
    # Over 0.001-wide cells, 1e308 is past the largest float cell number.
    "feature far outside every zip": (
        [_square("07001", 0, 0, 0.001), _square("07002", 5, 5, 0.001)],
        [("S1", "substation", "POINT (1000000000 1000000000)"),
         ("S2", "plant", "POINT (1e308 -1e308)"),
         ("L1", "line", "LINESTRING (-1e9 5, 1e9 5)")],
    ),
}


@pytest.mark.parametrize("case", sorted(_GRID_CASES))
def test_grid_matches_all_pairs_reference(case):
    zips, assets = _GRID_CASES[case]
    world = _world(zips, assets)
    world.insert(Triple(EVR["substation.ghost"], RDF.type, EV_ONT.Substation))
    expected, expected_report = _inserts(Graph(world), _all_pairs)
    actual, report = _inserts(Graph(world), materialize_spatial_relations)
    assert actual == expected
    assert report == expected_report
    assert report.summary_lines() == expected_report.summary_lines()


def _counting_box_checks(monkeypatch) -> list[tuple[geometry.Box, geometry.Box]]:
    checked = []
    disjoint = geometry.bbox_disjoint

    def counting(a, b, eps=geometry.EPS):
        checked.append((a, b))
        return disjoint(a, b, eps)

    monkeypatch.setattr(geometry, "bbox_disjoint", counting)
    return checked


def test_eps_touch_across_a_cell_edge_is_checked(monkeypatch):
    zips, assets = _GRID_CASES["box touch within EPS at a cell edge"]
    side = 4 + 2 * geometry.EPS
    touching = [
        ((12.000000006, 2.0, 12.000000006, 2.0), (9.0, 0.0, 12.000000005, 4.0)),
        ((16.000000007, 2.0, 16.000000007, 2.0), (16.000000008, 0.0, 18.0, 4.0)),
    ]
    for point_box, zip_box in touching:
        assert math.floor(point_box[0] / side) != math.floor(zip_box[0] / side)
        assert math.floor(point_box[0] / side) != math.floor(zip_box[2] / side)
        assert not geometry.bbox_disjoint(point_box, zip_box)
    checked = _counting_box_checks(monkeypatch)
    materialize_spatial_relations(_world(zips, assets[:2]))
    for pair in touching:
        assert pair in checked


def test_box_checks_grow_linearly(monkeypatch):
    n = 64
    zips = [_square(f"{10000 + i}", 3 * i, 0, 1) for i in range(n)]
    assets = [(f"S{i}", "substation", f"POINT ({3 * i + 0.5} 0.5)") for i in range(n)]
    world = _world(zips, assets)
    checked = _counting_box_checks(monkeypatch)
    report = materialize_spatial_relations(world)
    assert report.added_within == n
    assert len(checked) <= 4 * n
