from __future__ import annotations

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
    materialize_spatial_relations,
    materialize_subclass_closure,
)
from evkg.terms import EV_ONT, EVR, GEO, KWG_ONT, RDF, Iri, Triple
from evkg.vocabulary import registry


def _small_world() -> Graph:
    g = Graph()
    g.update(
        triplify_places(
            [
                ZipAreaRecord("07677", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "New Jersey", "Bergen"),
                ZipAreaRecord("07001", "POLYGON ((6 0, 10 0, 10 4, 6 4, 6 0))", "New Jersey", "Middlesex"),
                ZipAreaRecord("07002", "POLYGON ((12 0, 16 0, 16 4, 12 4, 12 0))", "New Jersey", "Hudson"),
            ]
        )
    )
    g.update(
        triplify_stations(
            [
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
                TransmissionAssetRecord("L1", "line", "LINESTRING (-1 2, 11 2)", "500"),
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
                if geometry.sf_within(geom, zgeom):
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
    """bbox runs once per zip and per feature, plus twice per sf_crosses call."""
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
    assert calls["bbox"] <= len(zips) + len(features) + 2 * calls["sf_crosses"]


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


def test_closure_equals_reachability_oracle(raw_fixture_graph):
    g = Graph(set(raw_fixture_graph))
    materialize_subclass_closure(g)
    reg = registry()
    # Oracle: BFS over the registry's direct-superclass edges.
    def reachable(cls):
        seen, stack = set(), [cls]
        while stack:
            current = stack.pop()
            cdef = reg.class_def(current)
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
