"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Expected-result files under fixtures/expected/ were produced
by the independent nested-loop evaluator (scripts/regen_expected.py).
"""

from __future__ import annotations

import csv
import random
import time
from fractions import Fraction

from evkg import geometry
from evkg.cli import collect_stats
from evkg.graph import Graph
from evkg.ingest import build_graph
from evkg.materialize import (
    FEATURE_CLASSES,
    materialize_spatial_relations,
)
from evkg.ntriples import parse_ntriples, serialize_ntriples
from evkg.queries import (
    QUERY_TEXTS,
    expand_query_references,
    q6_selected_zips,
    run_suite_query,
)
from evkg.results import solution_to_tsv
from evkg.sparql import naive, parse_query
from evkg.sparql.engine import evaluate
from evkg.terms import EV_ONT, GEO, KWG_ONT, RDF, Iri, Literal, Triple
from evkg.vocabulary import registry, validate_instances

from conftest import FIXTURES, fixture_config
from randomized import patterns_of, random_graph, random_query, solution_multiset
from test_geometry import (
    _sampling_crosses_oracle,
    oracle_dist_to_ring,
    oracle_point_in_polygon,
    random_convex_polygon,
)


def _ok(n: int, text: str) -> None:
    print(f"\ncriterion {n}: PASS — {text}")


# -- 1 ------------------------------------------------------------------------


def test_criterion_1_listing_conformance(fixture_graph):
    """All ten bundled queries byte-match the committed oracle files in <5s."""
    start = time.perf_counter()
    produced = {}
    for qid in range(1, 11):
        produced[f"query{qid:02d}.tsv"] = solution_to_tsv(run_suite_query(fixture_graph, qid))
    elapsed = time.perf_counter() - start
    for name, actual in produced.items():
        expected = (FIXTURES / "expected" / name).read_text(encoding="utf-8")
        assert actual == expected, f"{name} differs from the committed oracle output"
    assert elapsed < 5.0, f"ten queries took {elapsed:.2f}s (budget 5s)"
    _ok(1, f"10/10 queries byte-match oracle files in {elapsed:.2f}s")


# -- 2 ------------------------------------------------------------------------


def test_criterion_2_engine_oracle_equivalence():
    """500 randomized cases: engine equals the nested-loop reference, <60s."""
    rng = random.Random(0xEB26)
    start = time.perf_counter()
    for case in range(500):
        graph = random_graph(rng, 200)
        query = random_query(rng, 4)
        engine_rows = solution_multiset(evaluate(graph, query))
        naive_rows = solution_multiset(naive.evaluate(graph, query))
        assert engine_rows == naive_rows, f"case {case} diverged"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"500 cases took {elapsed:.1f}s (budget 60s)"
    _ok(2, f"500/500 randomized cases agree with the reference in {elapsed:.1f}s")


# -- 3 ------------------------------------------------------------------------


def test_criterion_3_spatial_predicates(fixtures_dir):
    """Point location agrees with the ray-casting oracle off-boundary on 1000
    random polygons; line-crosses-zip agrees with a dense-sampling ray-casting
    oracle on every fixture line/zip pair."""
    rng = random.Random(0x5EED)
    agreements = 0
    for _ in range(1000):
        poly = random_convex_polygon(rng)
        x0, y0, x1, y1 = geometry.bbox(poly)
        point = geometry.Point(rng.uniform(x0 - 1, x1 + 1), rng.uniform(y0 - 1, y1 + 1))
        if oracle_dist_to_ring(point.x, point.y, poly.outer) >= 1e-9:
            inside = oracle_point_in_polygon(point.x, point.y, poly.outer)
            assert geometry.locate_point(point, poly) == (
                geometry.INTERIOR if inside else geometry.EXTERIOR
            )
            agreements += 1
    assert agreements > 900

    lines = []
    zips = []
    with open(fixtures_dir / "transmission.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            if row["kind"] == "line":
                lines.append(geometry.parse_wkt(row["wkt"]))
    with open(fixtures_dir / "zip_areas.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            zips.append(geometry.parse_wkt(row["wkt"]))
    pairs = crossings = 0
    for line in lines:
        for zip_poly in zips:
            crosses = geometry.sf_crosses(line, zip_poly)
            assert crosses is _sampling_crosses_oracle(line, zip_poly)
            crossings += crosses
            pairs += 1
    assert pairs == len(lines) * len(zips) and crossings > 0
    _ok(3, f"oracle agreement on {agreements} points, "
           f"crosses agreement on {pairs} line/zip pairs ({crossings} cross)")


# -- 4 ------------------------------------------------------------------------


def test_criterion_4_materialization_equivalence(raw_fixture_graph):
    """Materialized relations equal brute-force pairwise evaluation; rerun adds 0."""
    g = raw_fixture_graph

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
    for feature in features:
        geom = geometry_of(feature)
        if geom is None:
            continue
        for zip_iri, zip_geom in zips.items():
            if isinstance(geom, geometry.Point):
                if geometry.locate_point(geom, zip_geom) == geometry.INTERIOR:
                    expected.add(Triple(feature, KWG_ONT.sfWithin, zip_iri))
                    expected.add(Triple(zip_iri, KWG_ONT.sfContains, feature))
            elif isinstance(geom, (geometry.LineString, geometry.MultiLineString)):
                if geometry.sf_crosses(geom, zip_geom):
                    expected.add(Triple(feature, KWG_ONT.sfCrosses, zip_iri))

    work = Graph(set(g))
    report = materialize_spatial_relations(work)
    assert set(work) - set(g) == expected
    assert report.added_total == len(expected)
    rerun = materialize_spatial_relations(work)
    assert rerun.added_total == 0
    _ok(4, f"{len(expected)} materialized triples equal the brute-force oracle; rerun adds 0")


# -- 5 ------------------------------------------------------------------------


def test_criterion_5_ingestion_conservation(fixture_graph, fixtures_dir):
    """Sum of collection amounts per (state, year) equals raw record counts;
    includes the verbatim 36-record grouping case."""
    zip_state = {}
    with open(fixtures_dir / "zip_areas.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            zip_state[row["zip"]] = row["state"]
    expected: dict[tuple[str, str], int] = {}
    with open(fixtures_dir / "registrations.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            key = (zip_state[row["zip"]], row["registration_year"])
            expected[key] = expected.get(key, 0) + 1

    actual: dict[tuple[str, str], int] = {}
    the_36_case = None
    for coll in fixture_graph.subjects(
        RDF.type, EV_ONT.ElectricVehicleRegistrationCollection
    ):
        [zip_area] = fixture_graph.objects(coll, EV_ONT.hasSpatialScope)
        [year] = fixture_graph.objects(coll, EV_ONT.hasTemporalScope)
        [amount] = fixture_graph.objects(coll, EV_ONT.hasAmount)
        zip_code = zip_area.value.rsplit(".", 1)[-1]
        key = (zip_state[zip_code], year.lexical)
        actual[key] = actual.get(key, 0) + int(amount.lexical)
        if zip_code == "07677" and year.lexical == "2019":
            prod = fixture_graph.value(coll, EV_ONT.hasProductInfo)
            from evkg.terms import RDFS

            if fixture_graph.value(prod, RDFS.label) == Literal("BMW i3"):
                the_36_case = int(amount.lexical)
    assert actual == expected
    assert the_36_case == 36
    _ok(5, f"amount sums conserve raw counts across {len(expected)} (state, year) cells; "
           "the 36-record case holds")


# -- 6 ------------------------------------------------------------------------


def test_criterion_6_round_trip_determinism(tmp_path):
    """ingest -> export -> import -> export is byte-identical; so is re-ingesting."""
    graph1, _ = build_graph(fixture_config())
    export1 = serialize_ntriples(graph1)
    reimported = parse_ntriples(export1)
    export2 = serialize_ntriples(reimported)
    assert export1 == export2

    graph2, _ = build_graph(fixture_config())
    assert serialize_ntriples(graph2) == export1
    _ok(6, f"snapshot round trip and double ingestion are byte-identical "
           f"({len(graph1)} triples)")


# -- 7 ------------------------------------------------------------------------


def test_criterion_7_cq_scenarios(fixture_graph, fixtures_dir):
    """Station-search and shortage scenarios honor every stated filter, with
    membership verified by recomputation that bypasses the query engine."""
    # Station search: all five filters (zip label, public, exact hours
    # string with trailing spaces, ChargePoint network, connector VALUES).
    solution = run_suite_query(fixture_graph, 3)
    assert len(solution.rows) == 1
    [row] = solution.rows
    assert row["station"] == Iri("http://evkg.org/resource/chargingstation.CA001")
    assert row["co"] == Iri("http://evkg.org/resource/connectortype.CHAdeMO")
    # Recompute from the CSV:
    qualifying = []
    with open(fixtures_dir / "stations.csv", newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            if (
                record["zip"] == "95814"
                and record["access"] == "public"
                and record["network"] == "ChargePoint Network"
                and record["operating_hours"] == "24 hours daily  "
            ):
                connectors = {
                    group.split(":")[1]
                    for group in record["charger_groups"].split("|")
                    if group
                }
                # Leaf-matchable CHAdeMO/J1772 against the VALUES labels.
                if connectors & {"CHADEMO"}:
                    qualifying.append(record["station_id"])
    assert qualifying == ["CA001"]

    # Shortage scenario thresholds: ratio < 0.1, registrations > 98, "500".
    zip_state, rects = {}, {}
    with open(fixtures_dir / "zip_areas.csv", newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            zip_state[record["zip"]] = record["state"]
            body = record["wkt"].split("((")[1].rstrip("))")
            xs = [float(p.split()[0]) for p in body.split(",")]
            ys = [float(p.split()[1]) for p in body.split(",")]
            rects[record["zip"]] = (min(xs), min(ys), max(xs), max(ys))
    regs: dict[str, int] = {}
    with open(fixtures_dir / "registrations.csv", newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            if (
                record["registration_year"] == "2021"
                and zip_state[record["zip"]] == "New Jersey"
                and "J1772COMBO" in record["connector_types"].split("|")
            ):
                regs[record["zip"]] = regs.get(record["zip"], 0) + 1
    chargers: dict[str, int] = {}
    with open(fixtures_dir / "stations.csv", newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            if zip_state.get(record["zip"]) != "New Jersey":
                continue
            for group in record["charger_groups"].split("|"):
                if group and group.split(":")[1] == "J1772COMBO":
                    chargers[record["zip"]] = chargers.get(record["zip"], 0) + int(
                        group.split(":")[2]
                    )
    crossed = set()
    with open(fixtures_dir / "transmission.csv", newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            if record["kind"] != "line" or record["voltage_class"] != "500":
                continue
            body = record["wkt"].split("(", 1)[1].rstrip(")")
            pts = [tuple(map(float, p.split())) for p in body.split(",")]
            for zip_code, (x0, y0, x1, y1) in rects.items():
                if zip_state[zip_code] != "New Jersey":
                    continue
                saw_in = saw_out = False
                for (ax, ay), (bx, by) in zip(pts, pts[1:]):
                    for i in range(4097):
                        t = i / 4096
                        x, y = ax + (bx - ax) * t, ay + (by - ay) * t
                        if x0 < x < x1 and y0 < y < y1:
                            saw_in = True
                        elif not (x0 <= x <= x1 and y0 <= y <= y1):
                            saw_out = True
                if saw_in and saw_out:
                    crossed.add(zip_code)
    expected_selected = {
        z
        for z in regs.keys() & chargers.keys()
        if Fraction(chargers[z], regs[z]) < Fraction(1, 10)
        and regs[z] > 98
        and z in crossed
    }
    shortage = run_suite_query(fixture_graph, 9)
    adoption = run_suite_query(fixture_graph, 10)
    selected = {row[0] for row in q6_selected_zips(fixture_graph, shortage, adoption)[1:]}
    assert selected == expected_selected == {"07001", "07003"}
    _ok(7, "station-search filters and shortage thresholds (0.1 / 98 / \"500\") "
           "verified by CSV-level recomputation")


# -- 8 ------------------------------------------------------------------------


def test_criterion_8_vocabulary_completeness(fixture_graph):
    """Every query term resolves; the fixture validates clean; stats agree
    with a recount oracle."""
    reg = registry()
    from evkg.terms import RDF_TYPE

    checked_terms = 0
    for qid, text in QUERY_TEXTS.items():
        query = parse_query(expand_query_references(text))
        for tp in patterns_of(query.pattern):
            if isinstance(tp.p, Iri):
                assert reg.property_def(tp.p) is not None, f"query {qid}: unresolved {tp.p}"
                checked_terms += 1
                if tp.p == RDF_TYPE and isinstance(tp.o, Iri):
                    assert reg.is_class(tp.o), f"query {qid}: unresolved {tp.o}"
                    checked_terms += 1

    violations = validate_instances(fixture_graph)
    assert violations == []

    stats = collect_stats(fixture_graph)
    # Recount oracle: raw scans over the triple set.
    triples = list(fixture_graph)
    for name, cls in (
        ("ChargingStation", EV_ONT.ChargingStation),
        ("ChargerCollection", EV_ONT.ChargerCollection),
        ("ElectricVehicleRegistrationCollection", EV_ONT.ElectricVehicleRegistrationCollection),
        ("ElectricVehicleProduct", EV_ONT.ElectricVehicleProduct),
        ("TransmissionLine", EV_ONT.TransmissionLine),
        ("Substation", EV_ONT.Substation),
        ("PowerPlant", EV_ONT.PowerPlant),
        ("RoadSegment", KWG_ONT.RoadSegment),
    ):
        recount = len({t.subject for t in triples if t.predicate == RDF.type and t.object == cls})
        assert stats[name] == recount, name
    assert stats["RoadSegment"] == 0 and stats["RoadSegmentNode"] == 0
    assert stats["statements"] == len(triples)
    recount_entities = {
        t.subject
        for t in triples
        if t.predicate == RDF.type
        and isinstance(t.subject, Iri)
        and isinstance(t.object, Iri)
        and reg.is_class(t.object)
    }
    assert stats["entities"] == len(recount_entities)
    assert stats["properties"] == len(reg.properties)
    assert stats["classes"] == len(reg.classes)
    _ok(8, f"{checked_terms} query term resolutions, 0 violations, stats equal recounts")
