from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import operator
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evkg import geometry, ingest, materialize
from evkg.graph import Graph
from evkg.ingest import (
    ChargerGroup,
    DuplicateZip,
    IngestConfig,
    IngestError,
    ProductKey,
    RegistrationCollection,
    RegistrationRecord,
    RowIssue,
    StationRecord,
    UnknownVocabularyToken,
    ZipAreaRecord,
    aggregate_registrations,
    build_graph,
    collection_iri,
    product_iri,
    read_registrations,
    read_stations,
    read_transmission,
    read_zip_areas,
    triplify_adoption,
    triplify_places,
    triplify_stations,
    triplify_transmission,
    zip_area_iri,
    TransmissionAssetRecord,
    _read_records,
)
from evkg.ntriples import serialize_ntriples
from evkg.terms import EV_ONT, EVR, KWG_ONT, OWL, RDF, RDFS, GEO, Iri, Literal, Triple, XSD_INTEGER
from conftest import ROOT, fixture_config


def _registration(zip_code="07677", year=2019, **product_overrides) -> RegistrationRecord:
    product = dict(
        make="BMW",
        model="i3",
        model_year=2018,
        technology="BEV",
        manufacturer="BMW of North America Inc.",
        use_case="compact",
        weight_level="light-duty",
        charger_types=frozenset({"LEVEL2", "DCFC"}),
        connector_types=frozenset({"J1772", "J1772COMBO"}),
    )
    product.update(product_overrides)
    return RegistrationRecord("WBY1Z4C5", zip_code, year, ProductKey(**product))


def _station(**overrides) -> StationRecord:
    fields = dict(
        station_id="ST1",
        name="Test Station",
        lon=-74.6,
        lat=40.5,
        zip="07677",
        access="public",
        network="ChargePoint Network",
        operating_hours="24 hours daily  ",
        open_date="2020-05-01",
        open_year=2020,
        pricing=None,
        parking_restriction=None,
        charger_groups=(ChargerGroup("DCFC", "CHADEMO", 2), ChargerGroup("DCFC", "J1772COMBO", 2)),
    )
    fields.update(overrides)
    return StationRecord(**fields)


# --- aggregation -------------------------------------------------------------


def test_36_identical_records_one_collection():
    records = [_registration() for _ in range(36)]
    collections = aggregate_registrations(records)
    assert len(collections) == 1
    assert collections[0].amount == 36
    assert collections[0].zip == "07677"
    assert collections[0].year == 2019


def test_zero_records_zero_collections():
    assert aggregate_registrations([]) == []


def test_split_across_zips_hand_count():
    records = [_registration("07677") for _ in range(7)] + [
        _registration("07001") for _ in range(3)
    ]
    collections = {(c.zip, c.amount) for c in aggregate_registrations(records)}
    assert collections == {("07677", 7), ("07001", 3)}


def test_amounts_conserve_record_count():
    records = (
        [_registration() for _ in range(5)]
        + [_registration(year=2020) for _ in range(4)]
        + [_registration(model="iX") for _ in range(2)]
    )
    collections = aggregate_registrations(records)
    assert sum(c.amount for c in collections) == len(records)


# --- adoption triplification ---------------------------------------------------


def test_adoption_emits_collection_facts():
    records = [_registration() for _ in range(36)]
    collections = aggregate_registrations(records)
    key = records[0].product
    g = Graph(triplify_adoption(collections))
    coll = collection_iri("07677", 2019, key)
    assert Triple(coll, EV_ONT.hasAmount, Literal("36", XSD_INTEGER)) in g
    assert Triple(coll, EV_ONT.hasSpatialScope, zip_area_iri("07677")) in g
    prod = product_iri(key)
    assert Triple(prod, EV_ONT.hasMakeType, EVR["maketype.BMW"]) in g
    assert Triple(prod, RDFS.label, Literal("BMW i3")) in g


def test_product_with_two_connectors_two_matchable_triples():
    rec = _registration()
    key = rec.product
    g = Graph(triplify_adoption(aggregate_registrations([rec])))
    matchable = g.objects(product_iri(key), EV_ONT.hasMatchableConnectorType)
    assert set(matchable) == {EVR["connectortype.J1772"], EVR["connectortype.J1772COMBO"]}


def test_adoption_deterministic():
    records = [_registration(), _registration(zip_code="07001"), _registration(model="iX")]
    one = Graph(triplify_adoption(aggregate_registrations(records)))
    two = Graph(triplify_adoption(aggregate_registrations(list(reversed(records)))))
    assert serialize_ntriples(one) == serialize_ntriples(two)


def test_adoption_products_come_from_the_collections():
    records = [_registration(), _registration(year=2020), _registration(model="iX")]
    g = Graph(triplify_adoption(aggregate_registrations(records)))
    products = set(g.subjects(RDF.type, EV_ONT.ElectricVehicleProduct))
    assert products == {product_iri(r.product) for r in records}
    assert len(products) == 2


def test_unknown_connector_token_named():
    rec = _registration(connector_types=frozenset({"WARPPLUG"}))
    with pytest.raises(UnknownVocabularyToken) as exc:
        triplify_adoption(aggregate_registrations([rec]))
    assert "WARPPLUG" in str(exc.value)


# --- station triplification ---------------------------------------------------


def test_station_types_and_collections():
    g = Graph(triplify_stations([_station()]))
    stn = EVR["chargingstation.ST1"]
    types = set(g.objects(stn, RDF.type))
    assert EV_ONT.PublicChargingStation in types
    assert EV_ONT.NetworkedChargingStation in types
    collections = g.objects(stn, EV_ONT.hosts)
    assert len(collections) == 2
    for cc in collections:
        [amount] = g.objects(cc, EV_ONT.hasAmount)
        assert amount == Literal("2", XSD_INTEGER)


def test_station_operating_hours_preserved_byte_exact():
    g = Graph(triplify_stations([_station()]))
    stn = EVR["chargingstation.ST1"]
    assert g.value(stn, EV_ONT.hasOperatingHours) == Literal("24 hours daily  ")


def test_station_without_groups_emits_no_collections():
    g = Graph(triplify_stations([_station(charger_groups=())]))
    stn = EVR["chargingstation.ST1"]
    assert g.objects(stn, EV_ONT.hosts) == []
    assert EV_ONT.PublicChargingStation in g.objects(stn, RDF.type)


def test_private_nonnetworked_station_types():
    g = Graph(triplify_stations([_station(access="private", network=None)]))
    stn = EVR["chargingstation.ST1"]
    types = set(g.objects(stn, RDF.type))
    assert EV_ONT.PrivateChargingStation in types
    assert EV_ONT.NonNetworkedChargingStation in types


def test_station_unknown_charger_token():
    bad = _station(charger_groups=(ChargerGroup("TURBO", "J1772", 1),))
    with pytest.raises(UnknownVocabularyToken) as exc:
        triplify_stations([bad])
    assert "TURBO" in str(exc.value)


def test_station_has_exactly_one_geometry(fixture_graph):
    for cls in (EV_ONT.PublicChargingStation, EV_ONT.Substation, EV_ONT.PowerPlant,
                EV_ONT.TransmissionLine, KWG_ONT.ZipCodeArea):
        for feature in fixture_graph.subjects(RDF.type, cls):
            nodes = fixture_graph.objects(feature, GEO.hasGeometry)
            assert len(nodes) == 1, feature
            wkts = fixture_graph.objects(nodes[0], GEO.asWKT)
            assert len(wkts) == 1, feature


# --- transmission ------------------------------------------------------------


def test_line_voltage_class_labeled():
    rec = TransmissionAssetRecord(
        asset_id="L1", kind="line", geometry_wkt="LINESTRING (0 0, 5 5)",
        voltage_class="500", status="IN SERVICE", owner="PSEG",
    )
    g = Graph(triplify_transmission([rec]))
    line = EVR["transmissionline.L1"]
    [vc] = g.objects(line, EV_ONT.hasVoltageClass)
    assert g.value(vc, RDFS.label) == Literal("500")


def test_substation_two_voltage_triples():
    rec = TransmissionAssetRecord(
        asset_id="S1", kind="substation", geometry_wkt="POINT (1 1)",
        min_voltage="115", max_voltage="345",
    )
    g = Graph(triplify_transmission([rec]))
    sub = EVR["substation.S1"]
    assert g.value(sub, EV_ONT.hasMinVoltage) is not None
    assert g.value(sub, EV_ONT.hasMaxVoltage) is not None


def test_plant_with_only_operating_capacity():
    rec = TransmissionAssetRecord(
        asset_id="P1", kind="plant", geometry_wkt="POINT (2 2)", operating_capacity="300",
    )
    g = Graph(triplify_transmission([rec]))
    plant = EVR["powerplant.P1"]
    assert g.value(plant, EV_ONT.hasOperatingCapacity) is not None
    assert g.value(plant, EV_ONT.hasSummerCapacity) is None
    assert g.value(plant, EV_ONT.hasWinterCapacity) is None


def test_line_with_point_geometry_rejected():
    with pytest.raises(Exception):
        TransmissionAssetRecord(asset_id="L2", kind="line", geometry_wkt="POINT (0 0)")


# --- places --------------------------------------------------------------------


def test_places_hierarchy_and_label():
    rec = ZipAreaRecord(
        zip="95814",
        polygon_wkt="POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
        state_label="California",
        county_label="Sacramento",
    )
    g = Graph(triplify_places([rec]))
    zip_area = zip_area_iri("95814")
    state = EVR["state.California"]
    assert g.value(zip_area, RDFS.label) == Literal("zip code 95814")
    assert Triple(state, KWG_ONT.sfContains, zip_area) in g
    assert Triple(zip_area, KWG_ONT.sfWithin, state) in g


def test_places_sameas_emitted_once():
    rec = ZipAreaRecord(
        zip="95814",
        polygon_wkt="POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
        state_label="California",
        county_label="Sacramento",
        kwg_sameas="http://stko-kwg.geog.ucsb.edu/lod/resource/zipCodeArea.95814",
    )
    g = Graph(triplify_places([rec]))
    assert len(list(g.match(None, OWL.sameAs, None))) == 1


def test_places_hierarchy_triple_count():
    records = [
        ZipAreaRecord(
            zip=f"0700{i}",
            polygon_wkt=f"POLYGON (({i * 2} 0, {i * 2 + 1} 0, {i * 2 + 1} 1, {i * 2} 1, {i * 2} 0))",
            state_label="New Jersey",
            county_label=f"County{i}",
        )
        for i in range(4)
    ]
    g = Graph(triplify_places(records))
    # 2N per parent level: state<->zip and county<->zip
    assert len(list(g.match(None, KWG_ONT.sfContains, None))) == 2 * len(records)
    assert len(list(g.match(None, KWG_ONT.sfWithin, None))) == 2 * len(records)


def test_duplicate_zip_rejected():
    rec = ZipAreaRecord(
        zip="95814", polygon_wkt="POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
        state_label="California", county_label="Sacramento",
    )
    with pytest.raises(DuplicateZip):
        triplify_places([rec, rec])


def _zip_areas_plus(tmp_path: Path, fixtures_dir: Path, extra) -> tuple[Path, int]:
    """Copy the fixture's zip areas with the rows `extra(first data row)` appended;
    return the copy and its row count (the header is row 1)."""
    with open(fixtures_dir / "zip_areas.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[1][0] == "07677"
    rows.extend(extra(rows[1]))
    path = tmp_path / "zip_areas.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    return path, len(rows)


def test_repeated_valid_zip_row_fails_the_load(tmp_path, fixtures_dir):
    path, _ = _zip_areas_plus(tmp_path, fixtures_dir, lambda first: [first])
    with pytest.raises(DuplicateZip, match="^duplicate zip code area: 07677$"):
        build_graph(replace(fixture_config(), zip_areas=path))


# --- CSV readers ----------------------------------------------------------------


def test_bad_rows_skipped_with_row_numbers(tmp_path: Path):
    path = tmp_path / "registrations.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["vin8", "zip", "model_year", "registration_year", "make", "model",
             "technology", "manufacturer", "use_case", "weight_level",
             "charger_types", "connector_types"])
        writer.writerow(["WBY1Z4C5", "07677", 2018, 2019, "BMW", "i3", "BEV",
                         "BMW NA", "compact", "light-duty", "DCFC", "J1772COMBO"])
        writer.writerow(["SHORT", "07677", 2018, 2019, "BMW", "i3", "BEV",
                         "BMW NA", "compact", "light-duty", "DCFC", "J1772COMBO"])
        writer.writerow(["WBY1Z4C5", "0767", 2018, 2019, "BMW", "i3", "BEV",
                         "BMW NA", "compact", "light-duty", "DCFC", "J1772COMBO"])
        writer.writerow(["WBY1Z4C5", "07677", 99, 2019, "BMW", "i3", "BEV",
                         "BMW NA", "compact", "light-duty", "DCFC", "J1772COMBO"])
        writer.writerow(["WBY1Z4C5", "07677", 2018, 2019, "BMW", "i3", "FCEV",
                         "BMW NA", "compact", "light-duty", "DCFC", "J1772COMBO"])
        writer.writerow(["WBY1Z4C5", "07677", "20x8", 2019, "BMW", "i3", "BEV",
                         "BMW NA", "compact", "light-duty", "DCFC", "J1772COMBO"])
        for zip_code in ("07677\n", "\u0660\u0667\u0666\u0667\u0667"):  # Arabic-Indic digits
            writer.writerow(["WBY1Z4C5", zip_code, 2018, 2019, "BMW", "i3", "BEV",
                             "BMW NA", "compact", "light-duty", "DCFC", "J1772COMBO"])
    records, issues = read_registrations(path)
    assert len(records) == 1
    assert [i.row for i in issues] == [3, 4, 5, 6, 7, 8, 9]
    assert "year must be 4 digits: 99" in issues[2].message
    assert "technology must be BEV or PHEV: 'FCEV'" in issues[3].message
    assert "20x8" in issues[4].message
    assert issues[5].message == "zip must be 5 digits: '07677\\n'"
    assert issues[6].message == "zip must be 5 digits: '\u0660\u0667\u0666\u0667\u0667'"


def test_bad_zip_area_rows_skipped_with_row_numbers(tmp_path, fixtures_dir):
    def extra(first: list[str]) -> list[list[str]]:
        bad_zips = [[zip_code] + first[1:]
                    for zip_code in ("07677\n", "\u0660\u0667\u0666\u0667\u0667", "0767")]
        # Repeats the first zip, but is itself invalid: a skipped row, not a DuplicateZip.
        return bad_zips + [[first[0], "POINT (0 0)"] + first[2:]]

    path, n = _zip_areas_plus(tmp_path, fixtures_dir, extra)
    records, issues = read_zip_areas(path)
    assert len(records) == n - 5
    assert [(i.row, i.message) for i in issues] == [
        (n - 3, "zip must be 5 digits: '07677\\n'"),
        (n - 2, "zip must be 5 digits: '\u0660\u0667\u0666\u0667\u0667'"),
        (n - 1, "zip must be 5 digits: '0767'"),
        (n, "zip 07677: area geometry must be a polygon"),
    ]


@pytest.mark.parametrize("reader, name, cells", [
    (read_registrations, "registrations.csv", 12),
    (read_stations, "stations.csv", 12),
    (read_transmission, "transmission.csv", 11),
    (read_zip_areas, "zip_areas.csv", 5),
])
def test_row_with_wrong_cell_count_skipped(tmp_path, fixtures_dir, reader, name, cells):
    text = (fixtures_dir / name).read_text(encoding="utf-8")
    rows = len(text.splitlines())
    path = tmp_path / name
    path.write_text(text + "WBY1Z4C5,07677,2018\n" + "," * cells + "\n", encoding="utf-8")
    records, issues = reader(path)
    assert len(records) == rows - 1
    assert [(i.row, i.message) for i in issues] == [
        (rows + 1, f"cell count 3 differs from the header's {cells}"),
        (rows + 2, f"cell count {cells + 1} differs from the header's {cells}"),
    ]


def test_non_finite_station_coordinates_skipped(tmp_path, fixtures_dir):
    with open(fixtures_dir / "stations.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    template = rows[1]
    for i, (lon, lat) in enumerate([("nan", "38.4"), ("-121.6", "inf"), ("1e999", "38.4")]):
        rows.append([f"NF{i}", "x", lon, lat] + template[4:])
    path = tmp_path / "stations.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    records, issues = read_stations(path)
    assert not any(r.station_id.startswith("NF") for r in records)
    n = len(rows)
    assert [(i.row, i.message) for i in issues] == [
        (n - 2, "lon must be finite: nan"),
        (n - 1, "lat must be finite: inf"),
        (n, "lon must be finite: inf"),
    ]


def test_header_only_registrations(tmp_path: Path):
    path = tmp_path / "registrations.csv"
    path.write_text(
        "vin8,zip,model_year,registration_year,make,model,technology,"
        "manufacturer,use_case,weight_level,charger_types,connector_types\n",
        encoding="utf-8",
    )
    records, issues = read_registrations(path)
    assert records == [] and issues == []
    assert aggregate_registrations(records) == []


REGISTRATION_HEADER = [
    "vin8", "zip", "model_year", "registration_year", "make", "model", "technology",
    "manufacturer", "use_case", "weight_level", "charger_types", "connector_types",
]


def _write_registrations(path: Path, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([REGISTRATION_HEADER, *rows])
    return path


def _read_registrations_one_product_per_row(path: Path):
    """Reference reader: builds one ProductKey for every row."""
    def tokens(cell):
        return frozenset(t.strip() for t in cell.split("|") if t.strip())

    records, issues = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        row_no = 1
        for cells in reader:
            if not cells:
                continue
            row_no += 1
            if len(cells) != len(header):
                issues.append((row_no, f"cell count {len(cells)} differs from the header's {len(header)}"))
                continue
            row = dict(zip(header, cells))
            try:
                product = ProductKey(
                    make=row["make"],
                    model=row["model"],
                    model_year=int(row["model_year"]),
                    technology=row["technology"],
                    manufacturer=row["manufacturer"],
                    use_case=row["use_case"],
                    weight_level=row["weight_level"],
                    charger_types=tokens(row["charger_types"]),
                    connector_types=tokens(row["connector_types"]),
                )
                records.append(RegistrationRecord(
                    row["vin8"], row["zip"], int(row["registration_year"]), product))
            except ValueError as exc:  # IngestError is a ValueError
                issues.append((row_no, str(exc)))
    return records, issues


@pytest.mark.parametrize("edited", [False, True])
def test_read_registrations_matches_one_product_per_row(tmp_path, fixtures_dir, edited):
    path = fixtures_dir / "registrations.csv"
    if edited:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        good = rows[0]
        rows[3:3] = [
            good[:6] + ["FCEV"] + good[7:],  # bad product
            ["SHORT"] + good[1:],  # good product, bad vin8
            good[:3] + ["20x9"] + good[4:],  # good product, bad registration year
            good[:2] + ["20x8", "20x9"] + good[4:],  # both bad: the product is reported
            good[:2] + ["99"] + good[3:],  # product year out of range
            good[:3],  # cell count
            [],  # a blank line is not a row
            good[:10] + [" DCFC | LEVEL2 ", "J1772COMBO|J1772"],  # tokens reordered
        ]
        # One row per product column with only that cell changed: each is its own product.
        changed = {2: "2017", 4: "Tesla", 5: "X", 6: "PHEV", 7: "Tesla Inc.", 8: "suv",
                   9: "medium-duty", 10: "LEVEL1", 11: "TESLA"}
        rows += [good[:i] + [value] + good[i + 1:] for i, value in changed.items()]
        path = _write_registrations(tmp_path / "registrations.csv", rows)
    records, issues = read_registrations(path)
    expected_records, expected_issues = _read_registrations_one_product_per_row(path)
    assert records == expected_records
    assert [(i.row, i.message) for i in issues] == expected_issues
    assert len(expected_issues) == (6 if edited else 0)


def test_token_order_and_spacing_give_one_product_and_one_collection(tmp_path):
    row = ["WBY1Z4C5", "07677", "2018", "2019", "BMW", "i3", "BEV",
           "BMW NA", "compact", "light-duty", "LEVEL2|DCFC", "J1772|J1772COMBO"]
    respaced = row[:10] + [" DCFC | LEVEL2", "J1772COMBO | J1772"]
    path = _write_registrations(tmp_path / "registrations.csv", [row, respaced, row])
    records, issues = read_registrations(path)
    assert not issues
    assert records[0].product == records[1].product
    assert hash(records[0].product) == hash(records[1].product)
    [collection] = aggregate_registrations(records)
    assert collection.amount == 3


def test_repeated_bad_product_rows_each_reported(tmp_path):
    good = ["WBY1Z4C5", "07677", "2018", "2019", "BMW", "i3", "BEV",
            "BMW NA", "compact", "light-duty", "DCFC", "J1772COMBO"]
    bad = good[:6] + ["FCEV"] + good[7:]
    path = _write_registrations(tmp_path / "registrations.csv", [good, bad, bad, bad, good])
    records, issues = read_registrations(path)
    assert len(records) == 2
    message = "technology must be BEV or PHEV: 'FCEV'"
    assert [(i.row, i.message) for i in issues] == [(3, message), (4, message), (5, message)]


def test_equal_product_cells_share_one_product_key(fixtures_dir):
    path = fixtures_dir / "registrations.csv"
    records, issues = read_registrations(path)
    assert not issues
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    assert len(rows) == len(records)
    first: dict[tuple[str, ...], ProductKey] = {}
    for row, rec in zip(rows, records):
        cells = (row[2], *row[4:])
        assert rec.product is first.setdefault(cells, rec.product)
    assert len(first) < len(records)


def test_station_reader_round_trips_trailing_spaces(fixtures_dir):
    records, issues = read_stations(fixtures_dir / "stations.csv")
    assert not issues
    ca001 = next(r for r in records if r.station_id == "CA001")
    assert ca001.operating_hours == "24 hours daily  "
    assert ca001.open_year == 2020


# --- whole-load determinism ----------------------------------------------------


def _count_wkt_parses(monkeypatch) -> list[int]:
    calls = [0]
    parse = geometry.parse_wkt

    def counting(text):
        calls[0] += 1
        return parse(text)

    monkeypatch.setattr(geometry, "parse_wkt", counting)
    return calls


def test_build_graph_parses_each_source_wkt_once(monkeypatch):
    # 53 zip and transmission records parse their WKT once while validating;
    # every stored literal is the text of a record or station geometry that
    # survives 9 decimals, so spatial materialization parses none of the 93.
    calls = _count_wkt_parses(monkeypatch)
    build_graph(fixture_config())
    assert calls[0] == 53


@pytest.mark.parametrize("vertex, calls", [("0.5", 54), ("0.5000000001", 55)])
def test_literal_that_rounding_changed_is_parsed(tmp_path, fixtures_dir, monkeypatch, vertex, calls):
    # One more zip: its source WKT is parsed while validating, and its stored
    # literal only when a vertex is off the 9-decimal grid (still valid there).
    zips = tmp_path / "zip_areas.csv"
    zips.write_text((fixtures_dir / "zip_areas.csv").read_text(encoding="utf-8")
                    + f'99999,"POLYGON ((0 0, 1 0, 1 1, {vertex} 1.5, 0 1, 0 0))",Nowhere,Nowhere,\n',
                    encoding="utf-8")
    count = _count_wkt_parses(monkeypatch)
    graph, report = build_graph(replace(fixture_config(), zip_areas=zips))
    assert count[0] == calls
    assert report.counts["zip_areas"] == 33
    node = ingest.geometry_iri(zip_area_iri("99999"))
    assert [w.lexical for w in graph.objects(node, GEO.asWKT)] == [
        "POLYGON ((0 0, 1 0, 1 1, 0.5 1.5, 0 1, 0 0))"
    ]


def _tiled_config(tmp_path: Path) -> IngestConfig:
    _load_tiler().tile_corpus(ROOT / "fixtures", tmp_path, 2, 1)
    return IngestConfig(**{name: tmp_path / f"{name}.csv"
                           for name in ("registrations", "stations", "transmission", "zip_areas")})


@pytest.mark.parametrize("tiled", [False, True], ids=["fixture", "k2"])
def test_handed_geometries_give_what_parsing_every_literal_gives(tmp_path, monkeypatch, tiled):
    config = _tiled_config(tmp_path) if tiled else fixture_config()
    spatial = materialize.materialize_spatial_relations
    reports, handed = [], []

    def recording(graph, parsed):
        handed.append(parsed)
        reports.append(spatial(graph, parsed))
        return reports[-1]

    monkeypatch.setattr(materialize, "materialize_spatial_relations", recording)
    to_wkt, written = geometry.to_wkt, []
    monkeypatch.setattr(geometry, "to_wkt", lambda g: written.append(g) or to_wkt(g))
    graph, _ = build_graph(config)
    monkeypatch.setattr(geometry, "to_wkt", to_wkt)
    bare, _ = build_graph(replace(config, materialize_spatial=False))
    assert reports == [spatial(bare)]
    assert reports[0].added_total > 0
    assert serialize_ntriples(graph) == serialize_ntriples(bare)

    # The handed map is keyed by each geometry's text, written once per geometry.
    geoms = [rec.geometry for rec in read_zip_areas(config.zip_areas)[0]]
    geoms += [geometry.Point(rec.lon, rec.lat) for rec in read_stations(config.stations)[0]]
    geoms += [rec.geometry for rec in read_transmission(config.transmission)[0]]
    assert written == geoms
    assert handed == [{to_wkt(g): g for g in geoms if geometry.survives_wkt(g)}]


def test_triplifiers_reuse_record_geometry(fixtures_dir, monkeypatch):
    zips, _ = read_zip_areas(fixtures_dir / "zip_areas.csv")
    assets, _ = read_transmission(fixtures_dir / "transmission.csv")
    calls = _count_wkt_parses(monkeypatch)
    triplify_places(zips)
    triplify_transmission(assets)
    assert calls[0] == 0


def test_fixture_load_counts_pinned():
    _, report = build_graph(fixture_config())
    assert report.counts == {
        "zip_areas": 32,
        "registration_records": 3683,
        "registration_collections": 47,
        "products": 7,
        "stations": 40,
        "transmission_lines": 10,
        "transmission_plants": 5,
        "transmission_substations": 6,
        "closure_triples": 228,
        "spatial_triples": 115,
    }


def test_fixture_snapshot_matches_bench_pin():
    pin = json.loads((ROOT / "bench" / "pins.json").read_text(encoding="utf-8"))["1"]
    text = serialize_ntriples(build_graph(fixture_config())[0])
    assert text.count("\n") == pin["triples"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin["sha256"]


def test_double_ingest_byte_identical():
    one, _ = build_graph(fixture_config())
    two, _ = build_graph(fixture_config())
    assert serialize_ntriples(one) == serialize_ntriples(two)


def test_conservation_per_state_year(fixture_graph, fixtures_dir):
    """Sum of collection amounts per (state, year) equals raw record count."""
    zip_state: dict[str, str] = {}
    with open(fixtures_dir / "zip_areas.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            zip_state[row["zip"]] = row["state"]
    expected: dict[tuple[str, str], int] = {}
    with open(fixtures_dir / "registrations.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            key = (zip_state[row["zip"]], row["registration_year"])
            expected[key] = expected.get(key, 0) + 1

    actual: dict[tuple[str, str], int] = {}
    for coll in fixture_graph.subjects(RDF.type, EV_ONT.ElectricVehicleRegistrationCollection):
        [zip_area] = fixture_graph.objects(coll, EV_ONT.hasSpatialScope)
        [year] = fixture_graph.objects(coll, EV_ONT.hasTemporalScope)
        [amount] = fixture_graph.objects(coll, EV_ONT.hasAmount)
        assert isinstance(zip_area, Iri)
        zip_code = zip_area.value.rsplit(".", 1)[-1]
        key = (zip_state[zip_code], year.lexical)
        actual[key] = actual.get(key, 0) + int(amount.lexical)
    assert actual == expected


def test_fixture_36_record_walkthrough(fixture_graph):
    """The 07677/2019 BMW i3 collection has amount exactly 36."""
    from evkg.terms import XSD_GYEAR

    found = []
    for coll in fixture_graph.subjects(RDF.type, EV_ONT.ElectricVehicleRegistrationCollection):
        if fixture_graph.value(coll, EV_ONT.hasSpatialScope) != zip_area_iri("07677"):
            continue
        if fixture_graph.value(coll, EV_ONT.hasTemporalScope) != Literal("2019", XSD_GYEAR):
            continue
        [prod] = fixture_graph.objects(coll, EV_ONT.hasProductInfo)
        if fixture_graph.value(prod, RDFS.label) == Literal("BMW i3"):
            found.append(coll)
    assert len(found) == 1
    assert fixture_graph.value(found[0], EV_ONT.hasAmount) == Literal("36", XSD_INTEGER)


def test_equal_registration_rows_share_one_record(tmp_path):
    good = ["WBY1Z4C5", "07677", "2018", "2019", "BMW", "i3", "BEV",
            "BMW NA", "compact", "light-duty", "DCFC", "J1772COMBO"]
    other = good[:1] + ["07001"] + good[2:]
    bad = ["SHORT"] + good[1:]
    rows = [good, bad, good, other, bad, good]
    path = _write_registrations(tmp_path / "registrations.csv", rows)
    records, issues = read_registrations(path)
    assert len(records) == 4
    assert records[0] is records[1] is records[3]
    assert records[2] is not records[0] and records[2].product is records[0].product
    message = "vin8 must be exactly 8 characters: 'SHORT'"
    assert [(i.row, i.message) for i in issues] == [(3, message), (6, message)]
    amounts = {c.zip: c.amount for c in aggregate_registrations(records)}
    assert amounts == {"07677": 3, "07001": 1}


# --- The per-line memo in the shared row loop -----------------------------------


def _read_records_one_reader(path: Path, required, build):
    """Reference: the row loop before the per-line memo, one csv reader over the file."""
    records, issues = [], []
    row_no = 0
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            position = {col: i for i, col in enumerate(header)}
            missing = [col for col in required if col not in position]
            if missing:
                raise IngestError(f"{path}: missing columns {missing}")
            pick = operator.itemgetter(*(position[col] for col in required))
            row_no = 1
            for cells in reader:
                if not cells:
                    continue
                row_no += 1
                if len(cells) != len(header):
                    message = f"cell count {len(cells)} differs from the header's {len(header)}"
                    issues.append(RowIssue(row_no, message))
                    continue
                try:
                    records.append(build(*pick(cells)))
                except ValueError as exc:
                    issues.append(RowIssue(row_no, str(exc)))
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise IngestError(f"{path}: row {row_no + 1}: {exc}") from None
    return records, issues


def _build_or_raise(c: str, a: str) -> tuple[str, str]:
    if "bad" in (a, c):
        raise IngestError(f"bad cell in {(c, a)!r}")
    if a == "y":
        raise ValueError(f"y beside {c!r}")
    return c, a


def _outcome(read, path: Path):
    try:
        return read(path, ["c", "a"], _build_or_raise)
    except IngestError as exc:
        return "error", str(exc)


# Cells with quotes, doubled quotes, quoted commas and quoted line breaks, and one
# ("zzzzzzzzz") over the field limit the differential test sets.
_CELLS = ["x", "y", "bad", "", '"', '""', '"q,c"', '"q\nl"', '"q\r\nl"', '"q\rl"',
          '"a""b"', 'p"q', "zzzzzzzzz"]
_ENDINGS = ["\n", "\r\n", "\r", ""]
_cell = st.one_of(st.sampled_from(["x", "z", ""]), st.sampled_from(_CELLS))
_line = st.builds(
    lambda cells, end: ",".join(cells) + end,
    st.one_of(st.lists(_cell, min_size=3, max_size=3), st.lists(_cell, min_size=1, max_size=4)),
    st.sampled_from(_ENDINGS),
)
# Lines are drawn from a small pool, so most files repeat lines; raw pieces mix in
# stray quotes, separators and blank lines anywhere.
_body = st.lists(st.one_of(_line, _line, st.sampled_from(_CELLS + [",", "\n", "\r\n", "\r"])),
                 min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=24))


@settings(max_examples=400, deadline=None)
@given(header_end=st.sampled_from(["\n", "\r\n", "\r"]), body=_body)
def test_line_memo_matches_one_reader_loop(tmp_path_factory, header_end, body):
    path = tmp_path_factory.mktemp("memo") / "rows.csv"
    path.write_text("a,b,c" + header_end + "".join(body), encoding="utf-8", newline="")
    limit = csv.field_size_limit(8)
    try:
        expected = _outcome(_read_records_one_reader, path)
        assert _outcome(_read_records, path) == expected
    finally:
        csv.field_size_limit(limit)


def _counting(build):
    calls = []

    def counted(*cells):
        calls.append(cells)
        return build(*cells)

    return counted, calls


def test_multi_line_record_is_parsed_every_time(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text('a,b,c\nx,"l1\nl2",z\nx,"l1\nl2",z\nl2",z\nx,y,z\n', encoding="utf-8")
    build, calls = _counting(lambda c, a: (c, a))
    records, issues = _read_records(path, ["c", "a"], build)
    assert records == [("z", "x"), ("z", "x"), ("z", "x")]
    assert records[0] is not records[1]  # built twice: a two-line record is never kept
    assert len(calls) == 3
    # The continuation line's text, met at a record start, is parsed as its own row.
    assert [(i.row, i.message) for i in issues] == [(4, "cell count 2 differs from the header's 3")]


def test_same_line_without_final_newline_gives_the_same_record(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c\r\nx,y,z\r\nx,y,z\r\nx,y,z", encoding="utf-8")
    records, issues = _read_records(path, ["c", "a"], lambda c, a: (c, a))
    assert records == [("z", "x")] * 3 and not issues
    assert records[0] is records[1]


def test_oversized_cell_after_memo_hits_names_its_row(tmp_path):
    path = tmp_path / "rows.csv"
    huge = "w" * 131_073
    path.write_text(f"a,b,c\nx,y,z\n\nx,y,z\nx,y,z\nx,{huge},z\nx,y,z\n", encoding="utf-8")
    with pytest.raises(IngestError, match=r"rows\.csv: row 5: field larger than field limit"):
        _read_records(path, ["c", "a"], lambda c, a: (c, a))


def test_repeated_short_rows_each_reported(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c\nx\nx,y,z\nx\n\nx\n", encoding="utf-8")
    records, issues = _read_records(path, ["c", "a"], lambda c, a: (c, a))
    assert records == [("z", "x")]
    message = "cell count 1 differs from the header's 3"
    assert [(i.row, i.message) for i in issues] == [(2, message), (4, message), (5, message)]


@pytest.mark.parametrize("reader, name", [
    (read_registrations, "registrations.csv"),
    (read_stations, "stations.csv"),
    (read_transmission, "transmission.csv"),
    (read_zip_areas, "zip_areas.csv"),
])
def test_build_runs_once_per_distinct_line(tmp_path, fixtures_dir, monkeypatch, reader, name):
    header, *lines = (fixtures_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / name
    path.write_text(header + "".join(lines * 3), encoding="utf-8")
    calls = []

    def read_counting(path, required, build):
        counted, made = _counting(build)
        calls.append(made)
        return _read_records(path, required, counted)

    monkeypatch.setattr(ingest, "_read_records", read_counting)
    records, issues = reader(path)
    assert not issues and len(records) == 3 * len(lines)
    [made] = calls
    assert len(made) == len(set(lines))
    first = {}
    for line, record in zip(lines * 3, records):
        assert first.setdefault(line, record) is record


# --- triplifiers build their triples without Triple's checks ---------------------


def _assert_checked_triples(triples) -> None:
    for t in triples:
        assert type(t) is Triple and Triple(*t) == t, t


def _load_tiler():
    """The bench's corpus tiler, loaded from its file (bench/ is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_tiler", ROOT / "bench" / "tiler.py")
    tiler = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tiler)
    return tiler


def test_build_graph_triples_pass_triple_checks(fixture_graph, tmp_path):
    _assert_checked_triples(fixture_graph)
    tiled, report = build_graph(_tiled_config(tmp_path))
    assert not report.skipped and len(tiled) > len(fixture_graph)
    _assert_checked_triples(tiled)


# Labels hold at least one IRI-safe character, so every minted fragment is non-empty.
_label = st.tuples(st.text(max_size=4), st.sampled_from("aZ7_-"), st.text(max_size=4)).map("".join)
_text = st.text(max_size=8)
_zip = st.from_regex(r"[0-9]{5}", fullmatch=True)
_year = st.integers(1000, 9999)
_coord = st.floats(-179, 179, allow_nan=False)
_number = st.one_of(st.none(), st.integers(0, 10**6).map(str), _coord.map(repr))
_product = st.builds(
    ProductKey, _label, _label, _year, st.sampled_from(["BEV", "PHEV"]), _label, _label, _label,
    st.frozensets(st.sampled_from(sorted(ingest.CHARGER_TOKENS))),
    st.frozensets(st.sampled_from(sorted(ingest.CONNECTOR_TOKENS))),
)
_collections = st.lists(
    st.builds(RegistrationCollection, _zip, _year, _product, st.integers(1, 500)), max_size=3
)
_stations = st.lists(
    st.builds(
        StationRecord, _label, _text, _coord, _coord, _zip, st.sampled_from(["public", "private"]),
        st.none() | _label, _text, st.none() | _text, _year, st.none() | _text,
        st.none() | _text,
        st.lists(st.builds(
            ChargerGroup, st.sampled_from(sorted(ingest.CHARGER_TOKENS)),
            st.sampled_from(sorted(ingest.CONNECTOR_TOKENS)), st.integers(1, 9),
        ), max_size=3).map(tuple),
    ),
    max_size=3, unique_by=lambda rec: ingest._sanitize(rec.station_id),
)


def _asset(kind, asset_id, x, y, *values) -> TransmissionAssetRecord:
    wkt = f"LINESTRING ({x} {y}, {x + 1} {y + 1})" if kind == "line" else f"POINT ({x} {y})"
    return TransmissionAssetRecord(asset_id, kind, wkt, *values)


_assets = st.lists(
    st.builds(
        _asset, st.sampled_from(["line", "substation", "plant"]), _label, _coord, _coord,
        st.none() | _label, _number, _number, _number, _number, _number, st.none() | _label,
        st.none() | _label,
    ),
    max_size=3, unique_by=lambda rec: (rec.kind, ingest._sanitize(rec.asset_id)),
)
_places = st.lists(
    st.builds(
        lambda zip_code, x, y, state, county, same: ZipAreaRecord(
            zip_code, f"POLYGON (({x} {y}, {x + 1} {y}, {x + 1} {y + 1}, {x} {y + 1}, {x} {y}))",
            state, county, f"https://example.org/zip/{zip_code}" if same else None,
        ),
        _zip, _coord, _coord, _label, _label, st.booleans(),
    ),
    max_size=3, unique_by=lambda rec: rec.zip,
)


@settings(max_examples=60, deadline=None)
@given(_collections, _stations, _assets, _places)
def test_triplifiers_emit_only_checked_triples(collections, stations, assets, places):
    _assert_checked_triples(triplify_adoption(collections))
    _assert_checked_triples(triplify_stations(stations))
    _assert_checked_triples(triplify_transmission(assets))
    _assert_checked_triples(triplify_places(places))
