from __future__ import annotations

import csv
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from evkg import queries
from evkg.queries import (
    QUERY_TEXTS,
    UnknownQueryId,
    expand_query_references,
    q4_series,
    q5_series,
    q6_selected_zips,
    question_outputs,
    run_suite_query,
    suite_query,
)
from evkg.sparql import parse_query
from evkg.sparql.engine import evaluate
from evkg.terms import Iri, Literal
from randomized import solution_multiset


# --- expansion ----------------------------------------------------------------


def test_expansion_inlines_references_recursively():
    text = expand_query_references(QUERY_TEXTS[9])
    assert "`" not in text
    assert "zipChargerNum" in text  # pulled in via query 8
    assert "reggroup" in text  # pulled in via query 7 (nested through 8)


def test_expansion_equals_manual_inlining(fixture_graph):
    # Hand-inline query 6 from its parts and compare evaluation results.
    manual = (
        "SELECT (?zip_dcfc_num/?ev_with_dc_num AS ?dcfc_per_ev) WHERE{\n"
        "{\n" + QUERY_TEXTS[4] + "\n}\n"
        "{\n" + QUERY_TEXTS[5] + "\n}\n"
        "}\n"
    )
    expanded = expand_query_references(QUERY_TEXTS[6])
    left = evaluate(fixture_graph, parse_query(expanded))
    right = evaluate(fixture_graph, parse_query(manual))
    assert solution_multiset(left) == solution_multiset(right)


def test_unknown_listing_reference_rejected():
    with pytest.raises(UnknownQueryId):
        expand_query_references("SELECT ?x WHERE { {``` Query from Listing 42 ```} }")


# --- independent recomputation over the CSV fixture ---------------------------


def _read(fixtures_dir: Path, name: str) -> list[dict]:
    with open(fixtures_dir / name, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _nj_zips(fixtures_dir: Path) -> set[str]:
    return {
        row["zip"]
        for row in _read(fixtures_dir, "zip_areas.csv")
        if row["state"] == "New Jersey"
    }


def _zip_rect(row: dict) -> tuple[float, float, float, float]:
    # Fixture zip areas are axis-aligned squares; read bounds off the WKT.
    body = row["wkt"].split("((")[1].rstrip("))")
    xs, ys = [], []
    for pair in body.split(","):
        x, y = pair.split()
        xs.append(float(x))
        ys.append(float(y))
    return min(xs), min(ys), max(xs), max(ys)


def _line_points(wkt: str) -> list[tuple[float, float]]:
    body = wkt.split("(", 1)[1].rstrip(")")
    return [tuple(map(float, pair.split())) for pair in body.split(",")]


def _line_crosses_rect(wkt: str, rect, samples: int = 4096) -> bool:
    """Sampling oracle: the line has points strictly inside and outside."""
    x0, y0, x1, y1 = rect
    pts = _line_points(wkt)
    saw_in = saw_out = False
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        for i in range(samples + 1):
            t = i / samples
            x, y = ax + (bx - ax) * t, ay + (by - ay) * t
            if x0 < x < x1 and y0 < y < y1:
                saw_in = True
            elif not (x0 <= x <= x1 and y0 <= y <= y1):
                saw_out = True
    return saw_in and saw_out


def _ccs_registrations_2021(fixtures_dir: Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    nj = _nj_zips(fixtures_dir)
    for row in _read(fixtures_dir, "registrations.csv"):
        if row["registration_year"] != "2021" or row["zip"] not in nj:
            continue
        if "J1772COMBO" not in row["connector_types"].split("|"):
            continue
        counts[row["zip"]] = counts.get(row["zip"], 0) + 1
    return counts


def _ccs_chargers(fixtures_dir: Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    nj = _nj_zips(fixtures_dir)
    for row in _read(fixtures_dir, "stations.csv"):
        if row["zip"] not in nj:
            continue
        for group in row["charger_groups"].split("|"):
            if not group:
                continue
            charger, connector, amount = group.split(":")
            if connector == "J1772COMBO":
                counts[row["zip"]] = counts.get(row["zip"], 0) + int(amount)
    return counts


def _zips_crossed_by_500(fixtures_dir: Path) -> set[str]:
    rects = {
        row["zip"]: _zip_rect(row)
        for row in _read(fixtures_dir, "zip_areas.csv")
        if row["state"] == "New Jersey"
    }
    crossed = set()
    for row in _read(fixtures_dir, "transmission.csv"):
        if row["kind"] != "line" or row["voltage_class"] != "500":
            continue
        for zip_code, rect in rects.items():
            if _line_crosses_rect(row["wkt"], rect):
                crossed.add(zip_code)
    return crossed


def test_query1_returns_only_chademo_product_label(fixture_graph):
    solution = run_suite_query(fixture_graph, 1)
    assert [row["lev"] for row in solution.rows] == [Literal("Nissan Leaf")]


def test_query3_station_search_scenario(fixture_graph, fixtures_dir):
    """Independent recomputation of every filter over the station CSV."""
    stations = _read(fixtures_dir, "stations.csv")
    leaf_connectors = {"J1772", "CHADEMO"}  # from the 2021 Leaf product row
    values_labels = {"CHAdeMO", "J1772COMBO", "TESLA"}
    token_to_label = {"CHADEMO": "CHAdeMO", "J1772COMBO": "J1772COMBO",
                      "TESLA": "TESLA", "J1772": "J1772", "NEMA": "NEMA"}
    expected = set()
    for row in stations:
        if row["zip"] != "95814" or row["access"] != "public":
            continue
        if row["network"] != "ChargePoint Network":
            continue
        if row["operating_hours"] != "24 hours daily  ":
            continue
        for group in row["charger_groups"].split("|"):
            if not group:
                continue
            _, connector, _ = group.split(":")
            label = token_to_label[connector]
            if connector in leaf_connectors and label in values_labels:
                expected.add((row["station_id"], label))
    assert expected == {("CA001", "CHAdeMO")}  # the scenario as designed

    solution = run_suite_query(fixture_graph, 3)
    actual = set()
    for row in solution.rows:
        station = row["station"]
        co = row["co"]
        assert isinstance(station, Iri) and isinstance(co, Iri)
        actual.add((station.value.rsplit(".", 1)[-1], co.value.rsplit(".", 1)[-1]))
    assert actual == expected


def test_query7_registration_sums_match_recount(fixture_graph, fixtures_dir):
    expected = _ccs_registrations_2021(fixtures_dir)
    solution = run_suite_query(fixture_graph, 7)
    actual = {}
    for row in solution.rows:
        zipcode = row["zipcode"]
        assert isinstance(zipcode, Iri)
        actual[zipcode.value.rsplit(".", 1)[-1]] = int(row["zipRegNum"].lexical)
    assert actual == expected


def test_query8_ratios_match_recount(fixture_graph, fixtures_dir):
    regs = _ccs_registrations_2021(fixtures_dir)
    chargers = _ccs_chargers(fixtures_dir)
    expected = {
        z: (chargers[z], regs[z], Fraction(chargers[z], regs[z]))
        for z in chargers.keys() & regs.keys()
    }
    solution = run_suite_query(fixture_graph, 8)
    actual = {}
    for row in solution.rows:
        z = row["zipcode"].value.rsplit(".", 1)[-1]
        actual[z] = (
            int(row["zipChargerNum"].lexical),
            int(row["zipRegNum"].lexical),
            Fraction(row["ratio"].lexical),
        )
    assert actual.keys() == expected.keys()
    for z, (charger_n, reg_n, ratio) in expected.items():
        got_chargers, got_regs, got_ratio = actual[z]
        assert (got_chargers, got_regs) == (charger_n, reg_n), z
        # Non-terminating quotients are rounded half-even at 12 digits.
        assert abs(got_ratio - ratio) <= Fraction(1, 2 * 10**12), z


def test_query9_and_10_thresholds(fixture_graph, fixtures_dir):
    regs = _ccs_registrations_2021(fixtures_dir)
    chargers = _ccs_chargers(fixtures_dir)
    crossed = _zips_crossed_by_500(fixtures_dir)
    expected_shortage = {
        z
        for z in chargers.keys() & regs.keys()
        if Fraction(chargers[z], regs[z]) < Fraction(1, 10) and z in crossed
    }
    expected_adoption = {z for z, n in regs.items() if n > 98 and z in crossed}

    nine = run_suite_query(fixture_graph, 9)
    ten = run_suite_query(fixture_graph, 10)
    assert {
        row["zipcode"].value.rsplit(".", 1)[-1] for row in nine.rows
    } == expected_shortage
    assert {
        row["zipcode"].value.rsplit(".", 1)[-1] for row in ten.rows
    } == expected_adoption

    selected = q6_selected_zips(fixture_graph, nine, ten)
    assert selected[0] == ["zipcode"]
    assert {row[0] for row in selected[1:]} == expected_shortage & expected_adoption
    assert {row[0] for row in selected[1:]} == {"07001", "07003"}


def test_q4_series_recount(fixture_graph, fixtures_dir):
    """DCFC counts by (connector, open year) recomputed from the CSVs."""
    nj = _nj_zips(fixtures_dir)
    token_to_label = {"CHADEMO": "CHAdeMO", "J1772COMBO": "J1772COMBO",
                      "TESLA": "TESLA", "J1772": "J1772", "NEMA": "NEMA"}
    dcfc: dict[tuple[str, str], int] = {}
    for row in _read(fixtures_dir, "stations.csv"):
        if row["zip"] not in nj:
            continue
        year = row["open_date"][:4]
        for group in row["charger_groups"].split("|"):
            if not group:
                continue
            charger, connector, amount = group.split(":")
            if charger != "DCFC":
                continue
            key = (token_to_label[connector], year)
            dcfc[key] = dcfc.get(key, 0) + int(amount)

    series = q4_series(
        fixture_graph, run_suite_query(fixture_graph, 4), run_suite_query(fixture_graph, 5)
    )
    assert series[0] == ["connector", "year", "dcfc_num", "ev_num", "dcfc_per_ev"]
    actual = {
        (row[0], row[1]): int(row[2]) for row in series[1:] if row[2] != ""
    }
    assert actual == dcfc


def test_q5_series_zip_column(fixture_graph, fixtures_dir):
    series = q5_series(fixture_graph, run_suite_query(fixture_graph, 8))
    assert series[0] == ["zipcode", "ccs_charger_num", "ccs_ev_num", "ratio"]
    regs = _ccs_registrations_2021(fixtures_dir)
    chargers = _ccs_chargers(fixtures_dir)
    assert {row[0] for row in series[1:]} == set(chargers.keys() & regs.keys())


def test_query2_king_county_membership(fixture_graph, fixtures_dir):
    king_zips = {
        row["zip"]
        for row in _read(fixtures_dir, "zip_areas.csv")
        if row["county"] == "King"
    }
    stations_in_king = {
        row["station_id"]
        for row in _read(fixtures_dir, "stations.csv")
        if row["zip"] in king_zips
    }
    solution = run_suite_query(fixture_graph, 2)
    bound_stations = {
        row["char_station"].value.rsplit(".", 1)[-1]
        for row in solution.rows
        if "char_station" in row
    }
    assert bound_stations == stations_in_king
    # the road branch is empty: the road subgraph is out of scope
    assert all("road" not in row for row in solution.rows)


def test_question_outputs_are_exactly_the_expected_files(fixture_graph, fixtures_dir):
    expected_dir = fixtures_dir / "expected"
    outputs = [out for q in range(1, 7) for out in question_outputs(fixture_graph, q)]
    names = [name for name, _ in outputs]
    assert len(names) == len(set(names))
    assert set(names) == {path.name for path in expected_dir.iterdir()}
    for name, text in outputs:
        assert text == (expected_dir / name).read_text(encoding="utf-8"), name


def test_question_outputs_run_each_query_once(fixture_graph, monkeypatch):
    calls = []

    def counting(graph, qid, evaluator=None):
        calls.append(qid)
        return run_suite_query(graph, qid, evaluator)

    monkeypatch.setattr(queries, "run_suite_query", counting)
    for question, expected in {4: [4, 5, 6], 5: [7, 8], 6: [9, 10]}.items():
        calls.clear()
        question_outputs(fixture_graph, question)
        assert calls == expected, question


# --- the parsed-query cache -----------------------------------------------------


def test_each_suite_query_is_parsed_once(fixture_graph, monkeypatch):
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_query(text)

    suite_query.cache_clear()
    monkeypatch.setattr(queries, "parse_query", counting)
    for _ in range(2):
        for qid in range(1, 11):
            run_suite_query(fixture_graph, qid)
    question_outputs(fixture_graph, 4)
    assert parsed == [expand_query_references(QUERY_TEXTS[qid]) for qid in range(1, 11)]


def test_cached_asts_hold_no_mutable_container():
    stack = [suite_query(qid) for qid in range(1, 11)]
    while stack:
        node = stack.pop()
        assert not isinstance(node, (list, dict, set)), node
        if dataclasses.is_dataclass(node):
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
        elif isinstance(node, tuple):
            stack.extend(node)


def test_unknown_suite_id_raises_every_time(fixture_graph):
    size = suite_query.cache_info().currsize
    for _ in range(2):
        with pytest.raises(UnknownQueryId):
            suite_query(42)
        with pytest.raises(UnknownQueryId):
            run_suite_query(fixture_graph, 42)
    assert suite_query.cache_info().currsize == size
