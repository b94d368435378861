"""The bundled query suite and the competency-question runner helpers.

Ten canned queries answer the six competency questions (Q4 uses 4-6, Q5
uses 7-8, Q6 uses 9-10). Queries 6, 8, 9 and 10 embed references of the
form ```Query from Listing N``` which are inlined as sub-selects before
parsing; sub-selects join their siblings on all shared projected variable
names. Query 8's two parts therefore join on ?zipcode, while query 6's two
parts share no variable and combine as a cross product.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Callable, Optional

from .graph import Graph
from .results import csv_text, solution_to_tsv
from .sparql import SelectQuery, Solution, parse_query
from .sparql import engine
from .terms import RDFS, Iri, Literal, format_decimal, numeric_value

QUERY_TEXTS: dict[int, str] = {
    1: """\
SELECT DISTINCT ?lev WHERE {
\t?ev a ev-ont:ElectricVehicleProduct.
    \t?ev ev-ont:hasMatchableConnectorType evr:connectortype.CHAdeMO.
    \t?ev rdfs:label ?lev.
}
""",
    2: """\
SELECT * WHERE {
    ?county a kwg-ont:AdministrativeRegion_3.
    ?county rdfs:label "King".
    ?zipcode a kwg-ont:ZipCodeArea.
    ?zipcode kwg-ont:sfWithin ?county.
    {?road a kwg-ont:RoadSegment.
    ?road kwg-ont:sfWithin ?county.}
    UNION
    {?transline a ev-ont:TransmissionLine.
    ?transline kwg-ont:sfCrosses ?zipcode.}
    UNION
    {?char_station a ev-ont:ChargingStation.
    ?char_station kwg-ont:sfWithin ?zipcode.}
    UNION
    {?substation a ev-ont:Substation.
    ?substation kwg-ont:sfWithin ?zipcode.}
    UNION
    {?powerplant a ev-ont:PowerPlant.
    ?powerplant kwg-ont:sfWithin ?zipcode.}
    }
""",
    3: """\
SELECT DISTINCT ?co ?station ?sWKT
WHERE {{
    ?zipcode a kwg-ont:ZipCodeArea.
    ?zipcode rdfs:label "zip code 95814".
    ?station a ev-ont:PublicChargingStation.
    ?station kwg-ont:sfWithin ?zipcode.
    ?station ev-ont:hosts ?chargerCollection.
    ?chargerCollection ev-ont:hasConnectorType ?co.
    ?station ev-ont:hasOperatingHours "24 hours daily  ".
    ?station ev-ont:isUnderChargingNetwork
        evr:chargingnetwork.ChargePointNetwork.
    ?station geo:hasGeometry ?sGeom .
    ?sGeom geo:asWKT ?sWKT .

    ?ev a ev-ont:ElectricVehicleProduct.
    ?ev ev-ont:hasModelType ?model.
    ?ev rdfs:label "Nissan Leaf".
    ?ev ev-ont:hasModelYear "2021"^^xsd:gYear.
    ?ev ev-ont:hasMatchableConnectorType ?co.
    ?co rdfs:label ?co_name.
    VALUES ?co_name{"CHAdeMO" "J1772COMBO" "TESLA"}}}
""",
    4: """\
SELECT ?co (SUM(?charger_n) AS ?zip_dcfc_num) ?year
WHERE{
SELECT DISTINCT ?charger_conn ?co ?charger_n ?year WHERE {
    ?zip a kwg-ont:ZipCodeArea.
    ?state a kwg-ont:AdministrativeRegion_2.
    ?state rdfs:label "New Jersey".
    ?state kwg-ont:sfContains ?zip.

    ?stn a ev-ont:ChargingStation.
    ?stn kwg-ont:sfWithin ?zip.
    ?stn ev-ont:hasOpenYear ?year.
    ?stn ev-ont:hosts ?charger_conn.
    ?charger_conn ev-ont:hasAmount ?charger_n.
    ?charger_conn ev-ont:hasChargerType ?charger.
    VALUES (?charger) {(evr:chargertype.DCFastCharger)}
    ?charger_conn ev-ont:hasConnectorType ?co.

}}  Group By ?co ?year ?stn
""",
    5: """\
    SELECT ?co_name ?reg_year (SUM(?evtg_n) AS ?ev_with_dc_num) WHERE{
    SELECT Distinct ?evtg ?evtg_n ?co_name ?reg_year WHERE {
    ?zip a kwg-ont:ZipCodeArea.
    ?state a kwg-ont:AdministrativeRegion_2.
    ?state rdfs:label "New Jersey".
    ?state kwg-ont:sfContains ?zip.

    ?evtg a ev-ont:ElectricVehicleRegistrationCollection.
    ?evtg ev-ont:hasAmount ?evtg_n.
    ?evtg ev-ont:hasTemporalScope ?reg_year.
    ?evtg ev-ont:hasSpatialScope ?zip.
    ?evtg ev-ont:hasProductInfo ?ev.
    ?ev ev-ont:hasMatchableConnectorType ?co.
    ?co rdfs:label ?co_name.
    VALUES ?co_name{"TESLA" "CHAdeMO" "J1772COMBO"}
}}  GROUP BY ?co_name ?reg_year
""",
    6: """\
SELECT (?zip_dcfc_num/?ev_with_dc_num AS ?dcfc_per_ev) WHERE{
{``` Query from Listing 4 ```}
{``` Query from Listing 5```}
}
""",
    7: """\
SELECT DISTINCT ?zipcode (SUM(?regNum) AS ?zipRegNum)
WHERE{
        ?zipcode a kwg-ont:ZipCodeArea.
        ?state a kwg-ont:AdministrativeRegion_2.
        ?state rdfs:label "New Jersey".
        ?state kwg-ont:sfContains ?zipcode.
        ?reggroup a ev-ont:ElectricVehicleRegistrationCollection.
        ?reggroup ev-ont:hasSpatialScope ?zipcode.
        ?reggroup ev-ont:hasTemporalScope "2021"^^xsd:gYear.
        ?reggroup ev-ont:hasProductInfo ?ev.
        ?reggroup ev-ont:hasAmount ?regNum.
        ?ev ev-ont:hasMatchableConnectorType
            evr:connectortype.J1772COMBO.
\t} GROUP BY ?zipcode
""",
    8: """\
SELECT ?zipcode ?zipChargerNum ?zipRegNum
(?zipChargerNum/?zipRegNum AS ?ratio)
WHERE{
    ### part 1 the EVSE number at zip code level
    {SELECT DISTINCT ?zipcode (SUM(?chargerNum) AS ?zipChargerNum)
    WHERE{
    ?zipcode a kwg-ont:ZipCodeArea.
    ?state a kwg-ont:AdministrativeRegion_2.
    ?state rdfs:label "New Jersey".
    ?zipcode kwg-ont:sfWithin ?state.
    ?station a ev-ont:ChargingStation.
    ?station kwg-ont:sfWithin ?zipcode.
    ?station ev-ont:hosts ?chargerCollection.
    ?chargerCollection ev-ont:hasAmount ?chargerNum.
    ?chargerCollection ev-ont:hasConnectorType
        evr:connectortype.J1772COMBO.
    } GROUP BY ?zipcode}
    ### part 2 the registration number at zip code level
    {```Query from Listing 7```}
    }
""",
    9: """\
## Condition 1: Average charging resource less than 0.1
SELECT ?zipcode ?transline ?ratio
WHERE{
    {FILTER(?ratio < 0.1)}
    {```Query from Listing 8```}
    {SELECT DISTINCT ?zipcode ?transline WHERE {\t\t
        ?zipcode a kwg-ont:ZipCodeArea.
        ?state a kwg-ont:AdministrativeRegion_2.
        ?state rdfs:label "New Jersey".
        ?state kwg-ont:sfContains ?zipcode.
        ?transline a ev-ont:TransmissionLine.
        ?transline kwg-ont:sfCrosses ?zipcode.
        ?transline ev-ont:hasVoltageClass ?v_class.
        ?v_class rdfs:label "500".
    } GROUP BY ?zipcode ?transline}}
""",
    10: """\
## Condition 2: Electric vehicle registration more than 98
SELECT ?zipcode
WHERE{
    {FILTER(?zipRegNum>98)}
    {``` Query from Listing 7```}
    {SELECT DISTINCT ?zipcode ?transline WHERE {\t\t
    ?zipcode a kwg-ont:ZipCodeArea.
    ?state a kwg-ont:AdministrativeRegion_2.
    ?state rdfs:label "New Jersey".
    ?state kwg-ont:sfContains ?zipcode.
    ?transline a ev-ont:TransmissionLine.
    ?transline kwg-ont:sfCrosses ?zipcode.
    ?transline ev-ont:hasVoltageClass ?v_class.
    ?v_class rdfs:label "500".
    } GROUP BY ?zipcode ?transline}}
""",
}

# Which suite queries answer each competency question.
QUESTION_QUERIES: dict[int, list[int]] = {
    1: [1],
    2: [2],
    3: [3],
    4: [4, 5, 6],
    5: [7, 8],
    6: [9, 10],
}

_REFERENCE_RE = re.compile(r"\{\s*`+\s*Query from Listing\s+(\d+)\s*`+\s*\}")


class UnknownQueryId(ValueError):
    def __init__(self, qid):
        super().__init__(f"unknown suite query id: {qid}")


def query_text(qid: int) -> str:
    if qid not in QUERY_TEXTS:
        raise UnknownQueryId(qid)
    return QUERY_TEXTS[qid]


def expand_query_references(text: str, _stack: tuple[int, ...] = ()) -> str:
    """Inline every ```Query from Listing N``` reference as a sub-select."""

    def replace(match: re.Match) -> str:
        ref = int(match.group(1))
        if ref in _stack:
            raise UnknownQueryId(f"{ref} (circular reference)")
        inner = expand_query_references(query_text(ref), _stack + (ref,))
        return "{\n" + inner + "\n}"

    return _REFERENCE_RE.sub(replace, text)


@functools.cache
def suite_query(qid: int) -> SelectQuery:
    """The parsed AST of one bundled query, expanded and parsed once per process.

    The cache holds at most the ten suite ids; an unknown id raises every
    time, since errors are not cached. The AST is frozen dataclasses and
    tuples throughout, so every evaluator can share it. Only long-lived
    processes gain (library use, repeated `question_outputs` calls, the
    benchmark): `evkg query` and `evkg cq` parse each text once anyway.
    """
    return parse_query(expand_query_references(query_text(qid)))


Evaluator = Callable[[Graph, SelectQuery], Solution]


def run_suite_query(graph: Graph, qid: int, evaluator: Optional[Evaluator] = None) -> Solution:
    """Evaluate one of the ten bundled queries on its cached AST."""
    evaluate = evaluator if evaluator is not None else engine.evaluate
    return evaluate(graph, suite_query(qid))


# ---------------------------------------------------------------------------
# Plot-ready series for Q4/Q5/Q6
# ---------------------------------------------------------------------------


def _label_of(graph: Graph, iri: Iri) -> str:
    value = graph.value(iri, RDFS.label)
    if isinstance(value, Literal):
        return value.lexical
    return iri.value


def _int_of(term) -> Optional[int]:
    value = numeric_value(term) if isinstance(term, Literal) else None
    if value is None:
        return None
    try:
        return int(value)
    except (OverflowError, ValueError):  # INF, -INF, NaN
        return None


def _ratio_text(numerator: Optional[int], denominator: Optional[int]) -> str:
    if numerator is None or denominator in (None, 0):
        return ""
    return format_decimal(Fraction(numerator, denominator))


def q4_series(graph: Graph, dcfc: Solution, regs: Solution) -> list[list[str]]:
    """Per (connector, open/registration year): DCFC count, EV count, ratio.

    Outer-joins the charger-side (query 4) and registration-side (query 5)
    results; years with data on only one side keep the other columns empty
    (the source data has gaps).
    """
    table: dict[tuple[str, str], dict[str, Optional[int]]] = {}
    for row in dcfc.rows:
        co = row.get("co")
        year = row.get("year")
        if not isinstance(co, Iri) or not isinstance(year, Literal):
            continue
        key = (_label_of(graph, co), year.lexical)
        table.setdefault(key, {})["dcfc"] = _int_of(row.get("zip_dcfc_num"))
    for row in regs.rows:
        co_name = row.get("co_name")
        year = row.get("reg_year")
        if not isinstance(co_name, Literal) or not isinstance(year, Literal):
            continue
        key = (co_name.lexical, year.lexical)
        table.setdefault(key, {})["ev"] = _int_of(row.get("ev_with_dc_num"))
    rows = [["connector", "year", "dcfc_num", "ev_num", "dcfc_per_ev"]]
    for (connector, year), cells in sorted(table.items()):
        dcfc_n = cells.get("dcfc")
        ev_n = cells.get("ev")
        rows.append(
            [
                connector,
                year,
                "" if dcfc_n is None else str(dcfc_n),
                "" if ev_n is None else str(ev_n),
                _ratio_text(dcfc_n, ev_n),
            ]
        )
    return rows


def _zip_digits(graph: Graph, zipcode: Iri) -> str:
    label = _label_of(graph, zipcode)
    return label.removeprefix("zip code ").strip()


def q5_series(graph: Graph, solution: Solution) -> list[list[str]]:
    """Per zip, from query 8: CCS charger count, CCS-matched EV registrations, ratio."""
    rows = [["zipcode", "ccs_charger_num", "ccs_ev_num", "ratio"]]
    body = []
    for row in solution.rows:
        zipcode = row.get("zipcode")
        if not isinstance(zipcode, Iri):
            continue
        charger_n = _int_of(row.get("zipChargerNum"))
        ev_n = _int_of(row.get("zipRegNum"))
        ratio = row.get("ratio")
        body.append(
            [
                _zip_digits(graph, zipcode),
                "" if charger_n is None else str(charger_n),
                "" if ev_n is None else str(ev_n),
                ratio.lexical if isinstance(ratio, Literal) else "",
            ]
        )
    rows.extend(sorted(body))
    return rows


def q6_selected_zips(graph: Graph, shortage: Solution, adoption: Solution) -> list[list[str]]:
    """Zips passing both conditions, ratio < 0.1 (query 9) and registrations
    > 98 (query 10), each crossed by a 500-class transmission line."""
    zips_shortage = {
        row["zipcode"] for row in shortage.rows if isinstance(row.get("zipcode"), Iri)
    }
    zips_adoption = {
        row["zipcode"] for row in adoption.rows if isinstance(row.get("zipcode"), Iri)
    }
    selected = sorted(_zip_digits(graph, z) for z in zips_shortage & zips_adoption)
    return [["zipcode"], *[[z] for z in selected]]


# The plot-ready series file each competency question adds to its queries'
# results, and the queries whose solutions it reads.
_QUESTION_SERIES = {
    4: ("q4_series.csv", q4_series, (4, 5)),
    5: ("q5_series.csv", q5_series, (8,)),
    6: ("q6_zipcodes.csv", q6_selected_zips, (9, 10)),
}


def question_outputs(
    graph: Graph, question: int, evaluator: Optional[Evaluator] = None
) -> list[tuple[str, str]]:
    """(expected-file name, text) for each output of one competency question.

    Each of the question's suite queries is evaluated once.
    """
    solutions = {qid: run_suite_query(graph, qid, evaluator) for qid in QUESTION_QUERIES[question]}
    outputs = [(f"query{qid:02d}.tsv", solution_to_tsv(sol)) for qid, sol in solutions.items()]
    if question in _QUESTION_SERIES:
        name, series, qids = _QUESTION_SERIES[question]
        outputs.append((name, csv_text(series(graph, *(solutions[q] for q in qids)))))
    return outputs
