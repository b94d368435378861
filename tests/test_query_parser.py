from __future__ import annotations

import pytest

from evkg.queries import QUERY_TEXTS, expand_query_references
from evkg.sparql import (
    Bgp,
    Filter,
    Group,
    QuerySemanticsError,
    QuerySyntaxError,
    SubSelect,
    Union,
    UnsupportedFeatureError,
    Values,
    Variable,
    parse_query,
)
from evkg.sparql.algebra import query_text as pretty
from evkg.sparql.parser import MAX_DEPTH, MAX_TREE_DEPTH
from evkg.terms import EV_ONT, RDF_TYPE, XSD_GYEAR, Literal


def test_query1_shape():
    q = parse_query(QUERY_TEXTS[1])
    assert q.distinct is True
    assert [item.name for item in q.select] == ["lev"]
    assert isinstance(q.pattern, Group)
    [bgp] = q.pattern.elements
    assert isinstance(bgp, Bgp)
    assert len(bgp.patterns) == 3
    assert bgp.patterns[0].p == RDF_TYPE  # 'a' desugars


def test_query2_shape():
    q = parse_query(QUERY_TEXTS[2])
    assert q.star is True
    lead, union = q.pattern.elements
    assert isinstance(lead, Bgp) and len(lead.patterns) == 4
    # Five alternatives, folded left-associatively into four Union nodes.
    branches = []
    node = union
    while isinstance(node, Union):
        branches.append(node.right)
        node = node.left
    branches.append(node)
    assert len(branches) == 5
    for branch in branches:
        assert isinstance(branch, Group)
        [bgp] = branch.elements
        assert isinstance(bgp, Bgp) and len(bgp.patterns) == 2


def test_query3_values_and_literals():
    q = parse_query(QUERY_TEXTS[3])
    [inner] = q.pattern.elements
    assert isinstance(inner, Group)
    values = [el for el in inner.elements if isinstance(el, Values)]
    assert len(values) == 1
    assert values[0].variables == (Variable("co_name"),)
    assert values[0].rows == ((Literal("CHAdeMO"),), (Literal("J1772COMBO"),), (Literal("TESLA"),))
    bgps = [el for el in inner.elements if isinstance(el, Bgp)]
    all_patterns = [tp for bgp in bgps for tp in bgp.patterns]
    hours = [
        tp.o for tp in all_patterns if tp.p == EV_ONT.hasOperatingHours
    ]
    assert hours == [Literal("24 hours daily  ")]  # trailing spaces preserved
    years = [tp.o for tp in all_patterns if tp.p == EV_ONT.hasModelYear]
    assert years == [Literal("2021", XSD_GYEAR)]


def test_query4_subselect_and_group_by():
    q = parse_query(QUERY_TEXTS[4])
    assert [v.name for v in q.group_by] == ["co", "year", "stn"]
    [sub] = q.pattern.elements
    assert isinstance(sub, SubSelect)
    assert sub.query.distinct is True
    values = [
        el for el in sub.query.pattern.elements if isinstance(el, Values)
    ]
    assert len(values) == 1  # the parenthesized VALUES form


def test_query9_filter_hoisted_from_singleton_group():
    text = expand_query_references(QUERY_TEXTS[9])
    q = parse_query(text)
    assert isinstance(q.pattern, Filter)
    assert isinstance(q.pattern.inner, Group)
    assert len(q.pattern.inner.elements) == 2  # the two sub-selects


def test_case_insensitive_keywords():
    q = parse_query("select distinct ?x where { ?x a ev-ont:ChargingStation . } group by ?x")
    assert q.distinct is True
    assert [v.name for v in q.group_by] == ["x"]


def test_optional_rejected_by_name():
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse_query("SELECT ?x WHERE { ?x OPTIONAL { ?x a ev-ont:ChargingStation } }")
    assert "OPTIONAL" in str(exc.value)


def test_order_by_rejected_by_name():
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse_query("SELECT ?x WHERE { ?x a ev-ont:ChargingStation } ORDER BY ?x")
    assert "ORDER" in str(exc.value)


@pytest.mark.parametrize("expr", ["SUM(SUM(?o))", "SUM(1 + SUM(?o))"])
def test_nested_aggregate_rejected(expr):
    with pytest.raises(QuerySemanticsError) as exc:
        parse_query(f"SELECT ?s ({expr} AS ?x) WHERE {{ ?s ?p ?o }} GROUP BY ?s")
    assert "nested" in str(exc.value)


_DEEP = {  # shape: (query, the limit it breaks)
    "braces": ("SELECT ?x WHERE " + "{" * 3000 + " ?x ?p ?o " + "}" * 3000, MAX_DEPTH),
    "parens": (
        "SELECT ?x WHERE { ?x ?p ?o FILTER(" + "(" * 3000 + "?o" + ")" * 3000 + ") }",
        MAX_DEPTH,
    ),
    "sums": (
        "SELECT (" + "SUM(" * 3000 + "?o" + ")" * 3000 + " AS ?s) WHERE { ?x ?p ?o }",
        MAX_DEPTH,
    ),
    "unions": (
        "SELECT ?x WHERE { " + " UNION ".join(["{ ?x ?p ?o }"] * 3000) + " }",
        MAX_TREE_DEPTH,
    ),
    "filters": ("SELECT ?x WHERE { ?x ?p ?o " + "FILTER(?o > 1) " * 3000 + "}", MAX_TREE_DEPTH),
    "operators": (
        "SELECT ?x WHERE { ?x ?p ?o FILTER(" + " + ".join(["?o"] * 3000) + " > 1) }",
        MAX_TREE_DEPTH,
    ),
}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_nesting_deeper_than_limit_rejected(shape):
    text, limit = _DEEP[shape]
    with pytest.raises(QuerySyntaxError) as exc:
        parse_query(text)
    assert f"more than {limit} levels" in str(exc.value)


def test_nesting_within_limit_accepted():
    depth = MAX_DEPTH // 2
    q = parse_query("SELECT ?x WHERE " + "{" * depth + " ?x ?p ?o " + "}" * depth)
    assert parse_query(pretty(q)) == q


def test_syntax_error_carries_position():
    with pytest.raises(QuerySyntaxError) as exc:
        parse_query("SELECT ?x WHERE { ?x a }")
    assert exc.value.line == 1
    assert exc.value.col > 0


def test_unknown_prefix_named():
    with pytest.raises(QuerySyntaxError) as exc:
        parse_query("SELECT ?x WHERE { ?x a zzz:Foo }")
    assert "zzz" in str(exc.value)


def test_unexpanded_reference_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_query(QUERY_TEXTS[6])  # still contains backquoted references


def test_predicate_object_lists_rejected():
    with pytest.raises(UnsupportedFeatureError):
        parse_query("SELECT ?x WHERE { ?x a ev-ont:ChargingStation ; rdfs:label ?l }")


@pytest.mark.parametrize("qid", sorted(QUERY_TEXTS))
def test_pretty_print_round_trip(qid):
    q = parse_query(expand_query_references(QUERY_TEXTS[qid]))
    assert parse_query(pretty(q)) == q


def test_expansion_unknown_reference():
    from evkg.queries import UnknownQueryId, query_text

    with pytest.raises(UnknownQueryId):
        query_text(11)


def test_prefix_declaration_supported():
    q = parse_query(
        "PREFIX ex: <http://example.org/>\nSELECT ?x WHERE { ?x a ex:Thing }"
    )
    [bgp] = q.pattern.elements
    assert bgp.patterns[0].o.value == "http://example.org/Thing"
