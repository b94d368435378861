from __future__ import annotations

import pytest
from hypothesis import given

from evkg.graph import Graph
from evkg.ntriples import (
    ParseError,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
    term_to_ntriples,
)
from evkg.terms import (
    EVR,
    RDF_LANGSTRING,
    RDF_TYPE,
    XSD_GYEAR,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    Triple,
)
from hypothesis import strategies as st

triples_strategy = st.lists(
    st.builds(
        Triple,
        st.sampled_from([EVR[f"s{i}"] for i in range(8)]),
        st.sampled_from([EVR[f"p{i}"] for i in range(4)]),
        st.sampled_from(
            [EVR[f"o{i}"] for i in range(6)]
            + [Literal(str(i), XSD_INTEGER) for i in range(3)]
            + [Literal("x y"), Literal("2019", XSD_GYEAR)]
        ),
    ),
    max_size=120,
)


def test_empty_graph_round_trip():
    text = serialize_ntriples(Graph())
    assert text == ""
    assert len(parse_ntriples(text)) == 0


def test_gyear_literal_round_trip():
    g = Graph()
    g.insert(Triple(EVR["c1"], EVR["p"], Literal("2019", XSD_GYEAR)))
    text = serialize_ntriples(g)
    assert '"2019"^^<http://www.w3.org/2001/XMLSchema#gYear>' in text
    assert set(parse_ntriples(text)) == set(g)


def test_lines_sorted_lexicographically():
    g = Graph()
    g.insert(Triple(EVR["b"], RDF_TYPE, EVR["B"]))
    g.insert(Triple(EVR["a"], RDF_TYPE, EVR["A"]))
    lines = serialize_ntriples(g).splitlines()
    assert lines == sorted(lines)


def test_escapes_round_trip():
    tricky = 'tab\t quote" backslash\\ newline\n end'
    g = Graph()
    g.insert(Triple(EVR["s"], EVR["p"], Literal(tricky)))
    parsed = parse_ntriples(serialize_ntriples(g))
    [t] = list(parsed)
    assert isinstance(t.object, Literal) and t.object.lexical == tricky


def test_language_tag_round_trip():
    g = Graph()
    g.insert(Triple(EVR["s"], EVR["p"], Literal("hallo", RDF_LANGSTRING, "de")))
    assert set(parse_ntriples(serialize_ntriples(g))) == set(g)


def test_blank_node_round_trip():
    g = Graph()
    g.insert(Triple(BlankNode("b0"), EVR["p"], EVR["o"]))
    assert set(parse_ntriples(serialize_ntriples(g))) == set(g)


@given(triples_strategy)
def test_random_graph_round_trip(triples):
    g = Graph(triples)
    assert set(parse_ntriples(serialize_ntriples(g))) == set(g)


def test_syntax_error_reports_line_number():
    text = (
        f"{term_to_ntriples(EVR['s'])} {term_to_ntriples(EVR['p'])} {term_to_ntriples(EVR['o'])} .\n"
        "this is not a triple\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_ntriples(text)
    assert exc.value.line == 2


def test_literal_subject_rejected():
    with pytest.raises(ParseError):
        parse_ntriples('"lit" <http://x/p> <http://x/o> .\n')


@pytest.mark.parametrize(
    "body",
    # malformed hex, then lone surrogates and values past U+10FFFF
    ["x\\uZZZZ", "\\u12", "\\U0001F60G", "\\u+1ab", "\\uD800", "\\U0000DC00", "\\U00110000"],
)
def test_bad_unicode_escape_is_parse_error(body):
    with pytest.raises(ParseError) as exc:
        parse_ntriples(f'<http://x/s> <http://x/p> "{body}" .\n')
    assert exc.value.line == 1


def test_valid_unicode_escapes_decoded():
    g = parse_ntriples('<http://x/s> <http://x/p> "\\u00e9\\U0001F600" .\n')
    assert [t.object for t in g] == [Literal("\u00e9\U0001F600")]


def test_comment_after_final_dot_accepted():
    nt = '<http://x/s> <http://x/p> "x" . # c\n<http://x/s> <http://x/p> <http://x/o> .#c\n'
    assert len(parse_ntriples(nt)) == 2
    ttl = '@prefix ex: <http://x/> .\nex:s ex:p "x" . # c\n'
    assert set(parse_turtle(ttl)) == {Triple(Iri("http://x/s"), Iri("http://x/p"), Literal("x"))}


def test_content_after_final_dot_still_rejected():
    with pytest.raises(ParseError):
        parse_ntriples('<http://x/s> <http://x/p> "x" . <http://x/o>\n')


def test_missing_dot_rejected():
    with pytest.raises(ParseError):
        parse_ntriples("<http://x/s> <http://x/p> <http://x/o>\n")


def test_turtle_subset_round_trip():
    g = Graph()
    g.insert(Triple(EVR["s"], RDF_TYPE, EVR["Type"]))
    g.insert(Triple(EVR["s"], EVR["year"], Literal("2020", XSD_GYEAR)))
    g.insert(Triple(EVR["s"], EVR["label"], Literal("a b c")))
    text = serialize_turtle(g)
    assert "@prefix evr:" in text
    assert set(parse_turtle(text)) == set(g)


def test_turtle_preserves_dotted_locals():
    g = Graph()
    g.insert(Triple(EVR["connectortype.CHAdeMO"], RDF_TYPE, EVR["Type"]))
    text = serialize_turtle(g)
    assert "evr:connectortype.CHAdeMO" in text
    assert set(parse_turtle(text)) == set(g)
