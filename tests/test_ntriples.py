from __future__ import annotations

import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from evkg.graph import Graph
from evkg.ingest import build_graph
from evkg.ntriples import (
    ParseError,
    _triple,
    parse_ntriples,
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
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    Triple,
)
from hypothesis import strategies as st

from conftest import ROOT, tiled_config

triples_strategy = st.lists(
    st.builds(
        Triple,
        st.sampled_from([EVR[f"s{i}"] for i in range(8)]),
        st.sampled_from([EVR[f"p{i}"] for i in range(4)]),
        st.sampled_from(
            [EVR[f"o{i}"] for i in range(6)]
            + [Literal(str(i), XSD_INTEGER) for i in range(3)]
            + [Literal("x y"), Literal("2019", XSD_GYEAR)]
            + [Literal(f"a{sep}b") for sep in ("\x85", "\u2028", "\u2029")]
        ),
    ),
    max_size=120,
)


def test_empty_graph_round_trip():
    text = serialize_ntriples(Graph())
    assert text == ""
    assert len(parse_ntriples(text)) == 0


def triple_to_ntriples(t: Triple) -> str:
    """One triple's line without its newline, from its terms alone: the
    reference that `serialize_ntriples`' memoized heads are checked against."""
    s, p, o = (term_to_ntriples(term) for term in t)
    return f"{s} {p} {o} ."


def test_serialize_lines_are_triple_to_ntriples(fixture_graph):
    """The per-call term memo renders what the per-triple helper renders."""
    g = Graph(fixture_graph)
    objects = [Iri("urn:x"), Literal("x"), Literal("x ."), Literal("x\n"), Literal("1", XSD_INTEGER),
               Literal("x", RDF_LANGSTRING, "en"), Literal("x", RDF_LANGSTRING, "en-GB")]
    g.update(Triple(s, EVR["p"], o) for s in (BlankNode("x"), BlankNode("x1"), EVR["x"]) for o in objects)
    lines = sorted(triple_to_ntriples(t) for t in g)  # sorted before the newline is added
    assert serialize_ntriples(g) == "".join(line + "\n" for line in lines)


def test_parsed_fixture_snapshot_heap_per_triple(fixture_graph):
    """A loaded snapshot costs under 360 B of heap per triple. An index entry
    holding one term is a 1-tuple, not a set: 283 B per triple, against 445 B
    with a set for every entry (CPython 3.11.7)."""
    text = serialize_ntriples(fixture_graph)
    gc.collect()
    tracemalloc.start()
    try:
        graph = parse_ntriples(text)
        heap = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(graph) == len(fixture_graph)
    assert heap / len(graph) < 360


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


def test_content_after_final_dot_still_rejected():
    with pytest.raises(ParseError):
        parse_ntriples('<http://x/s> <http://x/p> "x" . <http://x/o>\n')


def test_space_and_tab_lines_are_blank():
    assert len(parse_ntriples(" \t\n\t# c\n  #\n<http://x/s> <http://x/p> <http://x/o> .\n\t")) == 1


def test_missing_dot_rejected():
    with pytest.raises(ParseError):
        parse_ntriples("<http://x/s> <http://x/p> <http://x/o>\n")


def test_turtle_subset_written_with_curies():
    g = Graph()
    g.insert(Triple(EVR["s"], RDF_TYPE, EVR["Type"]))
    g.insert(Triple(EVR["s"], EVR["year"], Literal("2020", XSD_GYEAR)))
    g.insert(Triple(EVR["s"], EVR["label"], Literal("a b c")))
    text = serialize_turtle(g)
    assert "@prefix evr:" in text
    assert text.endswith(
        '\nevr:s evr:label "a b c" .\nevr:s evr:year "2020"^^xsd:gYear .\nevr:s rdf:type evr:Type .\n'
    )


def test_turtle_preserves_dotted_locals():
    g = Graph()
    g.insert(Triple(EVR["connectortype.CHAdeMO"], RDF_TYPE, EVR["Type"]))
    text = serialize_turtle(g)
    assert "evr:connectortype.CHAdeMO" in text


# U+0085, U+2028 and U+2029 stay raw in a literal: lines end only at the
# N-Triples EOL ("\n", "\r\n" or "\r").
@pytest.mark.parametrize("sep", ["\x85", "\u2028", "\u2029"])
def test_unicode_line_separators_round_trip(sep):
    g = Graph()
    g.insert(Triple(EVR["s"], EVR["label"], Literal(f"one{sep}two")))
    text = serialize_ntriples(g)
    assert sep in text
    assert set(parse_ntriples(text)) == set(g)
    assert f'"one{sep}two" .\n' in serialize_turtle(g)


def test_crlf_and_cr_end_lines():
    text = '<http://x/s> <http://x/p> "a" .\r\n<http://x/s> <http://x/p> "b" .\r<http://x/s> <http://x/p> ?\n'
    with pytest.raises(ParseError) as exc:
        parse_ntriples(text)
    assert exc.value.line == 3
    assert len(parse_ntriples(text.rsplit("\r", 1)[0])) == 2


# One row per message the reader raises, with its line and column; the
# erroneous line follows one good line, so every row is on line 2.
_SP, _P, _XSD = "<http://x/s> <http://x/p>", "<http://x/p>", "http://www.w3.org/2001/XMLSchema#"
_NTRIPLES_ERRORS = [
    (f"{_SP} <http://x/o> <http://x/z>", "expected '.', found '<http://x/'", 40),
    (f"{_SP} <http://x/o", "unterminated IRI", 28),
    (f"<> {_P} <http://x/o> .", "IRI must be non-empty", 3),
    (f"<a b> {_P} <http://x/o> .", "IRI contains forbidden character: 'a b'", 6),
    ("<a> <b> <c> .", "IRI is not absolute (no scheme): 'a'", 4),
    (f'{_SP} "1"^^<integer> .', "IRI is not absolute (no scheme): 'integer'", 41),
    (f'{_SP} "abc', "unterminated string literal", 31),
    (f'{_SP} "abc\\', "dangling escape", 32),
    (f'{_SP} "\\u12', "short \\u escape", 29),
    (f'{_SP} "\\U0001F', "short \\U escape", 29),
    (f'{_SP} "\\U0001F6" .', "bad \\U escape: '0001F6\" '", 29),
    (f'{_SP} "x\\uZZZZ" .', "bad \\u escape: 'ZZZZ'", 30),
    (f'{_SP} "\\uD800" .', "\\uD800 is not a Unicode scalar value", 29),
    (f'{_SP} "\\U00110000" .', "\\U00110000 is not a Unicode scalar value", 29),
    (f'{_SP} "\\q" .', "unknown escape \\q", 29),
    (f'{_SP} "x"@ .', "expected a language tag", 31),
    (f'{_SP} "x"@ en .', "expected a language tag", 31),
    (f'{_SP} "x"@en_US .', "expected a language tag", 31),
    (f'{_SP} "x"^^ <{_XSD}string> .', "expected <datatype IRI>", 32),
    (f"_x {_P} <http://x/o> .", "bad blank node: '_x'", 3),
    (f"_:a>b {_P} <http://x/o> .", "bad blank node: '_:a>b'", 6),
    (f"_:\u00b7a {_P} <http://x/o> .", "bad blank node: '_:\u00b7a'", 5),
    (f"_:a~b {_P} <http://x/o> .", "bad blank node: '_:a~b'", 6),
    (f"<http://x/a\\u0020b> {_P} <http://x/o> .", "\\u0020 is a character an IRI may not hold", 13),
    (f"{_SP} <http://x/\\U0000003E> .", "\\U0000003E is a character an IRI may not hold", 38),
    (f'{_SP} "x"^^<http://x/\\u007B> .', "\\u007B is a character an IRI may not hold", 43),
    (f"<http://x/a\\n> {_P} <http://x/o> .", "unknown escape \\n", 13),
    (f"<http://x/\\uD800> {_P} <http://x/o> .", "\\uD800 is not a Unicode scalar value", 12),
    (f"_:-a {_P} <http://x/o> .", "bad blank node: '_:-a'", 5),
    (f'{_SP} "1_0"^^<{_XSD}double> .', "not a valid xsd:double lexical form: '1_0'", 75),
    (f'{_SP} "nan"^^<{_XSD}double> .', "not a valid xsd:double lexical form: 'nan'", 75),
    (f'{_SP} "\u0661"^^<{_XSD}double> .', "not a valid xsd:double lexical form: '\u0661'", 73),
    (f'{_SP} "12\\n"^^<{_XSD}integer> .', "not a valid xsd:integer lexical form: '12\\n'", 77),
    (f'{_SP} "1"^^xsd:integer .', "expected <datatype IRI>", 32),
    (f'{_SP} "x"^^<{_XSD}integer> .', "not a valid xsd:integer lexical form: 'x'", 74),
    (f'{_SP} "x"^^<{_XSD}decimal> .', "not a valid xsd:decimal lexical form: 'x'", 74),
    (f'{_SP} "x"^^<{_XSD}double> .', "not a valid xsd:double lexical form: 'x'", 73),
    (f'{_SP} "19"^^<{_XSD}gYear> .', "xsd:gYear needs a 4-digit lexical form: '19'", 73),
    (f'{_SP} "x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .',
     "rdf:langString literal requires a language tag", 87),
    ("@prefix ex: <http://x/> .", "unexpected character '@'", 1),
    (f"ex:s {_P} <http://x/o> .", "unexpected character 'e'", 1),
    ("<http://x/s> ex:p <http://x/o> .", "unexpected character 'e'", 14),
    (f"{_SP} ex:o .", "unexpected character 'e'", 27),
    (_SP, "unexpected character ''", 26),
    (f"{_SP} <http://x/o> . <http://x/o>", "trailing content after '.'", 42),
    ("<http://x/s> _:b <http://x/o> .", "predicate must be an IRI", 1),
    (f'"lit" {_P} <http://x/o> .', "literal in subject position", 1),
    # only space and tab are N-Triples whitespace: these lines are not blank
    ("\x0c", "unexpected character '\\x0c'", 1),
    ("\u2028", "unexpected character '\\u2028'", 1),
    ("\xa0# x", "unexpected character '\\xa0'", 1),
]


@pytest.mark.parametrize("line, message, col", _NTRIPLES_ERRORS)
def test_error_messages_and_positions_pinned(line, message, col):
    with pytest.raises(ParseError) as exc:
        parse_ntriples(f"{_SP} <http://x/o> .\n" + line + "\n")
    assert (str(exc.value), exc.value.line, exc.value.col) == (f"line 2, col {col}: {message}", 2, col)


# Every string escape (ECHAR, N-Triples grammar [153s]) is read, on both paths.
@pytest.mark.parametrize("escape, char", [
    ("\\t", "\t"), ("\\b", "\b"), ("\\n", "\n"), ("\\r", "\r"), ("\\f", "\f"),
    ('\\"', '"'), ("\\'", "'"), ("\\\\", "\\"),
])
@pytest.mark.parametrize("tail", [" .", " . # comment"], ids=["one-match line", "token walk"])
def test_string_escapes_accepted(escape, char, tail):
    g = parse_ntriples(f"{_SP} <http://x/o> .\n{_SP} \"a{escape}b\"{tail}\n")
    assert {t.object for t in g} == {Iri("http://x/o"), Literal(f"a{char}b")}


def test_writer_spells_backspace_and_form_feed_as_uchar():
    assert term_to_ntriples(Literal("\b\f'")) == '"\\u0008\\u000C\'"'


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0e", "\x1b", "\x1f"])
@pytest.mark.parametrize("tail", [" .", " . # comment"], ids=["one-match line", "token walk"])
def test_control_character_in_iri_is_a_parse_error(char, tail):
    iri = f"http://x/{char}s"
    with pytest.raises(ParseError) as exc:
        parse_ntriples(f"{_SP} <http://x/o> .\n<{iri}> {_P} <http://x/o>{tail}\n")
    message = f"IRI contains forbidden character: {iri!r}"
    assert (str(exc.value), exc.value.line, exc.value.col) == (f"line 2, col 14: {message}", 2, 14)


@pytest.mark.parametrize("tail", [" .", " . # comment"], ids=["one-match line", "token walk"])
def test_uchar_escapes_in_iris_are_decoded(tail):
    line = f'<http://x/caf\\u00E9> <http://x/\\U000000E9> "1"^^<http://x/d\\u00e9>{tail}\n'
    graph = parse_ntriples(f"{_SP} <http://x/o> .\n" + line)
    assert Triple(Iri("http://x/café"), Iri("http://x/é"), Literal("1", Iri("http://x/dé"))) in graph
    text = serialize_ntriples(graph)
    assert "<http://x/café> <http://x/é> " in text
    assert set(parse_ntriples(text)) == set(graph)


@pytest.mark.parametrize("escape", ["\\u0020", "\\u003E", "\\u003c", "\\U00000022", "\\u0001", "\\u00A0"])
@pytest.mark.parametrize("tail", [" .", " . # comment"], ids=["one-match line", "token walk"])
def test_uchar_of_a_character_an_iri_forbids_is_a_parse_error(escape, tail):
    with pytest.raises(ParseError) as exc:
        parse_ntriples(f"{_SP} <http://x/o> .\n{_SP} <http://x/a{escape}b>{tail}\n")
    message = f"{escape} is a character an IRI may not hold"
    assert (str(exc.value), exc.value.line, exc.value.col) == (f"line 2, col 39: {message}", 2, 39)


@pytest.mark.parametrize("label", ["é", "a·b", "0", "a.b", "_x", "a:b", "a-", "x\u0301", "\U00010000"])
def test_blank_node_labels_by_the_grammar_classes(label):
    graph = parse_ntriples(f"_:{label} {_P} _:{label} .\n")
    assert list(graph) == [Triple(BlankNode(label), Iri("http://x/p"), BlankNode(label))]
    assert set(parse_ntriples(serialize_ntriples(graph))) == set(graph)


_NT_FUZZ_PIECES = [
    "<http://x/s>", "<http://x/p>", "<a b>", "<>", "<http://x", '"x"', '"a b"', '"', "\\", "\\t", "\\u00e9",
    "\\U0001F600", "\\uD800", "\\u12", "\\q", "^^", "@", "@en", "_:", "_:b", "_x", "ex:a", "ex:a.b",
    "zz:a", ":", ".", "#", " ", "\t", "\n", "\r", "\x0c", "\x85", "\u2028", "é", "@prefix", "ex:",
    f"<{_XSD}integer>", "\"1\"^^xsd:integer", "@prefix ex: <http://x/> .\n",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_NT_FUZZ_PIECES), st.characters()), max_size=40))
def test_reader_raises_only_parse_errors(pieces):
    try:
        parse_ntriples("".join(pieces))
    except ParseError:
        pass


def test_parse_shares_one_object_per_distinct_term(fixture_graph):
    graph = parse_ntriples(serialize_ntriples(fixture_graph))
    terms = [term for t in graph for term in t]
    assert len({id(term) for term in terms}) == len(set(terms)) < len(terms)


def test_repeated_term_text_in_a_bad_position_reports_its_own_line():
    text = '<http://x/s> <http://x/p> "lit" .\n"lit" <http://x/p> <http://x/o> .\n'
    with pytest.raises(ParseError) as exc:
        parse_ntriples(text)
    assert (exc.value.line, exc.value.col) == (2, 1)


# --- the one-match line reader against the token walk -----------------------

# (well-formed, malformed) texts for each position
_DIFF_SUBJECTS = (
    ["<http://x/s>", "<http://x/s2>", "<http://x/o>", "_:b1", "_:a.b", "_:é", "_:a·b", "<http://x/caf\\u00E9>"],
    ["<a b>", '"lit"', "_:-a", "_:·a", "<http://x/\\u0020>"],
)
_DIFF_PREDICATES = (["<http://x/p>", "<http://x/q>"], ["_:p", "<>"])
_DIFF_OBJECTS = (
    [
        "<http://x/o>", "<http://x/s>", '"plain"', '"a b ."', '""', '"\u2028 \x85"',
        '"esc \\" \\\\ \\t \\n \\u00e9 \\U0001F600"', f'"1"^^<{_XSD}integer>',
        f'"2.5E1"^^<{_XSD}double>', f'"2019"^^<{_XSD}gYear>', f'"x"^^<{_XSD}string>',
        '"x"^^<http://x/dt>', '"hi"@en', '"hi"@en-GB', "_:b1", "_:a.b", "_:é", "_:a·b",
        "<http://x/\\U000000E9>", '"x"^^<http://x/d\\u00E9>',
    ],
    ['"\\uD800"', '"\\q"', f'"x"^^<{_XSD}integer>', '"hi"@en_GB', '"hi"@', "_:-a", "<http://x/\\u003E>"],
)
_DIFF_MUTATIONS = ["", " ", "\t", ".", "<", ">", '"', "\\", "#", "@", "^", "_", ":", "x", "\x0c", "\xa0"]


def _diff_line(rng: random.Random) -> str:
    """A triple line, or a blank or comment-only line. Half the triple lines
    are spelled as the serializer writes them, half with any separator (or
    none) and any trailer. One term in ten is malformed, and one line in
    five is mutated."""
    if rng.random() < 0.1:
        return rng.choice(["", " ", "\t", "# c", " \t# c", "#"])

    def term(texts: tuple[list[str], list[str]]) -> str:
        return rng.choice(texts[rng.random() < 0.1])

    def sep() -> str:
        return rng.choice([" ", "\t", "  ", ""])

    if rng.random() < 0.5:  # as the serializer writes it
        line = f"{term(_DIFF_SUBJECTS)} {term(_DIFF_PREDICATES)} {term(_DIFF_OBJECTS)} ."
    else:
        line = (
            term(_DIFF_SUBJECTS) + sep() + term(_DIFF_PREDICATES) + sep() + term(_DIFF_OBJECTS)
            + sep() + "." + rng.choice(["", " # c", "#c", " ", "\t"])
        )
    if rng.random() < 0.2:
        at = rng.randrange(len(line) + 1)
        line = line[:at] + rng.choice(_DIFF_MUTATIONS) + line[at + rng.choice([0, 0, 1, 2]):]
    return line


def _token_walk(text: str) -> Graph:
    """Each line through `_triple`, the reader's fallback, and nothing else."""
    terms: dict = {}
    return Graph(
        _triple(line, line_no, terms)
        for line_no, line in enumerate(text.split("\n"), start=1)
        if line.lstrip(" \t")[:1] not in ("", "#")
    )


def _outcome(read, text: str):
    try:
        return "graph", set(read(text))
    except ParseError as exc:
        return "error", str(exc)


def test_reader_agrees_with_the_token_walk_line_by_line():
    rng = random.Random(7)
    outcomes = {"graph": 0, "error": 0}
    for _ in range(3000):
        text = "\n".join(_diff_line(rng) for _ in range(rng.randint(1, 3))) + "\n"
        got = _outcome(parse_ntriples, text)
        assert got == _outcome(_token_walk, text), text
        outcomes[got[0]] += 1
    assert min(outcomes.values()) > 500, outcomes  # graphs and errors both compared


def test_k2_snapshot_round_trips(tmp_path):
    text = serialize_ntriples(build_graph(tiled_config(tmp_path))[0])
    graph = parse_ntriples(text)
    assert serialize_ntriples(graph) == text
    assert len(graph) == json.loads((ROOT / "bench" / "pins.json").read_text(encoding="utf-8"))["2"]["triples"]
    terms = [term for t in graph for term in t]
    assert len({id(term) for term in terms}) == len(set(terms))


_REFERENCE_ESCAPES = str.maketrans(
    {chr(c): f"\\u{c:04X}" for c in range(0x20)}
    | {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def _reference_term_to_ntriples(term) -> str:
    """`term_to_ntriples` as an isinstance chain over the term's named
    fields: the reference the class dispatch is checked against."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{term.lexical.translate(_REFERENCE_ESCAPES)}"'
        if term.language:
            return f"{body}@{term.language}"
        if term.datatype == XSD_STRING:
            return body
        return f"{body}^^<{term.datatype.value}>"
    raise TypeError(f"not a term: {term!r}")


def test_term_to_ntriples_matches_the_isinstance_reference():
    """Seeded IRIs, blank nodes and literals of every kind whose lexical
    forms hold every character the writer escapes: the class dispatch
    writes what the reference writes, and a non-term is a TypeError."""
    rng = random.Random(0x7E2)
    specials = [chr(c) for c in range(0x20)] + ["\\", '"', "\x7f", "é", " ", "🔌", "a", " "]
    datatypes = [XSD_STRING, XSD_INTEGER, XSD_GYEAR, Iri("http://example.org/dt#x")]
    terms = []
    for i in range(2000):
        text = "".join(rng.choices(specials, k=rng.randint(0, 12)))
        terms.append(Iri(f"http://example.org/{i}/é{rng.randint(0, 99)}"))
        terms.append(BlankNode(f"b{i}é"))
        kind = rng.randrange(3)
        if kind == 0:
            terms.append(Literal(text))
        elif kind == 1:
            terms.append(Literal(text, RDF_LANGSTRING, rng.choice(["en", "de-CH"])))
        else:  # unchecked, as results and snapshots may hold
            terms.append(tuple.__new__(Literal, (text, rng.choice(datatypes), None)))
    escaped = set()
    for term in terms:
        assert term_to_ntriples(term) == _reference_term_to_ntriples(term), term
        if isinstance(term, Literal):
            escaped.update(c for c in term.lexical if c in specials[:0x20] + ["\\", '"'])
    assert escaped == set(specials[:0x20] + ["\\", '"'])
    for not_a_term in [("http://example.org/",), "http://example.org/", None, 7,
                       ("a", XSD_STRING, None), Triple(EVR.a, RDF_TYPE, EVR.b)]:
        with pytest.raises(TypeError):
            _reference_term_to_ntriples(not_a_term)
        with pytest.raises(TypeError):
            term_to_ntriples(not_a_term)
