from __future__ import annotations

import random
import re
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evkg.graph import Graph
from evkg.queries import QUERY_TEXTS, expand_query_references
from evkg.sparql import (
    Bgp,
    Filter,
    Group,
    QueryError,
    QuerySemanticsError,
    QuerySyntaxError,
    SubSelect,
    Union,
    UnsupportedFeatureError,
    Values,
    Variable,
    engine,
    naive,
    parse_query,
)
from evkg.sparql.parser import MAX_DEPTH, position, tokenize
from evkg.terms import EV_ONT, EVR, RDF_TYPE, XSD_GYEAR, XSD_INTEGER, Literal, Triple

from query_render import query_text as pretty
from randomized import (
    random_numeric_query,
    random_query,
    random_subselect_query,
    solution_multiset,
)


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
    assert [item.name for item in q.select] == (
        "county zipcode road transline char_station substation powerplant".split()
    )
    lead, union = q.pattern.elements
    assert isinstance(lead, Bgp) and len(lead.patterns) == 4
    # Five alternatives, in one Union node.
    assert isinstance(union, Union) and len(union.branches) == 5
    for branch in union.branches:
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


_ZIP_LABELS = "{ SELECT ?z ?c WHERE { ?z a kwg-ont:ZipCodeArea . ?z rdfs:label ?c } GROUP BY ?z }"


# Each static rule is settled by the parser, whatever data the query would meet.
@pytest.mark.parametrize("text, error, message", [
    ("SELECT * ?s WHERE { ?s ?p ?o }", QuerySyntaxError,
     "line 1, col 10: SELECT * cannot be combined with other projection items"),
    ("SELECT ?s * WHERE { ?s ?p ?o }", QuerySyntaxError,
     "line 1, col 11: SELECT * cannot be combined with other projection items"),
    ("SELECT * (1 AS ?x) WHERE { ?s ?p ?o }", QuerySyntaxError,
     "line 1, col 10: SELECT * cannot be combined with other projection items"),
    ("SELECT * WHERE { ?s ?p ?o } GROUP BY ?s", QuerySemanticsError,
     "SELECT * cannot be combined with grouping"),
    ("SELECT ?s ?o WHERE { ?s ?p ?o } GROUP BY ?s", QuerySemanticsError,
     "projected variable ?o is not a GROUP BY key"),
    ("SELECT ?s (SUM(?o) AS ?t) WHERE { ?s ?p ?o }", QuerySemanticsError,
     "projected variable ?s is not a GROUP BY key"),
    ("SELECT * WHERE { ?s <http://example.org/none> ?o . " + _ZIP_LABELS + " }",
     QuerySemanticsError, "projected variable ?c is not a GROUP BY key"),
    ("SELECT ?z WHERE { { SELECT * WHERE { ?z ?p ?o } GROUP BY ?z } }", QuerySemanticsError,
     "SELECT * cannot be combined with grouping"),
    # An alias binds a new variable: not one of the pattern's, not one
    # projected earlier in the same SELECT (SPARQL 1.1 Query §18.2.1).
    ("SELECT ?a (SUM(?b) AS ?a) WHERE { ?a ?p ?b } GROUP BY ?a", QuerySemanticsError,
     "AS ?a binds a variable already in scope"),
    ("SELECT ?a (1 AS ?a) WHERE { ?s ?p ?o }", QuerySemanticsError,
     "AS ?a binds a variable already in scope"),
    ("SELECT (1 AS ?c) (2 AS ?c) WHERE { ?s ?p ?o }", QuerySemanticsError,
     "AS ?c binds a variable already in scope"),
    ("SELECT (1 AS ?c) WHERE { { SELECT (2 AS ?c) WHERE { ?s ?p ?o } } }", QuerySemanticsError,
     "AS ?c binds a variable already in scope"),
    ("SELECT (1 AS ?v) WHERE { ?s ?p ?o VALUES ?v { 1 } }", QuerySemanticsError,
     "AS ?v binds a variable already in scope"),
    ("SELECT (1 AS ?o) WHERE { ?s ?p ?x FILTER(?x > 0) { ?s ?q ?o } }", QuerySemanticsError,
     "AS ?o binds a variable already in scope"),
    ("SELECT * WHERE { { SELECT ?s (SUM(?o) AS ?s) WHERE { ?s ?p ?o } GROUP BY ?s } }",
     QuerySemanticsError, "AS ?s binds a variable already in scope"),
    # A plain variable is projected once, after a variable or an alias of its name.
    ("SELECT ?s ?s WHERE { ?s ?p ?o }", QuerySemanticsError, "?s is projected twice"),
    ("SELECT (1 AS ?c) ?c WHERE { ?s ?p ?o }", QuerySemanticsError, "?c is projected twice"),
    ("SELECT ?s ?s WHERE { ?s ?p ?o } GROUP BY ?s", QuerySemanticsError,
     "?s is projected twice"),
    ("SELECT ?s WHERE { { SELECT ?s ?o ?s WHERE { ?s ?p ?o } } }", QuerySemanticsError,
     "?s is projected twice"),
])
def test_static_rules_checked_at_parse_time(text, error, message):
    with pytest.raises(error) as exc:
        parse_query(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, names", [
    ("SELECT * WHERE { ?s ?p ?o . { SELECT ?z WHERE { ?z ?q ?w } } VALUES ?v { 1 } }",
     ["s", "p", "o", "z", "v"]),
    ("SELECT DISTINCT * WHERE { <http://example.org/a> ?p ?o FILTER(?o > ?x) }", ["p", "o"]),
    ("SELECT * WHERE { <http://example.org/a> <http://example.org/b> 1 }", []),
])
def test_select_star_expanded_to_in_scope_variables(text, names):
    q = parse_query(text)
    assert [item.name for item in q.select] == names
    assert parse_query(pretty(q)) == q
    assert ("*" in pretty(q).splitlines()[0]) == (not names)


# A chain is one node however long: the nested-aggregate check, the
# `SELECT *` expansion, the canonical text, `==` and both evaluators each
# take it at the default recursion limit.
_LONG_CHAINS = {
    "sum": "SELECT (SUM(" + " + ".join(["?o"] * 3000) + ") AS ?s) WHERE { ?x ?p ?o }",
    "union": "SELECT * WHERE { " + " UNION ".join(["{ ?x ?p ?o }"] * 3000) + " }",
    "filters": "SELECT ?x WHERE { ?x ?p ?o " + "FILTER(?o > 1) " * 3000 + "}",
}


@pytest.mark.parametrize("shape", sorted(_LONG_CHAINS))
def test_long_chains_are_accepted(shape):
    q = parse_query(_LONG_CHAINS[shape])
    assert parse_query(pretty(q)) == q
    g = Graph()
    g.insert(Triple(EVR.a, EVR.p, Literal("2", XSD_INTEGER)))
    g.insert(Triple(EVR.b, EVR.p, EVR.c))
    rows = solution_multiset(engine.evaluate(g, q))
    assert rows and rows == solution_multiset(naive.evaluate(g, q))


def test_deepest_filters_compare_at_the_default_recursion_limit():
    # 90 nested parentheses, each a comparison over a sum over a product:
    # three tree levels per parenthesis, near the parser's MAX_DEPTH.
    inner = "?o"
    for _ in range(90):
        inner = f"({inner} * 2 + 1 < 3)"
    text = "SELECT ?x WHERE { ?x ?p ?o FILTER" + inner + " }"
    q = parse_query(text)
    assert q == parse_query(text) and hash(q) == hash(parse_query(text))
    assert q != parse_query(text.replace("< 3)", "< 4)", 1))  # the innermost differs
    assert repr(q).count("Compare(op='<'") == 90 and repr(q) == repr(parse_query(text))


def _recursive_eq(a, b) -> bool:
    """What the dataclass-generated `__eq__` computes, spelled out with
    recursion: the reference for the AST's stack-walking equality."""
    if a is b:
        return True
    if is_dataclass(a):
        return a.__class__ is b.__class__ and all(
            _recursive_eq(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if type(a) is tuple and type(b) is tuple:
        return len(a) == len(b) and all(map(_recursive_eq, a, b))
    return a == b


def _recursive_repr(node) -> str:
    """What the dataclass-generated `__repr__` writes, spelled out with
    recursion: the reference for the AST's stack-walking `repr`."""
    if is_dataclass(node) and not isinstance(node, Variable):
        return f"{type(node).__qualname__}(" + ", ".join(
            f"{f.name}={_recursive_repr(getattr(node, f.name))}" for f in fields(node)) + ")"
    if type(node) is tuple:
        return "(" + ", ".join(map(_recursive_repr, node)) + ("," if len(node) == 1 else "") + ")"
    return repr(node)


def test_ast_repr_is_the_generated_one():
    rng = random.Random(0x4E9)
    makers = (random_query, random_numeric_query, random_subselect_query)
    for _ in range(300):
        q = rng.choice(makers)(rng)
        assert repr(q) == _recursive_repr(q)
        assert repr(q.pattern) == _recursive_repr(q.pattern)
    one = Values((Variable("x"),), ((EVR.a,),))
    assert repr(one) == f"Values(variables=(?x,), rows=((<{EVR.a.value}>,),))"


def test_ast_equality_is_the_generated_one():
    # Pairs of equal trees built apart, of unrelated trees, and of trees
    # whose canonical texts differ in one variable or number, or lack one
    # triple pattern, anywhere.
    rng = random.Random(34)
    makers = (random_query, random_numeric_query, random_subselect_query)

    def variant(source, spots: list[int], edit):
        """The parsed query of `edit(source, spot)` at a random spot, if any parses."""
        if not spots:
            return None
        try:
            return parse_query(edit(source, rng.choice(spots)))
        except QueryError:
            return None

    for _ in range(300):
        q = rng.choice(makers)(rng)
        text = pretty(q)
        digits = [m.start() for m in re.finditer(r"(?<=\?v)\d|(?<=\")\d", text)]
        near = variant(text, digits, lambda t, i: t[:i] + str((int(t[i]) + 1) % 10) + t[i + 1:])
        lines = text.splitlines(keepends=True)
        patterns = [i for i, line in enumerate(lines) if line.endswith(" .\n")]
        shorter = variant(lines, patterns, lambda t, i: "".join(t[:i] + t[i + 1:]))
        base, again = parse_query(text), parse_query(text)
        assert base == again and hash(base) == hash(again)
        for other in (again, q, rng.choice(makers)(rng), near, shorter, base.pattern):
            assert (base == other) == _recursive_eq(base, other)
            assert (base != other) != _recursive_eq(base, other)
            assert (other == base) == _recursive_eq(other, base)


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


@pytest.mark.parametrize("text", [
    "SELECT ?x WHERE { { SELECT ?x WHERE { ?x ?p ?o } } UNION { ?x ?p 1 } }",
    "SELECT ?x WHERE { { ?x ?p 1 } UNION { SELECT ?x WHERE { ?x ?p ?o } GROUP BY ?x } }",
    "SELECT * WHERE { { SELECT DISTINCT ?x WHERE { ?x ?p ?o FILTER(?o > 1) } }"
    " UNION { SELECT ?x WHERE { ?x ?p ?o } } UNION { { SELECT ?x WHERE { ?x ?p 2 } } ?x ?p ?o } }",
])
def test_union_of_sub_selects_round_trips(text):
    # A sub-select branch renders as one braced sub-select, not inside a group.
    q = parse_query(text)
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


# --- tokenizer ------------------------------------------------------------------


def _tokens(text):
    return [(t.kind, t.value, *position(text, t.offset)) for t in tokenize(text)]


def test_tokenize_pins_every_token_kind():
    text = (
        "PREFIX : <http://example.org/>\n"
        "SELECT $s (SUM(?n) AS ?t)  # a comment\n"
        "WHERE {\t$s\r evr:connectortype.CHAdeMO :local ;\n"
        '  ?p "say \\"hi\\"\\t\\\\", "2021"^^xsd:gYear .\n'
        "  FILTER(?n <= .5 + 1.5e3 * 7 - ?n / 2 = 1 != 0 >= 1 > 0 < 1)\n"
        "}"
    )
    assert _tokens(text) == [
        ("word", "PREFIX", 1, 1),
        ("pname", ":", 1, 8),
        ("iri", "http://example.org/", 1, 10),
        ("word", "SELECT", 2, 1),
        ("var", "s", 2, 8),
        ("(", "(", 2, 11),
        ("word", "SUM", 2, 12),
        ("(", "(", 2, 15),
        ("var", "n", 2, 16),
        (")", ")", 2, 18),
        ("word", "AS", 2, 20),
        ("var", "t", 2, 23),
        (")", ")", 2, 25),
        ("word", "WHERE", 3, 1),
        ("{", "{", 3, 7),
        ("var", "s", 3, 9),
        ("pname", "evr:connectortype.CHAdeMO", 3, 13),  # '\r' takes a column
        ("pname", ":local", 3, 39),
        (";", ";", 3, 46),
        ("var", "p", 4, 3),
        ("string", 'say "hi"\t\\', 4, 6),
        (",", ",", 4, 22),
        ("string", "2021", 4, 24),
        ("^^", "^^", 4, 30),
        ("pname", "xsd:gYear", 4, 32),
        (".", ".", 4, 42),
        ("word", "FILTER", 5, 3),
        ("(", "(", 5, 9),
        ("var", "n", 5, 10),
        ("<=", "<=", 5, 13),
        ("decimal", ".5", 5, 16),
        ("+", "+", 5, 19),
        ("double", "1.5e3", 5, 21),
        ("*", "*", 5, 27),
        ("integer", "7", 5, 29),
        ("-", "-", 5, 31),
        ("var", "n", 5, 33),
        ("/", "/", 5, 36),
        ("integer", "2", 5, 38),
        ("=", "=", 5, 40),
        ("integer", "1", 5, 42),
        ("!=", "!=", 5, 44),
        ("integer", "0", 5, 47),
        (">=", ">=", 5, 49),
        ("integer", "1", 5, 52),
        (">", ">", 5, 54),
        ("integer", "0", 5, 56),
        ("<", "<", 5, 58),
        ("integer", "1", 5, 60),
        (")", ")", 5, 61),
        ("}", "}", 6, 1),
        ("eof", "", 6, 2),
    ]


_W = "SELECT ?x WHERE { ?x ?p "
_TOKEN_ERRORS = [  # (text, exception type, message with its position)
    (_W + '"open }', QuerySyntaxError, "line 1, col 25: unterminated string literal"),
    (_W + '"a\\qb" }', QuerySyntaxError, "line 1, col 25: unknown escape \\q"),
    (_W + '"ab\\', QuerySyntaxError, "line 1, col 25: dangling escape in string"),
    (_W + '"a\\q \\', QuerySyntaxError, "line 1, col 25: unknown escape \\q"),
    (_W + '"a\\"', QuerySyntaxError, "line 1, col 25: unterminated string literal"),
    (_W + '"a\\\\', QuerySyntaxError, "line 1, col 25: unterminated string literal"),
    ("SELECT ? WHERE { ?x ?p ?o }", QuerySyntaxError,
     "line 1, col 8: expected a variable name after '?'"),
    (_W + "?o FILTER(?o && ?x) }", UnsupportedFeatureError,
     "unsupported construct: logical operator && at line 1, col 38"),
    (_W + "?o FILTER(?o || ?x) }", UnsupportedFeatureError,
     "unsupported construct: logical operator || at line 1, col 38"),
    ("SELECT ?x WHERE { `Query from Listing 1` }", QuerySyntaxError,
     "line 1, col 19: unexpanded query reference (backquoted placeholder)"),
    ("SELECT ?x\nWHERE {\n  ?x ?p ~ }", QuerySyntaxError,
     "line 3, col 9: unexpected character '~'"),
]


@pytest.mark.parametrize("text, error, message", _TOKEN_ERRORS)
def test_tokenizer_error_type_message_and_position(text, error, message):
    with pytest.raises(error) as exc:
        parse_query(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


# Every string escape (ECHAR, SPARQL 1.1 grammar [160]) is read.
@pytest.mark.parametrize("escape, char", [
    ("\\t", "\t"), ("\\b", "\b"), ("\\n", "\n"), ("\\r", "\r"), ("\\f", "\f"),
    ('\\"', '"'), ("\\'", "'"), ("\\\\", "\\"),
])
def test_string_escapes_accepted(escape, char):
    q = parse_query(_W + f'"a{escape}b" }}')
    [bgp] = q.pattern.elements
    assert bgp.patterns[0].o == Literal(f"a{char}b")


@pytest.mark.parametrize("char", ["é", "²", "٣"])
def test_non_ascii_outside_strings_and_iris_rejected(char):
    with pytest.raises(QuerySyntaxError) as exc:
        parse_query(f"SELECT ?x WHERE {{\n  ?x ?p {char} }}")
    assert str(exc.value) == f"line 2, col 9: unexpected character {char!r}"
    assert (exc.value.line, exc.value.col) == (2, 9)


def test_non_ascii_inside_strings_and_iris_accepted():
    q = parse_query('SELECT ?x WHERE { ?x <http://example.org/café> "é²٣" }')
    [bgp] = q.pattern.elements
    assert bgp.patterns[0].p.value == "http://example.org/café"
    assert bgp.patterns[0].o == Literal("é²٣")


_FUZZ_PIECES = [
    *"{}().*/+-=<>;,!^&|`:?$#\"\\ \t\r\n", "<=", ">=", "!=", "^^", "&&", "||", "\\n", "\\q",
    "SELECT", "DISTINCT", "WHERE", "FILTER", "UNION", "VALUES", "GROUP", "BY", "SUM", "AS",
    "PREFIX", "OPTIONAL", "a", "?x", "$y", "ev-ont:", "ev-ont:ChargingStation", ":x",
    "<http://x/>", "\"s\"", "\"2021\"^^xsd:gYear", "1.5e3", ".5", "7",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_FUZZ_PIECES), st.characters()), max_size=40))
def test_parse_query_raises_only_query_errors(pieces):
    try:
        parse_query("".join(pieces))
    except QueryError:
        pass


# --- canonical text of expressions -----------------------------------------------


def _filter_query(expr: str) -> str:
    return f"SELECT ?a WHERE {{ ?a ?b ?c FILTER({expr}) }}"


@pytest.mark.parametrize(
    "expr, rendered",
    [
        ("?a - (?b - ?c)", "?a - (?b - ?c)"),
        ("(?a - ?b) - ?c", "?a - ?b - ?c"),
        ("?a * (?b + ?c)", "?a * (?b + ?c)"),
        ("?a + ?b * ?c", "?a + ?b * ?c"),
        ("-?a * ?b", '("0"^^<http://www.w3.org/2001/XMLSchema#integer> - ?a) * ?b'),
        ("?a - -?b", '?a - ("0"^^<http://www.w3.org/2001/XMLSchema#integer> - ?b)'),
        ("(?a < ?b) = (?c > 1)",
         '(?a < ?b) = (?c > "1"^^<http://www.w3.org/2001/XMLSchema#integer>)'),
    ],
)
def test_expression_text_minimal_parentheses_round_trip(expr, rendered):
    q = parse_query(_filter_query(expr))
    text = pretty(q)
    assert f"FILTER({rendered})" in text
    assert parse_query(text) == q


@pytest.mark.parametrize("n", [150, 3000])
def test_long_sum_round_trips(n):
    q = parse_query(_filter_query(" + ".join(["?c"] * n) + " > 1"))
    assert parse_query(pretty(q)) == q
