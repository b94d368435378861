from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evkg.graph import Graph
from evkg.ingest import build_graph
from evkg.sparql import parse_query
from evkg.sparql.algebra import (
    Arith, Bgp, Compare, Filter, Group, SelectQuery, SubSelect, TriplePattern, Variable,
    pattern_vars, visible_vars,
)
from evkg.queries import QUERY_TEXTS, run_suite_query
from evkg.sparql import engine
from evkg.sparql.engine import evaluate
from evkg.sparql.errors import QuerySemanticsError
from evkg.sparql import naive
from evkg.terms import (
    EVR,
    RDF_TYPE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    Triple,
    numeric_value,
)
from conftest import tiled_config
from query_render import query_text
from randomized import (
    OBJECT_IRIS,
    OBJECT_LITERALS,
    PREDICATES,
    SUBJECTS,
    SUM_OF_AMOUNTS,
    SUM_PREDICATE,
    random_filter_only_group_texts,
    random_graph,
    random_group_query,
    random_numeric_graph,
    random_numeric_query,
    random_operator_run_text,
    random_query,
    random_subselect_query,
    solution_multiset,
)

EX = EVR  # shorthand namespace for test data


def _graph(*triples) -> Graph:
    g = Graph()
    for s, p, o in triples:
        g.insert(Triple(s, p, o))
    return g


def _rows(graph, text):
    solution = evaluate(graph, parse_query(text))
    return solution_multiset(solution)


P, Q = EX["p"], EX["q"]
A, B, C, D = EX["a"], EX["b"], EX["c"], EX["d"]


def test_bgp_join_on_shared_variable():
    g = _graph((A, P, B), (B, Q, C), (A, P, D))
    rows = _rows(g, "SELECT ?x ?y WHERE { ?x evr:p ?y . ?y evr:q ?z . }")
    assert rows == [(("x", "<http://evkg.org/resource/a>"), ("y", "<http://evkg.org/resource/b>"))]


def test_union_is_bag_union():
    g = _graph((A, P, B), (A, Q, B))
    rows = _rows(g, "SELECT ?x WHERE { { ?x evr:p ?y } UNION { ?x evr:q ?y } }")
    assert len(rows) == 2  # duplicates preserved without DISTINCT


def test_distinct_deduplicates():
    g = _graph((A, P, B), (A, Q, B))
    rows = _rows(g, "SELECT DISTINCT ?x WHERE { { ?x evr:p ?y } UNION { ?x evr:q ?y } }")
    assert len(rows) == 1


def test_filter_numeric_coercion_across_datatypes():
    g = _graph(
        (A, P, Literal("5", XSD_INTEGER)),
        (B, P, Literal("5.0", XSD_DECIMAL)),
        (C, P, Literal("4", XSD_INTEGER)),
    )
    rows = _rows(g, "SELECT ?x WHERE { ?x evr:p ?n . FILTER(?n >= 5) }")
    assert {dict(r)["x"] for r in rows} == {
        "<http://evkg.org/resource/a>",
        "<http://evkg.org/resource/b>",
    }


def test_filter_gyear_numeric_comparison():
    g = _graph(
        (A, P, Literal("2019", XSD_GYEAR)),
        (B, P, Literal("2021", XSD_GYEAR)),
    )
    rows = _rows(g, "SELECT ?x WHERE { ?x evr:p ?y . FILTER(?y > 2020) }")
    assert [dict(r)["x"] for r in rows] == ["<http://evkg.org/resource/b>"]


def test_filter_type_incompatible_is_false_not_error():
    g = _graph((A, P, B), (C, P, Literal("7", XSD_INTEGER)))
    rows = _rows(g, "SELECT ?x WHERE { ?x evr:p ?y . FILTER(?y < 10) }")
    assert [dict(r)["x"] for r in rows] == ["<http://evkg.org/resource/c>"]


def test_a_literal_of_a_look_alike_string_datatype_is_not_a_string():
    # SPARQL 1.1 §17.2.2 and §17.3: only xsd:string compares lexically and
    # has an effective boolean value; a datatype whose IRI merely ends in
    # "#string" is a type error in both, so the FILTER drops the row.
    look_alike = Literal("a", Iri("http://example.org/t#string"))
    g = _graph((A, P, look_alike), (B, P, Literal("a")))
    for text in ('SELECT ?x WHERE { ?x evr:p ?o FILTER(?o < "z") }',
                 "SELECT ?x WHERE { ?x evr:p ?o FILTER(?o) }"):
        query = parse_query(text)
        for evaluator in (evaluate, naive.evaluate):
            assert evaluator(g, query).rows == [{"x": B}], (text, evaluator)


def test_filter_on_unbound_variable_is_false():
    g = _graph((A, P, B))
    rows = _rows(g, "SELECT ?x WHERE { ?x evr:p ?y . FILTER(?nope = 1) }")
    assert rows == []


def test_values_restricts_bindings():
    g = _graph((A, P, B), (C, P, D))
    rows = _rows(g, "SELECT ?x WHERE { ?x evr:p ?y . VALUES ?x { evr:a } }")
    assert [dict(r)["x"] for r in rows] == ["<http://evkg.org/resource/a>"]


def test_subselect_joins_on_shared_projection():
    g = _graph((A, P, B), (B, Q, C))
    text = """
    SELECT ?y ?z WHERE {
      { SELECT ?y WHERE { ?x evr:p ?y } }
      ?y evr:q ?z .
    }
    """
    rows = _rows(g, text)
    assert rows == [(("y", "<http://evkg.org/resource/b>"), ("z", "<http://evkg.org/resource/c>"))]


def test_group_by_sum():
    g = _graph(
        (A, P, Literal("3", XSD_INTEGER)),
        (A, P, Literal("4", XSD_INTEGER)),
        (B, P, Literal("10", XSD_INTEGER)),
    )
    rows = _rows(g, "SELECT ?x (SUM(?n) AS ?total) WHERE { ?x evr:p ?n } GROUP BY ?x")
    totals = {dict(r)["x"]: dict(r)["total"] for r in rows}
    assert totals == {
        "<http://evkg.org/resource/a>": '"7"^^<http://www.w3.org/2001/XMLSchema#integer>',
        "<http://evkg.org/resource/b>": '"10"^^<http://www.w3.org/2001/XMLSchema#integer>',
    }


def test_sum_with_non_numeric_member_is_unbound():
    g = _graph(
        (A, P, Literal("3", XSD_INTEGER)),
        (A, P, Literal("oops")),
    )
    rows = _rows(g, "SELECT ?x (SUM(?n) AS ?total) WHERE { ?x evr:p ?n } GROUP BY ?x")
    assert rows == [(("x", "<http://evkg.org/resource/a>"),)]  # ?total unbound


def test_sum_inside_expressions_and_outside_grouping():
    g = _graph(
        (A, P, Literal("3", XSD_INTEGER)),
        (A, P, Literal("4", XSD_INTEGER)),
        (B, P, Literal("1.5", XSD_DECIMAL)),
    )
    grouped = (
        "SELECT ?x (SUM(?n) * 2 AS ?d) (SUM(?n) > 5 AS ?big) WHERE { ?x evr:p ?n } GROUP BY ?x"
    )
    typed = "^^<http://www.w3.org/2001/XMLSchema#"
    assert sorted(_rows(g, grouped)) == [
        (("big", f'"false"{typed}boolean>'), ("d", f'"3.0"{typed}decimal>'),
         ("x", "<http://evkg.org/resource/b>")),
        (("big", f'"true"{typed}boolean>'), ("d", f'"14"{typed}integer>'),
         ("x", "<http://evkg.org/resource/a>")),
    ]
    # The implicit group over no rows sums to 0; outside a grouped
    # projection, an aggregate is an error that drops the row.
    empty = "SELECT (SUM(?n) AS ?t) WHERE { ?x evr:q ?n }"
    assert _rows(g, empty) == [(("t", f'"0"{typed}integer>'),)]
    assert _rows(g, "SELECT ?x WHERE { ?x evr:p ?n FILTER(SUM(?n) > 0) }") == []
    for text in (grouped, empty):
        query = parse_query(text)
        assert solution_multiset(evaluate(g, query)) == solution_multiset(naive.evaluate(g, query))


def test_group_by_on_empty_solution_is_empty():
    g = _graph()
    rows = _rows(g, "SELECT ?x (SUM(?n) AS ?t) WHERE { ?x evr:p ?n } GROUP BY ?x")
    assert rows == []


def test_group_by_unprojected_and_unbound_variable_allowed():
    # Grouping by a variable that is never bound collapses to one group.
    g = _graph(
        (A, P, Literal("3", XSD_INTEGER)),
        (B, P, Literal("4", XSD_INTEGER)),
    )
    rows = _rows(g, "SELECT (SUM(?n) AS ?t) WHERE { ?x evr:p ?n } GROUP BY ?ghost")
    assert rows == [(("t", '"7"^^<http://www.w3.org/2001/XMLSchema#integer>'),)]


def test_projecting_non_group_key_rejected():
    with pytest.raises(QuerySemanticsError):
        parse_query("SELECT ?x (SUM(?n) AS ?t) WHERE { ?x evr:p ?n } GROUP BY ?ghost")


def test_division_by_zero_keeps_row_with_unbound_result():
    g = _graph(
        (A, P, Literal("3", XSD_INTEGER)),
        (A, Q, Literal("0", XSD_INTEGER)),
    )
    rows = _rows(g, "SELECT ?x (?n / ?d AS ?ratio) WHERE { ?x evr:p ?n . ?x evr:q ?d . }")
    assert rows == [(("x", "<http://evkg.org/resource/a>"),)]


def test_integer_division_yields_decimal():
    g = _graph(
        (A, P, Literal("3", XSD_INTEGER)),
        (A, Q, Literal("20", XSD_INTEGER)),
    )
    rows = _rows(g, "SELECT (?n / ?d AS ?ratio) WHERE { ?x evr:p ?n . ?x evr:q ?d . }")
    assert rows == [(("ratio", '"0.15"^^<http://www.w3.org/2001/XMLSchema#decimal>'),)]


def test_stacked_filters_all_apply():
    g = _graph(
        (A, P, Literal("3", XSD_INTEGER)),
        (B, P, Literal("7", XSD_INTEGER)),
        (C, P, Literal("9", XSD_INTEGER)),
    )
    rows = _rows(g, "SELECT ?x WHERE { ?x evr:p ?n . FILTER(?n > 4) FILTER(?n < 8) }")
    assert [dict(r)["x"] for r in rows] == ["<http://evkg.org/resource/b>"]


def test_filter_only_group_constrains_siblings():
    g = _graph(
        (A, P, Literal("3", XSD_INTEGER)),
        (B, P, Literal("7", XSD_INTEGER)),
    )
    rows = _rows(g, "SELECT ?x WHERE { {FILTER(?n > 4)} ?x evr:p ?n . }")
    assert [dict(r)["x"] for r in rows] == ["<http://evkg.org/resource/b>"]


def test_select_star_projects_in_scope_variables():
    g = _graph((A, P, B))
    solution = evaluate(g, parse_query("SELECT * WHERE { ?x evr:p ?y }"))
    assert solution.variables == ["x", "y"]


# --- planner: intermediate bindings, counted the way the bench tracer does ------


@pytest.fixture()
def binding_count(monkeypatch):
    """Count the bindings engine.match_pattern yields, by wrapping it."""
    count = [0]
    inner = engine.match_pattern

    def counted(*args):
        for binding in inner(*args):
            count[0] += 1
            yield binding

    monkeypatch.setattr(engine, "match_pattern", counted)
    return count


@pytest.fixture()
def existence_steps(monkeypatch):
    """Count the existence steps (every variable already bound) that reach
    engine.match_pattern with rows, by shape: row values in one or in two
    positions, and a row value in the predicate position."""
    shapes = dict.fromkeys(["one key", "two keys", "predicate key"], 0)
    inner = engine.match_pattern

    def counted(graph, tp, rows):
        keyed = [pos for pos in tp.positions() if isinstance(pos, Variable)]
        if rows and all(pos.name in rows[0] for pos in keyed):
            shapes["one key"] += len(keyed) == 1
            shapes["two keys"] += len(keyed) == 2
            shapes["predicate key"] += isinstance(tp.p, Variable)
        return inner(graph, tp, rows)

    monkeypatch.setattr(engine, "match_pattern", counted)
    return shapes


def test_planner_joins_connected_patterns_first(binding_count):
    n = 200
    g = Graph()
    for i in range(n):
        g.insert(Triple(EX[f"a{i}"], RDF_TYPE, EX["A"]))
        g.insert(Triple(EX[f"b{i}"], RDF_TYPE, EX["B"]))
        g.insert(Triple(EX[f"a{i}"], P, EX[f"b{i}"]))
    rows = _rows(g, "SELECT * WHERE { ?a a evr:A . ?b a evr:B . ?a evr:p ?b . }")
    assert len(rows) == n
    assert binding_count[0] <= 3 * n  # a cross product of the type patterns is n * n


def test_planner_bounds_suite_bindings_on_fixture(fixture_graph, binding_count):
    per_query = {}
    for qid in sorted(QUERY_TEXTS):
        binding_count[0] = 0
        run_suite_query(fixture_graph, qid)
        per_query[qid] = binding_count[0]
    assert per_query[8] <= 1_000
    assert sum(per_query.values()) <= 3_000
    # The exact step outputs, through the generator wrapper the bench tracer
    # also puts around match_pattern: the plans and their steps as they are.
    assert per_query == {1: 6, 2: 38, 3: 62, 4: 226, 5: 325, 6: 551, 7: 169, 8: 320, 9: 401,
                         10: 250}


def _reference_order(patterns, estimates, bound):
    """The join order `engine._order_patterns` must give, computed the plain
    way: every round re-scores each candidate through a key function."""
    remaining = [
        (tp, {v.name for v in pattern_vars(tp)}, estimate)
        for tp, estimate in zip(patterns, estimates)
    ]
    ordered = []
    bound = set(bound)

    def key(item):
        selectivity = sum(
            not isinstance(pos, Variable) or pos.name in bound for pos in item[0].positions()
        )
        return (-selectivity, item[2])

    while remaining:
        connected = [item for item in remaining if not item[1] or not item[1].isdisjoint(bound)]
        best = min(connected or remaining, key=key)
        remaining.remove(best)
        ordered.append(best[0])
        bound |= best[1]
    return ordered


def test_planner_order_equals_the_reference_order():
    # Small pools, so that cases repeat variables inside a pattern, hold
    # all-constant patterns, split into parts sharing no variable, tie on
    # estimates and start from rows that already bind some variables.
    names = ["a", "b", "c", "d"]
    terms = [A, B, P, Literal("1", XSD_INTEGER)]
    rng = random.Random(0x0DE5)
    seen = dict.fromkeys(["repeat", "constant", "disconnected", "tie", "bound"], 0)
    for _ in range(4000):
        patterns = tuple(
            TriplePattern(*(
                Variable(rng.choice(names)) if rng.random() < 0.6 else rng.choice(terms)
                for _ in range(3)
            ))
            for _ in range(rng.randint(1, 6))
        )
        estimates = [rng.randint(0, 3) for _ in patterns]
        bound = set(rng.sample(names, rng.randint(0, 2)))
        order = engine._order_patterns(patterns, estimates, bound)
        expected = _reference_order(patterns, estimates, bound)
        assert len(order) == len(expected) and all(a is b for a, b in zip(order, expected))
        variables = [{v.name for v in pattern_vars(tp)} for tp in expected]
        seen["repeat"] += any(len(vs) < len(list(pattern_vars(tp)))
                              for vs, tp in zip(variables, expected))
        seen["constant"] += not all(variables)
        seen["disconnected"] += any(  # a later step shares no variable with the earlier ones
            vs and vs.isdisjoint(bound.union(*variables[:i])) for i, vs in enumerate(variables) if i
        )
        seen["tie"] += len(set(estimates)) < len(estimates)
        seen["bound"] += bool(bound)
    assert min(seen.values()) > 200, seen


def _reference_estimate(graph, tp):
    """`engine._estimate` as a generator expression over `tp.positions()`."""
    s, p, o = (None if isinstance(pos, Variable) else pos for pos in tp.positions())
    if isinstance(s, Literal) or (p is not None and not isinstance(p, Iri)):
        return 0
    return graph.count_estimate(s, p, o)


def test_estimate_equals_the_reference_estimate():
    rng = random.Random(0xE57)
    variables = [Variable(name) for name in "abc"]
    odd = [BlankNode("b0"), EX["unknown"], Literal("7", XSD_INTEGER)]
    pool = SUBJECTS + PREDICATES + OBJECT_IRIS + OBJECT_LITERALS + odd
    seen = dict.fromkeys(["literal subject", "literal predicate", "blank predicate", "count"], 0)
    for _ in range(60):
        graph = random_graph(rng, 80)
        for _ in range(50):
            tp = TriplePattern(*(
                rng.choice(variables) if rng.random() < 0.4 else rng.choice(pool)
                for _ in range(3)
            ))
            expected = _reference_estimate(graph, tp)
            assert engine._estimate(graph, tp) == expected, tp
            seen["literal subject"] += isinstance(tp.s, Literal)
            seen["literal predicate"] += isinstance(tp.p, Literal)
            seen["blank predicate"] += isinstance(tp.p, BlankNode)
            seen["count"] += expected > 0
    assert min(seen.values()) > 30, seen


# --- one join step per pattern -------------------------------------------------


class _CountingGraph(Graph):
    """A graph that counts its lookups: one per ``match`` call and one per
    key passed to ``neighbours``, whose calls it also records as
    (predicate, forward, number of keys)."""

    match_calls = 0

    def __init__(self):
        super().__init__()
        self.batches = []

    def match(self, s=None, p=None, o=None):
        self.match_calls += 1
        return super().match(s, p, o)

    def neighbours(self, p, keys, forward):
        keys = list(keys)
        self.match_calls += len(keys)
        self.batches.append((p, forward, len(keys)))
        return super().neighbours(p, keys, forward)


TWO = Literal("2", XSD_INTEGER)
_STEP_TRIPLES = [(A, P, A), (A, P, B), (B, P, TWO), (B, Q, C), (C, Q, C), (A, Q, TWO), (C, Q, D)]


@pytest.mark.parametrize("where, n_rows, match_calls, batches", [
    ("?v evr:p ?v .", 1, 1, []),  # a repeated free variable
    ("?x evr:q ?v . ?v evr:q ?v .", 2, 5, []),  # a repeated key; ?v is "2" in one row
    ("evr:a evr:p evr:b . ?x evr:q ?y .", 4, 2, []),  # a ground pattern that hits
    ("evr:a evr:p evr:c . ?x evr:q ?y .", 0, 1, []),  # ... and one that misses
    ('"2" evr:p ?o .', 0, 0, []),  # a constant literal subject
    # ?y ?z evr:e is connected once evr:a evr:p ?y runs, but no triple holds evr:e
    ("evr:a evr:p ?y . ?y ?z evr:e .", 0, 0, []),
    # ?o is bound to "2" in one of three rows, then used as a subject: one
    # batched lookup of the three ?o values binds ?z
    ("?s evr:p ?o . ?o evr:q ?z .", 2, 4, [(Q, True, 3)]),
])
def test_batched_step_agrees_with_oracle(where, n_rows, match_calls, batches):
    g = _CountingGraph()
    g.update(Triple(s, p, o) for s, p, o in _STEP_TRIPLES)
    query = parse_query(f"SELECT * WHERE {{ {where} }}")
    solution = evaluate(g, query)
    assert len(solution.rows) == n_rows
    assert g.match_calls == match_calls  # one per row reaching each step
    assert g.batches == batches
    assert solution_multiset(solution) == solution_multiset(naive.evaluate(g, query))


def test_empty_constant_pattern_ends_q2_road_branch_before_any_lookup(tmp_path, monkeypatch):
    # No road segment exists, so `?road a kwg-ont:RoadSegment` empties the
    # road branch; probing it once per county row made 155 lookups.
    graph, _ = build_graph(tiled_config(tmp_path))
    calls = [0]
    match, neighbours = Graph.match, Graph.neighbours

    def counted_match(self, s=None, p=None, o=None):
        calls[0] += 1
        return match(self, s, p, o)

    def counted_neighbours(self, p, keys, forward):
        keys = list(keys)
        calls[0] += len(keys)
        return neighbours(self, p, keys, forward)

    monkeypatch.setattr(Graph, "match", counted_match)
    monkeypatch.setattr(Graph, "neighbours", counted_neighbours)
    run_suite_query(graph, 2)
    assert calls[0] == 83


def test_step_without_rows_yields_nothing_and_looks_nothing_up():
    g = _CountingGraph()
    g.update(Triple(s, p, o) for s, p, o in _STEP_TRIPLES)
    tp = TriplePattern(Variable("x"), P, Variable("y"))
    assert list(engine.match_pattern(g, tp, [])) == []
    assert g.match_calls == 0
    query = parse_query("SELECT * WHERE { ?x evr:p evr:d . ?x evr:q ?y . }")
    assert evaluate(g, query).rows == naive.evaluate(g, query).rows == []


def test_bgp_stops_at_the_first_pattern_that_matches_nothing(monkeypatch):
    g = _CountingGraph()
    g.update(Triple(s, p, o) for s, p, o in _STEP_TRIPLES)
    estimated = []
    count_estimate = Graph.count_estimate

    def counted(self, s=None, p=None, o=None):
        estimated.append((s, p, o))
        return count_estimate(self, s, p, o)

    monkeypatch.setattr(Graph, "count_estimate", counted)
    x, y, z = (Variable(name) for name in "xyz")
    rest = (TriplePattern(x, P, y), TriplePattern(y, Q, z), TriplePattern(z, Q, x))
    for first, counts in [
        (TriplePattern(x, EX["none"], y), 1),  # one count, which is 0
        (TriplePattern(TWO, P, y), 0),  # a literal subject is 0 without a count
        (TriplePattern(x, TWO, y), 0),  # so is a literal predicate
    ]:
        estimated.clear()
        assert engine.eval_bgp(g, Bgp((first, *rest)), [{}]) == []
        assert len(estimated) == counts and g.match_calls == 0
    # The empty pattern last: every pattern is counted, still nothing looked up.
    estimated.clear()
    assert engine.eval_bgp(g, Bgp((*rest, TriplePattern(x, EX["none"], y))), [{}]) == []
    assert len(estimated) == 4 and g.match_calls == 0


def test_existence_step_passes_its_rows_on_uncopied():
    g = _CountingGraph()
    g.update(Triple(s, p, o) for s, p, o in _STEP_TRIPLES)
    rows = [{"x": A}, {"x": B}, {"x": C}]
    tp = TriplePattern(Variable("x"), Q, C)  # only evr:b and evr:c hold it
    out = list(engine.match_pattern(g, tp, rows))
    assert len(out) == 2 and out[0] is rows[1] and out[1] is rows[2]
    assert g.match_calls == 3 and g.batches == []


# --- long chains: UNION branches, FILTERs in one group, terms of one sum -------

_CHAINS = {
    "unions": lambda n: "SELECT * WHERE { " + " UNION ".join(["{ ?s ?p ?o }"] * n) + " }",
    "filters": lambda n: "SELECT * WHERE { ?s ?p ?o " + "FILTER(?o > 1) " * n + "}",
    "sum": lambda n: "SELECT * WHERE { ?s ?p ?o FILTER(" + " + ".join(["?o"] * n) + " > 1) }",
}


@pytest.mark.parametrize("shape", sorted(_CHAINS))
@pytest.mark.parametrize("n", [150, 3000])
def test_long_flat_chains_evaluate(shape, n):
    g = _graph((EX["a"], P, Literal("2", XSD_INTEGER)), (EX["b"], P, EX["c"]))
    query = parse_query(_CHAINS[shape](n))
    expected = {"unions": 2 * n, "filters": 1, "sum": 1}[shape]
    solution = evaluate(g, query)
    assert len(solution.rows) == expected
    assert solution_multiset(solution) == solution_multiset(naive.evaluate(g, query))


# --- properties ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_join_commutativity_permuting_bgp_patterns(rng):
    graph = random_graph(rng, 60)
    query = random_query(rng, 3)
    baseline = solution_multiset(evaluate(graph, query))

    def permute(pattern):
        if isinstance(pattern, Group):
            return Group(tuple(permute(el) for el in pattern.elements))
        if isinstance(pattern, Bgp):
            patterns = list(pattern.patterns)
            rng.shuffle(patterns)
            return Bgp(tuple(patterns))
        return pattern

    from evkg.sparql.algebra import Filter as FilterNode

    shuffled = query.pattern
    if isinstance(shuffled, FilterNode):
        shuffled = FilterNode(shuffled.expressions, permute(shuffled.inner))
    else:
        shuffled = permute(shuffled)
    permuted = SelectQuery(query.select, query.distinct, shuffled, query.group_by)
    assert solution_multiset(evaluate(graph, permuted)) == baseline


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_distinct_idempotent(rng):
    graph = random_graph(rng, 60)
    query = random_query(rng, 3)
    distinct_query = SelectQuery(query.select, True, query.pattern, query.group_by)
    once = evaluate(graph, distinct_query)
    twice_rows = solution_multiset(once)
    # Re-projecting an already-distinct solution must not change it.
    assert sorted(set(twice_rows)) == twice_rows


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_group_by_conservation(rng):
    """Sum over groups of SUM(?n) equals ungrouped SUM(?n)."""
    graph = Graph()
    n = rng.randint(0, 40)
    for i in range(n):
        graph.insert(
            Triple(
                rng.choice([A, B, C]),
                P,
                Literal(str(rng.randint(0, 9)), XSD_INTEGER),
            )
        )
    grouped = evaluate(
        graph, parse_query("SELECT ?x (SUM(?n) AS ?t) WHERE { ?x evr:p ?n } GROUP BY ?x")
    )
    total = evaluate(graph, parse_query("SELECT (SUM(?n) AS ?t) WHERE { ?x evr:p ?n }"))
    grouped_sum = sum(int(row["t"].lexical) for row in grouped.rows)
    [total_row] = total.rows
    assert grouped_sum == int(total_row["t"].lexical)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_engine_matches_naive_oracle(rng):
    graph = random_graph(rng, 120)
    query = random_query(rng, 4)
    assert solution_multiset(evaluate(graph, query)) == solution_multiset(
        naive.evaluate(graph, query)
    )


def test_engine_matches_naive_on_group_shapes(monkeypatch, existence_steps):
    """300 seeded queries whose groups pass rows into the elements after them."""
    bind_joins, mixed_joins = [0], [0]
    eval_bgp, join_rows = engine.eval_bgp, engine.join_rows

    def counting_eval_bgp(graph, bgp, rows):
        bind_joins[0] += bool(rows[0])
        return eval_bgp(graph, bgp, rows)

    def counting_join_rows(left, right):
        mixed_joins[0] += len({frozenset(row) for row in left}) > 1
        return join_rows(left, right)

    monkeypatch.setattr(engine, "eval_bgp", counting_eval_bgp)
    monkeypatch.setattr(engine, "join_rows", counting_join_rows)
    rng = random.Random(0x6B1D)
    for case in range(300):
        graph = random_graph(rng, 200)
        query = random_group_query(rng)
        assert solution_multiset(evaluate(graph, query)) == solution_multiset(
            naive.evaluate(graph, query)
        ), f"case {case}: {query}"
    assert bind_joins[0] > 100 and mixed_joins[0] > 10, (bind_joins, mixed_joins)
    assert min(existence_steps.values()) > 10, existence_steps


def _grouped_distinct_text(rng: random.Random) -> tuple[str, str]:
    """A seeded `SELECT DISTINCT` with a grouped level, and its shape. The
    level projects every GROUP BY key as itself (its DISTINCT pass is
    skipped) or leaves one out (the pass runs), with or without a SUM."""
    shape = rng.choice(["one key", "two keys", "union", "single group", "sub-select"])
    p = rng.choice(["evr:p", "evr:q"])
    where = {
        "one key": f"?a {p} ?n",
        "two keys": "?a evr:q ?b . ?b evr:p ?n",
        # ?b is bound in the second branch only, so it is unbound in some rows
        "union": f"{{ ?a {p} ?n }} UNION {{ ?a evr:q ?b . ?b evr:p ?n }}",
        "single group": f"?a {p} ?n",
        "sub-select": f"?a {p} ?n",
    }[shape]
    keys = {"one key": ["?a"], "two keys": ["?a", "?b"], "union": ["?a", "?b"],
            "sub-select": ["?a"]}.get(shape, [])
    projected = [k for k in keys if rng.random() < 0.8] if rng.random() < 0.5 else list(keys)
    rng.shuffle(projected)
    summed = rng.random() < 0.7 or not projected
    items = projected + ["(SUM(?n) AS ?s)"] * summed
    group_by = f" GROUP BY {' '.join(keys)}" if keys else ""
    level = f"SELECT DISTINCT {' '.join(items)} WHERE {{ {where} }}{group_by}"
    if shape == "sub-select":
        outer = " ".join(projected + ["?s"] * summed)
        return f"SELECT DISTINCT {outer} WHERE {{ {{ {level} }} ?a evr:q ?y }}", shape
    return level, shape


def test_grouped_distinct_agrees_with_oracle(monkeypatch):
    """Engine against the naive oracle, which keeps its own DISTINCT pass,
    on grouped `SELECT DISTINCT` levels; the engine skips its pass where the
    level projects every key as itself."""
    numbers = [Literal(str(i), XSD_INTEGER) for i in (1, 2)] + [Literal("x")]
    passes = [0]
    distinct = engine._distinct

    def counted(rows):
        passes[0] += 1
        return distinct(rows)

    monkeypatch.setattr(engine, "_distinct", counted)
    rng = random.Random(0xD157)
    seen = dict.fromkeys(["one key", "two keys", "union", "single group", "sub-select"], 0)
    seen |= {"skipped": 0, "passed": 0, "several rows": 0, "unbound key": 0}
    for case in range(400):
        g = Graph()
        for _ in range(rng.randint(0, 14)):
            s = rng.choice([A, B, C, D])
            g.insert(Triple(s, P, rng.choice(numbers)))
            g.insert(Triple(s, Q, rng.choice([A, B, C, D, *numbers])))
        text, shape = _grouped_distinct_text(rng)
        query = parse_query(text)
        passes[0] = 0
        solution = evaluate(g, query)
        rows = solution.rows
        assert solution_multiset(naive.evaluate(g, query)) == solution_multiset(solution), (
            f"case {case}: {text}")
        seen[shape] += 1
        grouped = query if shape != "sub-select" else query.pattern.elements[0].query
        projects_keys = {v.name for v in grouped.group_by} <= {
            item.name for item in grouped.select if isinstance(item, Variable)}
        levels = 1 + (shape == "sub-select")
        assert passes[0] == levels - projects_keys, f"case {case}: {text}"
        seen["skipped" if projects_keys else "passed"] += 1
        seen["several rows"] += len(rows) > 1
        seen["unbound key"] += shape == "union" and any("b" not in row for row in rows) and any(
            "b" in row for row in rows)
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("text, passes, n_rows", [
    # ungrouped: two rows with ?n = 1
    ("SELECT DISTINCT ?n WHERE { ?a evr:p ?n }", 1, 1),
    # grouped, computed items only: the two groups' sums are equal
    ("SELECT DISTINCT (SUM(?n) AS ?s) WHERE { ?a evr:p ?n } GROUP BY ?a", 1, 1),
    # grouped with a key left out: ?a repeats across the ?n groups
    ("SELECT DISTINCT ?a WHERE { ?a evr:q ?n } GROUP BY ?a ?n", 1, 2),
    # every key projected as itself: already distinct
    ("SELECT DISTINCT ?a (SUM(?n) AS ?s) WHERE { ?a evr:p ?n } GROUP BY ?a", 0, 2),
    ("SELECT DISTINCT ?n ?a WHERE { ?a evr:q ?n } GROUP BY ?a ?n", 0, 3),
    # the implicit single group has one row
    ("SELECT DISTINCT (SUM(?n) AS ?s) WHERE { ?a evr:p ?n }", 0, 1),
])
def test_distinct_pass_runs_where_rows_may_repeat(monkeypatch, text, passes, n_rows):
    one = Literal("1", XSD_INTEGER)
    g = _graph((A, P, one), (B, P, one), (A, Q, one), (A, Q, B), (B, Q, one))
    calls = []
    distinct = engine._distinct
    monkeypatch.setattr(engine, "_distinct", lambda rows: calls.append(rows) or distinct(rows))
    query = parse_query(text)
    solution = evaluate(g, query)
    assert len(calls) == passes and len(solution.rows) == n_rows
    assert solution_multiset(naive.evaluate(g, query)) == solution_multiset(solution)


_FIRST_ELEMENTS = {  # a top-level group's first element -> (query, its rows in order)
    "sub-select": (
        "SELECT ?x ?y ?z WHERE { { SELECT ?x ?y WHERE { ?x evr:p ?y } } ?x evr:q ?z }",
        [{"x": A, "y": B, "z": D}, {"x": B, "y": C, "z": A}],
    ),
    "values": (
        "SELECT ?x ?z WHERE { VALUES ?x { evr:d evr:c evr:a } ?x evr:q ?z }",
        [{"x": D, "z": B}, {"x": A, "z": D}],
    ),
    "filtered group": (
        "SELECT ?x ?y ?z WHERE { { ?x evr:p ?y FILTER(?y != evr:b) } ?x evr:q ?z }",
        [{"x": B, "y": C, "z": A}],
    ),
}


@pytest.mark.parametrize("first", sorted(_FIRST_ELEMENTS))
def test_first_element_is_not_joined_with_the_empty_row(monkeypatch, first):
    """The group's rows start as the single empty row, the join identity:
    its first element's solutions are taken as they are, not copied through
    join_rows. One object per (subject, predicate) and one subject per
    (predicate, object) keep every row order free of set order."""
    g = _graph((A, P, B), (B, P, C), (C, P, D), (A, Q, D), (B, Q, A), (D, Q, B))
    text, expected = _FIRST_ELEMENTS[first]
    query = parse_query(text)
    lefts = []
    join_rows = engine.join_rows

    def recording_join_rows(left, right):
        lefts.append(left)
        return join_rows(left, right)

    monkeypatch.setattr(engine, "join_rows", recording_join_rows)
    assert evaluate(g, query).rows == expected
    assert [{}] not in lefts
    assert solution_multiset(naive.evaluate(g, query)) == solution_multiset(evaluate(g, query))


def test_engine_matches_naive_on_nested_sub_selects():
    """300 seeded groups ending in a sub-select, half over numeric graphs:
    sub-selects join rows, follow BGPs that matched nothing, nest, and
    group their rows, summing each group's amounts."""
    joined = after_nothing = grouped = nested = 0
    rng = random.Random(0x5E1E)
    for case in range(300):
        numeric = case % 2 == 1
        graph = random_numeric_graph(rng) if numeric else random_graph(rng, 200)
        query = random_subselect_query(rng, numeric)
        assert solution_multiset(evaluate(graph, query)) == solution_multiset(
            naive.evaluate(graph, query)
        ), f"case {case}: {query}"
        *leads, sub = query.pattern.elements
        lead = Group(tuple(leads))
        lead_rows = naive.evaluate(
            graph, SelectQuery(tuple(map(Variable, visible_vars(lead))), False, lead)
        ).rows
        after_nothing += not lead_rows
        joined += bool(lead_rows) and bool(naive.evaluate(graph, sub.query).rows)
        grouped += sub.query.grouped
        nested += isinstance(sub.query.pattern.elements[-1], SubSelect)
    assert min(joined, after_nothing, grouped, nested) > 30, (
        joined, after_nothing, grouped, nested
    )


def test_engine_matches_naive_on_filter_only_groups():
    """300 seeded groups holding only FILTERs, written beside one or two
    BGPs as query text. The parser hoists their FILTERs into the enclosing
    group: engine and oracle agree on the parsed query, and its rows are
    those of the same query with the FILTERs written in that group."""
    partial = 0  # cases whose FILTERs keep some rows and drop others
    rng = random.Random(0xF17E)
    for case in range(300):
        graph = random_graph(rng, 200)
        nested_text, enclosing_text, unfiltered_text = random_filter_only_group_texts(rng)
        nested = parse_query(nested_text)
        rows = solution_multiset(evaluate(graph, nested))
        assert rows == solution_multiset(naive.evaluate(graph, nested)), f"case {case}: {nested_text}"
        assert rows == _rows(graph, enclosing_text), f"case {case}: {nested_text}"
        partial += 0 < len(rows) < len(_rows(graph, unfiltered_text))
    assert partial > 15, partial


def test_engine_matches_naive_on_numeric_expressions(monkeypatch):
    """300 seeded arithmetic projections, FILTERs comparing two variables
    and SUM groups over numbers of all four datatypes. Every operator meets
    every ordered pair of datatypes, some divisions are by zero, and some
    bound SUM mixes datatypes."""
    numeric = (XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_GYEAR)
    met, zero_divisions = set(), [0]
    apply_arith, compare_terms = engine.apply_arith, engine.compare_terms

    def meet(op, left, right):
        if left.datatype in numeric and right.datatype in numeric:
            met.add((op, left.datatype, right.datatype))

    def recording_apply_arith(op, left, right):
        meet(op, left, right)
        try:
            return apply_arith(op, left, right)
        except engine.EvalError:
            zero_divisions[0] += op == "/" and numeric_value(right) == 0
            raise

    def recording_compare_terms(op, left, right):
        meet(op, left, right)
        return compare_terms(op, left, right)

    monkeypatch.setattr(engine, "apply_arith", recording_apply_arith)
    monkeypatch.setattr(engine, "compare_terms", recording_compare_terms)
    mixed_sums = 0
    rng = random.Random(0x5A17)
    for case in range(300):
        graph = random_numeric_graph(rng)
        query = random_numeric_query(rng)
        solution = evaluate(graph, query)
        assert solution_multiset(solution) == solution_multiset(
            naive.evaluate(graph, query)
        ), f"case {case}: {query}"
        if SUM_OF_AMOUNTS in query.select:
            for row in solution.rows:
                amounts = graph.match(row.get("s"), SUM_PREDICATE, None)
                mixed_sums += "x" in row and len({t.object.datatype for t in amounts}) > 1
    operators = ["+", "-", "*", "/", "<", "<=", ">", ">=", "=", "!="]
    assert met == set(itertools.product(operators, numeric, numeric))
    assert zero_divisions[0] > 10 and mixed_sums > 10, (zero_divisions, mixed_sums)


def _runs(expr):
    """The operator runs of `expr`, nested ones included."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Arith):
            yield node
            stack += node.operands
        elif isinstance(node, Compare):
            stack += (node.left, node.right)


def test_engine_matches_naive_on_operator_runs():
    """300 seeded FILTERs and projections whose expressions are runs of 2-5
    operands mixing ``+ -`` and ``* /``, with parenthesized runs and unary
    minuses (`random_operator_run_text`): each run is folded left to right
    alike by engine and oracle, and its canonical text parses back equal."""
    long_runs = bound = passed = 0
    rng = random.Random(0xA217)
    for case in range(300):
        graph = random_numeric_graph(rng)
        text = random_operator_run_text(rng)
        query = parse_query(text)
        assert parse_query(query_text(query)) == query, f"case {case}: {text}"
        solution = evaluate(graph, query)
        rows = solution_multiset(solution)
        assert rows == solution_multiset(naive.evaluate(graph, query)), f"case {case}: {text}"
        if isinstance(query.pattern, Filter):
            expr, passed = query.pattern.expressions[0], passed + bool(rows)
        else:
            expr, bound = query.select[-1].expr, bound + any("x" in row for row in solution.rows)
        long_runs += any(len(run.operands) > 3 for run in _runs(expr))
    assert min(long_runs, bound, passed) > 100, (long_runs, bound, passed)


def test_engine_matches_naive_on_exhaustive_small_queries(existence_steps):
    """Every 2-pattern BGP over a tiny vocabulary, engine vs oracle."""
    g = _graph(
        (A, P, B), (B, P, C), (A, Q, C), (C, Q, A), (B, Q, Literal("2", XSD_INTEGER))
    )
    x, y = Variable("x"), Variable("y")
    positions = [A, B, x, y]
    preds = [P, Q, x]
    count = 0
    for s1, p1, o1, s2, p2, o2 in itertools.product(
        positions, preds, positions, positions, preds, positions
    ):
        pattern = Group((Bgp((TriplePattern(s1, p1, o1), TriplePattern(s2, p2, o2))),))
        query = SelectQuery(
            select=tuple(map(Variable, visible_vars(pattern))),
            distinct=False,
            pattern=pattern,
            group_by=(),
        )
        assert solution_multiset(evaluate(g, query)) == solution_multiset(
            naive.evaluate(g, query)
        )
        count += 1
    assert count == 4 * 3 * 4 * 4 * 3 * 4
    assert min(existence_steps.values()) > 10, existence_steps


@pytest.mark.parametrize("obj, present", [
    ("evr:connectortype.CHAdeMO", True),
    ("evr:zipcodearea.07001", True),
    ("evr:nowhere.nothing", False),
    ('"King"', True),
    ('"2021"^^xsd:gYear', True),
    ('"no such label"', False),
])
def test_object_only_pattern_agrees_with_oracle(fixture_graph, obj, present):
    # Only the object is bound, so the engine asks the store for an object-only match.
    query = parse_query(f"SELECT ?s ?p WHERE {{ ?s ?p {obj} }}")
    rows = solution_multiset(evaluate(fixture_graph, query))
    assert rows == solution_multiset(naive.evaluate(fixture_graph, query))
    assert bool(rows) == present


# Every ordered pair of this pool meets + - * / and the six comparisons in
# `_OPERATOR_TABLE`; each result is pinned. Rows read "left right  + - * /
# = != < <= > >=": an arithmetic result is "lexical^kind" (i integer,
# d decimal, f double), a comparison T or F, and E an EvalError.
_POOL = [
    Literal("7", XSD_INTEGER),
    Literal("0", XSD_INTEGER),
    Literal("-3", XSD_INTEGER),
    Literal("2.5", XSD_DECIMAL),
    Literal("-0.1", XSD_DECIMAL),
    Literal("0.333333333333", XSD_DECIMAL),  # 1/3 as a quotient renders
    Literal("1.5E0", XSD_DOUBLE),
    Literal("INF", XSD_DOUBLE),
    Literal("-INF", XSD_DOUBLE),
    Literal("NaN", XSD_DOUBLE),
    Literal("-0.0", XSD_DOUBLE),
    Literal("2021", XSD_GYEAR),
    Literal("7"),
]
_KIND_LETTERS = {XSD_INTEGER: "i", XSD_DECIMAL: "d", XSD_DOUBLE: "f"}
_OPERATOR_TABLE = """
     0  0  14^i 0^i 49^i 1.0^d  TFFTFT
     0  1  7^i 7^i 0^i E  FTFFTT
     0  2  4^i 10^i -21^i -2.333333333333^d  FTFFTT
     0  3  9.5^d 4.5^d 17.5^d 2.8^d  FTFFTT
     0  4  6.9^d 7.1^d -0.7^d -70.0^d  FTFFTT
     0  5  7.333333333333^d 6.666666666667^d 2.333333333331^d 21.000000000021^d  FTFFTT
     0  6  8.5^f 5.5^f 10.5^f 4.666666666666667^f  FTFFTT
     0  7  INF^f -INF^f INF^f 0.0^f  FTTTFF
     0  8  -INF^f INF^f -INF^f -0.0^f  FTFFTT
     0  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     0 10  7.0^f 7.0^f -0.0^f E  FTFFTT
     0 11  2028^i -2014^i 14147^i 0.003463631865^d  FTTTFF
     0 12  E E E E  EEEEEE
     1  0  7^i -7^i 0^i 0.0^d  FTTTFF
     1  1  0^i 0^i 0^i E  TFFTFT
     1  2  -3^i 3^i 0^i 0.0^d  FTFFTT
     1  3  2.5^d -2.5^d 0.0^d 0.0^d  FTTTFF
     1  4  -0.1^d 0.1^d 0.0^d 0.0^d  FTFFTT
     1  5  0.333333333333^d -0.333333333333^d 0.0^d 0.0^d  FTTTFF
     1  6  1.5^f -1.5^f 0.0^f 0.0^f  FTTTFF
     1  7  INF^f -INF^f NaN^f 0.0^f  FTTTFF
     1  8  -INF^f INF^f NaN^f -0.0^f  FTFFTT
     1  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     1 10  0.0^f 0.0^f -0.0^f E  TFFTFT
     1 11  2021^i -2021^i 0^i 0.0^d  FTTTFF
     1 12  E E E E  EEEEEE
     2  0  4^i -10^i -21^i -0.428571428571^d  FTTTFF
     2  1  -3^i -3^i 0^i E  FTTTFF
     2  2  -6^i 0^i 9^i 1.0^d  TFFTFT
     2  3  -0.5^d -5.5^d -7.5^d -1.2^d  FTTTFF
     2  4  -3.1^d -2.9^d 0.3^d 30.0^d  FTTTFF
     2  5  -2.666666666667^d -3.333333333333^d -0.999999999999^d -9.000000000009^d  FTTTFF
     2  6  -1.5^f -4.5^f -4.5^f -2.0^f  FTTTFF
     2  7  INF^f -INF^f -INF^f -0.0^f  FTTTFF
     2  8  -INF^f INF^f INF^f 0.0^f  FTFFTT
     2  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     2 10  -3.0^f -3.0^f 0.0^f E  FTTTFF
     2 11  2018^i -2024^i -6063^i -0.001484413657^d  FTTTFF
     2 12  E E E E  EEEEEE
     3  0  9.5^d -4.5^d 17.5^d 0.357142857143^d  FTTTFF
     3  1  2.5^d 2.5^d 0.0^d E  FTFFTT
     3  2  -0.5^d 5.5^d -7.5^d -0.833333333333^d  FTFFTT
     3  3  5.0^d 0.0^d 6.25^d 1.0^d  TFFTFT
     3  4  2.4^d 2.6^d -0.25^d -25.0^d  FTFFTT
     3  5  2.833333333333^d 2.166666666667^d 0.8333333333325^d 7.500000000008^d  FTFFTT
     3  6  4.0^f 1.0^f 3.75^f 1.6666666666666667^f  FTFFTT
     3  7  INF^f -INF^f INF^f 0.0^f  FTTTFF
     3  8  -INF^f INF^f -INF^f -0.0^f  FTFFTT
     3  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     3 10  2.5^f 2.5^f -0.0^f E  FTFFTT
     3 11  2023.5^d -2018.5^d 5052.5^d 0.001237011381^d  FTTTFF
     3 12  E E E E  EEEEEE
     4  0  6.9^d -7.1^d -0.7^d -0.014285714286^d  FTTTFF
     4  1  -0.1^d -0.1^d 0.0^d E  FTTTFF
     4  2  -3.1^d 2.9^d 0.3^d 0.033333333333^d  FTFFTT
     4  3  2.4^d -2.6^d -0.25^d -0.04^d  FTTTFF
     4  4  -0.2^d 0.0^d 0.01^d 1.0^d  TFFTFT
     4  5  0.233333333333^d -0.433333333333^d -0.0333333333333^d -0.3^d  FTTTFF
     4  6  1.4^f -1.6^f -0.15000000000000002^f -0.06666666666666667^f  FTTTFF
     4  7  INF^f -INF^f -INF^f -0.0^f  FTTTFF
     4  8  -INF^f INF^f INF^f 0.0^f  FTFFTT
     4  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     4 10  -0.1^f -0.1^f 0.0^f E  FTTTFF
     4 11  2020.9^d -2021.1^d -202.1^d -0.000049480455^d  FTTTFF
     4 12  E E E E  EEEEEE
     5  0  7.333333333333^d -6.666666666667^d 2.333333333331^d 0.047619047619^d  FTTTFF
     5  1  0.333333333333^d 0.333333333333^d 0.0^d E  FTFFTT
     5  2  -2.666666666667^d 3.333333333333^d -0.999999999999^d -0.111111111111^d  FTFFTT
     5  3  2.833333333333^d -2.166666666667^d 0.8333333333325^d 0.1333333333332^d  FTTTFF
     5  4  0.233333333333^d 0.433333333333^d -0.0333333333333^d -3.33333333333^d  FTFFTT
     5  5  0.666666666666^d 0.0^d 0.111111111110888888888889^d 1.0^d  TFFTFT
     5  6  1.833333333333^f -1.166666666667^f 0.49999999999950007^f 0.22222222222200003^f  FTTTFF
     5  7  INF^f -INF^f INF^f 0.0^f  FTTTFF
     5  8  -INF^f INF^f -INF^f -0.0^f  FTFFTT
     5  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     5 10  0.333333333333^f 0.333333333333^f -0.0^f E  FTFFTT
     5 11  2021.333333333333^d -2020.666666666667^d 673.666666665993^d 0.000164934851^d  FTTTFF
     5 12  E E E E  EEEEEE
     6  0  8.5^f -5.5^f 10.5^f 0.21428571428571427^f  FTTTFF
     6  1  1.5^f 1.5^f 0.0^f E  FTFFTT
     6  2  -1.5^f 4.5^f -4.5^f -0.5^f  FTFFTT
     6  3  4.0^f -1.0^f 3.75^f 0.6^f  FTTTFF
     6  4  1.4^f 1.6^f -0.15000000000000002^f -15.0^f  FTFFTT
     6  5  1.833333333333^f 1.166666666667^f 0.49999999999950007^f 4.5000000000044995^f  FTFFTT
     6  6  3.0^f 0.0^f 2.25^f 1.0^f  TFFTFT
     6  7  INF^f -INF^f INF^f 0.0^f  FTTTFF
     6  8  -INF^f INF^f -INF^f -0.0^f  FTFFTT
     6  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     6 10  1.5^f 1.5^f -0.0^f E  FTFFTT
     6 11  2022.5^f -2019.5^f 3031.5^f 0.0007422068283028204^f  FTTTFF
     6 12  E E E E  EEEEEE
     7  0  INF^f INF^f INF^f INF^f  FTFFTT
     7  1  INF^f INF^f NaN^f E  FTFFTT
     7  2  INF^f INF^f -INF^f -INF^f  FTFFTT
     7  3  INF^f INF^f INF^f INF^f  FTFFTT
     7  4  INF^f INF^f -INF^f -INF^f  FTFFTT
     7  5  INF^f INF^f INF^f INF^f  FTFFTT
     7  6  INF^f INF^f INF^f INF^f  FTFFTT
     7  7  INF^f NaN^f INF^f NaN^f  TFFTFT
     7  8  NaN^f INF^f -INF^f NaN^f  FTFFTT
     7  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     7 10  INF^f INF^f NaN^f E  FTFFTT
     7 11  INF^f INF^f INF^f INF^f  FTFFTT
     7 12  E E E E  EEEEEE
     8  0  -INF^f -INF^f -INF^f -INF^f  FTTTFF
     8  1  -INF^f -INF^f NaN^f E  FTTTFF
     8  2  -INF^f -INF^f INF^f INF^f  FTTTFF
     8  3  -INF^f -INF^f -INF^f -INF^f  FTTTFF
     8  4  -INF^f -INF^f INF^f INF^f  FTTTFF
     8  5  -INF^f -INF^f -INF^f -INF^f  FTTTFF
     8  6  -INF^f -INF^f -INF^f -INF^f  FTTTFF
     8  7  NaN^f -INF^f -INF^f NaN^f  FTTTFF
     8  8  -INF^f NaN^f INF^f NaN^f  TFFTFT
     8  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     8 10  -INF^f -INF^f NaN^f E  FTTTFF
     8 11  -INF^f -INF^f -INF^f -INF^f  FTTTFF
     8 12  E E E E  EEEEEE
     9  0  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     9  1  NaN^f NaN^f NaN^f E  FTFFFF
     9  2  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     9  3  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     9  4  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     9  5  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     9  6  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     9  7  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     9  8  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     9  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     9 10  NaN^f NaN^f NaN^f E  FTFFFF
     9 11  NaN^f NaN^f NaN^f NaN^f  FTFFFF
     9 12  E E E E  EEEEEE
    10  0  7.0^f -7.0^f -0.0^f -0.0^f  FTTTFF
    10  1  0.0^f -0.0^f -0.0^f E  TFFTFT
    10  2  -3.0^f 3.0^f 0.0^f 0.0^f  FTFFTT
    10  3  2.5^f -2.5^f -0.0^f -0.0^f  FTTTFF
    10  4  -0.1^f 0.1^f 0.0^f 0.0^f  FTFFTT
    10  5  0.333333333333^f -0.333333333333^f -0.0^f -0.0^f  FTTTFF
    10  6  1.5^f -1.5^f -0.0^f -0.0^f  FTTTFF
    10  7  INF^f -INF^f NaN^f -0.0^f  FTTTFF
    10  8  -INF^f INF^f NaN^f 0.0^f  FTFFTT
    10  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
    10 10  -0.0^f 0.0^f 0.0^f E  TFFTFT
    10 11  2021.0^f -2021.0^f -0.0^f -0.0^f  FTTTFF
    10 12  E E E E  EEEEEE
    11  0  2028^i 2014^i 14147^i 288.714285714286^d  FTFFTT
    11  1  2021^i 2021^i 0^i E  FTFFTT
    11  2  2018^i 2024^i -6063^i -673.666666666667^d  FTFFTT
    11  3  2023.5^d 2018.5^d 5052.5^d 808.4^d  FTFFTT
    11  4  2020.9^d 2021.1^d -202.1^d -20210.0^d  FTFFTT
    11  5  2021.333333333333^d 2020.666666666667^d 673.666666665993^d 6063.000000006063^d  FTFFTT
    11  6  2022.5^f 2019.5^f 3031.5^f 1347.3333333333333^f  FTFFTT
    11  7  INF^f -INF^f INF^f 0.0^f  FTTTFF
    11  8  -INF^f INF^f -INF^f -0.0^f  FTFFTT
    11  9  NaN^f NaN^f NaN^f NaN^f  FTFFFF
    11 10  2021.0^f 2021.0^f -0.0^f E  FTFFTT
    11 11  4042^i 0^i 4084441^i 1.0^d  TFFTFT
    11 12  E E E E  EEEEEE
    12  0  E E E E  EEEEEE
    12  1  E E E E  EEEEEE
    12  2  E E E E  EEEEEE
    12  3  E E E E  EEEEEE
    12  4  E E E E  EEEEEE
    12  5  E E E E  EEEEEE
    12  6  E E E E  EEEEEE
    12  7  E E E E  EEEEEE
    12  8  E E E E  EEEEEE
    12  9  E E E E  EEEEEE
    12 10  E E E E  EEEEEE
    12 11  E E E E  EEEEEE
    12 12  E E E E  TFFTFT
"""


def _operator_row(arith, compare, errors, left, right) -> str:
    results = []
    for op in "+-*/":
        try:
            value = arith(op, left, right)
        except errors:
            results.append("E")
        else:
            results.append(f"{value.lexical}^{_KIND_LETTERS[value.datatype]}")
    flags = []
    for op in ("=", "!=", "<", "<=", ">", ">="):
        try:
            flags.append("T" if compare(op, left, right) else "F")
        except errors:
            flags.append("E")
    return f"{' '.join(results)}  {''.join(flags)}"


@pytest.mark.parametrize("arith, compare, errors", [
    (engine.apply_arith, engine.compare_terms, engine.EvalError),
    (naive._arith, naive._cmp, naive._Error),
], ids=["engine", "naive"])
def test_arithmetic_and_comparison_over_every_kind_pair(arith, compare, errors):
    rows = [line.split(None, 2) for line in _OPERATOR_TABLE.strip().splitlines()]
    assert len(rows) == len(_POOL) ** 2
    for i, j, expected in rows:
        left, right = _POOL[int(i)], _POOL[int(j)]
        assert _operator_row(arith, compare, errors, left, right) == expected, (left, right)


_NINES = "9" * 400  # too large for a float


# When exactly one operand is a double the other is converted to a float
# first, for comparison as for arithmetic and SUM; one too large for a float
# becomes ±INF.
@pytest.mark.parametrize("left, right, expected", [
    (Literal("9007199254740993", XSD_INTEGER), Literal("9007199254740992.0E0", XSD_DOUBLE),
     {"eq": "true", "lt": "false", "diff": "0.0", "sum": "1.8014398509481984e+16"}),
    (Literal("0.1", XSD_DECIMAL), Literal("0.1E0", XSD_DOUBLE),
     {"eq": "true", "lt": "false", "diff": "0.0", "sum": "0.2"}),
    (Literal(_NINES, XSD_INTEGER), Literal("1.5E0", XSD_DOUBLE),
     {"eq": "false", "lt": "false", "diff": "INF", "sum": "INF"}),
    (Literal("-" + _NINES, XSD_INTEGER), Literal("1.5E0", XSD_DOUBLE),
     {"eq": "false", "lt": "true", "diff": "-INF", "sum": "-INF"}),
    (Literal(_NINES + ".5", XSD_DECIMAL), Literal("-1.5E0", XSD_DOUBLE),
     {"eq": "false", "lt": "false", "diff": "INF", "sum": "INF"}),
])
def test_an_operand_meeting_a_double_is_promoted_to_double(left, right, expected):
    g = _graph((A, P, left), (A, Q, right))
    projection = parse_query(
        "SELECT (?l = ?r AS ?eq) (?l < ?r AS ?lt) (?l - ?r AS ?diff) (?l + ?r AS ?sum)"
        " WHERE { ?s evr:p ?l . ?s evr:q ?r }"
    )
    total = parse_query("SELECT (SUM(?v) AS ?sum) WHERE { ?s ?p ?v }")
    kept = parse_query("SELECT ?s WHERE { ?s evr:p ?l . ?s evr:q ?r . FILTER(?l = ?r) }")
    for evaluator in (evaluate, naive.evaluate):
        [row] = evaluator(g, projection).rows
        assert {name: term.lexical for name, term in row.items()} == expected
        [row] = evaluator(g, total).rows
        assert row["sum"] == Literal(expected["sum"], XSD_DOUBLE)
        assert len(evaluator(g, kept).rows) == (expected["eq"] == "true")


def test_join_rows_merges_every_compatible_pair_left_major():
    """Seeded row lists of mixed shapes against the nested-loop definition,
    many of them hashing on some variables and comparing others pair by pair."""
    rng = random.Random(0x701)
    names, values = "wxyz", (A, B)
    hashed_and_compared = 0
    for _ in range(400):
        sides = []
        for _ in range(2):
            always = rng.sample(names, rng.randrange(3))
            sides.append([
                {n: rng.choice(values) for n in names if n in always or rng.random() < 0.4}
                for _ in range(rng.randrange(1, 7))
            ])
        left, right = sides
        expected = [
            l | r for l in left for r in right  # noqa: E741
            if all(l[v] == r[v] for v in l.keys() & r.keys())
        ]
        assert engine.join_rows(left, right) == expected, (left, right)
        shared = set().union(*left) & set().union(*right)
        every = {v for v in shared if all(v in row for row in left + right)}
        hashed_and_compared += bool(every) and bool(shared - every) and bool(expected)
    assert hashed_and_compared > 50, hashed_and_compared
