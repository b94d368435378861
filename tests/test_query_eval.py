from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evkg.graph import Graph
from evkg.ingest import build_graph
from evkg.sparql import parse_query
from evkg.sparql.algebra import Bgp, Group, SelectQuery, TriplePattern, Variable, pattern_vars
from evkg.queries import QUERY_TEXTS, run_suite_query
from evkg.sparql import engine
from evkg.sparql.engine import evaluate
from evkg.sparql.errors import QuerySemanticsError
from evkg.sparql.parser import MAX_TREE_DEPTH
from evkg.sparql import naive
from evkg.terms import (
    EVR,
    RDF_TYPE,
    XSD_DECIMAL,
    XSD_GYEAR,
    XSD_INTEGER,
    Literal,
    Triple,
)
from conftest import tiled_config
from randomized import random_graph, random_group_query, random_query, solution_multiset

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
    g = _graph((A, P, Literal("3", XSD_INTEGER)))
    query = parse_query("SELECT ?x (SUM(?n) AS ?t) WHERE { ?x evr:p ?n } GROUP BY ?ghost")
    with pytest.raises(QuerySemanticsError):
        evaluate(g, query)


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
@pytest.mark.parametrize("n", [150, MAX_TREE_DEPTH - 10])
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
        shuffled = FilterNode(shuffled.expression, permute(shuffled.inner))
    else:
        shuffled = permute(shuffled)
    permuted = SelectQuery(query.select, query.distinct, query.star, shuffled, query.group_by)
    assert solution_multiset(evaluate(graph, permuted)) == baseline


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_distinct_idempotent(rng):
    graph = random_graph(rng, 60)
    query = random_query(rng, 3)
    distinct_query = SelectQuery(query.select, True, query.star, query.pattern, query.group_by)
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
        query = SelectQuery(
            select=(),
            distinct=False,
            star=True,
            pattern=Group((Bgp((TriplePattern(s1, p1, o1), TriplePattern(s2, p2, o2))),)),
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
