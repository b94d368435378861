"""Random graph and query generation for engine-vs-oracle equivalence tests."""

from __future__ import annotations

import random

from evkg.graph import Graph
from evkg.ntriples import term_to_ntriples
from evkg.sparql.algebra import (
    Bgp,
    Compare,
    ConstExpr,
    Filter,
    Group,
    Pattern,
    SelectQuery,
    TriplePattern,
    Union,
    Values,
    VarExpr,
    Variable,
    visible_vars,
)
from evkg.terms import EVR, XSD_INTEGER, Literal, Triple

# Small pools keep random joins selective enough to terminate but dense
# enough that most generated cases yield rows.
SUBJECTS = [EVR[f"s{i}"] for i in range(6)]
PREDICATES = [EVR[f"p{i}"] for i in range(3)]
OBJECT_IRIS = SUBJECTS[:3] + [EVR[f"o{i}"] for i in range(3)]
OBJECT_LITERALS = [Literal(str(i), XSD_INTEGER) for i in range(4)] + [
    Literal(s) for s in ("alpha", "beta")
]
VARIABLES = [Variable(f"v{i}") for i in range(5)]


def random_graph(rng: random.Random, max_triples: int = 200) -> Graph:
    """A few triples repeat their predicate as subject or object, so that
    patterns repeating a variable there (``?v ?v ?o``, ``?s ?v ?v``) can match."""
    n = rng.randint(0, max_triples) if rng.random() < 0.1 else rng.randint(60, max_triples)
    graph = Graph()
    for _ in range(n):
        s = rng.choice(SUBJECTS)
        p = rng.choice(PREDICATES)
        o = rng.choice(OBJECT_IRIS + OBJECT_LITERALS)
        roll = rng.random()
        if roll < 0.05:
            s = p
        elif roll < 0.1:
            o = p
        graph.insert(Triple(s, p, o))
    return graph


def _random_chain(
    rng: random.Random, n_patterns: int, variables: list[Variable]
) -> list[TriplePattern]:
    """Chain-shaped patterns: each tends to hang off the last variable
    introduced, so multi-pattern joins stay satisfiable without exploding.
    Some repeat a variable within one pattern (``?v p ?v``, ``?v ?v ?o``,
    ``?s ?v ?v``), and some take as subject a variable introduced as an
    object, which earlier patterns may have bound to a literal."""
    usable = [variables[0]]  # then each variable introduced as an object
    next_fresh = 1
    patterns = []
    for _ in range(n_patterns):
        roll = rng.random()
        if roll < 0.45:
            s = usable[-1]
        elif roll < 0.6:
            s = rng.choice(usable)
        elif roll < 0.85 and len(usable) > 1:
            s = rng.choice(usable[1:])
        else:
            s = rng.choice(SUBJECTS)
        p = rng.choice(PREDICATES) if rng.random() < 0.8 else rng.choice(usable)
        roll = rng.random()
        if roll < 0.45 and next_fresh < len(variables):
            o = variables[next_fresh]
            next_fresh += 1
            usable.append(o)
        elif roll < 0.75:
            o = rng.choice(OBJECT_IRIS + OBJECT_LITERALS)
        elif roll < 0.9:
            o = rng.choice(usable)
        else:
            o = s
        roll = rng.random()
        if roll < 0.08 and isinstance(s, Variable):
            p = s
        elif roll < 0.16 and isinstance(o, Variable):
            p = o
        if not any(isinstance(x, Variable) for x in (s, p, o)):
            s = rng.choice(usable)
        patterns.append(TriplePattern(s, p, o))
    return patterns


def _random_bgp(rng: random.Random, n_patterns: int) -> Bgp:
    """One chain, or two chains over disjoint variables (a real cross product)."""
    if n_patterns >= 2 and rng.random() < 0.3:
        split = rng.randint(1, n_patterns - 1)
        left = _random_chain(rng, split, VARIABLES[:3])
        right = _random_chain(rng, n_patterns - split, VARIABLES[3:])
        return Bgp(tuple(left + right))
    return Bgp(tuple(_random_chain(rng, n_patterns, VARIABLES)))


def random_query(rng: random.Random, max_patterns: int = 4) -> SelectQuery:
    total = rng.randint(1, max_patterns)
    use_union = total >= 2 and rng.random() < 0.4
    if use_union:
        left_n = rng.randint(1, total - 1)
        pattern: Pattern = Union(
            Group((_random_bgp(rng, left_n),)),
            Group((_random_bgp(rng, total - left_n),)),
        )
        pattern = Group((pattern,))
    else:
        pattern = Group((_random_bgp(rng, total),))

    if rng.random() < 0.3:
        values_var = rng.choice(VARIABLES)
        rows = tuple(
            (term,)
            for term in rng.sample(SUBJECTS + OBJECT_IRIS, k=rng.randint(1, 3))
        )
        pattern = Group((*pattern.elements, Values((values_var,), rows)))

    if rng.random() < 0.5:
        variable = rng.choice(VARIABLES)
        op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
        if rng.random() < 0.7:
            rhs: ConstExpr = ConstExpr(Literal(str(rng.randint(0, 5)), XSD_INTEGER))
        else:
            rhs = ConstExpr(rng.choice(OBJECT_LITERALS))
        pattern = Filter(Compare(op, VarExpr(variable), rhs), pattern)

    in_scope = visible_vars(pattern)
    if in_scope and rng.random() < 0.8:
        k = rng.randint(1, len(in_scope))
        select = tuple(Variable(name) for name in rng.sample(in_scope, k))
        star = False
    else:
        select, star = (), True
    return SelectQuery(
        select=select,
        distinct=rng.random() < 0.5,
        star=star,
        pattern=pattern,
        group_by=(),
    )


def solution_multiset(solution) -> list[tuple]:
    """Canonical sortable form of a solution's rows for multiset comparison."""
    rows = [
        tuple(sorted((name, term_to_ntriples(term)) for name, term in row.items()))
        for row in solution.rows
    ]
    return sorted(rows)
