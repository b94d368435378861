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


def _random_values(rng: random.Random, variables: list[Variable] = VARIABLES) -> Values:
    values_var = rng.choice(variables)
    rows = tuple(
        (term,)
        for term in rng.sample(SUBJECTS + OBJECT_IRIS, k=rng.randint(1, 3))
    )
    return Values((values_var,), rows)


def _random_filter(
    rng: random.Random, pattern: Pattern, variables: list[Variable] = VARIABLES
) -> Filter:
    variable = rng.choice(variables)
    op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
    if rng.random() < 0.7:
        rhs: ConstExpr = ConstExpr(Literal(str(rng.randint(0, 5)), XSD_INTEGER))
    else:
        rhs = ConstExpr(rng.choice(OBJECT_LITERALS))
    return Filter(Compare(op, VarExpr(variable), rhs), pattern)


def _random_select(rng: random.Random, pattern: Pattern) -> SelectQuery:
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
        pattern = Group((*pattern.elements, _random_values(rng)))

    if rng.random() < 0.5:
        pattern = _random_filter(rng, pattern)
    return _random_select(rng, pattern)


def _linked_bgp(rng: random.Random, variables: list[Variable]) -> Bgp:
    """One or two patterns with a constant predicate and a subject among the
    first two of `variables`, so that BGPs over the same variables usually
    join, and a subject bound to a literal by earlier rows occurs too."""
    patterns = []
    for _ in range(rng.randint(1, 2)):
        objects = variables if rng.random() < 0.6 else OBJECT_IRIS + OBJECT_LITERALS
        o = rng.choice(objects)
        patterns.append(TriplePattern(rng.choice(variables[:2]), rng.choice(PREDICATES), o))
    return Bgp(tuple(patterns))


def _near(rng: random.Random) -> Bgp:
    return _linked_bgp(rng, VARIABLES[:3])


def _far(rng: random.Random) -> Bgp:
    """Shares no variable with the ?v0-?v2 of `_near`."""
    return _linked_bgp(rng, VARIABLES[3:])


def _union(rng: random.Random) -> Union:
    """Branches over ?v0-?v2 and over ?v0, ?v3, ?v4: usually rows of two shapes."""
    right = _linked_bgp(rng, [VARIABLES[0], *VARIABLES[3:]])
    return Union(Group((_near(rng),)), Group((right,)))


def _random_element(rng: random.Random, depth: int) -> Pattern:
    roll = rng.random()
    if roll < 0.15 and depth < 2:
        return Group(tuple(_random_element(rng, depth + 1) for _ in range(rng.randint(1, 3))))
    if roll < 0.3:
        return _union(rng)
    if roll < 0.4:
        return _random_values(rng, VARIABLES[:2])
    if roll < 0.5:
        return _random_filter(rng, Group((_near(rng),)), VARIABLES[:3])
    if roll < 0.6:
        return _far(rng)
    return _near(rng)


# The group shapes whose elements take the rows before them, each built
# explicitly so that every one is drawn often.
_GROUP_SHAPES = [
    lambda rng: (_near(rng), _random_values(rng, VARIABLES[:2]), _near(rng)),
    lambda rng: (_near(rng), _union(rng)),
    lambda rng: (_union(rng), _near(rng)),  # rows of mixed shapes meet a BGP
    lambda rng: (_near(rng), _far(rng)),
    lambda rng: (_near(rng), Group((_near(rng), Group((_union(rng),))))),
    lambda rng: (_near(rng), _random_filter(rng, Group((_near(rng),)), VARIABLES[:3])),
    lambda rng: tuple(_random_element(rng, 0) for _ in range(rng.randint(2, 4))),
]


def random_group_query(rng: random.Random) -> SelectQuery:
    """A query whose group passes rows into the elements after it: BGP,
    VALUES, BGP; a BGP then a UNION, or a UNION then a BGP; a BGP sharing no
    variable with the rows before it; nested groups; a filtered child
    group; or a random mix of these elements. No aggregates, so no SUM over
    doubles whose value would depend on row order."""
    pattern: Pattern = Group(rng.choice(_GROUP_SHAPES)(rng))
    if rng.random() < 0.3:
        pattern = _random_filter(rng, pattern)
    return _random_select(rng, pattern)


def solution_multiset(solution) -> list[tuple]:
    """Canonical sortable form of a solution's rows for multiset comparison."""
    rows = [
        tuple(sorted((name, term_to_ntriples(term)) for name, term in row.items()))
        for row in solution.rows
    ]
    return sorted(rows)
