"""Random graph and query generation for engine-vs-oracle equivalence tests."""

from __future__ import annotations

import random

from evkg.graph import Graph
from evkg.ntriples import term_to_ntriples
from evkg.sparql.algebra import (
    Aliased,
    Arith,
    Bgp,
    Compare,
    ConstExpr,
    Filter,
    Group,
    Pattern,
    SelectQuery,
    SubSelect,
    SumAgg,
    TriplePattern,
    Union,
    Values,
    VarExpr,
    Variable,
    visible_vars,
)
from evkg.terms import (
    EVR,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    Literal,
    Triple,
)

from query_render import expression_text

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
    return Filter((Compare(op, VarExpr(variable), rhs),), pattern)


def _random_select(rng: random.Random, pattern: Pattern) -> SelectQuery:
    in_scope = visible_vars(pattern)
    if in_scope and rng.random() < 0.8:
        k = rng.randint(1, len(in_scope))
        select = tuple(Variable(name) for name in rng.sample(in_scope, k))
    else:  # SELECT *, as the parser expands it
        select = tuple(Variable(name) for name in in_scope)
    return SelectQuery(
        select=select,
        distinct=rng.random() < 0.5,
        pattern=pattern,
        group_by=(),
    )


def random_query(rng: random.Random, max_patterns: int = 4) -> SelectQuery:
    total = rng.randint(1, max_patterns)
    use_union = total >= 2 and rng.random() < 0.4
    if use_union:
        left_n = rng.randint(1, total - 1)
        pattern: Pattern = Union((
            Group((_random_bgp(rng, left_n),)),
            Group((_random_bgp(rng, total - left_n),)),
        ))
        pattern = Group((pattern,))
    else:
        pattern = Group((_random_bgp(rng, total),))

    if rng.random() < 0.3:
        pattern = Group((*pattern.elements, _random_values(rng)))

    if rng.random() < 0.5:
        pattern = _random_filter(rng, pattern)
    return _random_select(rng, pattern)


def _linked_bgp(rng: random.Random, variables: list[Variable]) -> Bgp:
    """One or two patterns with a subject among the first two of
    `variables`, so that BGPs over the same variables usually join, and a
    subject bound to a literal by earlier rows occurs too. The predicate is
    a constant, or now and then one of `variables`, which earlier rows may
    already bind."""
    patterns = []
    for _ in range(rng.randint(1, 2)):
        objects = variables if rng.random() < 0.6 else OBJECT_IRIS + OBJECT_LITERALS
        o = rng.choice(objects)
        p = rng.choice(variables) if rng.random() < 0.15 else rng.choice(PREDICATES)
        patterns.append(TriplePattern(rng.choice(variables[:2]), p, o))
    return Bgp(tuple(patterns))


def _near(rng: random.Random) -> Bgp:
    return _linked_bgp(rng, VARIABLES[:3])


def _far(rng: random.Random) -> Bgp:
    """Shares no variable with the ?v0-?v2 of `_near`."""
    return _linked_bgp(rng, VARIABLES[3:])


def _union(rng: random.Random) -> Union:
    """Branches over ?v0-?v2 and over ?v0, ?v3, ?v4: usually rows of two shapes."""
    right = _linked_bgp(rng, [VARIABLES[0], *VARIABLES[3:]])
    return Union((Group((_near(rng),)), Group((right,))))


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


# Numeric graphs: each subject has a few values under each of two predicates,
# which arithmetic and comparisons pair up, and a few amounts to SUM.
NUMERIC_PREDICATES = [EVR["n0"], EVR["n1"]]
SUM_PREDICATE = EVR["amount"]


def _literals(datatype, *lexicals: str) -> list[Literal]:
    return [Literal(lexical, datatype) for lexical in lexicals]


# Every numeric datatype with a zero, the special doubles, decimals whose
# sums with a double round, and a string that no arithmetic accepts.
NUMERIC_LITERALS = [
    *_literals(XSD_INTEGER, "7", "0", "-3", "12"),
    *_literals(XSD_DECIMAL, "2.5", "-0.1", "0.0", "0.333333333333"),
    *_literals(XSD_DOUBLE, "1.5E0", "1.0E-1", "-0.0", "INF", "-INF", "NaN"),
    *_literals(XSD_GYEAR, "2021", "1999"),
    Literal("x"),
]
# A SUM adds its group's rows in whichever order an evaluator produced them.
# These amounts are small dyadic numbers, whose sums are exact in every
# order, or INF, -INF and NaN, whose sums do not depend on the order either.
SUMMABLE_LITERALS = [
    *_literals(XSD_INTEGER, "3", "0", "-2"),
    *_literals(XSD_DECIMAL, "2.5", "-0.75"),
    *_literals(XSD_DOUBLE, "1.5E0", "-0.0", "INF", "-INF", "NaN"),
    *_literals(XSD_GYEAR, "2021"),
    Literal("x"),
]
_S, _A, _B, _X = (Variable(name) for name in ("s", "a", "b", "x"))
SUM_OF_AMOUNTS = Aliased(SumAgg(VarExpr(_A)), _X)


def random_numeric_graph(rng: random.Random) -> Graph:
    graph = Graph()
    for s in SUBJECTS[: rng.randint(2, len(SUBJECTS))]:
        for p in NUMERIC_PREDICATES:
            for o in rng.sample(NUMERIC_LITERALS, rng.randint(1, 4)):
                graph.insert(Triple(s, p, o))
        for o in rng.sample(SUMMABLE_LITERALS, rng.randint(1, 4)):
            graph.insert(Triple(s, SUM_PREDICATE, o))
    return graph


def random_numeric_query(rng: random.Random) -> SelectQuery:
    """One of three shapes over a `random_numeric_graph`: ``(?l op ?r AS
    ?x)`` projected with ?a and ?b, a FILTER comparing ?l with ?r, where
    ?l, ?r is ?a, ?b in either order and ?a, ?b are two values of one
    subject; or ``SUM(?a)`` over the amounts, grouped by subject or in one
    group."""
    roll = rng.random()
    if roll < 0.3:
        grouped = rng.random() < 0.7
        return SelectQuery(
            select=((_S,) if grouped else ()) + (SUM_OF_AMOUNTS,),
            distinct=False,
            pattern=Group((Bgp((TriplePattern(_S, SUM_PREDICATE, _A),)),)),
            group_by=(_S,) if grouped else (),
        )
    pattern: Pattern = Group((Bgp((
        TriplePattern(_S, rng.choice(NUMERIC_PREDICATES), _A),
        TriplePattern(_S, rng.choice(NUMERIC_PREDICATES), _B),
    )),))
    left, right = (VarExpr(_A), VarExpr(_B))[:: rng.choice((1, -1))]
    if roll < 0.65:
        select: tuple = (_A, _B, Aliased(Arith((rng.choice("+-*/"),), (left, right)), _X))
    else:
        op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
        pattern = Filter((Compare(op, left, right),), pattern)
        select = (_A, _B)
    return SelectQuery(
        select=select, distinct=rng.random() < 0.3, pattern=pattern, group_by=()
    )


def _run_operand(rng: random.Random, depth: int, first: bool) -> str:
    roll = rng.random()
    if roll < (0.35 if first else 0.15) and depth < 2:
        text = f"({_run_text(rng, depth + 1)})"
    elif roll < 0.45:
        text = rng.choice(("2", "0", "0.5", "3.0", "1.5E0"))
    else:
        text = rng.choice(("?a", "?b", "?c"))
    return "-" + text if rng.random() < 0.15 else text


def _run_text(rng: random.Random, depth: int = 0) -> str:
    """2-5 operands joined by operators drawn from all of ``+ - * /``."""
    text = _run_operand(rng, depth, True)
    for _ in range(rng.randint(1, 4)):
        text += f" {rng.choice('+-*/')} {_run_operand(rng, depth, False)}"
    return text


def random_operator_run_text(rng: random.Random) -> str:
    """Query text over a `random_numeric_graph`: three values ?a, ?b, ?c of
    one subject, and a FILTER or a projection ``AS ?x`` whose expression is
    a run of operators (`_run_text`). Operands are variables, constants of
    three numeric datatypes, parenthesized runs (often the first operand,
    which the parser joins to a run at the same precedence) and unary
    minuses. A FILTER compares the run with an operand, or takes its
    effective boolean value."""
    bgp = " ".join(
        f"?s {term_to_ntriples(rng.choice(NUMERIC_PREDICATES))} ?{name} ." for name in "abc"
    )
    run = _run_text(rng)
    if rng.random() < 0.5:
        return f"SELECT ?a ?b ?c ({run} AS ?x) WHERE {{ {bgp} }}"
    if rng.random() < 0.7:
        op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
        run = f"{run} {op} {_run_operand(rng, 0, False)}"
    return f"SELECT ?a ?b ?c WHERE {{ {bgp} FILTER({run}) }}"


def _bgp_text(bgp: Bgp) -> str:
    return " ".join(
        " ".join(f"?{t.name}" if isinstance(t, Variable) else term_to_ntriples(t)
                 for t in (tp.s, tp.p, tp.o)) + " ."
        for tp in bgp.patterns
    )


def random_filter_only_group_texts(rng: random.Random) -> tuple[str, str, str]:
    """Query text over a `random_graph`: a group of one or two BGPs with,
    before, between or after them, a group that holds only one or two
    FILTERs, sometimes itself nested beside one more BGP. Returned with the
    same query with those FILTERs written in the enclosing group, and with
    them left out."""
    bgps = [_near(rng) for _ in range(rng.randint(1, 2))]
    in_scope = [Variable(name) for name in visible_vars(Group(tuple(bgps)))]
    filters = " ".join(
        f"FILTER({expression_text(_random_filter(rng, Group(()), in_scope).expressions[0])})"
        for _ in range(1 + (rng.random() < 0.3))
    )
    bgps = [_bgp_text(bgp) for bgp in bgps]
    at = rng.randint(0, len(bgps))
    outside = _bgp_text(_near(rng)) if rng.random() < 0.3 else None
    head = "SELECT DISTINCT *" if rng.random() < 0.3 else "SELECT *"

    def text(constraints: str) -> str:
        group = " ".join(["{", *bgps[:at], constraints, *bgps[at:], "}"])
        if outside is not None:
            group = f"{{ {group} {outside} }}"
        return f"{head} WHERE {group}"

    return text(f"{{ {filters} }}"), text(filters), text("")


def patterns_of(pattern: Pattern):
    """Every triple pattern of `pattern`, sub-selects included, in written order."""
    if isinstance(pattern, Bgp):
        yield from pattern.patterns
    elif isinstance(pattern, Group):
        for element in pattern.elements:
            yield from patterns_of(element)
    elif isinstance(pattern, Union):
        for branch in pattern.branches:
            yield from patterns_of(branch)
    elif isinstance(pattern, Filter):
        yield from patterns_of(pattern.inner)
    elif isinstance(pattern, SubSelect):
        yield from patterns_of(pattern.query.pattern)


def solution_multiset(solution) -> list[tuple]:
    """Canonical sortable form of a solution's rows for multiset comparison."""
    rows = [
        tuple(sorted((name, term_to_ntriples(term)) for name, term in row.items()))
        for row in solution.rows
    ]
    return sorted(rows)


def _numeric_bgp(rng: random.Random) -> Bgp:
    """One or two patterns on ?s over a `random_numeric_graph`'s predicates."""
    predicates = NUMERIC_PREDICATES + [SUM_PREDICATE]
    return Bgp(tuple(
        TriplePattern(_S, rng.choice(predicates), rng.choice((_A, _B)))
        for _ in range(rng.randint(1, 2))
    ))


def _subselect_group(rng: random.Random, numeric: bool, nested: bool) -> Group:
    """One or two BGPs, then a sub-select. The sub-select projects some of
    its in-scope variables, perhaps DISTINCT, over a BGP or, at the outer
    level, one more such group; with `numeric` it sometimes sums the amounts
    per ?s, or in one group, instead."""
    lead = _numeric_bgp if numeric else _near
    leads = tuple(lead(rng) for _ in range(rng.randint(1, 2)))
    roll = rng.random()
    if numeric and roll < 0.4:
        by_subject = roll < 0.3
        sub = SelectQuery(
            select=((_S,) if by_subject else ()) + (SUM_OF_AMOUNTS,),
            distinct=rng.random() < 0.3,
            pattern=Group((Bgp((TriplePattern(_S, SUM_PREDICATE, _A),)),)),
            group_by=(_S,) if by_subject else (),
        )
    elif not nested and roll < 0.6:
        sub = _random_select(rng, _subselect_group(rng, numeric, True))
    else:
        inner = lead if numeric or rng.random() < 0.7 else _far
        sub = _random_select(rng, Group((inner(rng),)))
    return Group((*leads, SubSelect(sub)))


def random_subselect_query(rng: random.Random, numeric: bool = False) -> SelectQuery:
    """A group whose last element is a sub-select (see `_subselect_group`),
    over a `random_graph`, or with `numeric` over a `random_numeric_graph`.
    The rows of its BGPs reach the sub-select, which joins them, or none."""
    return _random_select(rng, _subselect_group(rng, numeric, False))
