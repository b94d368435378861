"""Index-backed query evaluator with standard multiset semantics.

Inside a BGP, patterns join connected first: each next pattern shares a
variable with those already bound (or has none), so only a BGP that is
itself disconnected joins unrelated row sets; among those patterns the one
with the most bound positions, then the smallest index estimate, then the
first in the BGP's order, wins.
Planning reads each pattern's three fields and tests their classes
directly. Patterns are estimated in the BGP's order, and the first whose
constant positions have an estimate of 0 empties the BGP before the rest
are estimated or any lookup is made. Each step joins all rows with its
pattern at once, working out which positions are lookup keys and which are
free once per step, not per row, and builds its output rows as one list.

A group passes its rows into the elements that follow (a bind join, the
"sideways information passing" of RDF-3X): a UNION joins them into each
branch, and a BGP starts from them, looking its patterns up from their
values, when every row binds the same variables and there is one row or the
BGP uses one of those variables. Everything else is evaluated on its own and
hash-joined: a FILTER (its expressions must not see outer variables), a
sub-select, a VALUES block, rows of mixed shape, and a BGP that shares no
variable with several rows (looking it up once per row would repeat it).
A group's rows start as the single empty row, the join identity, so the
solutions of its first element are its rows as they are, never copied
through a join.

The engine reads the store through two methods and never its indexes. A
step with a constant predicate that binds one new variable, in the subject
or object position, looks up the whole batch of its rows' keys in one
`Graph.neighbours` call (vector-at-a-time, as in MonetDB/X100), which
hands back each key's index entry as stored, a 1-tuple for one term or a
set for more, to be iterated and never copied or changed. An
existence step (no new variable) is a bare probe: one `Graph.match` call per
row, which the store answers with one membership test and a 0- or 1-tuple,
and the row itself passes on when its triple is stored. A step reads
`graph.match` once and iterates what each call returns, never truth-testing
it, so a `match` that returns a generator gives the same rows. Every other step
makes one `Graph.match` call per row and copies the row once per match: a
variable predicate, two or more new variables, or a new variable repeated
in the pattern.

The engine parses nothing: `queries.suite_query` keeps the parsed AST of
each bundled query, which only a long-lived process reuses (library use,
repeated `question_outputs` calls, the benchmark); `evkg query` and `evkg
cq` parse each text once anyway.

Expressions are compiled, not interpreted per row: `compile_expression`
turns each FILTER expression (once per evaluation of the FILTER) and each
`(expr AS ?v)` (once per SELECT level) into one closure, whose operator
nodes call `apply_arith` and `compare_terms` through this module; each row
then makes one call, with no walk over the expression tree.

A number is the `terms.numeric_value` of its literal, whose Python type is
its kind, so one `operator` table serves `+ - *` and the six comparisons,
SUM adds the values (two ints directly), and `_promote` with Python's
int -> Fraction coercion is the promotion of SPARQL 1.1 §17.3; `/` of two
non-doubles is an exact `Fraction`, an xsd:decimal.

Which select items are plain variables and which are computed is worked
out once per query level; one loop then projects every scope, a group or
a solution row. A grouped level that projects every GROUP BY key as itself
skips DISTINCT: two groups differ in some key's value, or in whether it is
bound, and the parser lets no `(expr AS ?v)` overwrite a key (an alias must
be a new variable), so its rows are already distinct. A level grouped
without GROUP BY has one row.

Expression errors follow SPARQL conventions: a failing FILTER expression
drops the row, a failing projection expression leaves that variable
unbound but keeps the row, and a SUM over a group containing a
non-numeric value is unbound for that group.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Optional

from ..graph import Graph
from ..terms import (
    XSD_BOOLEAN,
    XSD_STRING,
    Iri,
    Literal,
    Term,
    numeric_literal,
    numeric_value,
)
from .algebra import (
    Aliased,
    Arith,
    Bgp,
    Compare,
    ConstExpr,
    Expression,
    Filter,
    Group,
    Pattern,
    SelectQuery,
    Solution,
    SubSelect,
    SumAgg,
    TriplePattern,
    Union,
    Values,
    VarExpr,
    Variable,
    pattern_vars,
    projection_names,
)

Binding = dict[str, Term]
Compiled = Callable[[Binding, Optional[list[Binding]]], Term]

TRUE = Literal("true", XSD_BOOLEAN)
FALSE = Literal("false", XSD_BOOLEAN)


class EvalError(Exception):
    """Expression evaluation error (unbound variable, type mismatch, /0)."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def compile_expression(expr: Expression) -> Compiled:
    """`expr` as one closure of ``(row, members)``, built once per FILTER
    evaluation or SELECT level and then called for each row. In a grouped
    projection `row` holds the group's keys and `members` its rows, which a
    SUM adds up; elsewhere `members` is None and a SUM is an error.
    Operators call `apply_arith` and `compare_terms` by their module names."""
    cls = expr.__class__
    if cls is VarExpr:
        name = expr.var.name

        def variable(row: Binding, members: Optional[list[Binding]]) -> Term:
            value = row.get(name)
            if value is None:
                raise EvalError(f"unbound variable ?{name}")
            return value

        return variable
    if cls is ConstExpr:
        term = expr.term
        return lambda row, members: term
    if cls is Compare:
        op, left, right = expr.op, compile_expression(expr.left), compile_expression(expr.right)

        def compare(row: Binding, members: Optional[list[Binding]]) -> Term:
            return TRUE if compare_terms(op, left(row, members), right(row, members)) else FALSE

        return compare
    if cls is Arith:
        first, *rest = map(compile_expression, expr.operands)
        steps = list(zip(expr.ops, rest))

        def arith(row: Binding, members: Optional[list[Binding]]) -> Term:
            value = first(row, members)
            for op, operand in steps:  # left to right, one literal per step
                value = apply_arith(op, value, operand(row, members))
            return value

        return arith
    if cls is SumAgg:
        inner = expr.expr
        # a variable's value is read from each member directly
        name = inner.var.name if inner.__class__ is VarExpr else None
        value_of = None if name else compile_expression(inner)

        def sum_group(row: Binding, members: Optional[list[Binding]]) -> Term:
            if members is None:
                raise EvalError("aggregate outside a grouped projection")
            total = 0
            for member in members:
                try:
                    value = _numeric(member.get(name) if name else value_of(member, None))
                except EvalError:
                    raise EvalError("non-numeric value in SUM group") from None
                if total.__class__ is int and value.__class__ is int:
                    total += value
                else:
                    total = operator.add(*_promote(total, value))
            return numeric_literal(total)

        return sum_group
    raise TypeError(f"not an expression: {expr!r}")


def _numeric(term: Term) -> int | Fraction | float:
    value = numeric_value(term) if isinstance(term, Literal) else None
    if value is None:
        raise EvalError(f"not a numeric value: {term!r}")
    return value


def _promote(a, b):
    """Both numbers as floats when exactly one is a double, one too large for
    a float as ±INF (XPath F&O 3.1 casting); otherwise both unchanged."""
    if isinstance(a, float) is isinstance(b, float):
        return a, b
    try:
        return float(a), float(b)
    except OverflowError:
        return tuple(v if isinstance(v, float) else math.inf if v > 0 else -math.inf for v in (a, b))


def _divide(a, b):
    if b == 0:
        raise EvalError("division by zero")
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a, b)  # integer and decimal division both yield xsd:decimal


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def apply_arith(op: str, left: Term, right: Term) -> Literal:
    return numeric_literal(_ARITH[op](*_promote(_numeric(left), _numeric(right))))


def _is_plain_string(term: Term) -> bool:
    return isinstance(term, Literal) and term.datatype == XSD_STRING


def compare_terms(op: str, left: Term, right: Term) -> bool:
    """Numbers compare by value, plain strings by lexical form, and two
    equal literals of any other datatype as equal; other literals of one
    datatype are only (un)equal, and a non-literal only (un)equal."""
    compare = _COMPARE[op]
    if isinstance(left, Literal) and isinstance(right, Literal):
        num_l = numeric_value(left)
        num_r = numeric_value(right)
        if num_l is not None and num_r is not None:
            return compare(*_promote(num_l, num_r))
        if left == right or (_is_plain_string(left) and _is_plain_string(right)):
            return compare(left.lexical, right.lexical)
        if left.datatype == right.datatype and op in ("=", "!="):
            return op == "!="
        raise EvalError(f"incomparable literals: {left!r} vs {right!r}")
    if op not in ("=", "!="):
        raise EvalError(f"operator {op!r} needs literal operands")
    return compare(left, right)


def compile_filter(expr: Expression) -> Callable[[Binding], bool]:
    """`expr` compiled as the test of one FILTER row: the effective boolean
    value of its result, false when the expression fails."""
    value = compile_expression(expr)

    def holds(row: Binding) -> bool:
        try:
            term = value(row, None)
        except EvalError:
            return False
        if term.__class__ is Literal:
            if term.datatype == XSD_BOOLEAN:
                return term.lexical == "true"
            number = numeric_value(term)
            if number is not None:
                return number == number and number != 0  # NaN is false
            if _is_plain_string(term):
                return len(term.lexical) > 0
        return False

    return holds


# ---------------------------------------------------------------------------
# Pattern evaluation
# ---------------------------------------------------------------------------


def match_pattern(graph: Graph, tp: TriplePattern, rows: list[Binding]) -> list[Binding]:
    """Join every row of one BGP step with `tp`: the step's output rows, in
    row order, built as one list (vector-at-a-time, as in MonetDB/X100).

    All rows of a BGP step bind the same variables, so the step works out
    once which positions are constants, which are lookup keys taken from
    the row and which are free; a free variable repeated (?v p ?v) must take
    one value. A step with a constant predicate that binds one new variable,
    in the subject or object position, looks up all its keys in one
    ``graph.neighbours`` call and copies each row once per value. An
    existence step (no new variable) has its own loop: it sets the row's
    keys, makes one fully bound ``graph.match`` probe and keeps the row
    itself when the triple is stored. Any other step makes one
    ``graph.match`` call per row and copies the row once per match. A row
    value in a position no stored triple holds (a literal subject) finds
    nothing.
    The first step's rows may come from outside the BGP (`join_into` passes
    a group's rows in only when they all bind the same variables); every
    step adds the same variables to each row, so the next step's rows agree
    again.
    """
    out: list[Binding] = []
    if not rows:
        return out
    bound = rows[0].keys()
    key: list[Optional[Term]] = [None, None, None]
    lookups: list[tuple[int, str]] = []
    free: dict[str, int] = {}  # free variable -> its first position
    repeats: list[tuple[int, int]] = []  # (position, first position) of a repeat
    for i, pos in enumerate((tp.s, tp.p, tp.o)):
        if pos.__class__ is not Variable:
            key[i] = pos
        elif pos.name in bound:
            lookups.append((i, pos.name))
        elif pos.name in free:
            repeats.append((i, free[pos.name]))
        else:
            free[pos.name] = i
    append = out.append
    if len(free) == 1 and not repeats and key[1] is not None:
        ((name, i),) = free.items()
        if lookups:
            keys = [row[lookups[0][1]] for row in rows]
        else:
            keys = [key[2 - i]] * len(rows)
        for row, values in zip(rows, graph.neighbours(key[1], keys, i == 2)):
            for value in values:
                merged = row.copy()
                merged[name] = value
                append(merged)
        return out
    match = graph.match
    if not free:
        for row in rows:
            for i, name in lookups:
                key[i] = row[name]
            for _ in match(*key):  # iterated, never truth-tested: `match` may be a generator
                append(row)
        return out
    for row in rows:
        for i, name in lookups:
            key[i] = row[name]
        for t in match(*key):
            if repeats and any(t[i] != t[j] for i, j in repeats):
                continue
            merged = row.copy()
            for name, i in free.items():
                merged[name] = t[i]
            append(merged)
    return out


def _estimate(graph: Graph, tp: TriplePattern) -> int:
    """`count_estimate` for the constant positions of `tp`: an upper bound on
    its matches under any binding. No stored triple has a literal subject
    or a non-IRI predicate, so such a constant bounds it by 0."""
    s, p, o = tp.s, tp.p, tp.o
    if s.__class__ is Variable:
        s = None
    elif s.__class__ is Literal:
        return 0
    if p.__class__ is Variable:
        p = None
    elif p.__class__ is not Iri:
        return 0
    if o.__class__ is Variable:
        o = None
    return graph.count_estimate(s, p, o)


def _order_patterns(
    patterns: tuple[TriplePattern, ...], estimates: list[int], bound: Iterable[str]
) -> list[TriplePattern]:
    """Greedy, connected first: the next pattern shares a variable with
    those already bound, so no step joins two unrelated row sets. A pattern
    with no variables counts as connected: it is an existence check, best
    run early. `estimates` holds each pattern's `_estimate`, and `bound`
    names the variables the incoming rows already bind.

    Ranked by bound positions alone, q8 would take ``?zipcode a
    ZipCodeArea``, then ``?station a ChargingStation`` (both all constants
    but one) before the pattern linking them: a zips x stations x
    collections cross product. The first pattern and, in a BGP with
    disconnected parts, the first pattern of the next part are chosen from
    all remaining ones. Among the candidates: most bound positions first,
    then the smallest estimate, then the first in `patterns`.

    Each pattern's variable names, one per variable position, are listed
    once per call; each round then scores every remaining pattern in one
    plain loop, counting its free positions against the variables bound so
    far.
    """
    bound = set(bound)
    remaining = [
        ([pos.name for pos in (tp.s, tp.p, tp.o) if pos.__class__ is Variable], estimate, tp)
        for tp, estimate in zip(patterns, estimates)
    ]
    ordered: list[TriplePattern] = []
    while remaining:
        best, best_rank = 0, None
        for i, (names, estimate, _) in enumerate(remaining):
            free = 0
            for name in names:
                if name not in bound:
                    free += 1
            rank = (free == len(names) > 0, free, estimate)  # disconnected last
            if best_rank is None or rank < best_rank:
                best, best_rank = i, rank
        names, _, tp = remaining.pop(best)
        ordered.append(tp)
        bound.update(names)
    return ordered


def eval_bgp(graph: Graph, bgp: Bgp, rows: list[Binding]) -> list[Binding]:
    """Extend `rows`, which all bind the same variables, by `bgp`'s matches.
    A pattern whose constants match nothing empties the BGP before any
    lookup, wherever the planner would have put it."""
    estimates = []
    for tp in bgp.patterns:
        estimate = _estimate(graph, tp)
        if not estimate:
            return []
        estimates.append(estimate)
    for tp in _order_patterns(bgp.patterns, estimates, rows[0].keys()):
        # `list`: a wrapper that counts a step's bindings yields them one by one
        rows = list(match_pattern(graph, tp, rows))
        if not rows:
            break
    return rows


def join_rows(left: list[Binding], right: list[Binding]) -> list[Binding]:
    """Every compatible pair of rows merged, left-major: hashed on the variables
    every row binds (none: one bucket), other shared ones compared per pair."""
    if not left or not right:
        return []
    every = set(left[0]).intersection(*left, *right)
    loose = (set().union(*left) & set().union(*right)) - every
    key = sorted(every)
    index: dict[tuple, list[Binding]] = {}
    for r in right:
        index.setdefault(tuple(r[v] for v in key), []).append(r)
    out = []
    for l in left:  # noqa: E741
        for r in index.get(tuple(l[v] for v in key), ()):
            if not loose or all(l[v] == r[v] for v in loose if v in l and v in r):
                out.append(l | r)
    return out


def join_into(graph: Graph, rows: list[Binding], pattern: Pattern) -> list[Binding]:
    """Join `rows` with the solutions of `pattern`, by the bind-join rule in
    the module docstring. A BGP may also start from one row that shares no
    variable with it: that costs what evaluating it alone does, without the
    joined copy of every row. Joined with the single empty row, the join
    identity, any other element's solutions are the result as they are.
    """
    if isinstance(pattern, Group):
        for element in pattern.elements:
            if not rows:
                break
            rows = join_into(graph, rows, element)
        return rows
    if isinstance(pattern, Union):
        out = []
        for branch in pattern.branches:
            out += join_into(graph, rows, branch)
        return out
    if isinstance(pattern, Bgp):
        bound = rows[0].keys()
        if len(rows) == 1 or (
            any(v.name in bound for tp in pattern.patterns for v in pattern_vars(tp))
            and all(row.keys() == bound for row in rows)
        ):
            return eval_bgp(graph, pattern, rows)
    elif len(rows) == 1 and not rows[0]:
        return eval_pattern(graph, pattern)
    return join_rows(rows, eval_pattern(graph, pattern))


def eval_pattern(graph: Graph, pattern: Pattern) -> list[Binding]:
    if isinstance(pattern, Bgp):
        return eval_bgp(graph, pattern, [{}])
    if isinstance(pattern, (Group, Union)):
        return join_into(graph, [{}], pattern)
    if isinstance(pattern, Filter):
        rows = eval_pattern(graph, pattern.inner)
        for expression in pattern.expressions:
            holds = compile_filter(expression)
            rows = [row for row in rows if holds(row)]
        return rows
    if isinstance(pattern, Values):
        return [
            {v.name: term for v, term in zip(pattern.variables, row)}
            for row in pattern.rows
        ]
    if isinstance(pattern, SubSelect):
        return evaluate(graph, pattern.query).rows
    raise TypeError(f"not a pattern: {pattern!r}")


# ---------------------------------------------------------------------------
# Projection, grouping, DISTINCT
# ---------------------------------------------------------------------------


def _distinct(rows: list[Binding]) -> list[Binding]:
    seen: set[frozenset] = set()
    out = []
    for row in rows:
        key = frozenset(row.items())
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def evaluate(graph: Graph, query: SelectQuery) -> Solution:
    """Evaluate a parsed query, whose static rules the parser has settled;
    row order is unspecified (callers sort).

    Which select items are plain variables and which are computed is
    worked out once for the level, then one loop projects every scope."""
    rows = eval_pattern(graph, query.pattern)
    plain = [item.name for item in query.select if isinstance(item, Variable)]
    computed = [
        (item.var.name, compile_expression(item.expr))
        for item in query.select
        if isinstance(item, Aliased)
    ]
    # A scope is what one output row projects: a group's key binding and
    # member rows when grouped, one solution row without members otherwise.
    scopes: Iterable[tuple[Binding, Optional[list[Binding]]]]
    distinct = query.distinct
    if query.grouped:
        key_names = [v.name for v in query.group_by]
        # Two groups differ in some key's value, or in whether it is bound,
        # so rows that project every key as itself are already distinct.
        distinct = distinct and not set(key_names).issubset(plain)
        if query.group_by:
            groups: dict[tuple, list[Binding]] = {}
            for row in rows:
                groups.setdefault(tuple(map(row.get, key_names)), []).append(row)
        else:
            groups = {(): rows}  # implicit single group, even over no rows
        scopes = [
            ({name: value for name, value in zip(key_names, key) if value is not None}, members)
            for key, members in groups.items()
        ]
    else:
        scopes = zip(rows, repeat(None))
    out_rows: list[Binding] = []
    for row, members in scopes:
        out = {name: row[name] for name in plain if name in row}
        for name, value in computed:
            try:
                out[name] = value(row, members)
            except EvalError:
                pass  # unbound projected value, row kept
        out_rows.append(out)
    if distinct:
        out_rows = _distinct(out_rows)
    return Solution(projection_names(query), out_rows)
