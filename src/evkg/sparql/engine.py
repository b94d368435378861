"""Index-backed query evaluator with standard multiset semantics.

Inside a BGP, patterns join connected first: each next pattern shares a
variable with those already bound (or has none), so only a BGP that is
itself disconnected joins unrelated row sets; among those patterns the one
with the most bound positions, then the smallest index estimate, wins.
Each step joins all rows with its pattern at once, working out which
positions are lookup keys and which are free once per step, not per row.

A group passes its rows into the elements that follow (a bind join, the
"sideways information passing" of RDF-3X): a UNION joins them into each
branch, and a BGP starts from them, looking its patterns up from their
values, when every row binds the same variables and there is one row or the
BGP uses one of those variables. Everything else is evaluated on its own and
hash-joined: a FILTER (its expression must not see outer variables), a
sub-select, a VALUES block, rows of mixed shape, and a BGP that shares no
variable with several rows (looking it up once per row would repeat it).
`Graph.match` stays the only index access.

The engine parses nothing: `queries.suite_query` keeps the parsed AST of
each bundled query, which only a long-lived process reuses (library use,
repeated `question_outputs` calls, the benchmark); `evkg query` and `evkg
cq` parse each text once anyway.

Expression errors follow SPARQL conventions: a failing FILTER expression
drops the row, a failing projection expression leaves that variable
unbound but keeps the row, and a SUM over a group containing a
non-numeric value is unbound for that group.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Optional

from ..graph import Graph
from ..terms import (
    XSD_BOOLEAN,
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
    expression_has_aggregate,
    pattern_vars,
    projection_names,
)
from .errors import QuerySemanticsError

Binding = dict[str, Term]

TRUE = Literal("true", XSD_BOOLEAN)
FALSE = Literal("false", XSD_BOOLEAN)


class EvalError(Exception):
    """Expression evaluation error (unbound variable, type mismatch, /0)."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def eval_expression(
    expr: Expression, row: Binding, members: Optional[list[Binding]] = None
) -> Term:
    """Evaluate `expr` on `row`. In a grouped projection `row` holds the
    group's keys and `members` its rows, which a SUM adds up; elsewhere a
    SUM is an error."""
    if isinstance(expr, VarExpr):
        value = row.get(expr.var.name)
        if value is None:
            raise EvalError(f"unbound variable ?{expr.var.name}")
        return value
    if isinstance(expr, ConstExpr):
        return expr.term
    if isinstance(expr, Compare):
        left = eval_expression(expr.left, row, members)
        right = eval_expression(expr.right, row, members)
        return TRUE if compare_terms(expr.op, left, right) else FALSE
    if isinstance(expr, Arith):
        left = eval_expression(expr.left, row, members)
        right = eval_expression(expr.right, row, members)
        return apply_arith(expr.op, left, right)
    if isinstance(expr, SumAgg):
        if members is None:
            raise EvalError("aggregate outside a grouped projection")
        total = 0
        kind = "integer"
        for member in members:
            try:
                inner = eval_expression(expr.expr, member)
            except EvalError:
                raise EvalError("non-numeric value in SUM group") from None
            parsed = numeric_value(inner) if isinstance(inner, Literal) else None
            if parsed is None:
                raise EvalError("non-numeric value in SUM group")
            kind = _promote(kind, parsed[0])
            total = total + parsed[1]
        return numeric_literal(kind, total)
    raise TypeError(f"not an expression: {expr!r}")


def _numeric(term: Term):
    if isinstance(term, Literal):
        parsed = numeric_value(term)
        if parsed is not None:
            return parsed
    raise EvalError(f"not a numeric value: {term!r}")


_KIND_ORDER = {"integer": 0, "decimal": 1, "double": 2}


def _promote(kind_a: str, kind_b: str) -> str:
    return kind_a if _KIND_ORDER[kind_a] >= _KIND_ORDER[kind_b] else kind_b


def apply_arith(op: str, left: Term, right: Term) -> Literal:
    kind_l, val_l = _numeric(left)
    kind_r, val_r = _numeric(right)
    kind = _promote(kind_l, kind_r)
    if op == "+":
        return numeric_literal(kind, val_l + val_r)
    if op == "-":
        return numeric_literal(kind, val_l - val_r)
    if op == "*":
        return numeric_literal(kind, val_l * val_r)
    if op == "/":
        if val_r == 0:
            raise EvalError("division by zero")
        if kind == "double":
            return numeric_literal("double", val_l / val_r)
        # Integer and decimal division both yield xsd:decimal.
        return numeric_literal("decimal", Fraction(val_l) / Fraction(val_r))
    raise EvalError(f"unknown operator {op!r}")


def _is_plain_string(term: Term) -> bool:
    return isinstance(term, Literal) and term.datatype.value.endswith("#string")


def compare_terms(op: str, left: Term, right: Term) -> bool:
    if isinstance(left, Literal) and isinstance(right, Literal):
        num_l = numeric_value(left)
        num_r = numeric_value(right)
        if num_l is not None and num_r is not None:
            return _ordered(op, num_l[1], num_r[1])
        if _is_plain_string(left) and _is_plain_string(right):
            return _ordered(op, left.lexical, right.lexical)
        if left == right:
            return _equality_only(op, True)
        if left.datatype == right.datatype and op in ("=", "!="):
            return op == "!="
        raise EvalError(f"incomparable literals: {left!r} vs {right!r}")
    if op not in ("=", "!="):
        raise EvalError(f"operator {op!r} needs literal operands")
    same = left == right
    return same if op == "=" else not same


def _equality_only(op: str, same: bool) -> bool:
    if op in ("=", "<=", ">="):
        return same
    if op == "!=":
        return not same
    return False  # '<' or '>' on an equal pair


def _ordered(op: str, a, b) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def effective_boolean(expr: Expression, row: Binding) -> bool:
    try:
        term = eval_expression(expr, row)
    except EvalError:
        return False
    if isinstance(term, Literal):
        if term.datatype == XSD_BOOLEAN:
            return term.lexical == "true"
        parsed = numeric_value(term)
        if parsed is not None:
            value = parsed[1]
            return value == value and value != 0  # NaN is false
        if _is_plain_string(term):
            return len(term.lexical) > 0
    return False


# ---------------------------------------------------------------------------
# Pattern evaluation
# ---------------------------------------------------------------------------


def match_pattern(graph: Graph, tp: TriplePattern, rows: list[Binding]) -> Iterator[Binding]:
    """Join every row of one BGP step with `tp`, in row order.

    All rows of a BGP step bind the same variables, so the step works out
    once which positions are constants, which are lookup keys taken from
    the row and which are free; a free variable repeated (?v p ?v) must take
    one value. Each row then makes one ``graph.match`` call, and a row value
    in a position no stored triple holds (a literal subject) finds nothing.
    The first step's rows may come from outside the BGP (`join_into` passes
    a group's rows in only when they all bind the same variables); every
    step adds the same variables to each row, so the next step's rows agree
    again.
    """
    if not rows:
        return
    bound = rows[0].keys()
    key: list[Optional[Term]] = [None, None, None]
    lookups: list[tuple[int, str]] = []
    free: dict[str, int] = {}  # free variable -> its first position
    repeats: list[tuple[int, int]] = []  # (position, first position) of a repeat
    for i, pos in enumerate(tp.positions()):
        if not isinstance(pos, Variable):
            key[i] = pos
        elif pos.name in bound:
            lookups.append((i, pos.name))
        elif pos.name in free:
            repeats.append((i, free[pos.name]))
        else:
            free[pos.name] = i
    s, p, _ = key
    if isinstance(s, Literal) or (p is not None and not isinstance(p, Iri)):
        return
    for row in rows:
        for i, name in lookups:
            key[i] = row[name]
        for t in graph.match(*key):
            if repeats and any(t[i] != t[j] for i, j in repeats):
                continue
            merged = row.copy()
            for name, i in free.items():
                merged[name] = t[i]
            yield merged


def _order_patterns(
    graph: Graph, patterns: tuple[TriplePattern, ...], bound: Iterable[str]
) -> list[TriplePattern]:
    """Greedy, connected first: the next pattern shares a variable with
    those already bound, so no step joins two unrelated row sets. A pattern
    with no variables counts as connected: it is an existence check, best
    run early. `bound` names the variables the incoming rows already bind.

    Ranked by bound positions alone, q8 would take ``?zipcode a
    ZipCodeArea``, then ``?station a ChargingStation`` (both all constants
    but one) before the pattern linking them: a zips x stations x
    collections cross product. The first pattern and, in a BGP with
    disconnected parts, the first pattern of the next part are chosen from
    all remaining ones. Among the candidates: most bound positions first,
    then the smallest index estimate for the constant positions.
    """
    remaining = [(tp, {v.name for v in pattern_vars(tp)}) for tp in patterns]
    ordered: list[TriplePattern] = []
    bound = set(bound)

    def key(item: tuple[TriplePattern, set[str]]):
        selectivity = 0
        const = [None, None, None]
        for idx, pos in enumerate(item[0].positions()):
            if isinstance(pos, Variable):
                if pos.name in bound:
                    selectivity += 1
            else:
                selectivity += 1
                const[idx] = pos
        # count_estimate needs an IRI predicate and a non-literal subject
        s, p, o = const
        if p is not None and not isinstance(p, Iri):
            estimate = 0
        elif isinstance(s, Literal):
            estimate = 0
        else:
            estimate = graph.count_estimate(s, p, o)
        return (-selectivity, estimate)

    while remaining:
        connected = [item for item in remaining if not item[1] or not item[1].isdisjoint(bound)]
        best = min(connected or remaining, key=key)
        remaining.remove(best)
        ordered.append(best[0])
        bound |= best[1]
    return ordered


def eval_bgp(graph: Graph, bgp: Bgp, rows: list[Binding]) -> list[Binding]:
    """Extend `rows`, which all bind the same variables, by `bgp`'s matches."""
    for tp in _order_patterns(graph, bgp.patterns, rows[0].keys()):
        rows = list(match_pattern(graph, tp, rows))
        if not rows:
            break
    return rows


def join_rows(left: list[Binding], right: list[Binding]) -> list[Binding]:
    if not left or not right:
        return []
    left_vars = set()
    for r in left:
        left_vars.update(r)
    right_vars = set()
    for r in right:
        right_vars.update(r)
    common = sorted(left_vars & right_vars)
    if common and all(all(v in r for v in common) for r in left) and all(
        all(v in r for v in common) for r in right
    ):
        index: dict[tuple, list[Binding]] = {}
        for r in right:
            index.setdefault(tuple(r[v] for v in common), []).append(r)
        out = []
        for l in left:
            for r in index.get(tuple(l[v] for v in common), ()):  # noqa: E741
                out.append(l | r)
        return out
    out = []
    for l in left:  # noqa: E741
        for r in right:
            if all(l[k] == r[k] for k in l.keys() & r.keys()):
                out.append(l | r)
    return out


def join_into(graph: Graph, rows: list[Binding], pattern: Pattern) -> list[Binding]:
    """Join `rows` with the solutions of `pattern`, by the bind-join rule in
    the module docstring. A BGP may also start from one row that shares no
    variable with it: that costs what evaluating it alone does, without the
    joined copy of every row.
    """
    if isinstance(pattern, Group):
        for element in pattern.elements:
            if not rows:
                break
            rows = join_into(graph, rows, element)
        return rows
    if isinstance(pattern, Union):
        return join_into(graph, rows, pattern.left) + join_into(graph, rows, pattern.right)
    if isinstance(pattern, Bgp):
        bound = rows[0].keys()
        shares = any(v.name in bound for tp in pattern.patterns for v in pattern_vars(tp))
        if (shares or len(rows) == 1) and all(row.keys() == bound for row in rows):
            return eval_bgp(graph, pattern, rows)
    return join_rows(rows, eval_pattern(graph, pattern))


def eval_pattern(graph: Graph, pattern: Pattern) -> list[Binding]:
    if isinstance(pattern, Bgp):
        return eval_bgp(graph, pattern, [{}])
    if isinstance(pattern, (Group, Union)):
        return join_into(graph, [{}], pattern)
    if isinstance(pattern, Filter):
        return [
            row
            for row in eval_pattern(graph, pattern.inner)
            if effective_boolean(pattern.expression, row)
        ]
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
    """Evaluate a parsed query; row order is unspecified (callers sort)."""
    rows = eval_pattern(graph, query.pattern)
    names = projection_names(query)
    has_aggregate = any(
        isinstance(item, Aliased) and expression_has_aggregate(item.expr)
        for item in query.select
    )
    if query.group_by or has_aggregate:
        if query.star:
            raise QuerySemanticsError("SELECT * cannot be combined with grouping")
        key_names = [v.name for v in query.group_by]
        for item in query.select:
            if isinstance(item, Variable) and item.name not in key_names:
                raise QuerySemanticsError(
                    f"projected variable ?{item.name} is not a GROUP BY key"
                )
        if query.group_by:
            groups: dict[tuple, list[Binding]] = {}
            for row in rows:
                key = tuple(row.get(name) for name in key_names)
                groups.setdefault(key, []).append(row)
        else:
            groups = {(): rows}  # implicit single group, even over no rows
        # A scope is what one output row projects: a group's key binding and
        # member rows here, one solution row without members otherwise.
        scopes: Iterable[tuple[Binding, Optional[list[Binding]]]] = (
            ({name: value for name, value in zip(key_names, key) if value is not None}, members)
            for key, members in groups.items()
        )
    else:
        scopes = ((row, None) for row in rows)
    items = [Variable(name) for name in names] if query.star else query.select
    out_rows: list[Binding] = []
    for row, members in scopes:
        out: Binding = {}
        for item in items:
            if isinstance(item, Variable):
                if item.name in row:
                    out[item.name] = row[item.name]
            else:
                try:
                    out[item.var.name] = eval_expression(item.expr, row, members)
                except EvalError:
                    pass  # unbound projected value, row kept
        out_rows.append(out)
    if query.distinct:
        out_rows = _distinct(out_rows)
    return Solution(names, out_rows)
