"""Nested-loop reference evaluator.

This is the oracle the indexed engine is checked against, and the producer
of the committed expected-result files. It shares the AST and term model
with the engine but none of the evaluation machinery: every pattern is
matched by scanning the full triple list, joins are plain nested loops over
binding compatibility, and expression semantics are re-implemented here
from scratch. Keep it simple and obviously correct; do not optimize it.

Numeric promotion is explicit: kinds are ranked by datatype, and arithmetic,
comparison and SUM convert both operands to the higher kind first (±INF for
a double too large), where the engine relies on Python's coercion.
"""

from __future__ import annotations

from fractions import Fraction

from ..graph import Graph
from ..terms import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    XSD_STRING,
    Literal,
    Term,
    Triple,
    numeric_literal,
    numeric_value,
)
from .algebra import (
    Arith,
    Bgp,
    Compare,
    ConstExpr,
    Filter,
    Group,
    Pattern,
    SelectQuery,
    Solution,
    SubSelect,
    SumAgg,
    Union,
    Values,
    VarExpr,
    Variable,
    projection_names,
)


class _Error(Exception):
    pass


def _unify(pattern_pos, value: Term, binding: dict) -> dict | None:
    if isinstance(pattern_pos, Variable):
        bound = binding.get(pattern_pos.name)
        if bound is None:
            extended = dict(binding)
            extended[pattern_pos.name] = value
            return extended
        return binding if bound == value else None
    return binding if pattern_pos == value else None


def _match_triple(tp, triple: Triple, binding: dict) -> dict | None:
    b = _unify(tp.s, triple.subject, binding)
    if b is None:
        return None
    b = _unify(tp.p, triple.predicate, b)
    if b is None:
        return None
    return _unify(tp.o, triple.object, b)


def _compatible(a: dict, b: dict) -> bool:
    for key in a:
        if key in b and a[key] != b[key]:
            return False
    return True


def _join(left: list[dict], right: list[dict]) -> list[dict]:
    out = []
    for l in left:  # noqa: E741
        for r in right:
            if _compatible(l, r):
                merged = dict(l)
                merged.update(r)
                out.append(merged)
    return out


def _rows(triples: list[Triple], graph: Graph, pattern: Pattern) -> list[dict]:
    if isinstance(pattern, Bgp):
        rows = [{}]
        for tp in pattern.patterns:  # written order, no reordering
            next_rows = []
            for binding in rows:
                for triple in triples:
                    extended = _match_triple(tp, triple, binding)
                    if extended is not None:
                        next_rows.append(extended)
            rows = next_rows
        return rows
    if isinstance(pattern, Group):
        rows = [{}]
        for element in pattern.elements:
            rows = _join(rows, _rows(triples, graph, element))
        return rows
    if isinstance(pattern, Union):
        rows = []
        for branch in pattern.branches:
            rows += _rows(triples, graph, branch)
        return rows
    if isinstance(pattern, Filter):
        kept = []
        for row in _rows(triples, graph, pattern.inner):
            if all(_holds(expression, row) for expression in pattern.expressions):
                kept.append(row)
        return kept
    if isinstance(pattern, Values):
        return [dict(zip((v.name for v in pattern.variables), row)) for row in pattern.rows]
    if isinstance(pattern, SubSelect):
        return evaluate(graph, pattern.query).rows
    raise TypeError(f"not a pattern: {pattern!r}")


# --- expressions, re-implemented independently ------------------------------


def _holds(expression, row: dict) -> bool:
    try:
        return _truth(_expr(expression, row))
    except _Error:
        return False


def _double(value) -> float:
    """value as a double; one too large for a float is ±INF, as XPath casts it."""
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


# Numeric kinds in promotion order, and the conversion of a value to each kind.
_KIND_RANKS = {XSD_INTEGER: 0, XSD_GYEAR: 0, XSD_DECIMAL: 1, XSD_DOUBLE: 2}
_KIND_TYPES = (int, Fraction, _double)


def _num(term: Term) -> tuple[int, object]:
    """(kind rank, value) of a numeric literal."""
    if isinstance(term, Literal) and term.datatype in _KIND_RANKS:
        value = numeric_value(term)
        if value is not None:
            return _KIND_RANKS[term.datatype], value
    raise _Error("not numeric")


def _as_one_kind(left: Term, right: Term, least: int = 0) -> tuple:
    """Both numbers converted to the higher of their kinds, and at least `least`."""
    (kind_l, a), (kind_r, b) = _num(left), _num(right)
    as_kind = _KIND_TYPES[max(kind_l, kind_r, least)]
    return as_kind(a), as_kind(b)


def _expr(expr, row: dict) -> Term:
    if isinstance(expr, VarExpr):
        if expr.var.name not in row:
            raise _Error("unbound")
        return row[expr.var.name]
    if isinstance(expr, ConstExpr):
        return expr.term
    if isinstance(expr, Compare):
        result = _cmp(expr.op, _expr(expr.left, row), _expr(expr.right, row))
        return Literal("true" if result else "false", XSD_BOOLEAN)
    if isinstance(expr, Arith):
        return _fold(expr, lambda operand: _expr(operand, row))
    if isinstance(expr, SumAgg):
        raise _Error("aggregate outside grouping")
    raise TypeError(f"not an expression: {expr!r}")


def _fold(expr: Arith, value_of) -> Term:
    """The run's operands, each valued by `value_of`, combined left to right."""
    result = value_of(expr.operands[0])
    for op, operand in zip(expr.ops, expr.operands[1:]):
        result = _arith(op, result, value_of(operand))
    return result


def _arith(op: str, left: Term, right: Term) -> Literal:
    a, b = _as_one_kind(left, right, 1 if op == "/" else 0)  # "/" yields at least a decimal
    if op == "/" and b == 0:
        raise _Error("division by zero")
    if op == "+":
        return numeric_literal(a + b)
    if op == "-":
        return numeric_literal(a - b)
    if op == "*":
        return numeric_literal(a * b)
    if op == "/":
        return numeric_literal(a / b)
    raise _Error("bad operator")


def _string_like(term: Term) -> bool:
    return isinstance(term, Literal) and term.datatype == XSD_STRING


def _cmp(op: str, left: Term, right: Term) -> bool:
    if isinstance(left, Literal) and isinstance(right, Literal):
        try:
            return _rel(op, *_as_one_kind(left, right))
        except _Error:
            pass
        if _string_like(left) and _string_like(right):
            return _rel(op, left.lexical, right.lexical)
        if left == right:
            if op in ("=", "<=", ">="):
                return True
            if op == "!=":
                return False
            return False
        if left.datatype == right.datatype and op in ("=", "!="):
            return op == "!="
        raise _Error("incomparable literals")
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    raise _Error("ordering needs literals")


def _rel(op: str, a, b) -> bool:
    return {
        "=": a == b,
        "!=": a != b,
        "<": a < b,
        "<=": a <= b,
        ">": a > b,
        ">=": a >= b,
    }[op]


def _truth(term: Term) -> bool:
    if isinstance(term, Literal):
        if term.datatype == XSD_BOOLEAN:
            return term.lexical == "true"
        value = numeric_value(term)
        if value is not None:
            return value == value and value != 0
        if _string_like(term):
            return term.lexical != ""
    return False


def _sum_over(expr, rows: list[dict]) -> Literal:
    kind, total = 0, 0
    for row in rows:
        value = _expr(expr, row)  # _Error propagates: unbound SUM for the group
        knd, num = _num(value)
        kind = max(kind, knd)
        as_kind = _KIND_TYPES[kind]
        total = as_kind(total) + as_kind(num)
    return numeric_literal(total)


def _agg_expr(expr, key_binding: dict, rows: list[dict]) -> Term:
    if isinstance(expr, SumAgg):
        return _sum_over(expr.expr, rows)
    if isinstance(expr, Compare):
        result = _cmp(
            expr.op,
            _agg_expr(expr.left, key_binding, rows),
            _agg_expr(expr.right, key_binding, rows),
        )
        return Literal("true" if result else "false", XSD_BOOLEAN)
    if isinstance(expr, Arith):
        return _fold(expr, lambda operand: _agg_expr(operand, key_binding, rows))
    return _expr(expr, key_binding)


def evaluate(graph: Graph, query: SelectQuery) -> Solution:
    """All solutions of a parsed query, whose static rules the parser has
    checked; `SELECT *` is already its list of variables."""
    triples = list(graph)
    rows = _rows(triples, graph, query.pattern)
    out: list[dict] = []
    if query.grouped:
        key_names = [v.name for v in query.group_by]
        if query.group_by:
            buckets: dict[tuple, list[dict]] = {}
            for row in rows:
                key = tuple(row.get(name) for name in key_names)
                buckets.setdefault(key, []).append(row)
        else:
            buckets = {(): rows}
        for key, members in buckets.items():
            key_binding = {n: v for n, v in zip(key_names, key) if v is not None}
            projected: dict = {}
            for item in query.select:
                if isinstance(item, Variable):
                    if item.name in key_binding:
                        projected[item.name] = key_binding[item.name]
                else:
                    try:
                        projected[item.var.name] = _agg_expr(item.expr, key_binding, members)
                    except _Error:
                        pass
            out.append(projected)
    else:
        for row in rows:
            projected = {}
            for item in query.select:
                if isinstance(item, Variable):
                    if item.name in row:
                        projected[item.name] = row[item.name]
                else:
                    try:
                        projected[item.var.name] = _expr(item.expr, row)
                    except _Error:
                        pass
            out.append(projected)
    if query.distinct:
        seen = set()
        deduped = []
        for row in out:
            key = frozenset(row.items())
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        out = deduped
    return Solution(projection_names(query), out)
