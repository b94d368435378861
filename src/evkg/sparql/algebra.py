"""Query AST and its canonical text form.

A parsed query holds resolved IRIs only, so a query and its canonical
re-rendering compare equal.

Equality is the dataclass-generated `__eq__`, which recurses about twice
per tree level (about three recursion-limit units on CPython 3.11), so at
the default limit only trees up to about 330 levels compare, while the
parser accepts `MAX_TREE_DEPTH` (500). Comparing deeper trees needs a raised
recursion limit, as `test_long_sum_round_trips` sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union as TUnion

from ..ntriples import term_to_ntriples
from ..terms import Term


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


TermOrVar = TUnion[Term, Variable]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    s: TermOrVar
    p: TermOrVar
    o: TermOrVar

    def positions(self) -> tuple[TermOrVar, TermOrVar, TermOrVar]:
        return (self.s, self.p, self.o)


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class VarExpr:
    var: Variable


@dataclass(frozen=True, slots=True)
class ConstExpr:
    term: Term


@dataclass(frozen=True, slots=True)
class Compare:
    op: str  # < > <= >= = !=
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True)
class Arith:
    op: str  # + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True)
class SumAgg:
    expr: "Expression"


Expression = TUnion[VarExpr, ConstExpr, Compare, Arith, SumAgg]


@dataclass(frozen=True, slots=True)
class Aliased:
    """A `(expression AS ?var)` projection item."""

    expr: Expression
    var: Variable


SelectItem = TUnion[Variable, Aliased]


# --- graph patterns -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Bgp:
    patterns: tuple[TriplePattern, ...]


@dataclass(frozen=True, slots=True)
class Group:
    elements: tuple["Pattern", ...]


@dataclass(frozen=True, slots=True)
class Union:
    left: "Pattern"
    right: "Pattern"


@dataclass(frozen=True, slots=True)
class Filter:
    expression: Expression
    inner: "Pattern"


@dataclass(frozen=True, slots=True)
class Values:
    variables: tuple[Variable, ...]
    rows: tuple[tuple[Term, ...], ...]


@dataclass(frozen=True, slots=True)
class SubSelect:
    query: "SelectQuery"


Pattern = TUnion[Bgp, Group, Union, Filter, Values, SubSelect]


@dataclass(frozen=True)
class SelectQuery:
    """One SELECT level as parsed: `SELECT *` is expanded into `select` (empty
    for a pattern without variables) and the grouping rules hold."""

    select: tuple[SelectItem, ...]
    distinct: bool
    pattern: Pattern
    group_by: tuple[Variable, ...] = ()

    @property
    def grouped(self) -> bool:
        """GROUP BY, or an aggregate in the projection: one row per group."""
        return bool(self.group_by) or any(
            isinstance(item, Aliased) and expression_has_aggregate(item.expr)
            for item in self.select
        )


@dataclass
class Solution:
    """Projected variable names (in order) and a multiset of binding rows."""

    variables: list[str]
    rows: list[dict[str, Term]]


# --- structural helpers -----------------------------------------------------


def pattern_vars(tp: TriplePattern) -> Iterator[Variable]:
    for pos in tp.positions():
        if isinstance(pos, Variable):
            yield pos


def visible_vars(pattern: Pattern) -> list[str]:
    """In-scope variable names in syntactic order (SELECT * projection),
    found without recursion. A sub-select contributes only what it projects.
    """
    names: list[str] = []
    stack = [pattern]
    while stack:
        p = stack.pop()
        if isinstance(p, Bgp):
            names += (v.name for tp in p.patterns for v in pattern_vars(tp))
        elif isinstance(p, Group):
            stack += reversed(p.elements)
        elif isinstance(p, Union):
            stack += (p.right, p.left)
        elif isinstance(p, Filter):
            stack.append(p.inner)
        elif isinstance(p, Values):
            names += (v.name for v in p.variables)
        elif isinstance(p, SubSelect):
            names += projection_names(p.query)
    return list(dict.fromkeys(names))


def projection_names(query: SelectQuery) -> list[str]:
    return [item.name if isinstance(item, Variable) else item.var.name for item in query.select]


def expression_has_aggregate(expr: Expression) -> bool:
    """Found without recursion, so an operator chain of any length is safe."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, SumAgg):
            return True
        if isinstance(node, (Compare, Arith)):
            stack += (node.left, node.right)
    return False


# --- canonical text form -----------------------------------------------------


def _term_text(t: TermOrVar) -> str:
    if isinstance(t, Variable):
        return f"?{t.name}"
    return term_to_ntriples(t)


_PRECEDENCE = {"+": 2, "-": 2, "*": 3, "/": 3}  # a comparison binds at 1


def expression_text(expr: Expression, floor: int = 0) -> str:
    """Render `expr`, parenthesized only if it binds more loosely than `floor`.

    Operators are left-associative, so a right operand at its parent's
    precedence is wrapped (``?a - (?b - ?c)``) and a left one is not; a
    comparison does not chain, so both its operands are wrapped at its own
    precedence. Long sums thus render without nesting.
    """
    if isinstance(expr, VarExpr):
        return f"?{expr.var.name}"
    if isinstance(expr, ConstExpr):
        return term_to_ntriples(expr.term)
    if isinstance(expr, SumAgg):
        return f"SUM({expression_text(expr.expr)})"
    if isinstance(expr, Compare):
        precedence, left_floor = 1, 2
    elif isinstance(expr, Arith):
        precedence = left_floor = _PRECEDENCE[expr.op]
    else:
        raise TypeError(f"not an expression: {expr!r}")
    left = expression_text(expr.left, left_floor)
    text = f"{left} {expr.op} {expression_text(expr.right, precedence + 1)}"
    return f"({text})" if precedence < floor else text


def _pattern_lines(p: Pattern, indent: str) -> list[str]:
    inner = indent + "  "
    if isinstance(p, Group):
        lines = []
        for el in p.elements:
            lines.extend(_element_lines(el, inner))
        return lines
    if isinstance(p, Filter):
        # Filters stack outside-in; render innermost pattern then FILTER lines.
        filters = []
        node: Pattern = p
        while isinstance(node, Filter):
            filters.append(node.expression)
            node = node.inner
        lines = _pattern_lines(node, indent)
        for expr in reversed(filters):
            lines.append(f"{inner}FILTER({expression_text(expr)})")
        return lines
    if isinstance(p, (Bgp, Union, Values, SubSelect)):
        return _element_lines(p, inner)
    raise TypeError(f"not a pattern: {p!r}")


def _element_lines(p: Pattern, indent: str) -> list[str]:
    if isinstance(p, Bgp):
        return [
            f"{indent}{_term_text(tp.s)} {_term_text(tp.p)} {_term_text(tp.o)} ."
            for tp in p.patterns
        ]
    if isinstance(p, Union):
        # Flatten left-associative chains: a UNION b UNION c.
        branches = []
        node: Pattern = p
        while isinstance(node, Union):
            branches.append(node.right)
            node = node.left
        branches.append(node)
        branches.reverse()
        lines: list[str] = []
        for i, branch in enumerate(branches):
            prefix = f"{indent}" if i == 0 else f"{indent}UNION "
            lines.append(prefix + "{")
            lines.extend(_pattern_lines(branch, indent))
            lines.append(f"{indent}}}")
        return lines
    if isinstance(p, Values):
        vars_text = " ".join(f"?{v.name}" for v in p.variables)
        rows_text = " ".join(
            "(" + " ".join(term_to_ntriples(t) for t in row) + ")" for row in p.rows
        )
        return [f"{indent}VALUES ({vars_text}) {{ {rows_text} }}"]
    if isinstance(p, SubSelect):
        lines = [f"{indent}{{"]
        lines.extend(_query_lines(p.query, indent + "  "))
        lines.append(f"{indent}}}")
        return lines
    # Group / Filter render as a braced child group.
    lines = [f"{indent}{{"]
    lines.extend(_pattern_lines(p, indent))
    lines.append(f"{indent}}}")
    return lines


def _query_lines(q: SelectQuery, indent: str) -> list[str]:
    head = [indent + "SELECT"]
    if q.distinct:
        head.append("DISTINCT")
    for item in q.select:
        if isinstance(item, Variable):
            head.append(f"?{item.name}")
        else:
            head.append(f"({expression_text(item.expr)} AS ?{item.var.name})")
    if not q.select:
        head.append("*")  # reads back as the pattern's variables: none
    lines = [" ".join(head), indent + "WHERE {"]
    lines.extend(_pattern_lines(q.pattern, indent))
    lines.append(indent + "}")
    if q.group_by:
        lines.append(indent + "GROUP BY " + " ".join(f"?{v.name}" for v in q.group_by))
    return lines


def query_text(q: SelectQuery) -> str:
    """Canonical rendering; parsing it back yields an equal AST."""
    return "\n".join(_query_lines(q, "")) + "\n"
