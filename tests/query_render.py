"""The canonical text form of a parsed query, for round-trip tests: parsing
`query_text(q)` back yields a tree equal to `q`."""

from __future__ import annotations

from evkg.ntriples import term_to_ntriples
from evkg.sparql.algebra import (
    Arith,
    Bgp,
    Compare,
    ConstExpr,
    Expression,
    Filter,
    Group,
    Pattern,
    SelectQuery,
    SubSelect,
    SumAgg,
    TermOrVar,
    Union,
    Values,
    VarExpr,
    Variable,
)


def _term_text(t: TermOrVar) -> str:
    if isinstance(t, Variable):
        return f"?{t.name}"
    return term_to_ntriples(t)


_PRECEDENCE = {"+": 2, "-": 2, "*": 3, "/": 3}  # a comparison binds at 1


def expression_text(expr: Expression, floor: int = 0) -> str:
    """Render `expr`, parenthesized only if it binds more loosely than `floor`.

    A run's first operand is wrapped only if it binds more loosely than the
    run, and every later operand also at the run's own precedence
    (``?a - (?b - ?c)``); a comparison does not chain, so both its operands
    are wrapped at its own precedence.
    """
    if isinstance(expr, VarExpr):
        return f"?{expr.var.name}"
    if isinstance(expr, ConstExpr):
        return term_to_ntriples(expr.term)
    if isinstance(expr, SumAgg):
        return f"SUM({expression_text(expr.expr)})"
    if isinstance(expr, Compare):
        precedence = 1
        text = f"{expression_text(expr.left, 2)} {expr.op} {expression_text(expr.right, 2)}"
    elif isinstance(expr, Arith):
        precedence = _PRECEDENCE[expr.ops[0]]
        parts = [expression_text(expr.operands[0], precedence)]
        for op, operand in zip(expr.ops, expr.operands[1:]):
            parts += (op, expression_text(operand, precedence + 1))
        text = " ".join(parts)
    else:
        raise TypeError(f"not an expression: {expr!r}")
    return f"({text})" if precedence < floor else text


def _pattern_lines(p: Pattern, indent: str) -> list[str]:
    inner = indent + "  "
    if isinstance(p, Group):
        lines = []
        for el in p.elements:
            lines.extend(_element_lines(el, inner))
        return lines
    if isinstance(p, Filter):
        return _pattern_lines(p.inner, indent) + [
            f"{inner}FILTER({expression_text(expr)})" for expr in p.expressions
        ]
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
        lines: list[str] = []
        for i, branch in enumerate(p.branches):
            # A sub-select branch is its own braced group; any other is wrapped.
            if isinstance(branch, SubSelect):
                body = _element_lines(branch, indent)
            else:
                body = [f"{indent}{{", *_pattern_lines(branch, indent), f"{indent}}}"]
            if i:
                body[0] = f"{indent}UNION {{"
            lines += body
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
