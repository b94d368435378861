"""Query AST.

A parsed query holds resolved IRIs only, so two spellings of one query
(a CURIE and its full IRI) parse to equal trees.

A chain is one node: `Union` holds every branch, `Filter` every FILTER of
one group, `Arith` one run of operators at one precedence. So the tree is
only as deep as the query's nesting of braces and parentheses, which the
parser bounds by `MAX_DEPTH`, and a chain of any length compares, prints
and evaluates at the default recursion limit.

Equality is `_node_eq`, which compares field by field as the
dataclass-generated `__eq__` does but walks an explicit stack of node
pairs, so even the deepest tree the parser accepts (a FILTER that nests 90
parentheses, each holding a comparison, a sum and a product) compares at
the default recursion limit. `repr` is `_node_repr`, which writes the
generated text (`Variable` keeps `?name`) from an explicit stack in the same
way, so a failing assertion on such a tree can print it. Hashing stays the
generated one. Only tests compare ASTs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Union as TUnion

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
    """One run of `+ -` or of `* /`, applied left to right: `operands[0]
    ops[0] operands[1] ops[1] ...`. Its first operand is never itself a run
    at the same precedence, so every text has one AST."""

    ops: tuple[str, ...]  # all from "+-" or all from "*/"
    operands: tuple["Expression", ...]  # one more than ops


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
    branches: tuple["Pattern", ...]  # two or more, in written order


@dataclass(frozen=True, slots=True)
class Filter:
    """Every FILTER of one group (SPARQL 1.1 §18.2.2.6): a row of `inner`
    is kept when each expression is true for it."""

    expressions: tuple[Expression, ...]
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


def _node_eq(self, other) -> bool:
    """The generated dataclass `__eq__`, without recursion: two nodes are
    equal when their classes match and their fields are equal in turn,
    where a plain tuple compares item by item and any other value by `==`."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        names = _FIELDS.get(a.__class__)
        if names is not None:
            if b.__class__ is not a.__class__:
                return False
            stack += ((getattr(a, name), getattr(b, name)) for name in names)
        elif a.__class__ is tuple and b.__class__ is tuple:
            if len(a) != len(b):
                return False
            stack += zip(a, b)
        elif not a == b:
            return False
    return True


_END = object()  # marks closing text in `_node_repr`'s stack


def _node_repr(self) -> str:
    """The generated dataclass `__repr__`, without recursion: a node is
    ``Class(field=value, ...)``, a plain tuple ``(item, ...)`` (``(item,)``
    with one item), and any other value, a `Variable` included, its own
    `repr`. Each stack entry is the text written before a value, or closing
    text paired with `_END`."""
    parts: list[str] = []
    stack: list = [("", self)]
    while stack:
        text, value = stack.pop()
        parts.append(text)
        if value is _END:
            continue
        cls = value.__class__
        if cls.__repr__ is _node_repr:
            opener, closer = cls.__qualname__ + "(", ")"
            items = [(name + "=", getattr(value, name)) for name in _FIELDS[cls]]
        elif cls is tuple:
            opener, closer = "(", ",)" if len(value) == 1 else ")"
            items = [("", item) for item in value]
        else:
            parts.append(repr(value))
            continue
        parts.append(opener)
        stack.append((closer, _END))
        stack += reversed([(", " * (i > 0) + label, item) for i, (label, item) in enumerate(items)])
    return "".join(parts)


_FIELDS = {  # every field of these nodes compares and shows in `repr`
    cls: tuple(f.name for f in fields(cls) if f.compare)
    for cls in (Variable, TriplePattern, VarExpr, ConstExpr, Compare, Arith, SumAgg, Aliased,
                Bgp, Group, Union, Filter, Values, SubSelect, SelectQuery)
}
for _node in _FIELDS:
    _node.__eq__ = _node_eq  # __hash__ stays the generated one
    if _node is not Variable:  # which keeps its ``?name``
        _node.__repr__ = _node_repr


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
            stack += reversed(p.branches)
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
    """Whether `expr` holds a SUM, found without recursion."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, SumAgg):
            return True
        if isinstance(node, Compare):
            stack += (node.left, node.right)
        elif isinstance(node, Arith):
            stack += node.operands
    return False
