"""Tokenizer and recursive-descent parser for the supported SPARQL subset.

Supported: PREFIX declarations, SELECT [DISTINCT] with `*` or with variable
and `(expr AS ?var)` items, WHERE groups with `.`-separated triple patterns,
`a`, typed and plain string literals, CURIEs, nested groups, UNION, FILTER
with comparisons and arithmetic, both VALUES forms, sub-SELECTs, and GROUP
BY. Keywords are case-insensitive (except `a`). Anything else that is
recognizably SPARQL is rejected by name, never silently ignored. Names,
keywords and numbers are ASCII; any other character outside a string or
an IRI is a QuerySyntaxError.

Braces and parentheses may nest at most MAX_DEPTH levels deep; anything
deeper is a QuerySyntaxError, so that neither the parser nor the
evaluators (all recursive) can run out of stack. That is the only limit: a
chain is one node however long it is, so the branches of a UNION, the
FILTERs of one group and a run of `+ -` or of `* /` may be of any length.
A run whose first operand is a parenthesized run at the same precedence
extends it, so `(?a - ?b) - ?c` and `?a - ?b - ?c` parse alike.

Every static rule is settled as each SELECT level, sub-selects included,
is parsed, whatever the data: `*` stands alone in its projection, and is
replaced by the pattern's in-scope variables (`visible_vars`); a variable
is projected at most once, and `(expr AS ?v)` binds a variable not yet in
scope; under grouping (SPARQL 1.1 §11.4) neither `*` nor a projected
variable other than a GROUP BY key may appear. A broken rule is a
QuerySemanticsError.

A nested group consisting solely of FILTER constraints (e.g. `{FILTER(?r <
0.1)}`) contributes its constraints to the enclosing group: filters apply
to the group they appear in after all its other elements are joined.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from ..terms import (
    ECHAR,
    ESCAPE,
    RDF_TYPE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    Iri,
    Literal,
    PrefixTable,
    Term,
    TermError,
    UnknownPrefixError,
    default_prefixes,
    scalar_value,
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
    SelectItem,
    SelectQuery,
    SubSelect,
    SumAgg,
    TriplePattern,
    Union,
    Values,
    VarExpr,
    Variable,
    expression_has_aggregate,
    projection_names,
    visible_vars,
)
from .errors import QueryError, QuerySemanticsError, QuerySyntaxError, UnsupportedFeatureError

_UNSUPPORTED = {
    "OPTIONAL",
    "MINUS",
    "GRAPH",
    "SERVICE",
    "BIND",
    "ORDER",
    "LIMIT",
    "OFFSET",
    "HAVING",
    "ASK",
    "CONSTRUCT",
    "DESCRIBE",
    "INSERT",
    "DELETE",
    "REDUCED",
    "FROM",
    "EXISTS",
    "NOT",
    "UNDEF",
    "BASE",
    "COUNT",
    "AVG",
    "MIN",
    "MAX",
    "SAMPLE",
    "GROUP_CONCAT",
}

MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"""(?P<skip>[ \t\r\n]+|\#[^\n]*)
    | [?$](?P<var>[A-Za-z0-9_]+)
    | <(?P<iri>[^<>"{}|^`\\\x00-\x20]*)>
    | "(?P<string>(?:[^"\\]|\\.)*)"
    | (?P<double>(?:[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)[eE][+-]?[0-9]+)
    | (?P<decimal>[0-9]+\.[0-9]+|\.[0-9]+)
    | (?P<integer>[0-9]+)
    | (?P<pname>(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)?)
    | (?P<word>[A-Za-z][A-Za-z0-9_\-]*)
    | (?P<punct>\^\^|[<>!]=|[{}().*/+\-=<>;,])
    | (?P<bad>&&|\|\||.)""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # var iri pname word string integer decimal double eof, or the punctuation
    value: str
    offset: int  # into the query text; see position()


def position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, col) of a character offset; only '\\n' starts a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _unescape(text: str, start: int, body: str) -> str:
    """Decode the escapes of `body`, the string whose quote is at `start`:
    ECHAR, and \\u or \\U (SPARQL 1.1 §19.2) with the N-Triples reader's
    scalar-value rule. A bad \\u or \\U escape is reported at its backslash,
    an unknown escape at the string's quote."""

    def decode(m: re.Match) -> str:
        esc, hexs = m[3], m[1] or m[2]
        at = start + 1 + m.start()  # the escape's backslash
        if hexs:
            char = scalar_value(hexs)
            if char is None:
                raise QuerySyntaxError(f"{m[0]} is not a Unicode scalar value", *position(text, at))
            return char
        if esc in ECHAR:
            return ECHAR[esc]
        if esc in "uU":
            width = 4 if esc == "u" else 8
            hexs = body[m.end():m.end() + width]
            message = f"short \\{esc} escape" if len(hexs) < width else f"bad \\{esc} escape: {hexs!r}"
            raise QuerySyntaxError(message, *position(text, at))
        raise QuerySyntaxError(f"unknown escape \\{esc}", *position(text, start))

    return ESCAPE.sub(decode, body)


def _bad_token(text: str, start: int, value: str) -> QueryError:
    where = position(text, start)
    if value in ("&&", "||"):
        return UnsupportedFeatureError(f"logical operator {value}", *where)
    message = f"unexpected character {value!r}"
    if value == '"':  # no closing quote; an unknown, then a dangling escape is named first
        rest = text[start + 1:]
        _unescape(text, start, rest)
        odd = (len(rest) - len(rest.rstrip("\\"))) % 2
        message = "dangling escape in string" if odd else "unterminated string literal"
    elif value in "?$":
        message = "expected a variable name after '?'"
    elif value == "`":
        message = "unexpanded query reference (backquoted placeholder)"
    return QuerySyntaxError(message, *where)


def tokenize(text: str) -> list[Token]:
    """Split a query into tokens, the last of kind 'eof'."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m[m.lastgroup]
        if kind == "skip":
            continue
        if kind == "bad":
            raise _bad_token(text, m.start(), value)
        if kind == "string":
            value = _unescape(text, m.start(), value)
        elif kind == "punct":
            kind = value
        tokens.append(Token(kind, value, m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class Parser:
    def __init__(self, text: str, prefixes: PrefixTable):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.prefixes = prefixes
        self.depth = 0

    # -- token helpers ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def where(self, tok: Token) -> tuple[int, int]:
        return position(self.text, tok.offset)

    def error(self, message: str, tok: Optional[Token] = None) -> QuerySyntaxError:
        return QuerySyntaxError(message, *self.where(tok or self.peek()))

    def at_word(self, *names: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.value.upper() in names

    def expect_word(self, name: str) -> Token:
        tok = self.next()
        if tok.kind != "word" or tok.value.upper() != name:
            raise self.error(f"expected {name}", tok)
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {kind!r}, found {tok.value!r}", tok)
        return tok

    def enter(self) -> None:
        """Count one more open brace or parenthesis; see MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"query nested more than {MAX_DEPTH} levels deep")

    def check_unsupported(self, tok: Token) -> None:
        if tok.kind == "word" and tok.value.upper() in _UNSUPPORTED:
            raise UnsupportedFeatureError(tok.value.upper(), *self.where(tok))

    # -- grammar -----------------------------------------------------------

    def parse(self) -> SelectQuery:
        while self.at_word("PREFIX"):
            self.next()
            name_tok = self.expect("pname")
            if not name_tok.value.endswith(":"):
                raise self.error("PREFIX name must end with ':'", name_tok)
            iri_tok = self.expect("iri")
            self.prefixes.register(name_tok.value[:-1], iri_tok.value)
        self.check_unsupported(self.peek())
        query = self.parse_select()
        tok = self.peek()
        if tok.kind != "eof":
            self.check_unsupported(tok)
            raise self.error(f"unexpected trailing content: {tok.value!r}", tok)
        return query

    def parse_select(self) -> SelectQuery:
        self.expect_word("SELECT")
        distinct = False
        if self.at_word("DISTINCT"):
            self.next()
            distinct = True
        star = self.peek().kind == "*"
        if star:
            self.next()
        items: list[SelectItem] = []
        while not star:
            tok = self.peek()
            if tok.kind == "var":
                self.next()
                items.append(Variable(tok.value))
            elif tok.kind == "(":
                self.next()
                expr = self.parse_expression()
                self.expect_word("AS")
                var_tok = self.expect("var")
                self.expect(")")
                items.append(Aliased(expr, Variable(var_tok.value)))
            else:
                break
        if self.peek().kind in ("*", "var", "("):
            raise self.error("SELECT * cannot be combined with other projection items")
        if not star and not items:
            raise self.error("SELECT needs at least one projection item")
        if self.at_word("WHERE"):
            self.next()
        pattern = self.parse_group()
        if isinstance(pattern, SubSelect):
            pattern = Group((pattern,))
        group_by: list[Variable] = []
        if self.at_word("GROUP"):
            self.next()
            self.expect_word("BY")
            while self.peek().kind == "var":
                group_by.append(Variable(self.next().value))
            if not group_by:
                raise self.error("GROUP BY needs at least one variable")
        tok = self.peek()
        if tok.kind == "word" and tok.value.upper() in ("ORDER", "LIMIT", "OFFSET", "HAVING"):
            raise UnsupportedFeatureError(tok.value.upper(), *self.where(tok))
        if star:
            if group_by:
                raise QuerySemanticsError("SELECT * cannot be combined with grouping")
            items = list(map(Variable, visible_vars(pattern)))
        query = SelectQuery(tuple(items), distinct, pattern, tuple(group_by))
        in_scope = set(visible_vars(pattern))
        projected: set[str] = set()
        for item, name in zip(items, projection_names(query)):
            # SPARQL 1.1 Query §18.2.1: AS binds a variable not yet in scope
            if isinstance(item, Aliased) and (name in in_scope or name in projected):
                raise QuerySemanticsError(f"AS ?{name} binds a variable already in scope")
            if name in projected:
                raise QuerySemanticsError(f"?{name} is projected twice")
            projected.add(name)
        if query.grouped:
            for item in items:
                if isinstance(item, Variable) and item not in group_by:
                    raise QuerySemanticsError(
                        f"projected variable ?{item.name} is not a GROUP BY key"
                    )
        return query

    def parse_group(self) -> Pattern:
        self.expect("{")
        self.enter()
        if self.at_word("SELECT"):
            sub = self.parse_select()
            self.expect("}")
            self.depth -= 1
            return SubSelect(sub)
        elements: list[Pattern] = []
        filters: list[Expression] = []
        bgp: list[TriplePattern] = []

        def flush_bgp():
            if bgp:
                elements.append(Bgp(tuple(bgp)))
                bgp.clear()

        while True:
            tok = self.peek()
            if tok.kind == "}":
                self.next()
                break
            if tok.kind == "eof":
                raise self.error("unexpected end of query inside group")
            if tok.kind == "{":
                flush_bgp()
                branches = [self.parse_group()]
                while self.at_word("UNION"):
                    self.next()
                    branches.append(self.parse_group())
                child = Union(tuple(branches)) if len(branches) > 1 else branches[0]
                if isinstance(child, Filter) and not child.inner.elements:
                    filters.extend(child.expressions)  # a group of FILTERs only
                else:
                    elements.append(child)
                continue
            if self.at_word("FILTER"):
                self.next()
                self.expect("(")
                filters.append(self.parse_expression())
                self.expect(")")
                continue
            if self.at_word("VALUES"):
                self.next()
                flush_bgp()
                elements.append(self.parse_values())
                continue
            if tok.kind in (";", ","):
                raise UnsupportedFeatureError(
                    "predicate-object lists (';' / ',')", *self.where(tok)
                )
            self.check_unsupported(tok)
            bgp.append(self.parse_triple_pattern())
            if self.peek().kind == ".":
                self.next()
        flush_bgp()
        self.depth -= 1
        group = Group(tuple(elements))
        return Filter(tuple(filters), group) if filters else group

    def parse_values(self) -> Values:
        tok = self.peek()
        if tok.kind == "var":
            variables = (Variable(self.next().value),)
            self.expect("{")
            rows = []
            while self.peek().kind != "}":
                rows.append((self.parse_data_value(),))
            self.expect("}")
            return Values(variables, tuple(rows))
        self.expect("(")
        variables = []
        while self.peek().kind == "var":
            variables.append(Variable(self.next().value))
        self.expect(")")
        if not variables:
            raise self.error("VALUES needs at least one variable")
        self.expect("{")
        rows = []
        while self.peek().kind != "}":
            self.expect("(")
            row = []
            while self.peek().kind != ")":
                row.append(self.parse_data_value())
            self.expect(")")
            if len(row) != len(variables):
                raise self.error(f"VALUES row has {len(row)} terms for {len(variables)} variables")
            rows.append(tuple(row))
        self.expect("}")
        return Values(tuple(variables), tuple(rows))

    def parse_data_value(self) -> Term:
        term = self.parse_term(position="object", allow_var=False)
        assert not isinstance(term, Variable)
        return term

    def parse_triple_pattern(self) -> TriplePattern:
        s = self.parse_term("subject")
        p = self.parse_term("predicate")
        o = self.parse_term("object")
        return TriplePattern(s, p, o)

    def parse_term(self, position: str, allow_var: bool = True):
        tok = self.next()
        if tok.kind == "var":
            if not allow_var:
                raise self.error("variable not allowed here", tok)
            return Variable(tok.value)
        if tok.kind in ("iri", "pname"):
            return self.iri(tok)
        if tok.kind == "word":
            if tok.value == "a":
                if position != "predicate":
                    raise self.error("'a' is only valid as a predicate", tok)
                return RDF_TYPE
            self.check_unsupported(tok)
            raise self.error(f"unexpected word {tok.value!r} in {position} position", tok)
        if tok.kind == "string":
            return self.finish_literal(tok)
        if tok.kind in ("integer", "decimal", "double"):
            datatype = {
                "integer": XSD_INTEGER,
                "decimal": XSD_DECIMAL,
                "double": XSD_DOUBLE,
            }[tok.kind]
            return Literal(tok.value, datatype)
        raise self.error(f"expected a term, found {tok.value!r}", tok)

    def finish_literal(self, tok: Token) -> Literal:
        if self.peek().kind == "^^":
            self.next()
            dt_tok = self.next()
            if dt_tok.kind not in ("iri", "pname"):
                raise self.error("expected a datatype IRI after '^^'", dt_tok)
            datatype = self.iri(dt_tok)
            try:
                return Literal(tok.value, datatype)
            except TermError as exc:
                raise self.error(str(exc), tok) from None
        return Literal(tok.value)

    def iri(self, tok: Token) -> Iri:
        """The absolute IRI an `iri` or `pname` token names."""
        try:
            if tok.kind == "iri":
                return Iri(tok.value)
            return self.prefixes.expand(tok.value)
        except (UnknownPrefixError, TermError) as exc:
            raise self.error(str(exc), tok) from None

    # -- expressions ------------------------------------------------------

    def parse_expression(self) -> Expression:
        self.enter()
        expr = self.parse_additive()
        tok = self.peek()
        if tok.kind in ("<", ">", "<=", ">=", "=", "!="):
            self.next()
            expr = Compare(tok.kind, expr, self.parse_additive())
        self.depth -= 1
        return expr

    def parse_additive(self) -> Expression:
        return self.parse_run("+-", self.parse_multiplicative)

    def parse_multiplicative(self) -> Expression:
        return self.parse_run("*/", self.parse_unary)

    def parse_run(self, operators: str, parse_operand) -> Expression:
        """One run of `operators`; a first operand that is itself such a run
        (parenthesized, or a unary minus) is extended rather than nested."""
        first = parse_operand()
        if self.peek().kind not in operators:
            return first
        ops, operands = [], [first]
        if isinstance(first, Arith) and first.ops[0] in operators:
            ops, operands = list(first.ops), list(first.operands)
        while self.peek().kind in operators:
            ops.append(self.next().kind)
            operands.append(parse_operand())
        return Arith(tuple(ops), tuple(operands))

    def parse_unary(self) -> Expression:
        if self.peek().kind == "-":
            self.next()
            operand = self.parse_primary()
            return Arith(("-",), (ConstExpr(Literal("0", XSD_INTEGER)), operand))
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if tok.kind == "var":
            self.next()
            return VarExpr(Variable(tok.value))
        if self.at_word("SUM"):
            self.next()
            self.expect("(")
            inner = self.parse_expression()
            self.expect(")")
            if expression_has_aggregate(inner):
                line, col = self.where(tok)
                raise QuerySemanticsError(f"line {line}, col {col}: aggregates cannot be nested")
            return SumAgg(inner)
        if tok.kind == "word":
            self.check_unsupported(tok)
            raise self.error(f"unexpected word {tok.value!r} in expression", tok)
        term = self.parse_term("object", allow_var=False)
        return ConstExpr(term)


def parse_query(text: str) -> SelectQuery:
    """Parse a query against the toolkit's default prefixes."""
    return Parser(text, default_prefixes()).parse()
