"""N-Triples and Turtle-subset reading/writing.

N-Triples is the snapshot format: one `.`-terminated triple per line, lines
sorted lexicographically so equal graphs serialize to identical bytes.
The Turtle subset (prefix header + full triples, no `;`/`,` lists) exists
for the ontology export and round-trips only what this toolkit emits.
"""

from __future__ import annotations

from typing import Optional

from .graph import Graph
from .terms import (
    RDF_LANGSTRING,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    PrefixTable,
    Term,
    TermError,
    Triple,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def term_to_ntriples(term: Term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{escape_string(term.lexical)}"'
        if term.language:
            return f"{body}@{term.language}"
        if term.datatype == XSD_STRING:
            return body
        return f"{body}^^<{term.datatype.value}>"
    raise TypeError(f"not a term: {term!r}")


def triple_to_ntriples(t: Triple) -> str:
    return (
        f"{term_to_ntriples(t.subject)} {term_to_ntriples(t.predicate)} "
        f"{term_to_ntriples(t.object)} ."
    )


def serialize_ntriples(graph: Graph) -> str:
    lines = sorted(triple_to_ntriples(t) for t in graph)
    return "".join(line + "\n" for line in lines)


class _LineScanner:
    """Cursor over one line of N-Triples/Turtle text."""

    def __init__(self, text: str, line_no: int, prefixes: Optional[PrefixTable] = None):
        self.text = text
        self.pos = 0
        self.line_no = line_no
        self.prefixes = prefixes

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line_no, self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.text[self.pos:self.pos + 10]!r}")
        self.pos += 1

    def read_iri(self) -> Iri:
        self.expect("<")
        end = self.text.find(">", self.pos)
        if end < 0:
            raise self.error("unterminated IRI")
        value = self.text[self.pos:end]
        self.pos = end + 1
        try:
            return Iri(value)
        except TermError as exc:
            raise self.error(str(exc)) from None

    def read_quoted(self) -> str:
        self.expect('"')
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string literal")
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                self.pos += 1
                if self.pos >= len(self.text):
                    raise self.error("dangling escape")
                esc = self.text[self.pos]
                if esc == "t":
                    out.append("\t")
                elif esc == "n":
                    out.append("\n")
                elif esc == "r":
                    out.append("\r")
                elif esc in ('"', "\\"):
                    out.append(esc)
                elif esc in ("u", "U"):
                    width = 4 if esc == "u" else 8
                    hexs = self.text[self.pos + 1:self.pos + 1 + width]
                    if len(hexs) < width:
                        raise self.error(f"short \\{esc} escape")
                    if not _HEX_DIGITS.issuperset(hexs):
                        raise self.error(f"bad \\{esc} escape: {hexs!r}")
                    code = int(hexs, 16)
                    if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                        raise self.error(f"\\{esc}{hexs} is not a Unicode scalar value")
                    out.append(chr(code))
                    self.pos += width
                else:
                    raise self.error(f"unknown escape \\{esc}")
                self.pos += 1
            else:
                out.append(ch)
                self.pos += 1

    def read_word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ' \t<"':
            ch = self.text[self.pos]
            if ch == "." and self._dot_terminates():
                break
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a token")
        return self.text[start:self.pos]

    def _dot_terminates(self) -> bool:
        # A '.' ends the statement only when followed by whitespace/EOL;
        # CURIE locals such as connectortype.CHAdeMO keep interior dots.
        nxt = self.text[self.pos + 1:self.pos + 2]
        return nxt in ("", " ", "\t")

    def read_term(self, allow_curie: bool = False) -> Term:
        ch = self.peek()
        if ch == "<":
            return self.read_iri()
        if ch == "_":
            word = self.read_word()
            if not word.startswith("_:") or len(word) < 3:
                raise self.error(f"bad blank node: {word!r}")
            return BlankNode(word[2:])
        if ch == '"':
            lexical = self.read_quoted()
            if self.text[self.pos:self.pos + 2] == "^^":
                self.pos += 2
                if self.peek() == "<":
                    dt = self.read_iri()
                else:
                    if not allow_curie:
                        raise self.error("expected <datatype IRI>")
                    dt = self._expand(self.read_word())
                try:
                    return Literal(lexical, dt)
                except TermError as exc:
                    raise self.error(str(exc)) from None
            if self.text[self.pos:self.pos + 1] == "@":
                self.pos += 1
                tag = self.read_word()
                try:
                    return Literal(lexical, RDF_LANGSTRING, tag)
                except TermError as exc:
                    raise self.error(str(exc)) from None
            return Literal(lexical)
        if allow_curie and ch:
            return self._expand(self.read_word())
        raise self.error(f"unexpected character {ch!r}")

    def read_statement(self, allow_curie: bool = False) -> Triple:
        """Read `subject predicate object .`, optionally followed by a comment."""
        subject = self.read_term(allow_curie)
        predicate = self.read_term(allow_curie)
        obj = self.read_term(allow_curie)
        self.expect(".")
        if self.peek() not in ("", "#"):
            raise self.error("trailing content after '.'")
        if not isinstance(predicate, Iri):
            raise ParseError("predicate must be an IRI", self.line_no, 1)
        try:
            return Triple(subject, predicate, obj)  # type: ignore[arg-type]
        except TermError as exc:
            raise ParseError(str(exc), self.line_no, 1) from None

    def _expand(self, curie: str) -> Iri:
        if self.prefixes is None:
            raise self.error("prefixed name without a prefix table")
        try:
            return self.prefixes.expand(curie)
        except (TermError, KeyError) as exc:
            raise self.error(str(exc)) from None


def parse_ntriples(text: str) -> Graph:
    graph = Graph()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        graph.insert(_LineScanner(raw, line_no).read_statement())
    return graph


# ---------------------------------------------------------------------------
# Turtle subset
# ---------------------------------------------------------------------------


def _term_to_turtle(term: Term, prefixes: PrefixTable) -> str:
    if isinstance(term, Iri):
        curie = prefixes.compact(term)
        return curie if curie is not None else f"<{term.value}>"
    if isinstance(term, Literal) and term.datatype != XSD_STRING and not term.language:
        dt = prefixes.compact(term.datatype)
        if dt is not None:
            return f'"{escape_string(term.lexical)}"^^{dt}'
    return term_to_ntriples(term)


def serialize_turtle(graph: Graph, prefixes: Optional[PrefixTable] = None) -> str:
    prefixes = prefixes or graph.prefixes
    used = sorted(prefixes.entries.items())
    header = "".join(f"@prefix {p}: <{ns}> .\n" for p, ns in used)
    body = sorted(
        f"{_term_to_turtle(t.subject, prefixes)} {_term_to_turtle(t.predicate, prefixes)} "
        f"{_term_to_turtle(t.object, prefixes)} ."
        for t in graph
    )
    return header + "\n" + "".join(line + "\n" for line in body)


def parse_turtle(text: str) -> Graph:
    prefixes = PrefixTable()
    graph = Graph(prefixes=prefixes)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        scanner = _LineScanner(raw, line_no, prefixes)
        if line.startswith("@prefix"):
            scanner.pos = raw.index("@prefix") + len("@prefix")
            name = scanner.read_word()
            if not name.endswith(":"):
                raise scanner.error("prefix name must end with ':'")
            ns = scanner.read_iri()
            scanner.expect(".")
            prefixes.register(name[:-1], ns.value)
            continue
        graph.insert(scanner.read_statement(allow_curie=True))
    return graph
