"""N-Triples reading and writing, and the Turtle ontology export.

N-Triples is the snapshot format: one `.`-terminated triple per line,
lines sorted lexicographically so equal graphs serialize to identical bytes.
The reader takes W3C N-Triples, which has no prefixes. Turtle is written
only, by `evkg export-ontology`: a header of the default prefixes, then full
triples with CURIEs where they round-trip (no `;`/`,` lists).

Lines end only at "\\n", "\\r\\n" or "\\r", the N-Triples EOL; any other
character, U+2028 included, may stand raw inside a literal. Only space
and tab are blanks: a line is skipped only if it holds nothing else, or
a `#` comment after them.

An IRI may spell a character as a \\u or \\U escape (UCHAR), which `_term`
decodes on both paths below; an escape of a character that IRIs forbid is
an error at the escape. A blank node label is read by the grammar's
character classes (BLANK_NODE_LABEL), so `_:é` and `_:a·b` are labels.

A line spelled as the serializer writes it, with an IRI or literal object,
is read by one `_LINE` match. Every other line, malformed ones included,
takes the token walk (`_triple`, one `_TOKEN` match per term), which owns
every error message and position; the fast path changes neither.

One parse reads each distinct term text once: later occurrences of the
same token share the term the first one built (and checked), so equal
terms spelled alike in a loaded graph are one object.
"""

from __future__ import annotations

import re
from typing import Iterator

from .graph import Graph
from .terms import (
    ECHAR,
    ESCAPE,
    IRI_FORBIDDEN,
    RDF_LANGSTRING,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    PrefixTable,
    Term,
    TermError,
    Triple,
    default_prefixes,
    scalar_value,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _error(message: str, line_no: int, offset: int) -> ParseError:
    return ParseError(message, line_no, offset + 1)


_ESCAPES = str.maketrans(
    {chr(c): f"\\u{c:04X}" for c in range(0x20)}
    | {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def escape_string(s: str) -> str:
    return s.translate(_ESCAPES)


def term_to_ntriples(term: Term) -> str:
    """The N-Triples text of a term, chosen by its class and read from its
    tuple slots; anything else is a TypeError."""
    cls = term.__class__
    if cls is Iri:
        return f"<{term[0]}>"
    if cls is Literal:
        lexical, datatype, language = term
        body = f'"{lexical.translate(_ESCAPES)}"'
        if language:
            return f"{body}@{language}"
        if datatype == XSD_STRING:
            return body
        return f"{body}^^<{datatype[0]}>"
    if cls is BlankNode:
        return f"_:{term[1]}"
    raise TypeError(f"not a term: {term!r}")


class _TermText(dict):
    """term -> its N-Triples text, rendered on first use."""

    def __missing__(self, term: Term) -> str:
        text = self[term] = term_to_ntriples(term)
        return text


def serialize_ntriples(graph: Graph) -> str:
    """Sorted N-Triples lines, written from the subject-first index.

    Each distinct term is rendered once per call, and each `"<s> <p> "`
    head once per subject and predicate; one sort and one join follow.
    Each term's text ends itself, so no line is a prefix of another, and
    lines sort in the same order with their newline as without it.
    """
    text = _TermText()
    lines: list[str] = []
    append = lines.append
    for s, p, objects in graph.subject_groups():
        head = f"{text[s]} {text[p]} "
        for o in objects:
            append(f"{head}{text[o]} .\n")
    lines.sort()
    return "".join(lines)


# A word (blank node label, language tag, or any bare text to report) runs
# to a blank, '<' or '"'; a '.' ends it only before a blank or the end of
# the line, so labels such as _:a.b keep their interior dots. A '#' after
# the final '.' starts a comment, which this pattern reads as a word.
_WORD = r'(?:[^ \t<".]|\.(?![ \t]|\Z))+'
_TOKEN = re.compile(rf"""[ \t]*(?:
      (?P<iri><(?P<iri_text>[^>]*)>)
    | (?P<literal>"(?P<lexical>[^"\\]*(?:\\.[^"\\]*)*)"
        (?:(?P<suffix>\^\^|@)(?P<tag><[^>]*>|{_WORD})?)?)
    | (?P<word>{_WORD})
    | (?P<dot>\.)
    | (?P<eol>\Z)
    | (?P<bad>.))""", re.VERBOSE)
# A triple line as the serializer writes it, when it holds no blank node:
# IRI subject and predicate, an IRI or literal object, then " .". Each
# group is spelled as `_TOKEN` reads the token that starts there.
_LINE = re.compile(
    r'(<[^>]*>) (<[^>]*>) (<[^>]*>|"[^"\\]*(?:\\.[^"\\]*)*"(?:@[A-Za-z0-9-]+|\^\^<[^>]*>)?) \.'
)
# BLANK_NODE_LABEL (N-Triples grammar [141s]): PN_CHARS_U or a digit, then
# PN_CHARS or '.', not ending in '.'. PN_CHARS_U is PN_CHARS_BASE, '_' or ':'.
_PN_CHARS_U = (
    "A-Za-z\u00C0-\u00D6\u00D8-\u00F6\u00F8-\u02FF\u0370-\u037D\u037F-\u1FFF\u200C-\u200D"
    "\u2070-\u218F\u2C00-\u2FEF\u3001-\uD7FF\uF900-\uFDCF\uFDF0-\uFFFD\U00010000-\U000EFFFF_:"
)
_PN_CHARS = _PN_CHARS_U + "\\-0-9\u00B7\u0300-\u036F\u203F-\u2040"
_BLANK_LABEL = re.compile(f"[{_PN_CHARS_U}0-9](?:[{_PN_CHARS}.]*[{_PN_CHARS}])?")
_LANGUAGE_TAG = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")


def _unescape(line: str, line_no: int, offset: int, body: str, iri: bool = False) -> str:
    """Decode the escapes of `body`, found at `offset` in `line`: those of a
    string literal, or only the \\u and \\U escapes (UCHAR) of an IRI, whose
    characters must be ones an IRI may hold."""
    if "\\" not in body:
        return body

    def decode(m: re.Match) -> str:
        at = offset + m.start() + 1  # the letter after the backslash
        esc, hexs = line[at], m[1] or m[2]
        if hexs:
            char = scalar_value(hexs)
            if char is None:
                raise _error(f"\\{esc}{hexs} is not a Unicode scalar value", line_no, at)
            if iri and IRI_FORBIDDEN.match(char):
                raise _error(f"\\{esc}{hexs} is a character an IRI may not hold", line_no, at)
            return char
        if esc in ECHAR and not iri:
            return ECHAR[esc]
        if esc in "uU":
            width = 4 if esc == "u" else 8
            hexs = line[at + 1:at + 1 + width]  # may run past the closing quote
            message = f"short \\{esc} escape" if len(hexs) < width else f"bad \\{esc} escape: {hexs!r}"
            raise _error(message, line_no, at)
        raise _error(f"unknown escape \\{esc}", line_no, at)

    return ESCAPE.sub(decode, body)


def _term(m: re.Match, line: str, line_no: int) -> Term:
    """The term one `_TOKEN` match reads."""
    kind, end = m.lastgroup, m.end()
    try:
        if kind == "iri":
            return Iri(_unescape(line, line_no, m.start("iri_text"), m["iri_text"], iri=True))
        if kind == "literal":
            lexical = _unescape(line, line_no, m.start("lexical"), m["lexical"])
            suffix, tag = m["suffix"], m["tag"]
            at = m.start("tag") if tag else end
            if suffix is None:
                return Literal(lexical)
            if suffix == "@":
                if not tag or not _LANGUAGE_TAG.fullmatch(tag):
                    raise _error("expected a language tag", line_no, at)
                return Literal(lexical, RDF_LANGSTRING, tag)
            if tag and tag[0] == "<":
                return Literal(lexical, Iri(_unescape(line, line_no, at + 1, tag[1:-1], iri=True)))
            if line[at:at + 1] == "<":
                raise _error("unterminated IRI", line_no, at + 1)
            raise _error("expected <datatype IRI>", line_no, at)
        start = m.start(kind)
        first = line[start:start + 1]
        if first == "<":
            raise _error("unterminated IRI", line_no, start + 1)
        if first == '"':
            rest = line[start + 1:]
            _unescape(line, line_no, start + 1, rest)
            odd = (len(rest) - len(rest.rstrip("\\"))) % 2
            raise _error("dangling escape" if odd else "unterminated string literal", line_no, len(line))
        if first == "_":
            word = m["word"]
            if not word.startswith("_:") or not _BLANK_LABEL.fullmatch(word, 2):
                raise _error(f"bad blank node: {word!r}", line_no, end)
            return BlankNode(word[2:])
        raise _error(f"unexpected character {first!r}", line_no, start)
    except TermError as exc:
        raise _error(str(exc), line_no, end) from None


def _expect(ch: str, m: re.Match, line: str, line_no: int) -> int:
    """The offset of the token `m` reads, which must start with `ch`."""
    start = m.start(m.lastgroup)
    if line[start:start + 1] != ch:
        raise _error(f"expected {ch!r}, found {line[start:start + 10]!r}", line_no, start)
    return start


def _triple(line: str, line_no: int, terms: dict[str, Term]) -> Triple:
    """Read `subject predicate object .`, optionally followed by a comment.

    `terms` maps each token text read so far in this parse to its term. A
    text that failed is never stored, so each occurrence is reported at its
    own line and column.
    """
    tokens = _TOKEN.finditer(line)
    spo = []
    for _ in range(3):
        m = next(tokens)
        text = m[m.lastgroup]
        term = terms.get(text)
        if term is None:
            term = terms[text] = _term(m, line, line_no)
        spo.append(term)
    dot = _expect(".", next(tokens), line, line_no)
    rest = line[dot + 1:].lstrip(" \t")
    if rest[:1] not in ("", "#"):
        raise _error("trailing content after '.'", line_no, len(line) - len(rest))
    subject, predicate, obj = spo
    if not isinstance(predicate, Iri):
        raise _error("predicate must be an IRI", line_no, 0)
    try:
        return Triple(subject, predicate, obj)  # type: ignore[arg-type]
    except TermError as exc:
        raise _error(str(exc), line_no, 0) from None


def _line_terms(m: re.Match, line: str, line_no: int, terms: dict[str, Term]) -> list[Term] | None:
    """The three terms of a line `_LINE` took, through the `terms` memo.

    A text not yet in the memo is read and checked by `_TOKEN` and `_term`,
    as the token walk reads it; None if `_TOKEN` reads a different token
    there, so that the line is left to the token walk.
    """
    spo = []
    for group, text in enumerate(m.groups(), start=1):
        term = terms.get(text)
        if term is None:
            token = _TOKEN.match(line, m.start(group))
            if token[token.lastgroup] != text:
                return None
            term = terms[text] = _term(token, line, line_no)
        spo.append(term)
    return spo


def _triples(lines: list[str]) -> Iterator[Triple]:
    """The triple of each line that is not blank or a comment."""
    terms: dict[str, Term] = {}  # token text -> its term, for this parse only
    line_match, get, new = _LINE.fullmatch, terms.get, tuple.__new__
    for line_no, line in enumerate(lines, start=1):
        m = line_match(line)
        if m is not None:
            # _LINE's subject and predicate are IRIs, so Triple's checks would pass
            s, p, o = m.groups()
            s, p, o = get(s), get(p), get(o)
            if s is not None and p is not None and o is not None:
                yield new(Triple, (s, p, o))
                continue
            spo = _line_terms(m, line, line_no, terms)
            if spo is not None:
                yield new(Triple, spo)
                continue
        if line.lstrip(" \t")[:1] not in ("", "#"):
            yield _triple(line, line_no, terms)


def parse_ntriples(text: str) -> Graph:
    """A graph of every triple line; blank and `#` comment lines are skipped.
    The lines are parsed as the graph's one `update` consumes them."""
    return Graph(_triples(text.replace("\r\n", "\n").replace("\r", "\n").split("\n")))


# ---------------------------------------------------------------------------
# Turtle export (written only)
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


def serialize_turtle(graph: Graph) -> str:
    """The default prefix header, a blank line, then one sorted full triple per line."""
    prefixes = default_prefixes()
    header = "".join(f"@prefix {p}: <{ns}> .\n" for p, ns in sorted(prefixes.entries.items()))
    body = sorted(
        f"{_term_to_turtle(t.subject, prefixes)} {_term_to_turtle(t.predicate, prefixes)} "
        f"{_term_to_turtle(t.object, prefixes)} ."
        for t in graph
    )
    return header + "\n" + "".join(line + "\n" for line in body)
