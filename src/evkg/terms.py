"""RDF term model: IRIs, literals, blank nodes, triples, and prefix handling.

Terms are immutable value objects; equality is exact (lexical, datatype,
language) so that graph membership follows RDF term semantics. Value-based
comparison (e.g. numeric equality of "01" and "1") belongs to the query
layer, not here.

Each term is a tagged tuple, as a `Triple` is: an `Iri` is ``(value,)``, a
`BlankNode` is ``("_:", label)`` and a `Literal` is ``(lexical, datatype,
language)``. The three kinds differ in length, so terms of different kinds
are never equal, and hashing and equality are CPython's tuple and str code,
with no Python-level `__hash__` or `__eq__` in the graph's index steps. A
term equals, and hashes like, the plain tuple of its fields:
``Iri("http://x/") == ("http://x/",)``. A term never equals a `str`.

An `Iri` is absolute: a scheme (`[A-Za-z][A-Za-z0-9+.-]*:`, RFC 3987 §2.2),
then none of the characters `_FORBIDDEN_IN_IRI` names. The N-Triples reader,
the query parser and the CSV readers build IRIs through it, so each refuses
a relative IRI such as ``<a>``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Union


class TermError(ValueError):
    """Raised for structurally invalid terms or triples."""


# ---------------------------------------------------------------------------
# Namespaces
# ---------------------------------------------------------------------------


class Namespace:
    """IRI namespace with attribute/index access to mint terms.

    ``GEO.Feature`` and ``EVR["connectortype.CHAdeMO"]`` both return Iri.
    An attribute IRI is built and checked once and then stored on the
    instance, so every ``GEO.Feature`` is one shared object (and
    ``RDF.type is RDF_TYPE``); the cache holds only names spelled in code.
    Item access, used for per-row resource IRIs, builds a new Iri each time.
    """

    def __init__(self, base: str):
        self.base = base

    def __getattr__(self, local: str) -> "Iri":
        if local.startswith("_"):
            raise AttributeError(local)
        iri = self.__dict__[local] = Iri(self.base + local)
        return iri

    def __getitem__(self, local: str) -> "Iri":
        return Iri(self.base + local)

    def __repr__(self) -> str:
        return f"Namespace({self.base!r})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
GEO = Namespace("http://www.opengis.net/ont/geosparql#")
SF = Namespace("http://www.opengis.net/ont/sf#")
KWG_ONT = Namespace("http://stko-kwg.geog.ucsb.edu/lod/ontology/")
EV_ONT = Namespace("http://evkg.org/ontology/")
EVR = Namespace("http://evkg.org/resource/")

# N-Triples IRIREF excludes U+0000-U+0020; `\s` adds the other Unicode blanks.
_FORBIDDEN_IN_IRI = r"\x00-\x20\s<>\"{}|^`\\"
IRI_FORBIDDEN = re.compile(f"[{_FORBIDDEN_IN_IRI}]")
# A scheme (RFC 3987 §2.2), then none of the forbidden characters.
_ABSOLUTE_IRI = re.compile(rf"[A-Za-z][A-Za-z0-9+.\-]*:[^{_FORBIDDEN_IN_IRI}]*")


class Iri(tuple):
    """An absolute IRI: the 1-tuple ``(value,)``. Equality is exact string equality."""

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not _ABSOLUTE_IRI.fullmatch(value):
            if not value:
                raise TermError("IRI must be non-empty")
            if IRI_FORBIDDEN.search(value):
                raise TermError(f"IRI contains forbidden character: {value!r}")
            raise TermError(f"IRI is not absolute (no scheme): {value!r}")
        return tuple.__new__(cls, (value,))

    value = property(itemgetter(0))

    def __getnewargs__(self) -> tuple[str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"<{self.value}>"


XSD_STRING = XSD.string
XSD_INTEGER = XSD.integer
XSD_DECIMAL = XSD.decimal
XSD_DOUBLE = XSD.double
XSD_GYEAR = XSD.gYear
XSD_BOOLEAN = XSD.boolean
RDF_LANGSTRING = RDF.langString
RDF_TYPE = RDF.type
WKT_LITERAL = GEO.wktLiteral

# ECHAR, the string escapes of N-Triples (grammar [153s]) and SPARQL 1.1
# (grammar [160]): the character after the backslash -> the one it stands for.
ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
# One escape in a string or IRI body: \u or \U with its hex digits (UCHAR),
# or a backslash and any other character.
ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)


def scalar_value(hexs: str) -> Optional[str]:
    """The character the hex digits of a UCHAR escape name, or None when
    they name no Unicode scalar value: a surrogate or a code past U+10FFFF."""
    code = int(hexs, 16)
    return None if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF else chr(code)


# Lexical forms, matched whole (`fullmatch`) and ASCII only: `\d` would take
# any Unicode digit and `$` a trailing newline. xsd:double follows XSD 1.1.
_DECIMAL = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"

# datatype -> (pattern its lexical form must match, TermError message).
# rdf:langString admits any lexical form but requires a language tag.
_LANGSTRING_FORM = (None, "rdf:langString literal requires a language tag")
_LEXICAL_FORMS = {
    RDF_LANGSTRING: _LANGSTRING_FORM,
    XSD_GYEAR: (re.compile(r"[0-9]{4}"), "xsd:gYear needs a 4-digit lexical form: {!r}"),
    XSD_INTEGER: (re.compile(r"[+-]?[0-9]+"), "not a valid xsd:integer lexical form: {!r}"),
    XSD_DECIMAL: (re.compile(_DECIMAL), "not a valid xsd:decimal lexical form: {!r}"),
    XSD_DOUBLE: (
        re.compile(rf"{_DECIMAL}(?:[eE][+-]?[0-9]+)?|[+-]?INF|NaN"),
        "not a valid xsd:double lexical form: {!r}",
    ),
}


class Literal(tuple):
    """A typed literal: the 3-tuple ``(lexical, datatype, language)``.

    Plain literals default to xsd:string. A language tag is only admitted
    together with rdf:langString, never with another datatype.
    """

    __slots__ = ()

    def __new__(
        cls, lexical: str, datatype: Iri = XSD_STRING, language: Optional[str] = None
    ) -> "Literal":
        form = _LEXICAL_FORMS.get(datatype)
        if form is _LANGSTRING_FORM:
            if not language:
                raise TermError(form[1])
        elif language is not None:
            raise TermError("language tag requires rdf:langString datatype")
        elif form is not None and not form[0].fullmatch(lexical):
            raise TermError(form[1].format(lexical))
        return tuple.__new__(cls, (lexical, datatype, language))

    lexical = property(itemgetter(0))
    datatype = property(itemgetter(1))
    language = property(itemgetter(2))

    def __getnewargs__(self) -> tuple[str, Iri, Optional[str]]:
        return tuple(self)

    def __repr__(self) -> str:
        if self.language:
            return f'"{self.lexical}"@{self.language}'
        if self.datatype == XSD_STRING:
            return f'"{self.lexical}"'
        return f'"{self.lexical}"^^<{self.datatype.value}>'


class BlankNode(tuple):
    """A blank node: the 2-tuple ``("_:", label)``.

    Labels are expected to be unique within one graph load.
    """

    __slots__ = ()

    def __new__(cls, label: str) -> "BlankNode":
        return tuple.__new__(cls, ("_:", label))

    label = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[str]:
        return (self[1],)

    def __repr__(self) -> str:
        return f"_:{self.label}"


Term = Union[Iri, Literal, BlankNode]


class Triple(tuple):
    """One RDF statement. Literals may only appear in object position.

    A validated ``(subject, predicate, object)`` tuple: it equals, and
    hashes like, the plain 3-tuple of the same terms. The store yields
    triples it checked on insert through ``tuple.__new__(Triple, ...)``,
    without checking them again.
    """

    __slots__ = ()

    def __new__(cls, subject: Union[Iri, BlankNode], predicate: Iri, object: Term) -> "Triple":
        if isinstance(subject, Literal):
            raise TermError("literal in subject position")
        if not isinstance(subject, (Iri, BlankNode)):
            raise TermError(f"bad subject: {subject!r}")
        if not isinstance(predicate, Iri):
            raise TermError(f"predicate must be an IRI: {predicate!r}")
        if not isinstance(object, (Iri, Literal, BlankNode)):
            raise TermError(f"bad object: {object!r}")
        return tuple.__new__(cls, (subject, predicate, object))

    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))

    def __getnewargs__(self) -> tuple[Term, Term, Term]:
        return tuple(self)


# ---------------------------------------------------------------------------
# CURIEs
# ---------------------------------------------------------------------------


class UnknownPrefixError(KeyError):
    def __init__(self, prefix: str):
        super().__init__(prefix)
        self.prefix = prefix

    def __str__(self) -> str:
        return f"unknown prefix: {self.prefix!r}"


# Local name of a CURIE, a subset of Turtle's PN_LOCAL: may contain dots but
# must not end with one, and may contain '-' but must not start with it.
_LOCAL_RE = re.compile(r"^[A-Za-z0-9_](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?$")


@dataclass
class PrefixTable:
    """prefix -> namespace map with CURIE expansion and IRI compaction."""

    entries: dict[str, str] = field(default_factory=dict)

    def register(self, prefix: str, namespace: str) -> None:
        self.entries[prefix] = namespace

    def expand(self, curie: str) -> Iri:
        prefix, sep, local = curie.partition(":")
        if not sep:
            raise TermError(f"not a CURIE (missing colon): {curie!r}")
        if prefix not in self.entries:
            raise UnknownPrefixError(prefix)
        return Iri(self.entries[prefix] + local)

    def compact(self, iri: Iri) -> Optional[str]:
        """Return pfx:local for the longest matching namespace, or None.

        Refuses locals that would not survive a round trip (empty, or
        containing characters outside the CURIE local-name subset).
        """
        best: Optional[tuple[str, str]] = None
        for prefix, ns in self.entries.items():
            if iri.value.startswith(ns) and (best is None or len(ns) > len(best[1])):
                best = (prefix, ns)
        if best is None:
            return None
        local = iri.value[len(best[1]):]
        if not _LOCAL_RE.match(local):
            return None
        return f"{best[0]}:{local}"


def default_prefixes() -> PrefixTable:
    """The prefixes every graph and query in this toolkit understands."""
    return PrefixTable(
        {
            "rdf": RDF.base,
            "rdfs": RDFS.base,
            "owl": OWL.base,
            "xsd": XSD.base,
            "geo": GEO.base,
            "sf": SF.base,
            "kwg-ont": KWG_ONT.base,
            "ev-ont": EV_ONT.base,
            "evr": EVR.base,
        }
    )


# ---------------------------------------------------------------------------
# Numeric value handling shared by serialization and the query layer
# ---------------------------------------------------------------------------

# Non-terminating decimal divisions are rounded to this many fractional
# digits when rendered back to a lexical form.
DECIMAL_SCALE = 12


_DECIMAL_FORM = re.compile(_DECIMAL).fullmatch


def _decimal(text: str) -> Fraction:
    """An xsd:decimal's value: a lexical form that matches `_DECIMAL` is its
    digits over a power of ten; any other form (built unchecked) is read by
    `Fraction`, as are digits too many for one `int` conversion."""
    if _DECIMAL_FORM(text) is not None:
        whole, _, frac = text.partition(".")
        try:
            return Fraction(int(whole + frac), 10 ** len(frac))
        except ValueError:
            pass
    return Fraction(text)


# datatype -> the parser of its lexical form's value (see `numeric_value`)
_NUMERIC_PARSERS = {
    XSD_INTEGER: int,
    XSD_GYEAR: int,
    XSD_DECIMAL: _decimal,
    XSD_DOUBLE: float,
}


def numeric_value(lit: Literal) -> Union[int, Fraction, float, None]:
    """The value of a numeric literal, or None if it is not numeric.

    The literal's datatype picks the parser of its lexical form from one
    table, `_NUMERIC_PARSERS`; a datatype not in it, a language tag or a
    form its parser refuses gives None. The value's Python type is its XSD
    kind: `int` for xsd:integer (and xsd:gYear, so that year comparisons
    work), `Fraction` for xsd:decimal and `float` for xsd:double. Python's
    int -> Fraction -> float coercion is the integer -> decimal -> double
    promotion of XPath F&O 3.1 §4.2, so arithmetic on these values yields
    a value of the promoted kind.
    """
    lexical, datatype, language = lit
    parse = _NUMERIC_PARSERS.get(datatype)
    if parse is None or language is not None:
        return None
    try:
        return parse(lexical)
    except (ValueError, ZeroDivisionError):
        return None


def format_decimal(value: Fraction) -> str:
    """Canonical xsd:decimal lexical form.

    Exact when the value terminates in base 10; otherwise rounded to the
    nearest value with DECIMAL_SCALE fractional digits. That rounding has no
    tie to break: the value halfway between k / 10**DECIMAL_SCALE and the
    next such value is (2k + 1) / (2 * 10**DECIMAL_SCALE), which terminates.
    Always carries a decimal point; zero carries no sign.
    """
    num, den = abs(value.numerator), value.denominator
    scale = (den & -den).bit_length() - 1  # the factors of 2 in `den`
    d = den >> scale
    fives = 0
    while d % 5 == 0:
        d //= 5
        fives += 1
    scale = max(scale, fives)
    if d != 1:
        scale = DECIMAL_SCALE
        digits = (2 * num * 10**scale + den) // (2 * den)
    else:
        digits = num * 10**scale // den
    sign = "-" if value < 0 and digits else ""
    text = str(digits).rjust(scale + 1, "0")
    if scale == 0:
        return f"{sign}{text}.0"
    whole, frac = text[:-scale], text[-scale:]
    frac = frac.rstrip("0") or "0"
    return f"{sign}{whole}.{frac}"


def numeric_literal(value: Union[int, Fraction, float]) -> Literal:
    """Render a computed numeric value as a canonical literal of the kind
    its Python type names (see `numeric_value`).

    Every form written here is a valid lexical form of its datatype by
    construction (`repr` of a finite float, ``INF``/``-INF``/``NaN``,
    `format_decimal`, `str` of an int), so the literal is built unchecked,
    as the store builds the triples it already checked."""
    if isinstance(value, float):
        datatype = XSD_DOUBLE
        if math.isfinite(value):
            lexical = repr(value)
        else:
            lexical = "NaN" if math.isnan(value) else ("INF" if value > 0 else "-INF")
    elif isinstance(value, int):  # before Fraction, whose isinstance goes through ABCMeta
        lexical, datatype = str(value), XSD_INTEGER
    else:
        lexical, datatype = format_decimal(value), XSD_DECIMAL
    return tuple.__new__(Literal, (lexical, datatype, None))
