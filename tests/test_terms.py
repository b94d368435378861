from __future__ import annotations

import copy
import decimal
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evkg.terms import (
    EV_ONT,
    EVR,
    RDF,
    RDF_LANGSTRING,
    RDF_TYPE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    XSD_STRING,
    DECIMAL_SCALE,
    BlankNode,
    Iri,
    Literal,
    TermError,
    Triple,
    UnknownPrefixError,
    default_prefixes,
    format_decimal,
    numeric_literal,
    numeric_value,
)
from evkg.vocabulary import registry


def test_iri_rejects_whitespace_and_brackets():
    for bad in ("", "http://x/ y", "http://x/<z>", "a\tb"):
        with pytest.raises(TermError):
            Iri(bad)


def test_iri_rejects_every_character_up_to_space():
    # N-Triples IRIREF excludes U+0000-U+0020, C0 controls that `\s` misses included.
    for code in range(0x21):
        with pytest.raises(TermError, match="forbidden character"):
            Iri(f"http://x/{chr(code)}a")


def test_iri_requires_a_scheme():
    for good in ("urn:x", "http://x/", "a+b.c-9:", "Z:"):
        assert Iri(good).value == good
    for bad in ("x", "zipCodeArea.95814", "/a/b", "#frag", ":x", "9a:x", "-a:x", "a_b:x"):
        with pytest.raises(TermError, match="IRI is not absolute"):
            Iri(bad)
    with pytest.raises(TermError, match="forbidden character"):
        Iri("a b")


def test_literal_language_requires_langstring():
    with pytest.raises(TermError):
        Literal("hi", XSD_STRING, "en")


def test_gyear_needs_four_digits():
    Literal("2019", XSD_GYEAR)
    for bad in ("19", "02019", "20x9"):
        with pytest.raises(TermError):
            Literal(bad, XSD_GYEAR)


def test_numeric_lexical_forms_validated():
    Literal("42", XSD_INTEGER)
    with pytest.raises(TermError):
        Literal("abc", XSD_INTEGER)


# Forms that Python's int(), Fraction() or float() read but XSD does not:
# underscores, blanks, other scripts' digits, a trailing newline, and the
# lower-case or long spellings of the special doubles.
_NOT_XSD = ["1_0", " 1", "1 ", "\u0661", "\u0663", "12\n", "+", ".", ""]


@pytest.mark.parametrize("datatype, good, bad", [
    (XSD_INTEGER, ["0", "-7", "+0042"], [*_NOT_XSD, "1.0"]),
    (XSD_DECIMAL, ["1", "-1.", ".5", "+3.25"], [*_NOT_XSD, "1e3", "INF"]),
    (XSD_DOUBLE, ["1", "-1.", ".5e-3", "2E+10", "INF", "+INF", "-INF", "NaN"],
     [*_NOT_XSD, "nan", "inf", "-Infinity", "1e", "e3", "NAN", "+NaN"]),
    (XSD_GYEAR, ["2020", "0999"], [*_NOT_XSD, "\u0662\u0660\u0662\u0660", "2020\n", "-2020"]),
])
def test_numeric_lexical_forms_follow_xsd(datatype, good, bad):
    for lexical in good:
        assert numeric_value(Literal(lexical, datatype)) is not None, lexical
    for lexical in bad:
        with pytest.raises(TermError):
            Literal(lexical, datatype)


def test_non_finite_doubles_render_in_xsd_form():
    assert numeric_literal(math.inf) == Literal("INF", XSD_DOUBLE)
    assert numeric_literal(-math.inf) == Literal("-INF", XSD_DOUBLE)
    assert numeric_literal(math.nan) == Literal("NaN", XSD_DOUBLE)
    assert numeric_literal(1e300) == Literal("1e+300", XSD_DOUBLE)


def test_numeric_literal_is_the_checked_literal():
    """Seeded values of every kind: the unchecked literal `numeric_literal`
    builds equals the one `Literal` builds after checking its lexical form,
    and has the datatype its Python type names."""
    rng = random.Random(0x11BE)
    values = [0, -7, 10**40, -(10**60), Fraction(1, 8), Fraction(-2, 3), Fraction(10**30, 7),
              1e16, 1e-7, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
              math.inf, -math.inf, math.nan]
    for _ in range(500):
        values += [
            rng.randint(-(10 ** rng.randint(1, 50)), 10 ** rng.randint(1, 50)),
            Fraction(rng.randint(-10**12, 10**12), rng.choice([2**rng.randint(0, 30),
                                                             rng.randint(1, 10**9)])),
            rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-300, 300),
        ]
    kinds = {int: XSD_INTEGER, Fraction: XSD_DECIMAL, float: XSD_DOUBLE}
    for value in values:
        lit = numeric_literal(value)
        assert type(lit) is Literal and lit.datatype == kinds[type(value)], value
        assert lit == Literal(lit.lexical, lit.datatype) and lit.language is None, value
        if not isinstance(value, Fraction) and value == value:  # exact kinds, NaN aside
            assert numeric_value(lit) == value, value


@pytest.mark.parametrize("s, p, o, message", [
    (Literal("x"), EV_ONT.hasAmount, Literal("1", XSD_INTEGER), "literal in subject position"),
    ("http://evkg.org/resource/s", EV_ONT.p, EVR["o"], "bad subject"),
    (EVR["s"], Literal("p"), EVR["o"], "predicate must be an IRI"),
    (EVR["s"], BlankNode("p"), EVR["o"], "predicate must be an IRI"),
    (EVR["s"], EV_ONT.p, None, "bad object"),
    (EVR["s"], EV_ONT.p, "o", "bad object"),
])
def test_triple_rejects_each_bad_position(s, p, o, message):
    with pytest.raises(TermError, match=message):
        Triple(s, p, o)  # type: ignore[arg-type]


def test_triple_is_a_read_only_tuple_of_its_terms():
    s, p, o = EVR["s"], EV_ONT.hasAmount, Literal("1", XSD_INTEGER)
    t = Triple(s, p, o)
    assert (t.subject, t.predicate, t.object) == (s, p, o)
    assert t == (s, p, o) and hash(t) == hash((s, p, o))
    assert copy.copy(t) == t and type(copy.copy(t)) is Triple
    for name in ("subject", "predicate", "object", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, s)
    assert t == (s, p, o)


def test_terms_of_different_kinds_never_equal():
    iri, blank, plain = Iri("urn:x"), BlankNode("urn:x"), Literal("urn:x")
    assert iri != blank and iri != plain and blank != plain
    assert len({iri, blank, plain}) == 3
    for term in (iri, blank, plain, Literal("1", XSD_INTEGER)):
        assert term != "urn:x" and term != "1"
        assert term not in {"urn:x", "1"}


@pytest.mark.parametrize("make", [
    lambda: Iri(EVR.base + "s"),
    lambda: BlankNode("b0"),
    lambda: Literal("chargers"),
    lambda: Literal("12", XSD_INTEGER),
    lambda: Literal("bonjour", RDF_LANGSTRING, "fr"),
])
def test_terms_are_values(make):
    term, again = make(), make()
    assert term == again and hash(term) == hash(again) and {term: 1}[again] == 1
    assert term == tuple(term) and hash(term) == hash(tuple(term))
    for other in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert other == term and type(other) is type(term) and repr(other) == repr(term)


def test_term_fields_are_read_only():
    for term, name in ((Iri("http://x/"), "value"), (Literal("a"), "lexical"),
                       (Literal("a"), "datatype"), (BlankNode("b"), "label")):
        with pytest.raises(AttributeError):
            setattr(term, name, "y")
        with pytest.raises(AttributeError):
            term.other = "y"


def test_term_reprs():
    assert repr(Iri("http://x/a")) == "<http://x/a>"
    assert repr(BlankNode("b1")) == "_:b1"
    assert repr(Literal("hi")) == '"hi"'
    assert repr(Literal("hi", RDF_LANGSTRING, "en-GB")) == '"hi"@en-GB'
    assert repr(Literal("7", XSD_INTEGER)) == '"7"^^<http://www.w3.org/2001/XMLSchema#integer>'


def test_terms_construct_by_keyword():
    assert Literal(lexical="1", datatype=XSD_INTEGER) == Literal("1", XSD_INTEGER)
    assert Literal(lexical="hi", datatype=RDF_LANGSTRING, language="en").language == "en"
    assert Literal(lexical="x").datatype == XSD_STRING
    assert Iri(value="http://x/").value == "http://x/"
    assert BlankNode(label="b").label == "b"


@pytest.mark.parametrize("args, message", [
    (("hi", XSD_STRING, "en"), "language tag requires rdf:langString datatype"),
    (("1.5", XSD_INTEGER, "en"), "language tag requires rdf:langString datatype"),
    (("hi", RDF_LANGSTRING), "rdf:langString literal requires a language tag"),
    (("hi", RDF_LANGSTRING, ""), "rdf:langString literal requires a language tag"),
    (("19", XSD_GYEAR), "xsd:gYear needs a 4-digit lexical form: '19'"),
    (("1.5", XSD_INTEGER), "not a valid xsd:integer lexical form: '1.5'"),
    (("1e3", XSD_DECIMAL), "not a valid xsd:decimal lexical form: '1e3'"),
    (("inf", XSD_DOUBLE), "not a valid xsd:double lexical form: 'inf'"),
])
def test_literal_error_messages(args, message):
    with pytest.raises(TermError) as exc:
        Literal(*args)
    assert str(exc.value) == message


def test_expand_curie_concatenates():
    prefixes = default_prefixes()
    assert prefixes.expand("ev-ont:ChargingStation") == EV_ONT.ChargingStation


def test_expand_unknown_prefix_names_it():
    prefixes = default_prefixes()
    with pytest.raises(UnknownPrefixError) as exc:
        prefixes.expand("zzz:foo")
    assert "zzz" in str(exc.value)


def test_compact_expand_identity_over_registry():
    # Derived: iterate every IRI the vocabulary registry knows about.
    prefixes = default_prefixes()
    reg = registry()
    iris = (
        [c.iri for c in reg.classes]
        + [p.iri for p in reg.properties]
        + [i.iri for i in reg.individuals]
    )
    for iri in iris:
        curie = prefixes.compact(iri)
        assert curie is not None, iri
        assert prefixes.expand(curie) == iri


def test_compact_picks_longest_namespace():
    prefixes = default_prefixes()
    prefixes.register("evc", EVR.base + "connectortype.")
    assert prefixes.compact(EVR["connectortype.CHAdeMO"]) == "evc:CHAdeMO"


def test_compact_refuses_unroundtrippable_local():
    prefixes = default_prefixes()
    assert prefixes.compact(Iri(EVR.base + "a/b")) is None
    assert prefixes.compact(Iri(EVR.base + "a.")) is None
    assert prefixes.compact(Iri(EVR.base + "-a")) is None
    assert prefixes.compact(Iri(EVR.base + "a-")) == "evr:a-"


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_format_decimal_round_trips_terminating(num, den):
    value = Fraction(num, den)
    text = format_decimal(value)
    assert "." in text
    parsed = Fraction(text)
    # Terminating values render exactly; others round at 12 digits.
    if Fraction(num, den).denominator % 2 and Fraction(num, den).denominator % 5:
        pass
    assert abs(parsed - value) <= Fraction(1, 10**12) / 2


def test_format_decimal_agrees_with_stdlib_decimal():
    """Seeded fractions, negative and large ones among them: a value that
    terminates in base 10 renders exactly, any other as stdlib `decimal`
    rounds it half-even at DECIMAL_SCALE fractional digits."""
    rng = random.Random(0xDEC1)
    context = decimal.Context(prec=200, rounding=decimal.ROUND_HALF_EVEN)
    quantum = decimal.Decimal(1).scaleb(-DECIMAL_SCALE)
    counts = {True: 0, False: 0}
    for _ in range(2000):
        num = rng.randint(-(10 ** rng.randint(1, 40)), 10 ** rng.randint(1, 40))
        if rng.random() < 0.4:
            den = 2 ** rng.randint(0, 40) * 5 ** rng.randint(0, 40)
        else:
            den = rng.randint(1, 10 ** rng.randint(1, 25))
        value = Fraction(num, den)
        text = format_decimal(value)
        assert re.fullmatch(r"-?[0-9]+\.[0-9]+", text), text
        rest = value.denominator
        for factor in (2, 5):
            while rest % factor == 0:
                rest //= factor
        terminates = rest == 1
        counts[terminates] += 1
        if terminates:
            assert Fraction(text) == value, (value, text)
        else:
            exact = context.divide(value.numerator, value.denominator)
            assert decimal.Decimal(text) == exact.quantize(quantum, context=context), (value, text)
    assert min(counts.values()) > 500, counts


@pytest.mark.parametrize("value, text", [
    (Fraction(-1, 3 * 10**13), "0.0"),
    (Fraction(-1, 3 * 10**12), "0.0"),
    (Fraction(-2, 3 * 10**12), "-0.000000000001"),
    (Fraction(0), "0.0"),
])
def test_format_decimal_writes_zero_without_a_sign(value, text):
    # A negative value that rounds to zero at DECIMAL_SCALE digits is zero.
    assert format_decimal(value) == text


def test_numeric_value_kinds():
    seven = numeric_value(Literal("7", XSD_INTEGER))
    year = numeric_value(Literal("2021", XSD_GYEAR))
    assert (type(seven), seven, type(year), year) == (int, 7, int, 2021)
    assert numeric_value(Literal("not a number")) is None


def test_namespace_shares_attribute_iris_but_not_items():
    assert EV_ONT.Foo is EV_ONT.Foo
    assert RDF.type is RDF_TYPE
    cached = dict(EVR.__dict__)
    assert EVR["x"] == EVR["x"] and EVR["x"] is not EVR["x"]
    assert EVR.__dict__ == cached
    with pytest.raises(AttributeError):
        EV_ONT._x
    with pytest.raises(TermError):
        getattr(EV_ONT, "not an iri")
    assert "not an iri" not in EV_ONT.__dict__
