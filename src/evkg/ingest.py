"""Triplification pipelines: CSV records in, ontology-conformant subgraphs out.

Input formats (RFC-4180 CSV, UTF-8, header row required):

* registrations.csv: vin8,zip,model_year,registration_year,make,model,
  technology,manufacturer,use_case,weight_level,charger_types,connector_types
  (the last two are |-separated token lists, e.g. "LEVEL2|DCFC"). A row is
  a `RegistrationRecord`: vin8, zip, registration year and its product, one
  `ProductKey` built from the other nine columns. A product is built and
  checked once per distinct set of those nine cells, and every record with
  the same cells shares that object; a ProductKey computes its hash once.
  Registration rows are counted into one collection per (zip, year,
  product), and the products written are the distinct ones among the
  collections.
* stations.csv: station_id,name,lon,lat,zip,access,network,operating_hours,
  open_date,pricing,parking_restriction,charger_groups
  (charger_groups: |-separated charger:connector:count triplets)
* transmission.csv: asset_id,kind,wkt,voltage_class,min_voltage,max_voltage,
  summer_capacity,winter_capacity,operating_capacity,status,owner
* zip_areas.csv: zip,wkt,state,county,kwg_sameas

Each source's columns are declared once, in a table that pairs each column
with the converter of its lexical kind: verbatim text, optional text (empty
is None), a token set, or a number read only in its XSD lexical form
(`xsd:gYear`, `xsd:double`, `xsd:integer`, checked by `Literal`; a
transmission value, which may be empty, keeps its checked text). The
readers share one row loop, `_read_records`, which passes the converted
cells to the record. A row whose cell a converter rejects (the message
names the column), that violates a record invariant, or whose cell count
differs from the header's is skipped and reported with its row number; it
never aborts a load. A file that is not UTF-8, or a row the csv module
cannot read (a cell over its 131,072-character field limit), is an
`IngestError` naming the file (and row), which fails the whole load.
Source files repeat rows (29,464 rows of the k=8 bench registrations hold
376 distinct lines), so `_read_records` parses and builds a valid row that
fits on one line once per distinct line text and counts its repeats there.
Each reader returns every distinct record once with its row count, in
first-row order; a skipped line is read again at every repeat and reported
with its own row number. `aggregate_registrations` sums those counts per
collection, the other triplifiers take the same pairs and write each
distinct record once (a zip given by more than one row fails the load),
and the load report counts rows. Source strings are preserved
byte-exactly (including whitespace), because literal matching in queries
is exact.

Each triplifier returns the triples it emits, and `build_graph` inserts
them into its one graph. An individual that many records link to (a state,
a make, a network, a serving status) is minted once per triplifier call
from its (kind, label, class), with its type and label; later records
write only their link. A model type is written once per (make, model,
model year). The triplifiers build their triples from terms they made
themselves, so they skip `Triple`'s term checks; a test pins that every
triple they emit would pass them. IRIs are minted deterministically from
natural keys, so re-ingesting the same inputs yields a byte-identical
graph. Uniqueness is checked at minting: an IRI collision, or two valid
rows with one zip (`DuplicateZip`), fails the load.

Zip and transmission records keep the geometry they parse while validating
(their derived `geometry` field); the triplifiers write it as canonical WKT
and never parse the source text again. Spatial materialization works from
that canonical `geo:asWKT` literal, not the record geometry:
`geometry.write_wkt` rounds every coordinate to 9 decimals, so the literal
is the geometry the snapshot states, and `evkg materialize` on a stored
snapshot takes the same path. `build_graph` hands it, keyed by the text the
triplifiers wrote, every zip, transmission and station geometry whose text
parses back to an equal geometry (which `write_wkt` decides in the walk
that writes the text), so the WKT of each is written once and parsed once;
a literal that rounding changed is parsed from the snapshot text.
"""

from __future__ import annotations

import csv
import hashlib
import math
import operator
import re
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from . import geometry, materialize
from .graph import Graph
from .terms import (
    EV_ONT,
    EVR,
    GEO,
    KWG_ONT,
    OWL,
    RDF,
    RDFS,
    SF,
    WKT_LITERAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    Iri,
    Literal,
    Term,
    TermError,
    Triple,
)
from .vocabulary import individuals_graph


R = TypeVar("R")
# Each distinct record a reader built, with the number of rows that gave it.
Counted = list[tuple[R, int]]


class IngestError(ValueError):
    pass


class UnknownVocabularyToken(IngestError):
    def __init__(self, token: str, kind: str):
        super().__init__(f"unknown {kind} token: {token!r}")
        self.token = token


class DuplicateZip(IngestError):
    def __init__(self, zip_code: str):
        super().__init__(f"duplicate zip code area: {zip_code}")


CHARGER_TOKENS = {
    "LEVEL1": EVR["chargertype.Level1Charger"],
    "LEVEL2": EVR["chargertype.Level2Charger"],
    "DCFC": EVR["chargertype.DCFastCharger"],
}

CONNECTOR_TOKENS = {
    "J1772": EVR["connectortype.J1772"],
    "J1772COMBO": EVR["connectortype.J1772COMBO"],
    "CHADEMO": EVR["connectortype.CHAdeMO"],
    "TESLA": EVR["connectortype.TESLA"],
    "NEMA": EVR["connectortype.NEMA"],
}

# Matched whole and ASCII only: `\d` takes any Unicode digit, `$` a final newline.
_ZIP_RE = re.compile(r"[0-9]{5}")
_SANITIZE_RE = re.compile(r"[^A-Za-z0-9_\-]+")


def _sanitize(value: str) -> str:
    cleaned = _SANITIZE_RE.sub("", value)
    if not cleaned:
        raise IngestError(f"cannot build an IRI fragment from {value!r}")
    return cleaned


def _key_hash(*parts: str) -> str:
    return hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()[:8]


# ---------------------------------------------------------------------------
# Record types
# ---------------------------------------------------------------------------


def _check_year(year: int) -> None:
    if not 1000 <= year <= 9999:
        raise IngestError(f"year must be 4 digits: {year}")


def _check_tokens(tokens: Iterable[str], known: dict[str, Iri], kind: str) -> None:
    for token in sorted(tokens):
        if token not in known:
            raise UnknownVocabularyToken(token, kind)


@dataclass(frozen=True)
class ProductKey:
    """Full product identity; one product individual per distinct key."""

    make: str
    model: str
    model_year: int
    technology: str  # BEV | PHEV
    manufacturer: str
    use_case: str
    weight_level: str
    charger_types: frozenset[str]
    connector_types: frozenset[str]
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_year(self.model_year)
        if self.technology not in ("BEV", "PHEV"):
            raise IngestError(f"technology must be BEV or PHEV: {self.technology!r}")
        _check_tokens(self.charger_types, CHARGER_TOKENS, "charger type")
        _check_tokens(self.connector_types, CONNECTOR_TOKENS, "connector type")
        # The hash the generated __hash__ would rebuild on every dict step.
        identity = (self.make, self.model, self.model_year, self.technology, self.manufacturer,
                    self.use_case, self.weight_level, self.charger_types, self.connector_types)
        object.__setattr__(self, "_hash", hash(identity))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class RegistrationRecord:
    vin8: str
    zip: str
    registration_year: int
    product: ProductKey

    def __post_init__(self):
        if len(self.vin8) != 8:
            raise IngestError(f"vin8 must be exactly 8 characters: {self.vin8!r}")
        if not _ZIP_RE.fullmatch(self.zip):
            raise IngestError(f"zip must be 5 digits: {self.zip!r}")
        _check_year(self.registration_year)


@dataclass(frozen=True)
class ChargerGroup:
    charger_type: str
    connector_type: str
    count: int

    def __post_init__(self):
        _check_tokens((self.charger_type,), CHARGER_TOKENS, "charger type")
        _check_tokens((self.connector_type,), CONNECTOR_TOKENS, "connector type")
        if self.count < 1:
            raise IngestError(f"charger group count must be >= 1: {self.count}")


@dataclass(frozen=True)
class StationRecord:
    station_id: str
    name: str
    lon: float
    lat: float
    zip: str
    access: str  # public | private
    network: Optional[str]
    operating_hours: str
    open_date: Optional[str]
    open_year: int
    pricing: Optional[str]
    parking_restriction: Optional[str]
    charger_groups: tuple[ChargerGroup, ...]

    def __post_init__(self):
        for name, value in (("lon", self.lon), ("lat", self.lat)):
            if not math.isfinite(value):
                raise IngestError(f"{name} must be finite: {value}")
        if self.access not in ("public", "private"):
            raise IngestError(f"access must be public or private: {self.access!r}")
        if not 1000 <= self.open_year <= 9999:
            raise IngestError(f"open_year must be 4 digits: {self.open_year}")


@dataclass(frozen=True)
class TransmissionAssetRecord:
    asset_id: str
    kind: str  # line | substation | plant
    geometry_wkt: str
    voltage_class: Optional[str] = None
    min_voltage: Optional[str] = None
    max_voltage: Optional[str] = None
    summer_capacity: Optional[str] = None
    winter_capacity: Optional[str] = None
    operating_capacity: Optional[str] = None
    status: Optional[str] = None
    owner: Optional[str] = None
    geometry: geometry.Geometry = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("line", "substation", "plant"):
            raise IngestError(f"kind must be line|substation|plant: {self.kind!r}")
        geom = geometry.parse_wkt(self.geometry_wkt)
        if self.kind == "line":
            if not isinstance(geom, (geometry.LineString, geometry.MultiLineString)):
                raise IngestError(f"asset {self.asset_id}: lines need LineString geometry")
        elif not isinstance(geom, geometry.Point):
            raise IngestError(f"asset {self.asset_id}: {self.kind}s need Point geometry")
        object.__setattr__(self, "geometry", geom)


@dataclass(frozen=True)
class ZipAreaRecord:
    zip: str
    polygon_wkt: str
    state_label: str
    county_label: str
    kwg_sameas: Optional[str] = None
    geometry: geometry.Geometry = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not _ZIP_RE.fullmatch(self.zip):
            raise IngestError(f"zip must be 5 digits: {self.zip!r}")
        geom = geometry.parse_wkt(self.polygon_wkt)
        if not isinstance(geom, (geometry.Polygon, geometry.MultiPolygon)):
            raise IngestError(f"zip {self.zip}: area geometry must be a polygon")
        object.__setattr__(self, "geometry", geom)


@dataclass(frozen=True)
class RegistrationCollection:
    zip: str
    year: int
    product: ProductKey
    amount: int


@dataclass
class RowIssue:
    row: int
    message: str


@dataclass
class LoadReport:
    counts: dict[str, int] = field(default_factory=dict)
    skipped: list[RowIssue] = field(default_factory=list)

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


# ---------------------------------------------------------------------------
# CSV readers
# ---------------------------------------------------------------------------


def _read_records(
    path: Path, required: Sequence[str], build: Callable[..., R]
) -> tuple[Counted[R], list[RowIssue]]:
    """Return (each distinct `build(*cells)` outcome with the number of data
    rows that gave it, in first-row order, with cells in `required` order;
    the skipped rows). Blank lines are not rows. A file that cannot be read
    or is not UTF-8 fails the load naming it. A cell longer than the csv
    module's field limit (131,072 characters) fails the load naming its row.

    The outcome of a row that begins and ends on one line is kept by the
    line's text, and each repeat of that line adds one to its count: csv
    starts every record from the same state, so that line parses the same
    wherever a record starts with it. A record spanning several lines (a
    quoted cell with a line break) is parsed every time and counted once;
    csv pulls its continuation lines from the handle, so they are never
    looked up. A skipped line is read again at every repeat and reported
    with its own row number."""
    counted: list[list] = []  # [record, rows], in first-row order
    issues: list[RowIssue] = []
    kept: dict[str, list] = {}  # line -> its entry in `counted`
    row_no = 0
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), [])
            position = {col: i for i, col in enumerate(header)}  # a repeated column: its last cell
            missing = [col for col in required if col not in position]
            if missing:
                raise IngestError(f"{path}: missing columns {missing}")
            pick = operator.itemgetter(*(position[col] for col in required))
            row_no = 1  # row 1 is the header
            for line in handle:
                entry = kept.get(line)
                if entry is not None:  # a repeat of a valid line, the common row
                    row_no += 1
                    entry[1] += 1
                    continue
                rows = csv.reader(chain((line,), handle))
                cells = next(rows, [])
                if not cells:
                    continue
                row_no += 1
                try:
                    if len(cells) != len(header):
                        raise IngestError(
                            f"cell count {len(cells)} differs from the header's {len(header)}"
                        )
                    entry = [build(*pick(cells)), 1]
                except ValueError as exc:  # IngestError, TermError, WktParseError
                    issues.append(RowIssue(row_no, str(exc)))
                    continue
                counted.append(entry)
                if rows.line_num == 1:
                    kept[line] = entry
    except OSError as exc:
        raise IngestError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        # The failing row was not counted yet; blank lines never fail.
        raise IngestError(f"{path}: row {row_no + 1}: {exc}") from None
    return [(record, rows) for record, rows in counted], issues


# A column table lists a CSV's columns in the order its record takes them,
# each with the converter of its lexical kind; None keeps the cell verbatim.
Columns = Sequence[tuple[str, Optional[Callable[[str], object]]]]


def _optional(cell: str) -> Optional[str]:
    return cell or None


def _tokens(cell: str) -> frozenset[str]:
    return frozenset(tok for tok in (t.strip() for t in cell.split("|")) if tok)


def _xsd(datatype: Iri, value: Callable[[str], R]) -> Callable[[str], R]:
    """A converter that reads a cell only in `datatype`'s lexical form."""
    def convert(cell: str) -> R:
        Literal(cell, datatype)  # TermError for any other form
        return value(cell)
    return convert


_gyear, _integer, _double = _xsd(XSD_GYEAR, int), _xsd(XSD_INTEGER, int), _xsd(XSD_DOUBLE, float)
_double_text = _xsd(XSD_DOUBLE, str)


def _optional_double(cell: str) -> Optional[str]:
    """An xsd:double cell kept verbatim, for the snapshot to write as it stands."""
    return _double_text(cell) if cell else None


def _open_date(cell: str) -> tuple[str, int]:
    """The stripped date, which is required, and its year: its first four
    characters as an xsd:gYear."""
    date = cell.strip()
    if not date:
        raise IngestError("a date is required")
    return date, _gyear(date[:4])


def _charger_groups(cell: str) -> tuple[ChargerGroup, ...]:
    groups = []
    for part in (p.strip() for p in cell.split("|")):
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise IngestError(f"bad charger group {part!r} (want charger:connector:count)")
        groups.append(ChargerGroup(pieces[0], pieces[1], _integer(pieces[2])))
    return tuple(groups)


def _typed(columns: Columns, make: Callable[..., R]) -> tuple[list[str], Callable[..., R]]:
    """The names of `columns`, and a build that converts each cell by its
    column's converter and passes the values, and any arguments past the
    table unchanged, to `make`. A converter's ValueError names its column."""
    steps = [(i, name, convert) for i, (name, convert) in enumerate(columns) if convert]

    def build(*cells: str) -> R:
        values = list(cells)
        for i, name, convert in steps:
            try:
                values[i] = convert(cells[i])
            except ValueError as exc:
                raise IngestError(f"{name}: {exc}") from None
        return make(*values)

    return [name for name, _ in columns], build


_REGISTRATION_COLUMNS: Columns = (("vin8", None), ("zip", None), ("registration_year", _gyear))
_PRODUCT_COLUMNS: Columns = (  # in ProductKey field order
    ("make", None), ("model", None), ("model_year", _gyear), ("technology", None),
    ("manufacturer", None), ("use_case", None), ("weight_level", None),
    ("charger_types", _tokens), ("connector_types", _tokens),
)
_STATION_COLUMNS: Columns = (
    ("station_id", None), ("name", None), ("lon", _double), ("lat", _double), ("zip", None),
    ("access", None), ("network", _optional), ("operating_hours", None),
    ("open_date", _open_date), ("pricing", _optional), ("parking_restriction", _optional),
    ("charger_groups", _charger_groups),
)
_TRANSMISSION_COLUMNS: Columns = (
    ("asset_id", None), ("kind", None), ("wkt", None), ("voltage_class", _optional),
    ("min_voltage", _optional_double), ("max_voltage", _optional_double),
    ("summer_capacity", _optional_double), ("winter_capacity", _optional_double),
    ("operating_capacity", _optional_double), ("status", _optional), ("owner", _optional),
)
_ZIP_AREA_COLUMNS: Columns = (
    ("zip", None), ("wkt", None), ("state", None), ("county", None), ("kwg_sameas", _optional),
)


def read_registrations(path: Path) -> tuple[Counted[RegistrationRecord], list[RowIssue]]:
    head, record = _typed(_REGISTRATION_COLUMNS, RegistrationRecord)
    tail, product_of = _typed(_PRODUCT_COLUMNS, ProductKey)
    n = len(head)
    products: dict[tuple[str, ...], ProductKey] = {}  # by its nine raw cells; valid products only

    def build(*cells: str) -> RegistrationRecord:
        key = cells[n:]
        product = products.get(key)
        if product is None:
            product = products[key] = product_of(*key)
        return record(*cells[:n], product)

    return _read_records(path, head + tail, build)


def _station(*values) -> StationRecord:
    # open_date's value is the pair (open_date, open_year).
    return StationRecord(*values[:8], *values[8], *values[9:])


def read_stations(path: Path) -> tuple[Counted[StationRecord], list[RowIssue]]:
    return _read_records(path, *_typed(_STATION_COLUMNS, _station))


def read_transmission(path: Path) -> tuple[Counted[TransmissionAssetRecord], list[RowIssue]]:
    return _read_records(path, *_typed(_TRANSMISSION_COLUMNS, TransmissionAssetRecord))


def read_zip_areas(path: Path) -> tuple[Counted[ZipAreaRecord], list[RowIssue]]:
    return _read_records(path, *_typed(_ZIP_AREA_COLUMNS, ZipAreaRecord))


# ---------------------------------------------------------------------------
# IRI minting
# ---------------------------------------------------------------------------


def zip_area_iri(zip_code: str) -> Iri:
    return EVR[f"zipcodearea.{zip_code}"]


def station_iri(station_id: str) -> Iri:
    return EVR[f"chargingstation.{_sanitize(station_id)}"]


def product_iri(key: ProductKey) -> Iri:
    digest = _key_hash(
        key.make,
        key.model,
        str(key.model_year),
        key.technology,
        key.manufacturer,
        key.use_case,
        key.weight_level,
        "|".join(sorted(key.charger_types)),
        "|".join(sorted(key.connector_types)),
    )
    return EVR[
        f"product.{_sanitize(key.make)}.{_sanitize(key.model)}.{key.model_year}.{digest}"
    ]


def _collection_iri(zip_code: str, year: int, product: Iri) -> Iri:
    """The collection IRI, from its product's IRI: its last (digest) part."""
    return EVR[f"evregcol.{zip_code}.{year}.{product.value.rsplit('.', 1)[-1]}"]


def geometry_iri(feature: Iri) -> Iri:
    return Iri(feature.value + ".geometry")


class _Minter:
    """The IRIs one triplifier call mints, with their collision check: one
    IRI per natural key, one natural key per IRI. `individuals` maps each
    labeled individual's (kind, label, class) to its IRI."""

    def __init__(self):
        self.by_iri: dict[Iri, str] = {}
        self.individuals: dict[tuple[str, str, Iri], Iri] = {}

    def claim(self, iri: Iri, natural_key: str) -> Iri:
        existing = self.by_iri.get(iri)
        if existing is not None and existing != natural_key:
            raise IngestError(f"IRI collision: {iri.value} for {existing!r} and {natural_key!r}")
        self.by_iri[iri] = natural_key
        return iri


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def aggregate_registrations(
    counted: Iterable[tuple[RegistrationRecord, int]]
) -> list[RegistrationCollection]:
    """Group counted records by (zip, registration year, full product
    identity), summing their row counts.

    Two different lines can give one key (a reordered token list, another
    vin8), so their counts merge here. Collections are sorted by zip, year
    and product IRI, each distinct product's IRI computed once; equal sort
    keys keep the order in which their key first occurs.
    """
    groups: dict[tuple[str, int, ProductKey], int] = {}
    for rec, rows in counted:
        key = (rec.zip, rec.registration_year, rec.product)
        groups[key] = groups.get(key, 0) + rows
    iris = {prod: product_iri(prod).value for prod in {prod for _, _, prod in groups}}
    return [
        RegistrationCollection(zip_code, year, prod, amount)
        for (zip_code, year, prod), amount in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][1], iris[kv[0][2]])
        )
    ]


# ---------------------------------------------------------------------------
# Triplifiers
# ---------------------------------------------------------------------------


def _triple(s: Iri, p: Iri, o: Term) -> Triple:
    """A triple of terms the triplifiers built themselves, so Triple's checks are skipped."""
    return tuple.__new__(Triple, (s, p, o))


# Stored WKT text -> geometry, filled by the triplifiers for the spatial step.
Shapes = dict[str, geometry.Geometry]


def _geometry_triples(
    out: list[Triple], feature: Iri, geom: geometry.Geometry, shapes: Optional[Shapes]
) -> None:
    """The feature's geometry node and canonical WKT literal. The node's
    `sf:` class has the name of the geometry's type, as the six Simple
    Features classes do. `shapes`, when given, maps that text to `geom` if
    the text parses back to it."""
    node = geometry_iri(feature)
    text, survives = geometry.write_wkt(geom)
    out.append(_triple(feature, GEO.hasGeometry, node))
    out.append(_triple(node, RDF.type, getattr(SF, type(geom).__name__)))
    out.append(_triple(node, GEO.asWKT, Literal(text, WKT_LITERAL)))
    if shapes is not None and survives:
        shapes[text] = geom


def _individual(
    out: list[Triple], minter: _Minter, subject: Iri, prop: Iri, kind: str, cls: Iri, label: str
) -> Iri:
    """Link subject via prop to the labeled individual of class cls minted from
    (kind, label). The first link of a triplifier call mints and claims it
    and writes its type and label after the link; later links find it in
    `minter.individuals` and write only the link."""
    key = (kind, label, cls)
    ind = minter.individuals.get(key)
    if ind is not None:
        out.append(_triple(subject, prop, ind))
        return ind
    ind = minter.individuals[key] = minter.claim(EVR[f"{kind}.{_sanitize(label)}"], label)
    out.append(_triple(subject, prop, ind))
    out.append(_triple(ind, RDF.type, cls))
    out.append(_triple(ind, RDFS.label, Literal(label)))
    return ind


def triplify_adoption(collections: Iterable[RegistrationCollection]) -> list[Triple]:
    """Write the distinct products of the collections in product-IRI order, then
    the collections. Equal IRIs keep collection order, so an IRI collision is
    reported the same way on every run."""
    out: list[Triple] = []
    minter = _Minter()
    models: set[tuple[str, str, int]] = set()  # (make, model, model year) of model types written
    collections = list(collections)
    distinct = dict.fromkeys(coll.product for coll in collections)
    products = {key: product_iri(key) for key in distinct}

    for key, prod in sorted(products.items(), key=lambda kv: kv[1].value):
        minter.claim(prod, repr(key))
        out.append(_triple(prod, RDF.type, EV_ONT.ElectricVehicleProduct))
        out.append(_triple(prod, RDFS.label, Literal(f"{key.make} {key.model}")))
        model_year = Literal(str(key.model_year), XSD_GYEAR)
        out.append(_triple(prod, EV_ONT.hasModelYear, model_year))

        _individual(out, minter, prod, EV_ONT.hasMakeType, "maketype", EV_ONT.MakeType, key.make)

        model = EVR[
            f"modeltype.{_sanitize(key.make)}.{_sanitize(key.model)}.{key.model_year}"
        ]
        out.append(_triple(prod, EV_ONT.hasModelType, model))
        model_key = (key.make, key.model, key.model_year)
        if model_key not in models:
            models.add(model_key)
            minter.claim(model, repr(model_key))
            out.append(_triple(model, RDF.type, EV_ONT.ModelType))
            out.append(_triple(model, RDFS.label, Literal(key.model)))
            out.append(_triple(model, EV_ONT.hasModelYear, model_year))

        for kind, prop, cls, raw in (
            ("technology", EV_ONT.isWithTechnology, EV_ONT.Technology, key.technology),
            ("manufacturer", EV_ONT.hasManufacturer, EV_ONT.Manufacturer, key.manufacturer),
            ("vehicleusecase", EV_ONT.hasVehicleUseCase, EV_ONT.VehicleUseCase, key.use_case),
            ("weightlevel", EV_ONT.hasWeightLevel, EV_ONT.WeightLevel, key.weight_level),
        ):
            _individual(out, minter, prod, prop, kind, cls, raw)

        for token in sorted(key.charger_types):
            out.append(_triple(prod, EV_ONT.hasMatchableChargerType, CHARGER_TOKENS[token]))
        for token in sorted(key.connector_types):
            out.append(_triple(prod, EV_ONT.hasMatchableConnectorType, CONNECTOR_TOKENS[token]))

    for coll in collections:
        prod = products[coll.product]
        iri = minter.claim(
            _collection_iri(coll.zip, coll.year, prod), f"{coll.zip}/{coll.year}/{prod.value}"
        )
        out.append(_triple(iri, RDF.type, EV_ONT.ElectricVehicleRegistrationCollection))
        out.append(_triple(iri, EV_ONT.hasSpatialScope, zip_area_iri(coll.zip)))
        out.append(_triple(iri, EV_ONT.hasTemporalScope, Literal(str(coll.year), XSD_GYEAR)))
        out.append(_triple(iri, EV_ONT.hasProductInfo, prod))
        out.append(_triple(iri, EV_ONT.hasAmount, Literal(str(coll.amount), XSD_INTEGER)))
    return out


def triplify_stations(
    counted: Iterable[tuple[StationRecord, int]], shapes: Optional[Shapes] = None
) -> list[Triple]:
    out: list[Triple] = []
    minter = _Minter()
    for rec, _ in counted:  # a repeated row states the same facts
        stn = minter.claim(station_iri(rec.station_id), rec.station_id)
        access_cls = (
            EV_ONT.PublicChargingStation if rec.access == "public" else EV_ONT.PrivateChargingStation
        )
        out.append(_triple(stn, RDF.type, access_cls))
        if rec.network:
            out.append(_triple(stn, RDF.type, EV_ONT.NetworkedChargingStation))
            _individual(
                out, minter, stn, EV_ONT.isUnderChargingNetwork, "chargingnetwork",
                EV_ONT.ChargingNetwork, rec.network,
            )
        else:
            out.append(_triple(stn, RDF.type, EV_ONT.NonNetworkedChargingStation))
        out.append(_triple(stn, RDFS.label, Literal(rec.name)))

        _geometry_triples(out, stn, geometry.Point(rec.lon, rec.lat), shapes)

        out.append(_triple(stn, EV_ONT.hasOperatingHours, Literal(rec.operating_hours)))
        out.append(_triple(stn, EV_ONT.hasOpenYear, Literal(str(rec.open_year), XSD_GYEAR)))
        if rec.open_date:
            out.append(_triple(stn, EV_ONT.hasOpenTime, Literal(rec.open_date)))
        if rec.pricing:
            out.append(_triple(stn, EV_ONT.hasPricingScheme, Literal(rec.pricing)))
        if rec.parking_restriction:
            out.append(_triple(stn, EV_ONT.hasParkingRestriction, Literal(rec.parking_restriction)))

        amounts: dict[tuple[str, str], int] = {}
        for group in rec.charger_groups:
            pair = (group.charger_type, group.connector_type)
            amounts[pair] = amounts.get(pair, 0) + group.count
        for (charger, connector), amount in sorted(amounts.items()):
            cc = EVR[
                f"chargercollection.{_sanitize(rec.station_id)}.{charger}.{connector}"
            ]
            out.append(_triple(stn, EV_ONT.hosts, cc))
            out.append(_triple(cc, RDF.type, EV_ONT.ChargerCollection))
            out.append(_triple(cc, EV_ONT.hasChargerType, CHARGER_TOKENS[charger]))
            out.append(_triple(cc, EV_ONT.hasConnectorType, CONNECTOR_TOKENS[connector]))
            out.append(_triple(cc, EV_ONT.hasAmount, Literal(str(amount), XSD_INTEGER)))
    return out


# kind -> (IRI prefix, class, status property)
_ASSET_KINDS = {
    "line": ("transmissionline", EV_ONT.TransmissionLine, EV_ONT.hasLineStatus),
    "substation": ("substation", EV_ONT.Substation, EV_ONT.hasStationStatus),
    "plant": ("powerplant", EV_ONT.PowerPlant, EV_ONT.hasPlantStatus),
}


def triplify_transmission(
    counted: Iterable[tuple[TransmissionAssetRecord, int]], shapes: Optional[Shapes] = None
) -> list[Triple]:
    out: list[Triple] = []
    minter = _Minter()
    for rec, _ in counted:  # a repeated row states the same facts
        prefix, cls, status_prop = _ASSET_KINDS[rec.kind]
        asset = minter.claim(EVR[f"{prefix}.{_sanitize(rec.asset_id)}"], rec.asset_id)
        out.append(_triple(asset, RDF.type, cls))
        _geometry_triples(out, asset, rec.geometry, shapes)

        if rec.kind == "line":
            for prop, kind, ind_cls, label in (
                (EV_ONT.hasVoltageClass, "voltageclass", EV_ONT.VoltageClass, rec.voltage_class),
                (EV_ONT.hasLineOwner, "translineowner", EV_ONT.TransmissionLineOwner, rec.owner),
            ):
                if label:
                    _individual(out, minter, asset, prop, kind, ind_cls, label)
        elif rec.kind == "substation":
            if rec.min_voltage:
                out.append(_triple(asset, EV_ONT.hasMinVoltage, Literal(rec.min_voltage, XSD_DOUBLE)))
            if rec.max_voltage:
                out.append(_triple(asset, EV_ONT.hasMaxVoltage, Literal(rec.max_voltage, XSD_DOUBLE)))
        else:  # plant
            for prop, value in (
                (EV_ONT.hasSummerCapacity, rec.summer_capacity),
                (EV_ONT.hasWinterCapacity, rec.winter_capacity),
                (EV_ONT.hasOperatingCapacity, rec.operating_capacity),
            ):
                if value:
                    out.append(_triple(asset, prop, Literal(value, XSD_DOUBLE)))
        if rec.status:
            _individual(
                out, minter, asset, status_prop, "servingstatus", EV_ONT.ServingStatus, rec.status
            )
    return out


def triplify_places(
    counted: Iterable[tuple[ZipAreaRecord, int]], shapes: Optional[Shapes] = None
) -> list[Triple]:
    """A zip given by two rows, equal or not, fails with the first such
    zip in first-row order of the distinct records."""
    out: list[Triple] = []
    minter = _Minter()
    seen: set[str] = set()
    for rec, rows in counted:
        if rows > 1 or rec.zip in seen:
            raise DuplicateZip(rec.zip)
        seen.add(rec.zip)
        zip_area = zip_area_iri(rec.zip)
        out.append(_triple(zip_area, RDF.type, KWG_ONT.ZipCodeArea))
        out.append(_triple(zip_area, RDFS.label, Literal(f"zip code {rec.zip}")))
        _geometry_triples(out, zip_area, rec.geometry, shapes)

        for kind, cls, label in (
            ("state", KWG_ONT.AdministrativeRegion_2, rec.state_label),
            ("county", KWG_ONT.AdministrativeRegion_3, rec.county_label),
        ):
            region = _individual(out, minter, zip_area, KWG_ONT.sfWithin, kind, cls, label)
            out.append(_triple(region, KWG_ONT.sfContains, zip_area))

        if rec.kwg_sameas:
            try:
                out.append(_triple(zip_area, OWL.sameAs, Iri(rec.kwg_sameas)))
            except TermError as exc:
                raise IngestError(f"zip {rec.zip}: bad sameAs IRI: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Whole-load orchestration
# ---------------------------------------------------------------------------


@dataclass
class IngestConfig:
    registrations: Optional[Path] = None
    stations: Optional[Path] = None
    transmission: Optional[Path] = None
    zip_areas: Optional[Path] = None
    materialize_spatial: bool = True
    subclass_closure: bool = True


def build_graph(config: IngestConfig) -> tuple[Graph, LoadReport]:
    """Run every configured pipeline, inserting its triples into one graph.

    Always includes the fixed vocabulary individuals (charger levels,
    connector types) because instance queries match on their labels.
    Spatial materialization and subclass closure are applied here when the
    config asks for them.
    """
    report = LoadReport()
    merged = individuals_graph()
    shapes: Shapes = {}  # every zip, station and asset geometry's text, for the spatial step

    if config.zip_areas:
        counted, issues = read_zip_areas(config.zip_areas)
        report.skipped.extend(issues)
        report.bump("zip_areas", sum(rows for _, rows in counted))
        merged.update(triplify_places(counted, shapes))
    if config.registrations:
        counted, issues = read_registrations(config.registrations)
        report.skipped.extend(issues)
        collections = aggregate_registrations(counted)
        report.bump("registration_records", sum(rows for _, rows in counted))
        report.bump("registration_collections", len(collections))
        report.bump("products", len({coll.product for coll in collections}))
        merged.update(triplify_adoption(collections))
    if config.stations:
        counted, issues = read_stations(config.stations)
        report.skipped.extend(issues)
        report.bump("stations", sum(rows for _, rows in counted))
        merged.update(triplify_stations(counted, shapes))
    if config.transmission:
        counted, issues = read_transmission(config.transmission)
        report.skipped.extend(issues)
        for rec, rows in counted:
            report.bump(f"transmission_{rec.kind}s", rows)
        merged.update(triplify_transmission(counted, shapes))

    if config.subclass_closure:
        report.bump("closure_triples", materialize.materialize_subclass_closure(merged))
    if config.materialize_spatial:
        spatial = materialize.materialize_spatial_relations(merged, shapes)
        report.bump("spatial_triples", spatial.added_total)
    return merged, report
