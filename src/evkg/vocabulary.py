"""The EV knowledge-graph ontology as a machine-readable registry.

Three home-grown modules (adoption, charging, transmission) plus the
external terms reused from GeoSPARQL, Simple Features, and the
KnowWhereGraph place hierarchy. The registry drives schema export,
instance validation, and subclass-closure materialization.

The registration/charger collection classes follow the observation-
collection design pattern from the SOSA/SSN extensions: one node stands
for a set of identical records and carries the shared scope plus a count,
instead of one node per record. SOSA itself is not imported. Temporal
scopes are bare xsd:gYear values; full Time Ontology intervals are out of
scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .graph import Graph
from .terms import (
    EV_ONT,
    EVR,
    GEO,
    KWG_ONT,
    OWL,
    RDF,
    RDF_TYPE,
    RDFS,
    SF,
    WKT_LITERAL,
    XSD,
    Iri,
    Literal,
    Term,
    Triple,
)

OBJECT = "object"
DATATYPE = "datatype"

ADOPTION = "adoption"
CHARGING = "charging"
TRANSMISSION = "transmission"
EXTERNAL = "external"


@dataclass(frozen=True)
class ClassDef:
    iri: Iri
    label: str
    super_classes: tuple[Iri, ...] = ()
    module_tag: str = ADOPTION


@dataclass(frozen=True)
class PropertyDef:
    iri: Iri
    kind: str  # OBJECT or DATATYPE
    domain: Optional[Iri] = None
    range: Optional[Iri] = None
    label: str = ""


@dataclass(frozen=True)
class IndividualDef:
    """A fixed vocabulary-level individual (charger levels, connector types)."""

    iri: Iri
    type: Iri
    label: str


@dataclass
class OntologyRegistry:
    classes: list[ClassDef]
    properties: list[PropertyDef]
    individuals: list[IndividualDef]

    def __post_init__(self):
        self._class_map = {c.iri: c for c in self.classes}
        self._property_map = {p.iri: p for p in self.properties}
        if len(self._class_map) != len(self.classes):
            raise ValueError("duplicate class IRI in registry")
        if len(self._property_map) != len(self.properties):
            raise ValueError("duplicate property IRI in registry")

    def property_def(self, iri: Iri) -> Optional[PropertyDef]:
        return self._property_map.get(iri)

    def is_class(self, iri: Iri) -> bool:
        return iri in self._class_map

    def superclasses(self, iri: Iri) -> set[Iri]:
        """All strict superclasses, following rdfs:subClassOf transitively."""
        seen: set[Iri] = set()
        stack = list(self._class_map[iri].super_classes) if iri in self._class_map else []
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            cur_def = self._class_map.get(cur)
            if cur_def:
                stack.extend(cur_def.super_classes)
        return seen

    def conforms_to(self, cls: Iri, target: Iri) -> bool:
        return cls == target or target in self.superclasses(cls)

    def assert_acyclic(self) -> None:
        for c in self.classes:
            if c.iri in self.superclasses(c.iri):
                raise ValueError(f"subclass cycle through {c.iri}")


@lru_cache(maxsize=1)
def registry() -> OntologyRegistry:
    """Build the full ontology registry (cached; treat as immutable)."""
    classes = [
        # --- adoption module -------------------------------------------------
        ClassDef(
            EV_ONT.ElectricVehicleRegistrationCollection,
            "Electric Vehicle Registration Collection",
            (),
            ADOPTION,
        ),
        ClassDef(EV_ONT.ElectricVehicleProduct, "Electric Vehicle Product", (), ADOPTION),
        ClassDef(EV_ONT.MakeType, "Make Type", (), ADOPTION),
        ClassDef(EV_ONT.ModelType, "Model Type", (), ADOPTION),
        ClassDef(EV_ONT.Technology, "Technology", (), ADOPTION),
        ClassDef(EV_ONT.Manufacturer, "Manufacturer", (), ADOPTION),
        ClassDef(EV_ONT.VehicleUseCase, "Vehicle Use Case", (), ADOPTION),
        ClassDef(EV_ONT.WeightLevel, "Weight Level", (), ADOPTION),
        ClassDef(EV_ONT.ChargerType, "Charger Type", (), ADOPTION),
        ClassDef(EV_ONT.ConnectorType, "Connector Type", (), ADOPTION),
        # --- charging module -------------------------------------------------
        ClassDef(EV_ONT.ChargingStation, "Charging Station", (GEO.Feature,), CHARGING),
        ClassDef(
            EV_ONT.PublicChargingStation,
            "Public Charging Station",
            (EV_ONT.ChargingStation,),
            CHARGING,
        ),
        ClassDef(
            EV_ONT.PrivateChargingStation,
            "Private Charging Station",
            (EV_ONT.ChargingStation,),
            CHARGING,
        ),
        ClassDef(
            EV_ONT.NetworkedChargingStation,
            "Networked Charging Station",
            (EV_ONT.ChargingStation,),
            CHARGING,
        ),
        ClassDef(
            EV_ONT.NonNetworkedChargingStation,
            "Non-Networked Charging Station",
            (EV_ONT.ChargingStation,),
            CHARGING,
        ),
        ClassDef(EV_ONT.ChargerCollection, "Charger Collection", (), CHARGING),
        ClassDef(EV_ONT.ChargingNetwork, "Charging Network", (), CHARGING),
        ClassDef(EV_ONT.ChargingUserGroup, "Charging User Group", (), CHARGING),
        # --- transmission module ----------------------------------------------
        ClassDef(EV_ONT.PowerPlant, "Power Plant", (GEO.Feature,), TRANSMISSION),
        ClassDef(EV_ONT.TransmissionLine, "Transmission Line", (GEO.Feature,), TRANSMISSION),
        ClassDef(EV_ONT.Substation, "Substation", (GEO.Feature,), TRANSMISSION),
        ClassDef(EV_ONT.LineAttribute, "Line Attribute", (), TRANSMISSION),
        ClassDef(EV_ONT.VoltageClass, "Voltage Class", (EV_ONT.LineAttribute,), TRANSMISSION),
        ClassDef(EV_ONT.ServingStatus, "Serving Status", (), TRANSMISSION),
        ClassDef(
            EV_ONT.TransmissionLineOwner,
            "Transmission Line Owner",
            (),
            TRANSMISSION,
        ),
        # --- external terms -----------------------------------------------------
        ClassDef(KWG_ONT.ZipCodeArea, "Zip Code Area", (GEO.Feature,), EXTERNAL),
        ClassDef(KWG_ONT.AdministrativeRegion_2, "Administrative Region 2", (), EXTERNAL),
        ClassDef(KWG_ONT.AdministrativeRegion_3, "Administrative Region 3", (), EXTERNAL),
        ClassDef(KWG_ONT.RoadSegment, "Road Segment", (GEO.Feature,), EXTERNAL),
        ClassDef(GEO.Feature, "Feature", (), EXTERNAL),
        ClassDef(GEO.Geometry, "Geometry", (), EXTERNAL),
        ClassDef(SF.Point, "Point", (GEO.Geometry,), EXTERNAL),
        ClassDef(SF.LineString, "LineString", (GEO.Geometry,), EXTERNAL),
        ClassDef(SF.Polygon, "Polygon", (GEO.Geometry,), EXTERNAL),
        ClassDef(SF.MultiPoint, "MultiPoint", (GEO.Geometry,), EXTERNAL),
        ClassDef(SF.MultiLineString, "MultiLineString", (GEO.Geometry,), EXTERNAL),
        ClassDef(SF.MultiPolygon, "MultiPolygon", (GEO.Geometry,), EXTERNAL),
    ]

    properties = [
        # --- adoption ---------------------------------------------------------
        PropertyDef(
            EV_ONT.hasSpatialScope,
            OBJECT,
            EV_ONT.ElectricVehicleRegistrationCollection,
            KWG_ONT.ZipCodeArea,
            "has spatial scope",
        ),
        PropertyDef(
            EV_ONT.hasTemporalScope,
            DATATYPE,
            EV_ONT.ElectricVehicleRegistrationCollection,
            XSD.gYear,
            "has temporal scope",
        ),
        PropertyDef(
            EV_ONT.hasProductInfo,
            OBJECT,
            EV_ONT.ElectricVehicleRegistrationCollection,
            EV_ONT.ElectricVehicleProduct,
            "has product info",
        ),
        PropertyDef(EV_ONT.hasAmount, DATATYPE, None, XSD.integer, "has amount"),
        PropertyDef(EV_ONT.hasModelYear, DATATYPE, None, XSD.gYear, "has model year"),
        PropertyDef(
            EV_ONT.isWithTechnology,
            OBJECT,
            EV_ONT.ElectricVehicleProduct,
            EV_ONT.Technology,
            "is with technology",
        ),
        PropertyDef(
            EV_ONT.hasMatchableChargerType,
            OBJECT,
            EV_ONT.ElectricVehicleProduct,
            EV_ONT.ChargerType,
            "has matchable charger type",
        ),
        PropertyDef(
            EV_ONT.hasMatchableConnectorType,
            OBJECT,
            EV_ONT.ElectricVehicleProduct,
            EV_ONT.ConnectorType,
            "has matchable connector type",
        ),
        PropertyDef(
            EV_ONT.hasModelType,
            OBJECT,
            EV_ONT.ElectricVehicleProduct,
            EV_ONT.ModelType,
            "has model type",
        ),
        PropertyDef(
            EV_ONT.hasMakeType,
            OBJECT,
            EV_ONT.ElectricVehicleProduct,
            EV_ONT.MakeType,
            "has make type",
        ),
        PropertyDef(
            EV_ONT.hasManufacturer,
            OBJECT,
            EV_ONT.ElectricVehicleProduct,
            EV_ONT.Manufacturer,
            "has manufacturer",
        ),
        PropertyDef(
            EV_ONT.hasVehicleUseCase,
            OBJECT,
            EV_ONT.ElectricVehicleProduct,
            EV_ONT.VehicleUseCase,
            "has vehicle use case",
        ),
        PropertyDef(
            EV_ONT.hasWeightLevel,
            OBJECT,
            EV_ONT.ElectricVehicleProduct,
            EV_ONT.WeightLevel,
            "has weight level",
        ),
        # --- charging ---------------------------------------------------------
        PropertyDef(
            EV_ONT.hosts,
            OBJECT,
            EV_ONT.ChargingStation,
            EV_ONT.ChargerCollection,
            "hosts",
        ),
        PropertyDef(
            EV_ONT.hasConnectorType,
            OBJECT,
            EV_ONT.ChargerCollection,
            EV_ONT.ConnectorType,
            "has connector type",
        ),
        PropertyDef(
            EV_ONT.hasChargerType,
            OBJECT,
            EV_ONT.ChargerCollection,
            EV_ONT.ChargerType,
            "has charger type",
        ),
        PropertyDef(EV_ONT.hasOpenTime, DATATYPE, EV_ONT.ChargingStation, XSD.string, "has open time"),
        PropertyDef(EV_ONT.hasOpenYear, DATATYPE, EV_ONT.ChargingStation, XSD.gYear, "has open year"),
        PropertyDef(
            EV_ONT.hasOperatingHours,
            DATATYPE,
            EV_ONT.ChargingStation,
            XSD.string,
            "has operating hours",
        ),
        PropertyDef(
            EV_ONT.hasParkingRestriction,
            DATATYPE,
            EV_ONT.ChargingStation,
            XSD.string,
            "has parking restriction",
        ),
        PropertyDef(
            EV_ONT.hasPricingScheme,
            DATATYPE,
            EV_ONT.ChargingStation,
            XSD.string,
            "has pricing scheme",
        ),
        PropertyDef(
            EV_ONT.isUnderChargingNetwork,
            OBJECT,
            EV_ONT.ChargingStation,
            EV_ONT.ChargingNetwork,
            "is under charging network",
        ),
        # --- transmission -------------------------------------------------------
        PropertyDef(
            EV_ONT.hasSummerCapacity, DATATYPE, EV_ONT.PowerPlant, XSD.double, "has summer capacity"
        ),
        PropertyDef(
            EV_ONT.hasWinterCapacity, DATATYPE, EV_ONT.PowerPlant, XSD.double, "has winter capacity"
        ),
        PropertyDef(
            EV_ONT.hasOperatingCapacity,
            DATATYPE,
            EV_ONT.PowerPlant,
            XSD.double,
            "has operating capacity",
        ),
        PropertyDef(EV_ONT.hasMinVoltage, DATATYPE, EV_ONT.Substation, XSD.double, "has min voltage"),
        PropertyDef(EV_ONT.hasMaxVoltage, DATATYPE, EV_ONT.Substation, XSD.double, "has max voltage"),
        PropertyDef(
            EV_ONT.hasLineStatus,
            OBJECT,
            EV_ONT.TransmissionLine,
            EV_ONT.ServingStatus,
            "has line status",
        ),
        PropertyDef(
            EV_ONT.hasPlantStatus, OBJECT, EV_ONT.PowerPlant, EV_ONT.ServingStatus, "has plant status"
        ),
        PropertyDef(
            EV_ONT.hasStationStatus,
            OBJECT,
            EV_ONT.Substation,
            EV_ONT.ServingStatus,
            "has station status",
        ),
        PropertyDef(
            EV_ONT.hasVoltageClass,
            OBJECT,
            EV_ONT.TransmissionLine,
            EV_ONT.VoltageClass,
            "has voltage class",
        ),
        PropertyDef(
            EV_ONT.hasLineOwner,
            OBJECT,
            EV_ONT.TransmissionLine,
            EV_ONT.TransmissionLineOwner,
            "has line owner",
        ),
        # --- external ----------------------------------------------------------
        PropertyDef(KWG_ONT.sfWithin, OBJECT, None, None, "sfWithin"),
        PropertyDef(KWG_ONT.sfContains, OBJECT, None, None, "sfContains"),
        PropertyDef(KWG_ONT.sfCrosses, OBJECT, None, None, "sfCrosses"),
        PropertyDef(GEO.hasGeometry, OBJECT, GEO.Feature, GEO.Geometry, "hasGeometry"),
        PropertyDef(GEO.asWKT, DATATYPE, GEO.Geometry, WKT_LITERAL, "asWKT"),
        PropertyDef(RDFS.label, DATATYPE, None, XSD.string, "label"),
        PropertyDef(RDFS.subClassOf, OBJECT, None, None, "subClassOf"),
        PropertyDef(OWL.sameAs, OBJECT, None, None, "sameAs"),
        PropertyDef(RDF.type, OBJECT, None, None, "type"),
    ]

    individuals = [
        IndividualDef(EVR["chargertype.Level1Charger"], EV_ONT.ChargerType, "Level 1"),
        IndividualDef(EVR["chargertype.Level2Charger"], EV_ONT.ChargerType, "Level 2"),
        IndividualDef(EVR["chargertype.DCFastCharger"], EV_ONT.ChargerType, "DC Fast"),
        IndividualDef(EVR["connectortype.J1772"], EV_ONT.ConnectorType, "J1772"),
        IndividualDef(EVR["connectortype.J1772COMBO"], EV_ONT.ConnectorType, "J1772COMBO"),
        IndividualDef(EVR["connectortype.CHAdeMO"], EV_ONT.ConnectorType, "CHAdeMO"),
        IndividualDef(EVR["connectortype.TESLA"], EV_ONT.ConnectorType, "TESLA"),
        IndividualDef(EVR["connectortype.NEMA"], EV_ONT.ConnectorType, "NEMA"),
    ]

    reg = OntologyRegistry(classes, properties, individuals)
    reg.assert_acyclic()
    _check_ranges(reg)
    return reg


_XSD_DATATYPES = {
    XSD.string,
    XSD.integer,
    XSD.decimal,
    XSD.double,
    XSD.gYear,
    XSD.boolean,
    XSD.date,
    WKT_LITERAL,
}


def _check_ranges(reg: OntologyRegistry) -> None:
    for p in reg.properties:
        if p.domain is not None and not reg.is_class(p.domain):
            raise ValueError(f"property {p.iri} domain is not a registered class")
        if p.range is None:
            continue
        if p.kind == OBJECT and not reg.is_class(p.range):
            raise ValueError(f"object property {p.iri} range is not a registered class")
        if p.kind == DATATYPE and p.range not in _XSD_DATATYPES:
            raise ValueError(f"datatype property {p.iri} range is not a known datatype")


def schema_graph(reg: Optional[OntologyRegistry] = None) -> Graph:
    """Emit the registry as schema triples (types, labels, subclass, domain/range)."""
    reg = reg or registry()
    g = individuals_graph(reg)
    for c in reg.classes:
        g.insert(Triple(c.iri, RDF.type, OWL.Class))
        g.insert(Triple(c.iri, RDFS.label, Literal(c.label)))
        for sup in c.super_classes:
            g.insert(Triple(c.iri, RDFS.subClassOf, sup))
    for p in reg.properties:
        kind = OWL.ObjectProperty if p.kind == OBJECT else OWL.DatatypeProperty
        g.insert(Triple(p.iri, RDF.type, kind))
        g.insert(Triple(p.iri, RDFS.label, Literal(p.label)))
        if p.domain is not None:
            g.insert(Triple(p.iri, RDFS.domain, p.domain))
        if p.range is not None:
            g.insert(Triple(p.iri, RDFS.range, p.range))
    return g


def individuals_graph(reg: Optional[OntologyRegistry] = None) -> Graph:
    """Just the fixed individuals (typed and labeled); merged into instance data."""
    reg = reg or registry()
    g = Graph()
    for ind in reg.individuals:
        g.insert(Triple(ind.iri, RDF.type, ind.type))
        g.insert(Triple(ind.iri, RDFS.label, Literal(ind.label)))
    return g


@dataclass(frozen=True)
class Violation:
    kind: str  # "range-type" | "range-datatype" | "unknown-class"
    subject: Term
    predicate: Optional[Iri]
    obj: Term
    message: str


def validate_instances(data: Graph, reg: Optional[OntologyRegistry] = None) -> list[Violation]:
    """Check instance data against the registry.

    Reports object-property objects whose declared types contradict the
    range, datatype-property values with the wrong datatype, and subjects
    typed with an unregistered class in the ev-ont namespace. Untyped
    objects pass (open world). A violation depends only on the predicate
    and the object, so each distinct pair is checked once; the failing
    pairs are then reported per triple, in the graph's iteration order.
    """
    reg = reg or registry()

    def problem(predicate: Iri, obj: Term) -> Optional[tuple[str, str]]:
        """(kind, message) of the violation every triple with this predicate and object is."""
        if predicate == RDF_TYPE:
            if isinstance(obj, Iri) and obj.value.startswith(EV_ONT.base) and not reg.is_class(obj):
                return "unknown-class", f"unregistered class {obj.value}"
            return None
        prop = reg.property_def(predicate)
        if prop is None or prop.range is None:
            return None
        if prop.kind == DATATYPE:
            if not isinstance(obj, Literal) or obj.datatype != prop.range:
                return "range-datatype", f"expected literal of datatype {prop.range.value}"
            return None
        if isinstance(obj, Literal):
            return "range-type", "object property must not point at a literal"
        obj_types = [c for c in data.objects(obj, RDF_TYPE) if isinstance(c, Iri)]
        if obj_types and not any(reg.conforms_to(c, prop.range) for c in obj_types):
            return "range-type", f"object types contradict range {prop.range.value}"
        return None

    failing: dict[tuple[Iri, Term], tuple[str, str]] = {}
    for pair in data.predicate_objects():
        found = problem(*pair)
        if found is not None:
            failing[pair] = found
    if not failing:
        return []
    violations: list[Violation] = []
    for s, p, o in data:
        found = failing.get((p, o))
        if found is not None:
            kind, message = found
            violations.append(Violation(kind, s, None if p == RDF_TYPE else p, o, message))
    return violations
