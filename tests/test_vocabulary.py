from __future__ import annotations

from evkg.graph import Graph
from evkg.ntriples import serialize_turtle
from evkg.terms import EV_ONT, EVR, GEO, KWG_ONT, RDF, RDF_TYPE, RDFS, XSD, Iri, Literal, Triple
from evkg.vocabulary import (
    DATATYPE,
    ClassDef,
    OntologyRegistry,
    Violation,
    registry,
    schema_graph,
    validate_instances,
)


def test_public_station_subclass_of_charging_station():
    (cdef,) = [c for c in registry().classes if c.iri == EV_ONT.PublicChargingStation]
    assert EV_ONT.ChargingStation in cdef.super_classes


def test_has_amount_is_integer_datatype_property():
    prop = registry().property_def(EV_ONT.hasAmount)
    assert prop is not None
    assert prop.kind == "datatype"
    assert prop.range == XSD.integer


def test_registry_acyclic():
    registry().assert_acyclic()  # raises on a cycle


def test_external_classes_tagged_external():
    class_defs = {c.iri: c for c in registry().classes}
    for iri in (
        KWG_ONT.ZipCodeArea,
        KWG_ONT.AdministrativeRegion_2,
        KWG_ONT.AdministrativeRegion_3,
        KWG_ONT.RoadSegment,
        GEO.Feature,
        GEO.Geometry,
        Iri(GEO.base.replace("geosparql#", "") + "sf#Point"),
    ):
        cdef = class_defs.get(iri)
        if cdef is not None:
            assert cdef.module_tag == "external", iri


def test_minimum_required_terms_present():
    reg = registry()
    required_classes = [
        "ElectricVehicleRegistrationCollection", "ElectricVehicleProduct", "MakeType",
        "ModelType", "Technology", "Manufacturer", "VehicleUseCase", "WeightLevel",
        "ChargerType", "ConnectorType", "ChargingStation", "PublicChargingStation",
        "PrivateChargingStation", "NetworkedChargingStation", "NonNetworkedChargingStation",
        "ChargerCollection", "ChargingNetwork", "ChargingUserGroup", "PowerPlant",
        "TransmissionLine", "Substation", "LineAttribute", "VoltageClass",
        "ServingStatus", "TransmissionLineOwner",
    ]
    for name in required_classes:
        assert reg.is_class(EV_ONT[name]), name
    required_properties = [
        "hasSpatialScope", "hasTemporalScope", "hasProductInfo", "hasAmount",
        "hasModelYear", "isWithTechnology", "hasMatchableChargerType",
        "hasMatchableConnectorType", "hasModelType", "hosts", "hasConnectorType",
        "hasChargerType", "hasOpenTime", "hasOpenYear", "hasOperatingHours",
        "hasParkingRestriction", "hasPricingScheme", "isUnderChargingNetwork",
        "hasSummerCapacity", "hasWinterCapacity", "hasOperatingCapacity",
        "hasMinVoltage", "hasMaxVoltage", "hasLineStatus", "hasPlantStatus",
        "hasStationStatus", "hasVoltageClass",
    ]
    for name in required_properties:
        assert reg.property_def(EV_ONT[name]) is not None, name
    for external in (KWG_ONT.sfWithin, KWG_ONT.sfContains, KWG_ONT.sfCrosses,
                     GEO.hasGeometry, GEO.asWKT, RDFS.label, RDFS.subClassOf,
                     RDF.type):
        assert reg.property_def(external) is not None, external


def test_connector_individual_labels_match_query_usage():
    labels = {i.label for i in registry().individuals}
    assert {"CHAdeMO", "J1772COMBO", "TESLA", "J1772", "NEMA"} <= labels
    assert {"Level 1", "Level 2", "DC Fast"} <= labels


def test_schema_graph_minimal_class_emission():
    reg = OntologyRegistry(
        classes=[ClassDef(EV_ONT.Thing, "Thing")],
        properties=[],
        individuals=[],
    )
    g = schema_graph(reg)
    assert len(g) == 2  # type + label


def test_schema_graph_contains_subclass_axiom():
    g = schema_graph(registry())
    assert Triple(EV_ONT.NetworkedChargingStation, RDFS.subClassOf, EV_ONT.ChargingStation) in g


def test_schema_graph_triple_count_formula():
    reg = registry()
    expected = 0
    for c in reg.classes:
        expected += 2 + len(c.super_classes)
    for p in reg.properties:
        expected += 2 + (p.domain is not None) + (p.range is not None)
    for i in reg.individuals:
        expected += 2
    assert len(schema_graph(reg)) == expected


def test_schema_graph_stable_serialization():
    assert serialize_turtle(schema_graph(registry())) == serialize_turtle(schema_graph(registry()))


def test_validate_fixture_graph_conformant(fixture_graph):
    assert validate_instances(fixture_graph) == []


def test_validate_flags_wrong_datatype():
    g = Graph()
    g.insert(Triple(EVR["x"], EV_ONT.hasAmount, Literal("abc")))
    violations = validate_instances(g)
    assert len(violations) == 1
    assert violations[0].kind == "range-datatype"


def test_validate_flags_unknown_class():
    g = Graph()
    g.insert(Triple(EVR["x"], RDF.type, EV_ONT.NoSuchClass))
    violations = validate_instances(g)
    assert len(violations) == 1
    assert violations[0].kind == "unknown-class"


def test_validate_flags_range_type_conflict():
    g = Graph()
    g.insert(Triple(EVR["x"], EV_ONT.hasProductInfo, EVR["y"]))
    g.insert(Triple(EVR["y"], RDF.type, EV_ONT.PowerPlant))
    violations = validate_instances(g)
    assert [v.kind for v in violations] == ["range-type"]


def test_validate_accepts_subclass_typed_range():
    g = Graph()
    g.insert(Triple(EVR["stn"], EV_ONT.isUnderChargingNetwork, EVR["net"]))
    g.insert(Triple(EVR["net"], RDF.type, EV_ONT.ChargingNetwork))
    assert validate_instances(g) == []


def test_validate_skips_untyped_objects():
    g = Graph()
    g.insert(Triple(EVR["x"], EV_ONT.hasProductInfo, EVR["unknown"]))
    assert validate_instances(g) == []


def test_every_suite_query_term_resolves(fixture_graph):
    """Every predicate and class IRI used by the bundled queries is registered."""
    from evkg.queries import QUERY_TEXTS, expand_query_references
    from evkg.sparql import parse_query
    from evkg.sparql.algebra import TriplePattern
    from evkg.terms import RDF_TYPE

    from randomized import patterns_of

    reg = registry()

    for qid, text in QUERY_TEXTS.items():
        query = parse_query(expand_query_references(text))
        for tp in patterns_of(query.pattern):
            assert isinstance(tp, TriplePattern)
            if isinstance(tp.p, Iri):
                assert reg.property_def(tp.p) is not None, f"query {qid}: {tp.p}"
                if tp.p == RDF_TYPE and isinstance(tp.o, Iri):
                    assert reg.is_class(tp.o), f"query {qid}: {tp.o}"


def _validate_per_triple(data: Graph, reg) -> list[Violation]:
    """Reference: the per-triple walk, every range check once per triple."""
    violations: list[Violation] = []
    type_cache: dict = {}

    def types_of(term):
        if term not in type_cache:
            type_cache[term] = [
                t.object for t in data.match(term, RDF_TYPE, None) if isinstance(t.object, Iri)
            ]
        return type_cache[term]

    for t in data:
        if t.predicate == RDF_TYPE:
            if isinstance(t.object, Iri) and t.object.value.startswith(EV_ONT.base):
                if not reg.is_class(t.object):
                    violations.append(
                        Violation("unknown-class", t.subject, None, t.object,
                                  f"unregistered class {t.object.value}")
                    )
            continue
        prop = reg.property_def(t.predicate)
        if prop is None or prop.range is None:
            continue
        if prop.kind == DATATYPE:
            if not isinstance(t.object, Literal) or t.object.datatype != prop.range:
                violations.append(
                    Violation("range-datatype", t.subject, t.predicate, t.object,
                              f"expected literal of datatype {prop.range.value}")
                )
        else:
            if isinstance(t.object, Literal):
                violations.append(
                    Violation("range-type", t.subject, t.predicate, t.object,
                              "object property must not point at a literal")
                )
                continue
            obj_types = types_of(t.object)
            if obj_types and not any(reg.conforms_to(c, prop.range) for c in obj_types):
                violations.append(
                    Violation("range-type", t.subject, t.predicate, t.object,
                              f"object types contradict range {prop.range.value}")
                )
    return violations


class _CountingRegistry:
    """A registry that counts the range lookups made through it."""

    def __init__(self, reg):
        self.reg, self.lookups = reg, 0

    def property_def(self, iri):
        self.lookups += 1
        return self.reg.property_def(iri)

    def __getattr__(self, name):
        return getattr(self.reg, name)


def test_validate_checks_each_pair_once_and_reports_every_triple(raw_fixture_graph):
    g = Graph(raw_fixture_graph)
    for i in range(4):
        g.insert(Triple(EVR[f"s{i}"], EV_ONT.hasAmount, Literal("abc")))  # range-datatype
        g.insert(Triple(EVR[f"s{i}"], EV_ONT.hasProductInfo, Literal("p")))  # range-type, literal
        g.insert(Triple(EVR[f"s{i}"], EV_ONT.hasProductInfo, EVR["plant"]))  # range-type, types
        g.insert(Triple(EVR[f"s{i}"], RDF.type, EV_ONT.NoSuchClass))  # unknown-class
    g.insert(Triple(EVR["plant"], RDF.type, EV_ONT.PowerPlant))
    reg = _CountingRegistry(registry())
    violations = validate_instances(g, reg)
    assert violations == _validate_per_triple(g, registry())
    assert {v.kind for v in violations} == {"range-type", "range-datatype", "unknown-class"}
    assert len(violations) == 16
    pairs = {(t.predicate, t.object) for t in g if t.predicate != RDF_TYPE}
    assert reg.lookups == len(pairs) < len(g)
