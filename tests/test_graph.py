from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evkg.graph import Graph
from evkg.terms import EV_ONT, EVR, RDF_TYPE, Literal, Triple, XSD_INTEGER

from conftest import index_sizes
from randomized import OBJECT_IRIS, OBJECT_LITERALS, PREDICATES, SUBJECTS, random_graph

STATION = EV_ONT.ChargingStation


def _triple_pool():
    subjects = [EVR[f"s{i}"] for i in range(8)]
    predicates = [EV_ONT[f"p{i}"] for i in range(4)]
    objects = [EVR[f"o{i}"] for i in range(6)] + [Literal(str(i), XSD_INTEGER) for i in range(4)]
    return subjects, predicates, objects


triples_strategy = st.lists(
    st.builds(
        Triple,
        st.sampled_from(_triple_pool()[0]),
        st.sampled_from(_triple_pool()[1]),
        st.sampled_from(_triple_pool()[2]),
    ),
    max_size=120,
)


def test_insert_twice_returns_false_and_keeps_size():
    g = Graph()
    t = Triple(EVR["s1"], RDF_TYPE, STATION)
    assert g.insert(t) is True
    assert g.insert(t) is False
    assert len(g) == 1


def test_insert_singleton():
    g = Graph()
    g.insert(Triple(EVR["s1"], RDF_TYPE, STATION))
    assert len(g) == 1


@given(triples_strategy)
def test_insert_distinct_then_reinsert_all(triples):
    # Oracle: the deduplicated list.
    expected = set(triples)
    g = Graph()
    for t in triples:
        g.insert(t)
    assert len(g) == len(expected)
    for t in triples:
        assert g.insert(t) is False
    assert len(g) == len(expected)
    assert set(g) == expected
    subjects, predicates, objects = _triple_pool()
    for s in subjects:
        for p in predicates:
            for o in objects:
                t = Triple(s, p, o)
                assert (t in g) == (t in expected)


def test_match_all_on_empty_graph():
    assert list(Graph().match()) == []


@given(triples_strategy, st.randoms())
def test_match_agrees_with_linear_scan(triples, rng):
    g = Graph(triples)
    pool_s, pool_p, pool_o = _triple_pool()
    for _ in range(12):
        s = rng.choice([None, rng.choice(pool_s)])
        p = rng.choice([None, rng.choice(pool_p)])
        o = rng.choice([None, rng.choice(pool_o)])
        expected = {
            t
            for t in triples
            if (s is None or t.subject == s)
            and (p is None or t.predicate == p)
            and (o is None or t.object == o)
        }
        assert set(g.match(s, p, o)) == expected


def test_match_by_subject_hand_count():
    g = Graph()
    for i in range(3):
        g.insert(Triple(EVR["s1"], EV_ONT[f"p{i}"], EVR[f"o{i}"]))
    for i in range(2):
        g.insert(Triple(EVR["s2"], EV_ONT[f"p{i}"], EVR[f"o{i}"]))
    assert len(list(g.match(EVR["s1"], None, None))) == 3


def test_match_type_returns_exactly_inserted_stations():
    g = Graph()
    stations = [EVR[f"stn{i}"] for i in range(5)]
    for s in stations:
        g.insert(Triple(s, RDF_TYPE, STATION))
    g.insert(Triple(EVR["x"], RDF_TYPE, EV_ONT.PowerPlant))
    found = {t.subject for t in g.match(None, RDF_TYPE, STATION)}
    assert found == set(stations)


@given(triples_strategy)
def test_index_sizes_always_agree(triples):
    g = Graph(triples)
    sizes = index_sizes(g)
    assert sizes == (len(g), len(g))


@given(triples_strategy, st.randoms())
def test_insertion_order_never_affects_match(triples, rng):
    g1 = Graph(triples)
    shuffled = list(triples)
    rng.shuffle(shuffled)
    g2 = Graph(shuffled)
    assert set(g1.match()) == set(g2.match())
    for s in _triple_pool()[0][:3]:
        assert set(g1.match(s, None, None)) == set(g2.match(s, None, None))


def test_fully_bound_match_consistent_with_membership():
    g = Graph()
    t = Triple(EVR["s"], RDF_TYPE, STATION)
    g.insert(t)
    assert list(g.match(t.subject, t.predicate, t.object)) == [t]
    absent = Triple(EVR["s"], RDF_TYPE, EV_ONT.PowerPlant)
    assert list(g.match(absent.subject, absent.predicate, absent.object)) == []
    # Every stored triple yields exactly itself; the same triple with another
    # object, an absent predicate or a literal subject yields what `in` says.
    rng = random.Random(22)
    for _ in range(40):
        g = random_graph(rng)
        for t in g:
            assert list(g.match(*t)) == [t] and t in g
            s, p, o = t
            probes = [(s, p, other) for other in OBJECT_IRIS + OBJECT_LITERALS if other != o]
            probes += [(s, EVR["missing"], o), (Literal("1", XSD_INTEGER), p, o)]
            for probe in probes:
                found = list(g.match(*probe))
                assert found == ([probe] if tuple.__new__(Triple, probe) in g else [])
            assert not any(g.match(s, EVR["missing"], o))
            assert not any(g.match(Literal("1", XSD_INTEGER), p, o))


_UNKNOWN = EVR["unknown"]


@given(
    triples_strategy,
    st.lists(
        st.tuples(
            st.sampled_from(_triple_pool()[0] + [Literal("1", XSD_INTEGER), _UNKNOWN]),
            st.sampled_from(_triple_pool()[1] + [_UNKNOWN]),
            st.sampled_from(_triple_pool()[2] + [_UNKNOWN]),
        ),
        max_size=40,
    ),
)
def test_fully_bound_match_is_the_stored_triple_or_nothing(triples, probes):
    g = Graph(triples)
    stored = set(triples)
    for s, p, o in probes + [tuple(t) for t in triples]:
        found = g.match(s, p, o)
        assert type(found) is tuple  # a 0- or 1-tuple, no generator
        assert list(found) == ([Triple(s, p, o)] if (s, p, o) in stored else [])
        assert all(type(t) is Triple for t in found)


def test_match_and_iteration_yield_triples_with_their_terms():
    g = Graph()
    t = Triple(EVR["s"], RDF_TYPE, STATION)
    g.insert(t)
    hits = [*g.match(), *g.match(t.subject), *g.match(None, RDF_TYPE)]
    for found in [*hits, *g.match(None, None, STATION), *g]:
        assert type(found) is Triple and found == t
        assert (found.subject, found.predicate, found.object) == (EVR["s"], RDF_TYPE, STATION)


def test_count_estimate_bounds_match():
    random.seed(7)
    pool_s, pool_p, pool_o = _triple_pool()
    triples = [
        Triple(random.choice(pool_s), random.choice(pool_p), random.choice(pool_o))
        for _ in range(60)
    ]
    g = Graph(triples)
    g.update(triples[::2])  # duplicate inserts must not move any count
    distinct = set(triples)
    for s in [None, *pool_s]:
        for p in [None, *pool_p]:
            for o in [None, *pool_o]:
                matched = list(g.match(s, p, o))
                expected = {
                    t
                    for t in distinct
                    if s in (None, t.subject) and p in (None, t.predicate) and o in (None, t.object)
                }
                assert len(matched) == len(expected) and set(matched) == expected
                assert len(matched) <= g.count_estimate(s, p, o)
    for p in pool_p:
        assert g.count_estimate(None, p, None) == len(list(g.match(None, p, None)))


@given(triples_strategy)
def test_object_only_estimate_is_the_match_count(triples):
    # No object-first index: both walk the predicate-first one, so the estimate is exact.
    g = Graph(triples)
    absent = [EVR["nowhere"], Literal("nowhere"), Literal("7", XSD_INTEGER)]
    for o in [*_triple_pool()[2], *absent]:
        matched = list(g.match(None, None, o))
        assert len(matched) == len(set(matched)) == g.count_estimate(None, None, o)
        assert set(matched) == {t for t in triples if t.object == o}


def _state(g: Graph):
    predicates = _triple_pool()[1]
    return (len(g), index_sizes(g), [g.count_estimate(p=p) for p in predicates], set(g))


def test_update_equals_inserting_one_at_a_time():
    rng = random.Random(20)
    pool_s, pool_p, pool_o = _triple_pool()
    for _ in range(60):
        batched, single, distinct = Graph(), Graph(), set()
        for _ in range(3):
            batch = [Triple(rng.choice(pool_s), rng.choice(pool_p), rng.choice(pool_o))
                     for _ in range(rng.randint(0, 50))]
            batch += rng.sample(batch, len(batch) // 3)  # repeats inside the batch
            new = len(set(batch) - distinct)
            distinct.update(batch)
            assert batched.update(batch) == new
            assert sum(single.insert(t) for t in batch) == new
            assert _state(batched) == _state(single)
            assert _state(batched)[3] == distinct
            assert _state(batched)[:2] == (len(distinct), (len(distinct), len(distinct)))


def test_update_stopped_by_a_non_triple_leaves_the_store_consistent():
    a, b, c = (Triple(EVR[f"s{i}"], RDF_TYPE, STATION) for i in range(3))
    g = Graph([a])
    with pytest.raises(TypeError, match="expected Triple, got tuple"):
        g.update([b, a, (EVR["s9"], RDF_TYPE, STATION), c])
    assert len(g) == index_sizes(g)[0] == index_sizes(g)[1] == 2
    assert g.count_estimate(p=RDF_TYPE) == 2
    assert set(g) == {a, b}
    with pytest.raises(TypeError):
        g.insert((EVR["s9"], RDF_TYPE, STATION))
    assert g.update([c]) == 1 and len(g) == 3


def test_neighbours_are_what_match_yields_in_both_directions():
    # Keys cover absent IRIs, literals (never a stored subject) and the
    # predicates some triples use as subject or object; one predicate is
    # absent from every graph. Each key's values come in match's order.
    keys = SUBJECTS + OBJECT_IRIS + OBJECT_LITERALS + PREDICATES + [EVR["absent"]]
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng)
        for p in PREDICATES + [EVR["missing"]]:
            forward = g.neighbours(p, keys, True)
            backward = g.neighbours(p, keys, False)
            assert [list(values) for values in forward] == [
                [t.object for t in g.match(key, p, None)] for key in keys
            ]
            assert [list(values) for values in backward] == [
                [t.subject for t in g.match(None, p, key)] for key in keys
            ]
    assert g.neighbours(PREDICATES[0], iter([]), True) == []
    assert g.neighbours(EVR["missing"], [SUBJECTS[0]], False) == [()]
    assert g.neighbours(PREDICATES[0], [Literal("1", XSD_INTEGER)], True) == [()]


def test_accessors_are_what_match_yields():
    # Missing subjects, predicates and objects, and literal subjects, find
    # nothing; every value comes in match's order.
    subjects = SUBJECTS + OBJECT_LITERALS + PREDICATES + [EVR["absent"]]
    objects = OBJECT_IRIS + OBJECT_LITERALS + PREDICATES + [EVR["absent"]]
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng)
        for p in PREDICATES + [EVR["missing"]]:
            for s in subjects:
                expected = [t.object for t in g.match(s, p, None)]
                assert g.objects(s, p) == expected
                assert g.value(s, p) == (expected[0] if expected else None)
            for o in objects:
                assert g.subjects(p, o) == [t.subject for t in g.match(None, p, o)]
    assert Graph().objects(SUBJECTS[0], PREDICATES[0]) == []
    assert Graph().value(SUBJECTS[0], PREDICATES[0]) is None
    assert Graph().subjects(PREDICATES[0], OBJECT_IRIS[0]) == []


class _SetLeaves:
    """The reference for the store's leaf shape: every index entry is a set,
    made at its first term and grown by ``add``."""

    def __init__(self):
        self.spo: dict = {}
        self.pos: dict = {}

    def add(self, t: Triple) -> bool:
        s, p, o = t
        objects = self.spo.setdefault(s, {}).setdefault(p, set())
        if o in objects:
            return False
        objects.add(o)
        self.pos.setdefault(p, {}).setdefault(o, set()).add(s)
        return True


def test_one_term_tuples_read_as_sets_grown_by_add():
    # Batches repeat triples inside themselves and re-insert earlier ones,
    # and entries grow from one term to two and three; some batches hold a
    # non-Triple, which stops them after the items before it.
    rng = random.Random(34)
    pool_s, pool_p, pool_o = _triple_pool()
    for _ in range(30):
        g, ref, seen = Graph(), _SetLeaves(), []
        for _ in range(6):
            batch = [Triple(rng.choice(pool_s), rng.choice(pool_p), rng.choice(pool_o))
                     for _ in range(rng.randint(0, 25))]
            batch += rng.sample(seen, min(len(seen), 5)) + rng.sample(batch, len(batch) // 3)
            rng.shuffle(batch)
            if batch and rng.random() < 0.3:
                cut = rng.randrange(len(batch))
                with pytest.raises(TypeError, match="expected Triple, got tuple"):
                    g.update(batch[:cut] + [tuple(batch[cut])] + batch[cut:])
                batch = batch[:cut]
                for t in batch:
                    ref.add(t)
            else:
                assert g.update(batch) == sum(ref.add(t) for t in batch)
            seen += batch
            _assert_reads_agree(g, ref)
    sizes = {len(objects) for po in ref.spo.values() for objects in po.values()}
    assert {1, 2, 3} <= sizes


def _assert_reads_agree(g: Graph, ref: _SetLeaves):
    total = sum(len(objects) for po in ref.spo.values() for objects in po.values())
    assert len(g) == total and index_sizes(g) == (total, total)
    assert list(g) == [Triple(s, p, o) for s, po in ref.spo.items()
                       for p, objects in po.items() for o in objects]
    assert [(s, p, list(objects)) for s, p, objects in g.subject_groups()] == [
        (s, p, list(objects)) for s, po in ref.spo.items() for p, objects in po.items()]
    for s, po in ref.spo.items():
        assert g.count_estimate(s) == sum(map(len, po.values()))
        for p, objects in po.items():
            order = list(objects)
            [stored] = g.neighbours(p, [s], True)
            assert isinstance(stored, tuple) == (len(order) == 1)
            assert list(stored) == order
            assert [t.object for t in g.match(s, p)] == order
            assert g.objects(s, p) == order and g.value(s, p) == order[0]
            assert g.count_estimate(s, p) == len(order)
            assert all(Triple(s, p, o) in g for o in order)
    for p, os_ in ref.pos.items():
        assert g.count_estimate(p=p) == sum(map(len, os_.values()))
        for o, subjects in os_.items():
            order = list(subjects)
            [stored] = g.neighbours(p, [o], False)
            assert isinstance(stored, tuple) == (len(order) == 1)
            assert list(stored) == order
            assert [t.subject for t in g.match(None, p, o)] == order
            assert g.subjects(p, o) == order
            assert g.count_estimate(p=p, o=o) == len(order)
