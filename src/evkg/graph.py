"""In-memory triple store with a subject-first and a predicate-first index.

The store has set semantics: re-inserting an existing triple is a no-op.
After a load it is treated as immutable and is safe for concurrent
read-only query evaluation (single writer during load, no internal locks).
``update`` is the one write loop: it takes a whole batch, and ``insert``
and the constructor are an ``update`` of one triple and of their argument.
A triple's terms are checked when it is built (the triplifiers and the
subclass closure skip that for terms they made or read from the graph);
the triples that ``match`` and iteration yield are built from the indexes
without checks.

Each index entry (the objects of one subject and predicate, the subjects
of one predicate and object) is the index's own collection: a 1-tuple for
one term, a set for more. Most entries hold one term, and on CPython a
1-tuple takes 48 bytes against a set's 216. ``update`` alone knows the two
shapes: it turns a 1-tuple into a set when a second term arrives, by the
same insertions as a set grown one ``add`` at a time, so iteration order
is the same. Every reader only tests membership, takes ``len`` or
iterates, and never writes an entry.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Optional

from .terms import Iri, Term, Triple

_EMPTY: dict = {}  # a missing index entry; never written


class Graph:
    """Indexed set of triples.

    The two indexes are the only per-triple storage; membership, size and
    iteration all come from the subject-first one. A per-predicate triple
    count makes predicate-only estimates O(1). There is no object-first
    index: a lookup by object alone costs one predicate-first probe per
    predicate, and the vocabulary fixes the number of predicates.

    The query engine reads the indexes only through two methods. ``match``
    takes one pattern and returns an iterable of its triples; the engine
    calls it once per row, fully bound for an existence check, which gets
    a 0- or 1-tuple. ``neighbours`` takes a
    predicate and a batch of subjects (or objects) and returns, for each,
    the index's own collection of objects (or subjects): a 1-tuple for one
    term, a set for more; the engine calls it once per step that binds one
    new variable, in the subject or object position, under a constant
    predicate.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._size = 0
        # Access orders: subject->predicate->objects, predicate->object->subjects.
        self._spo: dict = {}
        self._pos: dict = {}
        self._predicate_sizes: dict = {}
        self.update(triples)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, t: Triple) -> bool:
        return t.object in self._spo.get(t.subject, {}).get(t.predicate, ())

    def __iter__(self) -> Iterator[Triple]:
        for subj, po in self._spo.items():
            for pred, objs in po.items():
                for obj in objs:
                    yield tuple.__new__(Triple, (subj, pred, obj))

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns True if it was not already present."""
        return self.update((t,)) == 1

    def update(self, triples: Iterable[Triple]) -> int:
        """Insert many; returns how many were new.

        Raises TypeError at the first item that is not a Triple; the ones
        before it stay inserted, and the size, both indexes and the
        per-predicate counts still agree.
        """
        spo, pos, sizes = self._spo, self._pos, self._predicate_sizes
        added = 0
        try:
            for t in triples:
                if not isinstance(t, Triple):
                    raise TypeError(f"expected Triple, got {type(t).__name__}")
                s, p, o = t
                po = spo.get(s)
                if po is None:
                    po = spo[s] = {}
                objects = po.get(p)
                if objects is None:
                    po[p] = (o,)
                elif o in objects:
                    continue
                elif type(objects) is tuple:
                    po[p] = {objects[0], o}
                else:
                    objects.add(o)
                os_ = pos.get(p)
                if os_ is None:
                    os_ = pos[p] = {}
                    sizes[p] = 0
                subjects = os_.get(o)
                if subjects is None:
                    os_[o] = (s,)
                elif type(subjects) is tuple:
                    os_[o] = {subjects[0], s}
                else:
                    subjects.add(s)
                sizes[p] += 1
                added += 1
        finally:
            self._size += added
        return added

    def match(
        self,
        s: Optional[Term] = None,
        p: Optional[Iri] = None,
        o: Optional[Term] = None,
    ) -> Iterable[Triple]:
        """The triples matching the bound positions (None = wildcard), as an
        iterable.

        A fully bound pattern is one membership test in the subject-first
        index and gets a tuple, empty or holding its triple, with no
        generator. Any other pattern gets a generator: subject-first when s
        is bound, else predicate-first. A bound object alone probes the
        predicate-first index once per predicate; nothing bound walks the
        subject-first index. Callers iterate the result and never
        truth-test it: a generator is truthy even when it yields nothing,
        and a subclass or wrapper may return one for every pattern.
        """
        if s is not None and p is not None and o is not None:
            if o in self._spo.get(s, _EMPTY).get(p, ()):
                return (tuple.__new__(Triple, (s, p, o)),)
            return ()
        return self._match(s, p, o)

    def _match(self, s: Optional[Term], p: Optional[Iri], o: Optional[Term]) -> Iterator[Triple]:
        if s is not None:
            po = self._spo.get(s)
            if not po:
                return
            preds = (p,) if p is not None else po.keys()
            for pred in preds:
                objs = po.get(pred)
                if not objs:
                    continue
                if o is not None:
                    if o in objs:
                        yield tuple.__new__(Triple, (s, pred, o))
                else:
                    for obj in objs:
                        yield tuple.__new__(Triple, (s, pred, obj))
        elif p is not None:
            os_ = self._pos.get(p)
            if not os_:
                return
            if o is not None:
                for subj in os_.get(o, ()):
                    yield tuple.__new__(Triple, (subj, p, o))
            else:
                for obj, subjs in os_.items():
                    for subj in subjs:
                        yield tuple.__new__(Triple, (subj, p, obj))
        elif o is not None:
            for pred, os_ in self._pos.items():
                for subj in os_.get(o, ()):
                    yield tuple.__new__(Triple, (subj, pred, o))
        else:
            yield from self

    def neighbours(self, p: Iri, keys: Iterable[Term], forward: bool) -> list[Collection[Term]]:
        """For each key, the objects of (key, p, ?) when `forward`, else the
        subjects of (?, p, key): the index's own collection (a 1-tuple for
        one term, a set for more), to be read only, or an empty tuple. One
        call looks up a whole batch of keys; the collections are the ones
        ``match`` walks, in the same order."""
        if forward:
            spo = self._spo
            return [spo.get(key, _EMPTY).get(p, ()) for key in keys]
        subjects = self._pos.get(p, _EMPTY)
        return [subjects.get(key, ()) for key in keys]

    def count_estimate(
        self,
        s: Optional[Term] = None,
        p: Optional[Iri] = None,
        o: Optional[Term] = None,
    ) -> int:
        """Cheap upper bound on match cardinality, used for join ordering.

        O(1) when p is bound, since ``update`` keeps a triple count per
        predicate; a lone bound subject sums over its index entry, and a
        lone bound object over one predicate-first probe per predicate.
        """
        if s is not None:
            po = self._spo.get(s)
            if not po:
                return 0
            if p is not None:
                return len(po.get(p, ()))
            return sum(len(v) for v in po.values())
        if p is not None:
            os_ = self._pos.get(p)
            if not os_:
                return 0
            if o is not None:
                return len(os_.get(o, ()))
            return self._predicate_sizes[p]
        if o is not None:
            return sum(len(os_.get(o, ())) for os_ in self._pos.values())
        return self._size

    def predicate_objects(self) -> Iterator[tuple[Iri, Term]]:
        """Each distinct (predicate, object) pair, from the predicate-first index."""
        for p, os_ in self._pos.items():
            for o in os_:
                yield p, o

    def object_subjects(self, p: Iri) -> list[tuple[Term, tuple[Term, ...]]]:
        """Each distinct object of p with the subjects that state it, from the
        predicate-first index. A copy, so the caller may insert while it walks it."""
        return [(o, tuple(subjects)) for o, subjects in self._pos.get(p, {}).items()]

    def subject_groups(self) -> Iterator[tuple[Term, Iri, Collection[Term]]]:
        """Each (subject, predicate, objects) group of the subject-first index;
        the objects are the index's own collection, to be read only."""
        for s, po in self._spo.items():
            for p, objects in po.items():
                yield s, p, objects

    # Convenience accessors used by reporting, materialization and validation.
    # Each reads one index entry directly, in the order ``match`` walks it, and
    # builds no Triple; `s` and `p` (or `p` and `o`) must be bound.

    def objects(self, s: Term, p: Iri) -> list[Term]:
        """The objects of (s, p, ?), from the subject-first index."""
        return list(self._spo.get(s, _EMPTY).get(p, ()))

    def value(self, s: Term, p: Iri) -> Optional[Term]:
        """The first of ``objects(s, p)``, or None."""
        return next(iter(self._spo.get(s, _EMPTY).get(p, ())), None)

    def subjects(self, p: Iri, o: Term) -> list[Term]:
        """The subjects of (?, p, o), from the predicate-first index."""
        return list(self._pos.get(p, _EMPTY).get(o, ()))
