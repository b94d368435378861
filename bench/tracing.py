"""Spans and counters for the traced benchmark run.

The tracer wraps the public functions of each evkg layer from outside. A
function is patched in its own module and in every evkg module that bound
it by name (``cli.parse_ntriples``, ``cli.evaluate``, ``queries.parse_query``
...), so a call is traced whichever name it goes through. Spans record
name, start, end, parent span and op id; nested ``engine.evaluate`` calls
for sub-selects become child spans of the outer one. The hot functions
(``Graph.match``, ``Graph.insert``, ``match_pattern``, ``bbox_disjoint``,
the exact predicates) only bump counters. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Optional

from evkg import geometry, ingest, materialize, ntriples, queries, results, vocabulary
from evkg import cli
from evkg.graph import Graph
from evkg.sparql import engine, parser

LAYERS = (
    "ingest", "geometry", "materialize", "vocabulary", "ntriples",
    "sparql", "queries", "results", "cli",
)


def _rows_read(counts: Counter, args, result) -> None:
    records, issues = result
    counts["ingest.rows_read"] += len(records) + len(issues)


def _triples_out(counts: Counter, args, result) -> None:
    counts["ingest.triples_out"] += len(result)


def _parsed(counts: Counter, args, result) -> None:
    counts["ntriples.parsed_triples"] += len(result)
    counts["ntriples.snapshot_bytes"] += len(args[0].encode("utf-8"))


def _counter(key: str, measure: Callable = lambda result: 1) -> Callable:
    def hook(counts: Counter, args, result) -> None:
        counts[key] += measure(result)

    return hook


# (owner, attribute, span name, after-call hook). Span names start with the layer.
SPANS = [
    (ingest, "build_graph", "ingest.build_graph", None),
    (ingest, "read_registrations", "ingest.read_registrations", _rows_read),
    (ingest, "read_stations", "ingest.read_stations", _rows_read),
    (ingest, "read_transmission", "ingest.read_transmission", _rows_read),
    (ingest, "read_zip_areas", "ingest.read_zip_areas", _rows_read),
    (ingest, "aggregate_registrations", "ingest.aggregate_registrations", None),
    (ingest, "triplify_adoption", "ingest.triplify_adoption", _triples_out),
    (ingest, "triplify_stations", "ingest.triplify_stations", _triples_out),
    (ingest, "triplify_transmission", "ingest.triplify_transmission", _triples_out),
    (ingest, "triplify_places", "ingest.triplify_places", _triples_out),
    (
        materialize, "materialize_spatial_relations", "materialize.spatial",
        _counter("materialize.spatial_triples", lambda r: r.added_total),
    ),
    (
        materialize, "materialize_subclass_closure", "materialize.closure",
        _counter("materialize.closure_triples", lambda r: r),
    ),
    (geometry, "parse_wkt", "geometry.parse_wkt", _counter("geometry.parse_wkt_calls")),
    (vocabulary, "validate_instances", "vocabulary.validate_instances", None),
    (ntriples, "serialize_ntriples", "ntriples.serialize_ntriples", None),
    (ntriples, "parse_ntriples", "ntriples.parse_ntriples", _parsed),
    (parser, "parse_query", "sparql.parse_query", None),
    (engine, "evaluate", "sparql.evaluate", None),
    (engine, "join_rows", "sparql.join_rows", _counter("sparql.join_out_rows", len)),
    (queries, "run_suite_query", "queries.run_suite_query", None),
    (results, "solution_to_tsv", "results.solution_to_tsv", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    """Spans and counters of one traced run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()  # cumulative; ops take differences
        self.op = "none"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op_start: Counter = Counter()

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self._op_start = Counter(self.counts)

    def end_op(self) -> Counter:
        delta = Counter(self.counts)
        delta.subtract(self._op_start)
        self.op = "none"
        return +delta

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _calls(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yields(self, calls_key: Optional[str], items_key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls_key:
                counts[calls_key] += 1
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[items_key] += n

        return wrapper

    def _outermost(self, key: str, fns: list[Callable]) -> list[Callable]:
        """Count only calls not made from inside another of ``fns``."""
        counts, depth = self.counts, [0]

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not depth[0]:
                    counts[key] += 1
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return wrapper

        return [wrap(fn) for fn in fns]

    # -- patching --------------------------------------------------------

    def _replace(self, owner: object, attr: str, new: Callable) -> None:
        old = getattr(owner, attr)
        owners = [owner]
        if not isinstance(owner, type):  # also every by-name binding in evkg
            owners += [
                m for name, m in sorted(sys.modules.items())
                if name.startswith("evkg") and m is not owner and getattr(m, attr, None) is old
            ]
        for target in owners:
            self._patches.append((target, attr, old))
            setattr(target, attr, new)

    def install(self) -> None:
        if self._patches:
            return
        for owner, attr, name, hook in SPANS:
            self._replace(owner, attr, self._span(name, getattr(owner, attr), hook))
        self._replace(Graph, "insert", self._calls("graph.insert_calls", Graph.insert))
        match = self._yields("graph.match_calls", "graph.match_triples", Graph.match)
        self._replace(Graph, "match", match)
        self._replace(
            engine, "match_pattern",
            self._yields(None, "sparql.bindings", engine.match_pattern),
        )
        bbox = self._calls("geometry.bbox_checks", geometry.bbox_disjoint)
        self._replace(geometry, "bbox_disjoint", bbox)
        predicates = self._outermost(
            "geometry.predicate_calls", [geometry.locate_point, geometry.sf_crosses]
        )
        self._replace(geometry, "locate_point", predicates[0])
        self._replace(geometry, "sf_crosses", predicates[1])

    def uninstall(self) -> None:
        for target, attr, old in reversed(self._patches):
            setattr(target, attr, old)
        self._patches.clear()


# ---------------------------------------------------------------------------
# From spans and counts to per-layer metrics
# ---------------------------------------------------------------------------

# metric: (span name prefix, scale to the metric's unit)
SPAN_TIMES = {
    "ingest.read_s": ("ingest.read_", 1.0),
    "ingest.aggregate_s": ("ingest.aggregate_registrations", 1.0),
    "ingest.triplify_s": ("ingest.triplify_", 1.0),
    "materialize.spatial_s": ("materialize.spatial", 1.0),
    "materialize.closure_s": ("materialize.closure", 1.0),
    "geometry.parse_wkt_s": ("geometry.parse_wkt", 1.0),
    "vocabulary.validate_s": ("vocabulary.validate_instances", 1.0),
    "ntriples.serialize_s": ("ntriples.serialize_ntriples", 1.0),
    "ntriples.parse_s": ("ntriples.parse_ntriples", 1.0),
    "sparql.parse_ms": ("sparql.parse_query", 1000.0),
    "sparql.join_rows_s": ("sparql.join_rows", 1.0),
    "results.format_ms": ("results.solution_to_tsv", 1000.0),
}
COUNTS = (
    "ingest.rows_read", "ingest.triples_out",
    "materialize.spatial_triples", "materialize.closure_triples",
    "geometry.parse_wkt_calls", "geometry.bbox_checks", "geometry.predicate_calls",
    "sparql.join_out_rows", "graph.match_calls", "graph.match_triples",
    "graph.insert_calls", "ntriples.snapshot_bytes", "ntriples.parsed_triples",
)


def op_profile(spans: list[list], first: int, counts: Counter, wall_s: float) -> dict:
    """Per-op raw numbers from the op's spans (``spans[first:]``) and counts."""
    own = spans[first:]
    prof = {key: float(counts.get(key, 0)) for key in COUNTS}
    prof["sparql.bindings"] = float(counts.get("sparql.bindings", 0))
    for metric, (prefix, scale) in SPAN_TIMES.items():
        prof[metric] = scale * sum(s[2] - s[1] for s in own if s[0].startswith(prefix))
    prof["sparql.eval_ms"] = 1000.0 * sum(
        s[2] - s[1]
        for s in own
        if s[0] == "sparql.evaluate" and (s[3] < 0 or spans[s[3]][0] != "sparql.evaluate")
    )
    # Self time: a span's duration minus the time its direct children cover.
    selfs = {layer: 0.0 for layer in LAYERS}
    child_time = Counter()
    top_level = 0.0
    for s in own:
        if s[3] >= first:
            child_time[s[3]] += s[2] - s[1]
        else:
            top_level += s[2] - s[1]
    for offset, s in enumerate(own):
        selfs[s[0].split(".")[0]] += s[2] - s[1] - child_time[first + offset]
    for layer, value in selfs.items():
        prof[f"{layer}.self_s"] = value
    prof["bench.self_s"] = max(wall_s - top_level, 0.0)
    return prof


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: list[dict], reference: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and the source of each.

    ``ops`` are the workload's traced ops, ``reference`` the ops of the k=1
    reference pass; each item is {"kind", "rows", "profile"}. A metric is
    the mean per op over the workload's ops (medians for eval_ms); where
    the workload's ops never reach the layer, it comes from the reference
    pass taken as one op.
    """
    metrics: dict[str, float] = {}
    source: dict[str, str] = {}
    keys = list(SPAN_TIMES) + list(COUNTS) + [f"{layer}.self_s" for layer in LAYERS]
    for key in keys + ["bench.self_s"]:
        own = _mean([op["profile"][key] for op in ops])
        if own:
            metrics[key], source[key] = own, "ops"
        else:
            metrics[key] = sum(op["profile"][key] for op in reference)
            source[key] = "reference"

    for num, den, name in (
        ("materialize.spatial_triples", "geometry.predicate_calls", "materialize.spatial_hit_ratio"),
        ("ntriples.parsed_triples", "ntriples.parse_s", "ntriples.parse_triples_per_s"),
    ):
        metrics[name] = _ratio(metrics[num], metrics[den])
        source[name] = source[num]
    del metrics["ntriples.parsed_triples"], source["ntriples.parsed_triples"]

    for kind in [f"q{q}" for q in range(1, 11)] + ["lookup"]:
        mine = [op for op in ops if op["kind"] == kind]
        theirs = [op for op in reference if op["kind"] == f"pipe.{kind}"]
        chosen, where = (mine, "ops") if mine else (theirs, "reference")
        if not chosen:  # every such op failed
            continue
        eval_ms = statistics.median([op["profile"]["sparql.eval_ms"] for op in chosen])
        metrics[f"sparql.eval_ms.{kind}"], source[f"sparql.eval_ms.{kind}"] = eval_ms, where
        if kind == "lookup":
            continue
        bindings = _mean([op["profile"]["sparql.bindings"] for op in chosen])
        rows = _mean([op["rows"] for op in chosen])
        metrics[f"sparql.bindings.{kind}"] = bindings
        metrics[f"sparql.rows_per_result.{kind}"] = _ratio(bindings, rows)
        source[f"sparql.bindings.{kind}"] = source[f"sparql.rows_per_result.{kind}"] = where
    return metrics, source
