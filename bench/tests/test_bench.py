"""Tests of the benchmark's own parts: tiler, derived answers, tracer.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import random
import re
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tiler  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from evkg import queries  # noqa: E402
from evkg.ingest import build_graph  # noqa: E402
from evkg.ntriples import parse_ntriples, serialize_ntriples  # noqa: E402
from evkg.results import solution_to_tsv  # noqa: E402
from evkg.sparql import naive, parse_query  # noqa: E402

FIXTURES = ROOT / "fixtures"
_NUM_RE = re.compile(r"-?\d+(?:\.\d+)?")


def _rows(corpus: Path, name: str) -> Counter:
    _, rows = tiler.read_csv(corpus / f"{name}.csv")
    return Counter(tuple(sorted(r.items())) for r in rows)


def _tiles(corpus: Path) -> dict[int, list[tuple[str, str]]]:
    """Every geometry of the tiled corpus, grouped by the tile its id names."""
    out: dict[int, list[tuple[str, str]]] = {}
    originals = {r["zip"] for r in tiler.read_csv(FIXTURES / "zip_areas.csv")[1]}
    for row in tiler.read_csv(corpus / "zip_areas.csv")[1]:
        tile = 0 if row["zip"] in originals else (int(row["zip"]) - 10000) // 32
        out.setdefault(tile, []).append(("zip_areas", row["wkt"]))
    for name, id_col in (("stations", "station_id"), ("transmission", "asset_id")):
        _, rows = tiler.read_csv(corpus / f"{name}.csv")
        for row in rows:
            tile = int(row[id_col].rsplit("-t", 1)[1]) if "-t" in row[id_col] else 0
            geom = row["wkt"] if name == "transmission" else f"POINT ({row['lon']} {row['lat']})"
            out.setdefault(tile, []).append((name, geom))
    return out


def test_k1_reproduces_fixture_rows(tmp_path):
    tiler.tile_corpus(FIXTURES, tmp_path, 1, seed=7)
    for name in tiler.CSV_NAMES:
        assert _rows(tmp_path, name) == _rows(FIXTURES, name), name


def test_seed_changes_only_row_order(tmp_path):
    tiler.tile_corpus(FIXTURES, tmp_path / "a", 3, seed=1)
    tiler.tile_corpus(FIXTURES, tmp_path / "b", 3, seed=2)
    for name in tiler.CSV_NAMES:
        assert _rows(tmp_path / "a", name) == _rows(tmp_path / "b", name)
    a = (tmp_path / "a" / "registrations.csv").read_text()
    assert a != (tmp_path / "b" / "registrations.csv").read_text()


def test_tile_bboxes_are_disjoint(tmp_path):
    tiler.tile_corpus(FIXTURES, tmp_path, 4, seed=3)
    spans = []
    for tile, geoms in sorted(_tiles(tmp_path).items()):
        xs = [float(n) for _, wkt in geoms for n in _NUM_RE.findall(wkt)[0::2]]
        spans.append((min(xs), max(xs)))
    assert len(spans) == 4
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        assert hi1 < lo2, (hi1, lo2)


def test_ids_are_unique_and_zips_do_not_clash(tmp_path):
    tiler.tile_corpus(FIXTURES, tmp_path, 16, seed=5)
    originals = {r["zip"] for r in tiler.read_csv(FIXTURES / "zip_areas.csv")[1]}
    for name, col in (("zip_areas", "zip"), ("stations", "station_id"), ("transmission", "asset_id")):
        ids = [r[col] for r in tiler.read_csv(tmp_path / f"{name}.csv")[1]]
        assert len(ids) == len(set(ids)) == 16 * len(tiler.read_csv(FIXTURES / f"{name}.csv")[1])
    zips = {r["zip"] for r in tiler.read_csv(tmp_path / "zip_areas.csv")[1]}
    renamed = zips - originals
    assert len(renamed) == 15 * len(originals)
    assert all(len(z) == 5 and z.isdigit() for z in renamed)
    referenced = {r["zip"] for r in tiler.read_csv(tmp_path / "registrations.csv")[1]}
    assert referenced <= zips


def test_triple_count_grows_linearly_in_k(tmp_path):
    pins = oracle.load_pins()
    t1, t2 = pins["1"]["triples"], pins["2"]["triples"]
    for k, pin in pins.items():
        assert pin["triples"] == t1 + (int(k) - 1) * (t2 - t1), k
    tiler.tile_corpus(FIXTURES, tmp_path, 3, seed=1)
    graph, _ = build_graph(workloads.ingest_config(tmp_path))
    assert len(graph) == t1 + 2 * (t2 - t1)


def test_snapshot_pins_hold_and_do_not_depend_on_seed(tmp_path):
    for seed in (1, 2):
        corpus = tmp_path / f"s{seed}"
        tiler.tile_corpus(FIXTURES, corpus, 2, seed)
        graph, _ = build_graph(workloads.ingest_config(corpus))
        assert oracle.check_snapshot(2, len(graph), serialize_ntriples(graph), 0) is None


def test_derived_answers_at_k1_are_the_fixture_answers():
    answers = oracle.suite_answers(FIXTURES, tiler.fixture_tiling(FIXTURES, 1))
    for qid, text in answers.items():
        assert text == (FIXTURES / "expected" / f"query{qid:02d}.tsv").read_text(), qid


def _k2_graph(tmp_path):
    tiling = tiler.tile_corpus(FIXTURES, tmp_path, 2, seed=4)
    graph, _ = build_graph(workloads.ingest_config(tmp_path))
    return tiling, parse_ntriples(serialize_ntriples(graph))


def test_derived_suite_answers_match_the_naive_evaluator_at_k2(tmp_path):
    tiling, graph = _k2_graph(tmp_path)
    answers = oracle.suite_answers(FIXTURES, tiling)
    for qid in (1, 2, 3, 4, 7):  # the ones the nested-loop evaluator finishes quickly
        got = solution_to_tsv(queries.run_suite_query(graph, qid, evaluator=naive.evaluate))
        assert got == answers[qid], qid


def test_lookup_answers_match_the_naive_evaluator_at_k2(tmp_path):
    tiling, graph = _k2_graph(tmp_path)
    for seed in range(4):
        for lookup in oracle.lookup_round(FIXTURES, tiling, random.Random(seed)):
            got = solution_to_tsv(naive.evaluate(graph, parse_query(lookup.query)))
            assert got == lookup.expected, lookup.name


def test_meter_samples_inside_a_busy_region_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with hostspeed.Meter() as meter:
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert len(meter.samples) > hostspeed.SAMPLES_BEFORE + 2
    assert 0.0 < meter.elapsed_s and meter.calibration_ms > 0.0
    ref = hostspeed.REFERENCE_MS
    assert hostspeed.correct([10.0, 20.0], [ref, 2 * ref]) == [10.0, 10.0]


def _raise_memory_error():
    raise MemoryError


def test_runner_counts_caps_errors_and_wrong_answers_as_failed_ops():
    import worker

    runner = worker.Runner(cap_s=0.2)
    ops = [
        workloads.Op("slow", lambda: time.sleep(5), lambda out: None),
        workloads.Op("oom", _raise_memory_error, lambda out: None),
        workloads.Op("crash", lambda: 1 / 0, lambda out: None),
        workloads.Op("wrong", lambda: "x\n", lambda out: "bad answer"),
        workloads.Op("ok", lambda: "header\nrow\n", lambda out: None),
    ]
    records = [runner.run(op) for op in ops]
    statuses = [r["status"] for r in records]
    assert statuses == ["exceeded-time", "exceeded-memory", "error", "wrong", "ok"]
    assert (runner.attempted, runner.failed) == (5, 4)
    assert records[-1]["rows"] == 1 and records[-1]["ms"] is not None


def _traced_q8(graph) -> tuple[list, Counter]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op("q8")
        queries.run_suite_query(graph, 8)
        counts = tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer.spans, counts


def test_tracer_nests_subselects_counts_repeat_and_uninstall_restores(tmp_path):
    from evkg import cli
    from evkg.graph import Graph
    from evkg.sparql import engine

    def patched_names():
        return cli.parse_ntriples, cli.evaluate, queries.parse_query, Graph.match, engine.evaluate

    before = patched_names()
    tiler.tile_corpus(FIXTURES, tmp_path, 1, seed=1)
    graph, _ = build_graph(workloads.ingest_config(tmp_path))
    spans, counts = _traced_q8(graph)
    assert patched_names() == before
    evaluates = [i for i, s in enumerate(spans) if s[0] == "sparql.evaluate"]
    nested = [i for i in evaluates if spans[spans[i][3]][0] == "sparql.evaluate"]
    assert nested and len(nested) < len(evaluates)
    for i in nested:
        parent = spans[spans[i][3]]
        assert parent[1] <= spans[i][1] and spans[i][2] <= parent[2]
    assert counts["sparql.bindings"] > 0 and counts["graph.match_calls"] > 0
    assert _traced_q8(graph)[1] == counts
