"""The benchmark workloads: set-up, one round of ops, answer checks.

Every workload is a closed loop with one client. An op is one unit of
user-visible work; ``run`` is the timed call and ``check`` compares its
output with the expected answer outside the timed region. A round is the
smallest repeating unit of ops, so whole rounds keep the op mix fixed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracle
import tiler
# Layer functions are called through their modules, so the traced run's
# patches on those modules see every call.
from evkg import cli, ingest, ntriples, queries, results, vocabulary
from evkg.graph import Graph


@dataclass
class Op:
    kind: str  # "ingest", "q1".."q10", "lookup", or "pipe.<step>" in the pipeline pass
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right


class SetupError(Exception):
    pass


def ingest_config(corpus: Path) -> ingest.IngestConfig:
    return ingest.IngestConfig(
        registrations=corpus / "registrations.csv",
        stations=corpus / "stations.csv",
        transmission=corpus / "transmission.csv",
        zip_areas=corpus / "zip_areas.csv",
    )


def ingest_snapshot(corpus: Path) -> tuple[int, str, int]:
    """What ``evkg ingest`` computes: graph, snapshot text, violations."""
    graph, _ = ingest.build_graph(ingest_config(corpus))
    return len(graph), ntriples.serialize_ntriples(graph), len(vocabulary.validate_instances(graph))


def build_snapshot(root: Path, corpus: Path, k: int, seed: int) -> tuple[tiler.Tiling, str]:
    """Tile, ingest and pin-check a k-times corpus; returns the snapshot text."""
    tiling = tiler.tile_corpus(root / "fixtures", corpus, k, seed)
    triples, text, violations = ingest_snapshot(corpus)
    problem = oracle.check_snapshot(k, triples, text, violations)
    if problem:
        raise SetupError(f"k={k} snapshot: {problem}")
    return tiling, text


def ingest_op(corpus: Path, k: int) -> Op:
    return Op("ingest", lambda: ingest_snapshot(corpus), lambda out: oracle.check_snapshot(k, *out))


def suite_op(graph: Callable[[], Graph], qid: int, expected: str, kind: str = "") -> Op:
    def run() -> str:
        return results.solution_to_tsv(queries.run_suite_query(graph(), qid))

    def check(out: str) -> Optional[str]:
        return None if out == expected else f"q{qid}: wrong answer"

    return Op(kind or f"q{qid}", run, check)


def cli_op(snapshot: Path, query_file: Path, lookup: oracle.Lookup) -> Op:
    argv = ["query", "-i", str(snapshot), "-q", str(query_file)]

    def run() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out: tuple[int, str]) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"{lookup.name}: exit code {code}"
        return None if text == lookup.expected else f"{lookup.name}: wrong answer"

    return Op("lookup", run, check)


def lookup_ops(root: Path, corpus: Path, tiling: tiler.Tiling, seed: int) -> list[Op]:
    """One round of CLI lookups on ``corpus/evkg.nt``, each from its own .rq file."""
    ops = []
    lookups = oracle.lookup_round(root / "fixtures", tiling, random.Random(seed))
    for n, lookup in enumerate(lookups):
        query_file = corpus / f"lookup{n}.rq"
        query_file.write_text(lookup.query, encoding="utf-8")
        ops.append(cli_op(corpus / "evkg.nt", query_file, lookup))
    return ops


class Workload:
    """Base: ``setup`` may run several times; the last set-up is used."""

    name = ""
    k = 0

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.rng = random.Random(seed)
        self.graph_triples = 0
        self.snapshot_text = ""

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        return self.round()


class Ingest(Workload):
    name = "ingest"
    k = 8

    def setup(self) -> None:
        tiler.tile_corpus(self.root / "fixtures", self.work / "corpus", self.k, self.seed)

    def round(self) -> list[Op]:
        op = ingest_op(self.work / "corpus", self.k)
        return [Op(op.kind, lambda: self._keep(op.run()), op.check)]

    def _keep(self, out: tuple[int, str, int]) -> tuple[int, str, int]:
        self.graph_triples, self.snapshot_text, _ = out
        return out

    def warmup(self) -> list[Op]:
        # A k=1 ingest runs every code path of the op at a twentieth of its cost.
        small = self.work / "corpus-k1"
        if not small.exists():
            tiler.tile_corpus(self.root / "fixtures", small, 1, self.seed)
        return [ingest_op(small, 1)]


class CqSuite(Workload):
    name = "cq-suite"
    k = 2
    # Q1-Q3 weigh twice so that the median falls inside the q4/q5 cluster;
    # with one of each query it sat on the gap between q5 and q6 and moved
    # by up to 30% between runs.
    ROUND = (1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10)

    def setup(self) -> None:
        tiling, text = build_snapshot(self.root, self.work / "corpus", self.k, self.seed)
        snapshot = self.work / "corpus" / "evkg.nt"
        snapshot.write_text(text, encoding="utf-8")
        self.graph = ntriples.parse_ntriples(snapshot.read_text(encoding="utf-8"))
        self.answers = oracle.suite_answers(self.root / "fixtures", tiling)
        self.graph_triples, self.snapshot_text = len(self.graph), text

    def round(self) -> list[Op]:
        order = list(self.ROUND)
        self.rng.shuffle(order)
        return [suite_op(lambda: self.graph, q, self.answers[q]) for q in order]


class CliLookup(Workload):
    name = "cli-lookup"
    k = 4

    def setup(self) -> None:
        corpus = self.work / "corpus"
        tiling, text = build_snapshot(self.root, corpus, self.k, self.seed)
        (corpus / "evkg.nt").write_text(text, encoding="utf-8")
        self.ops = lookup_ops(self.root, corpus, tiling, self.seed)
        self.graph_triples, self.snapshot_text = text.count("\n"), text

    def round(self) -> list[Op]:
        order = list(self.ops)
        self.rng.shuffle(order)
        return order


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Ingest, CqSuite, CliLookup)}


def pipeline_pass(root: Path, work: Path, seed: int, k: int) -> list[Op]:
    """The whole user path once on a k-times corpus, as ops named "pipe.<step>".

    Ingest, snapshot parse, every suite query and one round of CLI lookups.
    The traced run ends with it at k=1, so layers that a
    workload's own ops never reach still get numbers; the scaling sweep
    runs it at each k.
    """
    corpus = work / f"pipeline-k{k}"
    tiling = tiler.tile_corpus(root / "fixtures", corpus, k, seed)
    answers = oracle.suite_answers(root / "fixtures", tiling)
    snapshot = corpus / "evkg.nt"
    state: dict = {}

    def ingest_and_write() -> tuple[int, str, int]:
        out = ingest_snapshot(corpus)
        state["text"] = out[1]
        snapshot.write_text(out[1], encoding="utf-8")
        return out

    def parse() -> Graph:
        state["graph"] = ntriples.parse_ntriples(state["text"])
        return state["graph"]

    ops = [
        Op(f"pipe.ingest", ingest_and_write, lambda out: oracle.check_snapshot(k, *out)),
        Op(f"pipe.parse", parse, lambda g: None if len(g) else "empty graph"),
    ]
    ops += [suite_op(lambda: state["graph"], q, answers[q], f"pipe.q{q}") for q in oracle.SUITE]
    ops += [Op("pipe.lookup", op.run, op.check) for op in lookup_ops(root, corpus, tiling, seed)]
    return ops
