"""Command-line entry point.

Subcommands: ingest (CSV -> N-Triples snapshot), materialize, query, cq
(competency questions with expected-result diffs: those given by -q, in
order, or all six, from one load of the snapshot), stats, and
export-ontology. Exit codes: 0 ok, 1 competency diff failure (any question
failed), 2 I/O problem (an input that cannot be read, is not UTF-8 or is
malformed), 3 query syntax or unsupported construct, 4 out of memory.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

from . import queries as suite
from .graph import Graph
from .ingest import IngestConfig, IngestError, build_graph
from .materialize import (
    StoredGeometryError,
    materialize_spatial_relations,
    materialize_subclass_closure,
)
from .ntriples import ParseError, parse_ntriples, serialize_ntriples, serialize_turtle
from .results import solution_to_json, solution_to_tsv
from .sparql import QueryError, parse_query
from .sparql.engine import evaluate
from .terms import EV_ONT, KWG_ONT, RDF, Iri
from .vocabulary import registry, schema_graph, validate_instances

EXIT_OK = 0
EXIT_CQ_FAIL = 1
EXIT_IO = 2
EXIT_QUERY = 3
EXIT_MEMORY = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from None
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 text ({exc.reason})", EXIT_IO) from None


def _write_text(path: Path, content: str) -> None:
    try:
        path.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from None


def _load_snapshot(path: Path) -> Graph:
    text = _read_text(path)
    try:
        return parse_ntriples(text)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}", EXIT_IO) from None


_CONFIG_KEYS = {"registrations", "stations", "transmission", "zip_areas", "snapshot",
                "materialize_spatial", "subclass_closure"}


def cmd_ingest(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    try:
        raw = json.loads(_read_text(config_path))
    except json.JSONDecodeError as exc:
        raise CliError(f"{config_path}: not valid JSON: {exc}", EXIT_IO) from None
    if not isinstance(raw, dict):
        raise CliError(f"{config_path}: config must be a JSON object", EXIT_IO)
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        # A misspelt input key would otherwise drop that input silently.
        raise CliError(f"{config_path}: unknown config key {unknown[0]!r}", EXIT_IO)
    base = config_path.parent

    def setting(key: str, kind: type | tuple[type, ...], what: str, default: object) -> object:
        """The value of `key`, which must be an instance of `kind`; `default` when absent."""
        if key not in raw:
            return default
        if not isinstance(raw[key], kind):
            raise CliError(f"{config_path}: {key!r} must be {what}", EXIT_IO)
        return raw[key]

    def path_of(key: str) -> Path | None:
        value = setting(key, (str, type(None)), "a string path or null", None)
        if value is None:
            return None
        path = base / value
        if not path.exists():
            raise CliError(f"input file does not exist: {path}", EXIT_IO)
        return path

    config = IngestConfig(
        registrations=path_of("registrations"),
        stations=path_of("stations"),
        transmission=path_of("transmission"),
        zip_areas=path_of("zip_areas"),
        materialize_spatial=setting("materialize_spatial", bool, "true or false", True),
        subclass_closure=setting("subclass_closure", bool, "true or false", True),
    )
    snapshot_name = setting("snapshot", str, "a string path", "evkg.nt")
    try:
        graph, report = build_graph(config)
    except (IngestError, StoredGeometryError) as exc:
        raise CliError(f"ingest failed: {exc}", EXIT_IO) from None

    snapshot = Path(args.output) if args.output else base / snapshot_name
    _write_text(snapshot, serialize_ntriples(graph))

    violations = validate_instances(graph)
    print(f"snapshot: {snapshot} ({len(graph)} triples)")
    for key in sorted(report.counts):
        print(f"  {key}: {report.counts[key]}")
    print(f"  skipped rows: {len(report.skipped)}")
    for issue in report.skipped:
        print(f"    row {issue.row}: {issue.message}")
    print(f"  validation violations: {len(violations)}")
    for violation in violations[:20]:
        print(f"    {violation.kind}: {violation.message}")
    return EXIT_OK


def cmd_materialize(args: argparse.Namespace) -> int:
    graph = _load_snapshot(Path(args.input))
    closure_added = materialize_subclass_closure(graph)
    try:
        report = materialize_spatial_relations(graph)
    except StoredGeometryError as exc:
        raise CliError(f"{args.input}: {exc}", EXIT_IO) from None
    _write_text(Path(args.output), serialize_ntriples(graph))
    print(f"subclass closure triples added: {closure_added}")
    for line in report.summary_lines():
        print(line)
    print(f"total spatial triples added: {report.added_total}")
    print(f"snapshot: {args.output} ({len(graph)} triples)")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    graph = _load_snapshot(Path(args.input))
    text = _read_text(Path(args.query))
    try:
        solution = evaluate(graph, parse_query(text))
    except QueryError as exc:
        raise CliError(f"{args.query}: {exc}", EXIT_QUERY) from None
    if args.format == "json":
        sys.stdout.write(solution_to_json(solution))
    else:
        sys.stdout.write(solution_to_tsv(solution))
    return EXIT_OK


def _diff(expected: str, actual: str, name: str) -> str:
    return "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"expected/{name}",
            tofile=f"actual/{name}",
        )
    )


def _answer(graph: Graph, question: int, expected_dir: Path) -> bool:
    """Print the question's PASS or FAIL line, with the diff of each output
    that differs from its expected file; True if it passed."""
    try:
        outputs = suite.question_outputs(graph, question)
    except QueryError as exc:
        raise CliError(f"Q{question}: {exc}", EXIT_QUERY) from None
    failures = []
    for name, actual in outputs:
        expected_path = expected_dir / name
        if not expected_path.exists():
            raise CliError(f"missing expected-result file: {expected_path}", EXIT_IO)
        expected = _read_text(expected_path)
        if expected != actual:
            failures.append(_diff(expected, actual, name))

    if failures:
        print(f"Q{question}: FAIL")
        for diff in failures:
            sys.stdout.write(diff)
        return False
    vacuous = all(
        actual.count("\n") <= 1 for name, actual in outputs if name.endswith(".tsv")
    )
    print(f"Q{question}: PASS" + (" (vacuous: empty result)" if vacuous else ""))
    return True


def cmd_cq(args: argparse.Namespace) -> int:
    """Answer the questions given by -q, in that order, or all six, from one
    load of the snapshot; exit 1 if any failed."""
    graph = _load_snapshot(Path(args.input))
    expected_dir = Path(args.expected)
    passed = [_answer(graph, question, expected_dir)
              for question in args.question or sorted(suite.QUESTION_QUERIES)]
    return EXIT_OK if all(passed) else EXIT_CQ_FAIL


STAT_ROWS: list[tuple[str, Iri]] = [
    ("ChargingStation", EV_ONT.ChargingStation),
    ("ChargerCollection", EV_ONT.ChargerCollection),
    ("ElectricVehicleRegistrationCollection", EV_ONT.ElectricVehicleRegistrationCollection),
    ("ElectricVehicleProduct", EV_ONT.ElectricVehicleProduct),
    ("TransmissionLine", EV_ONT.TransmissionLine),
    ("Substation", EV_ONT.Substation),
    ("PowerPlant", EV_ONT.PowerPlant),
    ("RoadSegment", KWG_ONT.RoadSegment),
    ("RoadSegmentNode", KWG_ONT.RoadSegmentNode),
]


def collect_stats(graph: Graph) -> dict[str, int]:
    reg = registry()
    stats = {}
    for name, cls in STAT_ROWS:
        stats[name] = len({t.subject for t in graph.match(None, RDF.type, cls)})
    entities = set()
    for t in graph.match(None, RDF.type, None):
        if isinstance(t.subject, Iri) and isinstance(t.object, Iri) and reg.is_class(t.object):
            entities.add(t.subject)
    stats["statements"] = len(graph)
    stats["entities"] = len(entities)
    stats["properties"] = len(reg.properties)
    stats["classes"] = len(reg.classes)
    return stats


def cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_snapshot(Path(args.input))
    stats = collect_stats(graph)
    width = max(len(name) for name, _ in STAT_ROWS)
    print("Entities per key class:")
    for name, _ in STAT_ROWS:
        print(f"  {name:<{width}}  {stats[name]}")
    print("Road network rows report 0: the road subgraph is out of scope here.")
    print(f"Total number of statements: {stats['statements']}")
    print(f"Total number of entities:   {stats['entities']}")
    print(f"Total number of properties: {stats['properties']}")
    print(f"Total number of classes:    {stats['classes']}")
    return EXIT_OK


def cmd_export_ontology(args: argparse.Namespace) -> int:
    _write_text(Path(args.output), serialize_turtle(schema_graph()))
    print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evkg",
        description="EV knowledge-graph toolkit: ingest, materialize, query, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a snapshot from CSV inputs")
    p.add_argument("-c", "--config", required=True, help="JSON config mapping record types to paths")
    p.add_argument("-o", "--output", help="snapshot path (overrides config)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("materialize", help="add spatial-relation and subclass-closure triples")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_materialize)

    p = sub.add_parser("query", help="run a query file against a snapshot")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-q", "--query", required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("cq", help="run competency questions and diff expected results")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-q", "--question", type=int, action="append",
                   choices=sorted(suite.QUESTION_QUERIES),
                   help="a question to run; repeat for several, in order (default: all six)")
    p.add_argument("--expected", default="fixtures/expected", help="expected-results directory")
    p.set_defaults(func=cmd_cq)

    p = sub.add_parser("stats", help="entity counts per key class plus totals")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-ontology", help="write the ontology as Turtle")
    p.add_argument("-o", "--output", default="evkg-ontology.ttl")
    p.set_defaults(func=cmd_export_ontology)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except MemoryError:
        print(
            "error: out of memory (the input or the query's intermediate results"
            " need more memory than this process may use)",
            file=sys.stderr,
        )
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
