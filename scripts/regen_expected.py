#!/usr/bin/env python3
"""Regenerate fixtures/expected/ with the naive reference evaluator.

The committed expected files are what the indexed engine is byte-compared
against; producing them with the nested-loop evaluator keeps the two
evaluation routes independent. Run after any fixture or vocabulary change,
then review the diff before committing.

`--check` writes nothing: it reports each committed file that differs from
the naive regeneration (`STALE`) and each output where the indexed engine
differs from the naive one (`ENGINE-DIFF`). It also parses the fixture's
N-Triples snapshot back and re-serializes it (`ROUND-TRIP` when the text
differs). It exits 1 on any of these.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from evkg.ingest import IngestConfig, build_graph  # noqa: E402
from evkg.ntriples import parse_ntriples, serialize_ntriples  # noqa: E402
from evkg.queries import QUESTION_QUERIES, question_outputs  # noqa: E402
from evkg.sparql import naive  # noqa: E402


def _outputs(graph, evaluator=None) -> dict[str, str]:
    """Every expected file's text; the indexed engine unless `evaluator` is given."""
    return {
        name: text
        for question in QUESTION_QUERIES
        for name, text in question_outputs(graph, question, evaluator)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", type=Path, default=ROOT / "fixtures")
    parser.add_argument("--check", action="store_true",
                        help="verify committed files match regeneration and the engine")
    args = parser.parse_args()

    fx = args.fixtures
    graph, _ = build_graph(
        IngestConfig(
            registrations=fx / "registrations.csv",
            stations=fx / "stations.csv",
            transmission=fx / "transmission.csv",
            zip_areas=fx / "zip_areas.csv",
        )
    )

    outputs = _outputs(graph, naive.evaluate)
    engine_outputs = _outputs(graph) if args.check else {}

    expected_dir = fx / "expected"
    expected_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for name, content in sorted(outputs.items()):
        path = expected_dir / name
        if args.check:
            if not path.exists() or path.read_text(encoding="utf-8") != content:
                print(f"STALE: {path}")
                status = 1
            else:
                print(f"ok: {path}")
            if engine_outputs.get(name) != content:
                print(f"ENGINE-DIFF: {path}")
                status = 1
        else:
            path.write_text(content, encoding="utf-8")
            print(f"wrote {path}")
    if args.check:
        snapshot = serialize_ntriples(graph)
        if serialize_ntriples(parse_ntriples(snapshot)) == snapshot:
            print("ok snapshot round-trip")
        else:
            print("ROUND-TRIP: the parsed fixture snapshot re-serializes differently")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
