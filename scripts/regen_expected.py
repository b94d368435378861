#!/usr/bin/env python3
"""Regenerate fixtures/expected/ with the naive reference evaluator.

The committed expected files are what the indexed engine is byte-compared
against; producing them with the nested-loop evaluator keeps the two
evaluation routes independent. Run after any fixture or vocabulary change,
then review the diff before committing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from evkg.ingest import IngestConfig, build_graph  # noqa: E402
from evkg.queries import QUESTION_QUERIES, question_outputs  # noqa: E402
from evkg.sparql import naive  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", type=Path, default=ROOT / "fixtures")
    parser.add_argument("--check", action="store_true",
                        help="verify committed files match regeneration")
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

    outputs = {
        name: text
        for question in QUESTION_QUERIES
        for name, text in question_outputs(graph, question, evaluator=naive.evaluate)
    }

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
        else:
            path.write_text(content, encoding="utf-8")
            print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
