"""Expected answers for the tiled corpus, derived without the query engine.

Suite answers come from ``fixtures/expected/`` (produced by the naive
evaluator): at k copies every per-tile row appears once per tile under the
tile's renaming, and the New Jersey-wide sums of queries 4 and 5 scale by k.
Lookup answers are read straight from the fixture CSVs. Snapshot digests
for each k are pinned in ``pins.json``; ``python3 bench/oracle.py --pin``
rewrites them from the current program after checking every suite answer
at k=2 against the derivation.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from tiler import Tiling, read_csv, tile_corpus

EVR = "http://evkg.org/resource/"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
PINS = Path(__file__).resolve().parent / "pins.json"
SUITE = range(1, 11)

_TILED_IRI_RE = re.compile(
    r"<http://evkg\.org/resource/"
    r"(zipcodearea|chargingstation|transmissionline|substation|powerplant)\.([^>]+)>"
)
_INT_RE = re.compile(r'^"(-?\d+)"\^\^<' + re.escape(XSD_INTEGER) + ">$")


def _rename(cell: str, tiling: Tiling, i: int) -> str:
    def sub(m: re.Match) -> str:
        kind, local = m.group(1), m.group(2)
        if kind == "zipcodearea":
            local = tiling.zip_code(local, i)
        else:
            local = tiling.feature_id(local, i)
        return f"<{EVR}{kind}.{local}>"

    return _TILED_IRI_RE.sub(sub, cell)


def _int_cell(cell: str) -> int:
    m = _INT_RE.match(cell)
    if m is None:
        raise ValueError(f"not an xsd:integer cell: {cell!r}")
    return int(m.group(1))


def _int_text(n: int) -> str:
    return f'"{n}"^^<{XSD_INTEGER}>'


def _tsv(header: str, rows: list[list[str]]) -> str:
    # Same canonical order as evkg.results: rows sorted by their cells.
    return header + "".join("\t".join(r) + "\n" for r in sorted(rows))


def _read_tsv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0] + "\n", [line.split("\t") for line in lines[1:]]


def suite_answers(fixtures: Path, tiling: Tiling) -> dict[int, str]:
    """TSV answer of every suite query on the k-times tiled corpus."""
    k = tiling.k
    expected = fixtures / "expected"
    out: dict[int, str] = {}
    for qid in SUITE:
        header, rows = _read_tsv(expected / f"query{qid:02d}.tsv")
        if qid in (1, 3, 6):
            # Products are shared and zip 95814 exists only in tile 0; q6 divides
            # two NJ-wide sums that both scale by k.
            tiled = rows
        elif qid in (4, 5):  # NJ-wide sums
            col = 1 if qid == 4 else 2
            tiled = [r[:col] + [_int_text(_int_cell(r[col]) * k)] + r[col + 1 :] for r in rows]
        else:
            tiled = [[_rename(c, tiling, i) for c in r] for i in range(k) for r in rows]
        out[qid] = _tsv(header, tiled)
    return out


# ---------------------------------------------------------------------------
# CLI lookups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lookup:
    name: str
    query: str
    expected: str


def _literal(text: str) -> str:
    escaped = (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")
    )
    return '"' + escaped.replace("\t", "\\t") + '"'


def _station_lookup(row: dict[str, str], i: int) -> Lookup:
    sid = Tiling.feature_id(row["station_id"], i)
    query = (
        "SELECT ?name ?hours WHERE {\n"
        f"  evr:chargingstation.{sid} rdfs:label ?name .\n"
        f"  evr:chargingstation.{sid} ev-ont:hasOperatingHours ?hours .\n"
        "}\n"
    )
    expected = _tsv("name\thours\n", [[_literal(row["name"]), _literal(row["operating_hours"])]])
    return Lookup(f"station:{sid}", query, expected)


def _connector_lookup(stations: list[dict[str, str]], row, i: int, tiling: Tiling) -> Lookup:
    from evkg.ingest import CONNECTOR_TOKENS  # the published token -> IRI table

    token = row["charger_groups"].split("|")[0].split(":")[1]
    connector = CONNECTOR_TOKENS[token].value
    zip_code = tiling.zip_code(row["zip"], i)
    query = (
        "SELECT DISTINCT ?station WHERE {\n"
        f"  ?station kwg-ont:sfWithin evr:zipcodearea.{zip_code} .\n"
        "  ?station ev-ont:hosts ?cc .\n"
        f"  ?cc ev-ont:hasConnectorType <{connector}> .\n"
        "}\n"
    )
    hits = [
        [f"<{EVR}chargingstation.{Tiling.feature_id(s['station_id'], i)}>"]
        for s in stations
        if s["zip"] == row["zip"]
        and any(g.split(":")[1] == token for g in s["charger_groups"].split("|") if g)
    ]
    return Lookup(f"connector:{zip_code}:{token}", query, _tsv("station\n", hits))


def _zip_lookup(row: dict[str, str], i: int, tiling: Tiling) -> Lookup:
    zip_code = tiling.zip_code(row["zip"], i)
    query = (
        "SELECT ?zip ?county ?state WHERE {\n"
        f'  ?zip rdfs:label "zip code {zip_code}" .\n'
        "  ?c kwg-ont:sfContains ?zip . ?c a kwg-ont:AdministrativeRegion_3 .\n"
        "  ?c rdfs:label ?county .\n"
        "  ?s kwg-ont:sfContains ?zip . ?s a kwg-ont:AdministrativeRegion_2 .\n"
        "  ?s rdfs:label ?state .\n"
        "}\n"
    )
    cells = [f"<{EVR}zipcodearea.{zip_code}>", _literal(row["county"]), _literal(row["state"])]
    return Lookup(f"zip:{zip_code}", query, _tsv("zip\tcounty\tstate\n", [cells]))


# One lookup round: the two selective suite queries plus seeded entity lookups.
LOOKUP_ROUND = ("q1", "q3", "station", "connector", "zip", "station", "connector", "zip")


def lookup_round(fixtures: Path, tiling: Tiling, rng: random.Random) -> list[Lookup]:
    """One seeded round of CLI lookups, with their answers."""
    from evkg import queries

    _, stations = read_csv(fixtures / "stations.csv")
    _, zips = read_csv(fixtures / "zip_areas.csv")
    with_groups = [s for s in stations if s["charger_groups"]]
    out = []
    for kind in LOOKUP_ROUND:
        i = rng.randrange(tiling.k)
        if kind in ("q1", "q3"):
            qid = int(kind[1:])
            expected = (fixtures / "expected" / f"query{qid:02d}.tsv").read_text(encoding="utf-8")
            out.append(Lookup(kind, queries.query_text(qid), expected))
        elif kind == "station":
            out.append(_station_lookup(rng.choice(stations), i))
        elif kind == "connector":
            out.append(_connector_lookup(stations, rng.choice(with_groups), i, tiling))
        else:
            out.append(_zip_lookup(rng.choice(zips), i, tiling))
    return out


# ---------------------------------------------------------------------------
# Snapshot pins
# ---------------------------------------------------------------------------


def snapshot_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict[str, dict]:
    return json.loads(PINS.read_text(encoding="utf-8"))


def check_snapshot(k: int, triples: int, text: str, violations: int) -> str | None:
    """None when the k-times snapshot matches its pin, else what differs."""
    pin = load_pins().get(str(k))
    if pin is None:
        return f"no pinned snapshot for k={k}"
    got = {"triples": triples, "sha256": snapshot_digest(text), "violations": violations}
    diffs = [f"{key} {got[key]} != {pin[key]}" for key in pin if got[key] != pin[key]]
    return "; ".join(diffs) or None


def _pin(root: Path, ks: list[int]) -> None:
    import tempfile

    from evkg import queries, results
    from evkg.ntriples import parse_ntriples
    from workloads import ingest_snapshot

    pins = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for k in ks:
            corpus = Path(tmp) / f"k{k}"
            tiling = tile_corpus(root / "fixtures", corpus, k, seed=0)
            triples, text, violations = ingest_snapshot(corpus)
            if k == 2:
                graph = parse_ntriples(text)
                answers = suite_answers(root / "fixtures", tiling)
                for qid in SUITE:
                    got = results.solution_to_tsv(queries.run_suite_query(graph, qid))
                    if got != answers[qid]:
                        sys.exit(f"k=2 query {qid} disagrees with the derived answer")
            digest = snapshot_digest(text)
            pins[str(k)] = {"triples": triples, "sha256": digest, "violations": violations}
            print(f"k={k}: {pins[str(k)]}")
    PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python3 bench/oracle.py --pin   (run from the repository root)")
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    _pin(root, [1, 2, 4, 8, 16])
