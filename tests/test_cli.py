from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from evkg import cli
from evkg.cli import main
from evkg.graph import Graph
from evkg.ingest import ZipAreaRecord, triplify_places, zip_area_iri
from evkg.ntriples import serialize_ntriples
from evkg.queries import QUERY_TEXTS
from evkg.terms import EV_ONT, EVR, GEO, KWG_ONT, RDF, WKT_LITERAL, Literal, Triple

from conftest import FIXTURES, ROOT


@pytest.fixture()
def workspace(tmp_path: Path) -> Path:
    """A private copy of the fixture corpus plus config."""
    for name in ("registrations.csv", "stations.csv", "transmission.csv",
                 "zip_areas.csv", "evkg-config.json"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def _ingest(workspace: Path) -> Path:
    snapshot = workspace / "evkg.nt"
    code = main(["ingest", "-c", str(workspace / "evkg-config.json"), "-o", str(snapshot)])
    assert code == 0
    return snapshot


def test_ingest_builds_snapshot(workspace, capsys):
    snapshot = _ingest(workspace)
    out = capsys.readouterr().out
    assert snapshot.exists()
    assert "validation violations: 0" in out
    assert "skipped rows: 0" in out


def test_ingest_missing_file_exit_2(workspace, capsys):
    config = json.loads((workspace / "evkg-config.json").read_text())
    config["registrations"] = "no-such-file.csv"
    bad = workspace / "bad-config.json"
    bad.write_text(json.dumps(config))
    assert main(["ingest", "-c", str(bad)]) == 2
    assert "no-such-file.csv" in capsys.readouterr().err


def _config(workspace: Path, **changes) -> Path:
    """The fixture config with `changes` applied, written beside it."""
    config = json.loads((workspace / "evkg-config.json").read_text())
    path = workspace / "changed-config.json"
    path.write_text(json.dumps({**config, **changes}))
    return path


def _exit_2_naming(capsys, argv: list[str], *names: str) -> None:
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    for name in names:
        assert name in captured.err


@pytest.mark.parametrize("changes, message", [
    ({"registrations": 5}, "'registrations' must be a string path or null"),
    ({"snapshot": ["out.nt"]}, "'snapshot' must be a string path"),
    ({"materialize_spatial": "false"}, "'materialize_spatial' must be true or false"),
    ({"subclass_closure": None}, "'subclass_closure' must be true or false"),
])
def test_ingest_malformed_config_value_exit_2(workspace, capsys, changes, message):
    config = _config(workspace, **changes)
    _exit_2_naming(capsys, ["ingest", "-c", str(config)], f"{config}: {message}")


def test_ingest_unknown_config_key_exit_2(workspace, capsys):
    # A misspelt input key used to drop that input and exit 0.
    config = json.loads((workspace / "evkg-config.json").read_text())
    config["zip_area"] = config.pop("zip_areas")
    path = workspace / "misspelt-config.json"
    path.write_text(json.dumps(config))
    _exit_2_naming(capsys, ["ingest", "-c", str(path), "-o", str(workspace / "out.nt")],
                   f"{path}: unknown config key 'zip_area'")
    assert not (workspace / "out.nt").exists()


def test_ingest_config_not_an_object_exit_2(workspace, capsys):
    config = workspace / "list-config.json"
    config.write_text("[1, 2]")
    _exit_2_naming(capsys, ["ingest", "-c", str(config)], f"{config}: config must be a JSON object")


def test_ingest_unopenable_input_exit_2(workspace, capsys):
    (workspace / "a-directory").mkdir()
    config = _config(workspace, registrations="a-directory")
    _exit_2_naming(capsys, ["ingest", "-c", str(config), "-o", str(workspace / "out.nt")],
                   "a-directory: cannot read: Is a directory")


@pytest.mark.parametrize("command", ["query", "stats"])
def test_non_utf8_input_exit_2(workspace, capsys, command):
    bad = workspace / "utf16.txt"
    bad.write_bytes(b"\xff\xfeS\x00E\x00")
    if command == "query":
        argv = ["query", "-i", str(_ingest(workspace)), "-q", str(bad)]
    else:
        argv = ["stats", "-i", str(bad)]
    _exit_2_naming(capsys, argv, f"cannot read {bad}: not UTF-8 text (invalid start byte)")


def test_ingest_header_only_registrations_ok(workspace, capsys):
    header = (FIXTURES / "registrations.csv").read_text().splitlines()[0]
    (workspace / "registrations.csv").write_text(header + "\n")
    code = main(["ingest", "-c", str(workspace / "evkg-config.json"),
                 "-o", str(workspace / "empty-regs.nt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "registration_collections: 0" in out


def test_query_tsv_deterministic(workspace, capsys):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    query_file = workspace / "q1.rq"
    query_file.write_text(QUERY_TEXTS[1], encoding="utf-8")
    assert main(["query", "-i", str(snapshot), "-q", str(query_file)]) == 0
    first = capsys.readouterr().out
    assert main(["query", "-i", str(snapshot), "-q", str(query_file)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "lev"
    assert '"Nissan Leaf"' in first


def test_query_json_format(workspace, capsys):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    query_file = workspace / "q1.rq"
    query_file.write_text(QUERY_TEXTS[1], encoding="utf-8")
    assert main(["query", "-i", str(snapshot), "-q", str(query_file), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vars"] == ["lev"]
    assert payload["rows"] == [{"lev": '"Nissan Leaf"'}]


def test_query_syntax_error_exit_3(workspace, capsys):
    snapshot = _ingest(workspace)
    bad = workspace / "bad.rq"
    bad.write_text("SELECT ?x WHERE { ?x OPTIONAL ?y }", encoding="utf-8")
    assert main(["query", "-i", str(snapshot), "-q", str(bad)]) == 3
    assert "OPTIONAL" in capsys.readouterr().err


def test_query_nested_too_deep_exit_3(workspace, capsys):
    snapshot = _ingest(workspace)
    deep = workspace / "deep.rq"
    deep.write_text("SELECT ?x WHERE " + "{" * 3000 + " ?x ?p ?o " + "}" * 3000, encoding="utf-8")
    assert main(["query", "-i", str(snapshot), "-q", str(deep)]) == 3
    assert "levels deep" in capsys.readouterr().err


def test_query_long_union_exit_0(workspace, capsys):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    query_file = workspace / "union.rq"
    branches = ["{ ?z a kwg-ont:ZipCodeArea }"] * 3000
    query_file.write_text("SELECT ?z WHERE { " + " UNION ".join(branches) + " }", encoding="utf-8")
    assert main(["query", "-i", str(snapshot), "-q", str(query_file)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "z" and rows and len(rows) == 3000 * len(set(rows))


# A sub-select projecting a non-key is rejected whether or not the pattern
# before it matches anything.
@pytest.mark.parametrize("lead", ["?s <http://example.org/none> ?o", "?s a kwg-ont:ZipCodeArea"])
def test_query_non_key_projection_in_sub_select_exit_3(workspace, capsys, lead):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    query_file = workspace / "grouped.rq"
    query_file.write_text(
        f"SELECT * WHERE {{ {lead} . {{ SELECT ?z ?c WHERE {{ ?z a kwg-ont:ZipCodeArea ."
        " ?z rdfs:label ?c } GROUP BY ?z } }",
        encoding="utf-8",
    )
    assert main(["query", "-i", str(snapshot), "-q", str(query_file)]) == 3
    captured = capsys.readouterr()
    assert "projected variable ?c is not a GROUP BY key" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_query_alias_of_a_variable_in_scope_exit_3(workspace, capsys):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    query_file = workspace / "alias.rq"
    query_file.write_text(
        "SELECT ?z (SUM(?n) AS ?z) WHERE { ?z a kwg-ont:ZipCodeArea . ?z rdfs:label ?n }"
        " GROUP BY ?z",
        encoding="utf-8",
    )
    assert main(["query", "-i", str(snapshot), "-q", str(query_file)]) == 3
    captured = capsys.readouterr()
    assert "AS ?z binds a variable already in scope" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_query_projecting_a_variable_twice_exit_3(workspace, capsys):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    query_file = workspace / "twice.rq"
    query_file.write_text("SELECT ?z ?z WHERE { ?z a kwg-ont:ZipCodeArea }", encoding="utf-8")
    assert main(["query", "-i", str(snapshot), "-q", str(query_file)]) == 3
    captured = capsys.readouterr()
    assert "?z is projected twice" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_query_out_of_memory_exit_4(workspace, capsys, monkeypatch):
    # A cross product such as ?a ?b ?c . ?d ?e ?f under an address-space cap
    # ends in MemoryError; it exits 4 with a message, not a traceback.
    from evkg import cli

    def exhausted(graph, query):
        raise MemoryError

    snapshot = _ingest(workspace)
    capsys.readouterr()
    query_file = workspace / "cross.rq"
    query_file.write_text("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . }", encoding="utf-8")
    monkeypatch.setattr(cli, "evaluate", exhausted)
    assert main(["query", "-i", str(snapshot), "-q", str(query_file)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory")
    assert "Traceback" not in captured.err and captured.out == ""


def test_query_non_ascii_character_exit_3(workspace, capsys):
    snapshot = _ingest(workspace)
    bad = workspace / "bad.rq"
    bad.write_text("SELECT ?x WHERE { ?x ?p é }", encoding="utf-8")
    assert main(["query", "-i", str(snapshot), "-q", str(bad)]) == 3
    assert "line 1, col 25: unexpected character 'é'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, message",
    [
        ("?s <p> ?o", "IRI is not absolute (no scheme): 'p'"),
        ('?s ?p "1"^^<integer>', "IRI is not absolute (no scheme): 'integer'"),
        ('?s ?p "1"^^<>', "IRI must be non-empty"),
    ],
)
def test_query_relative_iri_exit_3(workspace, capsys, where, message):
    # The query subset has no BASE to resolve a relative IRI against, in a
    # term or in a literal's datatype.
    snapshot = _ingest(workspace)
    bad = workspace / "bad.rq"
    bad.write_text(f"SELECT ?s WHERE {{ {where} }}", encoding="utf-8")
    assert main(["query", "-i", str(snapshot), "-q", str(bad)]) == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert message in err


def test_query_control_character_in_iri_exit_3(workspace, capsys):
    snapshot = _ingest(workspace)
    bad = workspace / "bad.rq"
    bad.write_text("SELECT ?s WHERE { ?s <http://x/\x01p> ?o }", encoding="utf-8")
    assert main(["query", "-i", str(snapshot), "-q", str(bad)]) == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err and err


def test_query_double_plus_integer_too_large_for_a_float_is_inf(tmp_path, capsys):
    # The integer converts to a float as it meets the double; too large for
    # one, it is INF rather than an OverflowError traceback.
    snapshot = tmp_path / "big.nt"
    snapshot.write_text(
        f'<http://x/s> <http://x/n> "{"9" * 400}"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<http://x/s> <http://x/d> "1.5E0"^^<http://www.w3.org/2001/XMLSchema#double> .\n',
        encoding="utf-8",
    )
    query_file = tmp_path / "add.rq"
    query_file.write_text(
        "SELECT (?n + ?d AS ?x) WHERE { ?s <http://x/n> ?n . ?s <http://x/d> ?d . }", encoding="utf-8"
    )
    assert main(["query", "-i", str(snapshot), "-q", str(query_file)]) == 0
    out, err = capsys.readouterr()
    assert out == 'x\n"INF"^^<http://www.w3.org/2001/XMLSchema#double>\n'
    assert "Traceback" not in out + err


@pytest.mark.parametrize("body", ["x\\uZZZZ", "\\uD800"])
def test_bad_snapshot_escape_exit_2(tmp_path, capsys, body):
    snapshot = tmp_path / "bad.nt"
    snapshot.write_text(f'<http://x/s> <http://x/p> "{body}" .\n', encoding="utf-8")
    assert main(["materialize", "-i", str(snapshot), "-o", str(tmp_path / "out.nt")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_ingest_zip_self_intersecting_at_stored_precision_exit_2(workspace, capsys):
    # Valid at source precision; rounded to 9 decimals the vertex at
    # x = 1e-10 falls on the edge x = 0 and the stored ring self-intersects.
    with (workspace / "zip_areas.csv").open("a", encoding="utf-8") as f:
        f.write('99999,"POLYGON ((0 0, 1 0, 1 1, 0.0000000001 0.5, 0 1, 0 0))",Nowhere,Nowhere,\n')
    assert main(["ingest", "-c", str(workspace / "evkg-config.json"),
                 "-o", str(workspace / "out.nt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "zipcodearea.99999: stored geometry does not parse" in err


@pytest.mark.parametrize("line", [
    '<http://x/s> <http://x/p> "1_0"^^<http://www.w3.org/2001/XMLSchema#double> .',
    '<http://x/s> <http://x/p> "\u0663"^^<http://www.w3.org/2001/XMLSchema#integer> .',
    '<http://x/s> <http://x/p> "x"@ en .',
    '_:a>b <http://x/p> <http://x/o> .',
])
def test_malformed_snapshot_term_exit_2(tmp_path, capsys, line):
    snapshot = tmp_path / "bad.nt"
    snapshot.write_text(line + "\n", encoding="utf-8")
    assert main(["materialize", "-i", str(snapshot), "-o", str(tmp_path / "out.nt")]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("csv_name, row, message", [
    ("zip_areas.csv", '99997,"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 5 1, 5 2, 1 2, 1 1))",Nowhere,Nowhere,',
     "at offset 62: hole crosses the outer ring"),
    ("transmission.csv", "SUBX,substation,POINT (0 0),,1_0,,,,,IN SERVICE,",
     "min_voltage: not a valid xsd:double lexical form: '1_0'"),
    ("stations.csv", "CA998,Bad Lon,-1_21.6,38.4,95814,public,,24 hours daily,2020-05-01,,,"
     "DCFC:CHADEMO:2", "lon: not a valid xsd:double lexical form: '-1_21.6'"),
    ("registrations.csv", "WBY1Z4C5,07677,2_018,2019,BMW,i3,BEV,BMW of North America Inc.,"
     "compact,light-duty,LEVEL2|DCFC,J1772|J1772COMBO",
     "model_year: xsd:gYear needs a 4-digit lexical form: '2_018'"),
    ("stations.csv", "CA999,Turbo,-121.6,38.4,95814,public,,24 hours daily,2020-05-01,,,"
     "TURBO:J1772:1", "charger_groups: unknown charger type token: 'TURBO'"),
])
def test_ingest_invalid_row_is_skipped(workspace, capsys, csv_name, row, message):
    with (workspace / csv_name).open("a", encoding="utf-8") as f:
        f.write(row + "\n")
    assert main(["ingest", "-c", str(workspace / "evkg-config.json"),
                 "-o", str(workspace / "out.nt")]) == 0
    captured = capsys.readouterr()
    assert "skipped rows: 1" in captured.out
    assert message in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_ingest_infinite_zip_coordinate_is_a_skipped_row(workspace, capsys):
    with (workspace / "zip_areas.csv").open("a", encoding="utf-8") as f:
        f.write('99998,"POLYGON ((0 0, 1e999 0, 1 1, 0 0))",Nowhere,Nowhere,\n')
    assert main(["ingest", "-c", str(workspace / "evkg-config.json"),
                 "-o", str(workspace / "out.nt")]) == 0
    captured = capsys.readouterr()
    assert "skipped rows: 1" in captured.out
    assert "at offset 15: number out of range: '1e999'" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_ingest_repeated_zip_exit_2(workspace, capsys):
    zip_areas = workspace / "zip_areas.csv"
    first = zip_areas.read_text(encoding="utf-8").splitlines()[1]
    with zip_areas.open("a", encoding="utf-8") as f:
        f.write(first + "\n")
    assert main(["ingest", "-c", str(workspace / "evkg-config.json"),
                 "-o", str(workspace / "out.nt")]) == 2
    captured = capsys.readouterr()
    assert f"ingest failed: duplicate zip code area: {first.split(',')[0]}" in captured.err
    assert "Traceback" not in captured.out + captured.err


# Labels that sanitize alike would mint one IRI for two individuals.
@pytest.mark.parametrize("csv_name, old, new, iri", [
    ("stations.csv", "95814,private,ChargePoint Network,", "95814,private,ChargePointNetwork,",
     "chargingnetwork.ChargePointNetwork"),
    ("registrations.csv", "BMW,i3,", "BMW,i 3,", "modeltype.BMW.i3.2018"),
])
def test_ingest_iri_collision_exit_2(workspace, capsys, csv_name, old, new, iri):
    path = workspace / csv_name
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main(["ingest", "-c", str(workspace / "evkg-config.json"),
                 "-o", str(workspace / "out.nt")]) == 2
    captured = capsys.readouterr()
    assert f"ingest failed: IRI collision: {EVR[iri].value} for " in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_ingest_relative_sameas_iri_exit_2(workspace, capsys):
    path = workspace / "zip_areas.csv"
    text = path.read_text(encoding="utf-8")
    old = "http://stko-kwg.geog.ucsb.edu/lod/resource/zipCodeArea.95814"
    assert old in text
    path.write_text(text.replace(old, "zipCodeArea.95814"), encoding="utf-8")
    assert main(["ingest", "-c", str(workspace / "evkg-config.json"),
                 "-o", str(workspace / "out.nt")]) == 2
    captured = capsys.readouterr()
    assert ("ingest failed: zip 95814: bad sameAs IRI: "
            "IRI is not absolute (no scheme): 'zipCodeArea.95814'") in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_ingest_control_character_in_sameas_iri_exit_2(workspace, capsys):
    path = workspace / "zip_areas.csv"
    text = path.read_text(encoding="utf-8")
    old = "http://stko-kwg.geog.ucsb.edu/lod/resource/zipCodeArea.95814"
    assert old in text
    path.write_text(text.replace(old, old + "\x01"), encoding="utf-8")
    assert main(["ingest", "-c", str(workspace / "evkg-config.json"),
                 "-o", str(workspace / "out.nt")]) == 2
    captured = capsys.readouterr()
    assert ("ingest failed: zip 95814: bad sameAs IRI: "
            f"IRI contains forbidden character: {old + chr(1)!r}") in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_ingest_non_utf8_csv_exit_2(workspace, capsys):
    stations = workspace / "stations.csv"
    data = stations.read_bytes()
    stations.write_bytes(data.replace(b"Downtown Garage", b"Downtown Caf\xe9 Garage"))
    assert main(["ingest", "-c", str(workspace / "evkg-config.json"),
                 "-o", str(workspace / "out.nt")]) == 2
    captured = capsys.readouterr()
    assert "stations.csv: not UTF-8 text (invalid continuation byte)" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_ingest_oversized_csv_cell_exit_2(workspace, capsys):
    zip_areas = workspace / "zip_areas.csv"
    rows = len(zip_areas.read_text(encoding="utf-8").splitlines())
    ring = ", ".join(f"{i % 90}.{i:06d} 0" for i in range(20_000))  # about 290 KB
    with zip_areas.open("a", encoding="utf-8") as f:
        f.write(f'99998,"POLYGON (({ring}, 0 0))",Nowhere,Nowhere,\n')
    assert main(["ingest", "-c", str(workspace / "evkg-config.json"),
                 "-o", str(workspace / "out.nt")]) == 2
    captured = capsys.readouterr()
    assert f"zip_areas.csv: row {rows + 1}: field larger than field limit (131072)" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_station_name_with_line_separator_survives_the_snapshot(workspace, capsys):
    stations = workspace / "stations.csv"
    text = stations.read_text(encoding="utf-8")
    assert text.count("Downtown Garage Chargers") == 1
    stations.write_text(text.replace("Downtown Garage Chargers", "Downtown\u2028Garage"), encoding="utf-8")
    snapshot = _ingest(workspace)
    assert "Downtown\u2028Garage" in snapshot.read_text(encoding="utf-8")
    query_file = workspace / "q1.rq"
    query_file.write_text(QUERY_TEXTS[1], encoding="utf-8")
    assert main(["query", "-i", str(snapshot), "-q", str(query_file)]) == 0


ZIP_08904_WKT = '"POLYGON ((-74 41, -73.2 41, -73.2 41.8, -74 41.8, -74 41))"'


@pytest.mark.parametrize("wkt, message", [
    ('"POLYGON (((-74 41, -73.2 41, -73.2 41.8, -74 41.8, -74 41))"',
     "stored geometry does not parse"),
    # On line TL230A's path, so the line is tested against it.
    ('"POINT (-74 41.4)"', "zip area geometry must be a polygon"),
    ('"POLYGON ((-74 41, -73.2 41, -73.2 41.8, -74 41.8, -74 41), (-73.5 41.5, -72 41.5, -73.5 41.6, '
     '-73.5 41.5))"', "stored geometry does not parse: at offset 106: hole crosses the outer ring"),
])
def test_materialize_bad_stored_zip_geometry_exit_2(workspace, capsys, wkt, message):
    snapshot = _ingest(workspace)
    text = snapshot.read_text(encoding="utf-8")
    assert text.count(ZIP_08904_WKT) == 1
    snapshot.write_text(text.replace(ZIP_08904_WKT, wkt), encoding="utf-8")
    capsys.readouterr()
    assert main(["materialize", "-i", str(snapshot), "-o", str(workspace / "out.nt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"zipcodearea.08904: {message}" in err


def test_cq_all_questions_pass(workspace, capsys):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    for question in range(1, 7):
        code = main(["cq", "-i", str(snapshot), "-q", str(question),
                     "--expected", str(FIXTURES / "expected")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"Q{question}: PASS" in out


def test_cq_vacuous_pass_marked_distinctly(tmp_path, capsys):
    # Empty graph, empty expected result: passes, but flagged as vacuous.
    empty_snapshot = tmp_path / "empty.nt"
    empty_snapshot.write_text("", encoding="utf-8")
    expected = tmp_path / "expected"
    expected.mkdir()
    (expected / "query01.tsv").write_text("lev\n", encoding="utf-8")
    code = main(["cq", "-i", str(empty_snapshot), "-q", "1", "--expected", str(expected)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Q1: PASS (vacuous: empty result)" in out


def test_cq_diff_failure_exit_1(workspace, tmp_path, capsys):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    tampered = tmp_path / "expected-tampered"
    shutil.copytree(FIXTURES / "expected", tampered)
    (tampered / "query01.tsv").write_text("lev\n\"Wrong Product\"\n", encoding="utf-8")
    code = main(["cq", "-i", str(snapshot), "-q", "1", "--expected", str(tampered)])
    out = capsys.readouterr().out
    assert code == 1
    assert "Q1: FAIL" in out
    assert "Wrong Product" in out  # unified diff shown


def _verdicts(out: str) -> list[str]:
    return [line for line in out.splitlines() if re.fullmatch(r"Q\d: (PASS|FAIL).*", line)]


def test_cq_without_q_answers_all_six_from_one_load(workspace, capsys, monkeypatch):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    loads = []
    load = cli._load_snapshot
    monkeypatch.setattr(cli, "_load_snapshot", lambda path: loads.append(path) or load(path))
    code = main(["cq", "-i", str(snapshot), "--expected", str(FIXTURES / "expected")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert _verdicts(out) == out.splitlines() == [f"Q{q}: PASS" for q in range(1, 7)]
    assert loads == [snapshot]


def test_cq_corrupted_expected_file_fails_only_its_question(workspace, tmp_path, capsys):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    tampered = tmp_path / "expected-tampered"
    shutil.copytree(FIXTURES / "expected", tampered)
    (tampered / "query05.tsv").write_text("zip\n\"00000\"\n", encoding="utf-8")  # one of Q4's outputs
    code = main(["cq", "-i", str(snapshot), "--expected", str(tampered)])
    out = capsys.readouterr().out
    assert code == 1
    assert _verdicts(out) == [f"Q{q}: {'FAIL' if q == 4 else 'PASS'}" for q in range(1, 7)]
    q4, q5 = out.index("Q4: FAIL\n"), out.index("Q5: PASS")
    assert "--- expected/query05.tsv" in out[q4:q5] and "00000" in out[q4:q5]
    assert "expected/query04.tsv" not in out


def test_cq_runs_the_given_questions_in_order(workspace, capsys):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    code = main(["cq", "-i", str(snapshot), "-q", "3", "-q", "1", "--expected", str(FIXTURES / "expected")])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["Q3: PASS", "Q1: PASS"]



@pytest.mark.parametrize("amount", ["INF", "NaN"])
def test_cq_non_finite_charger_amount_is_an_empty_series_cell(workspace, capsys, amount):
    # A DCFC charger collection counting INF or NaN chargers sums to a
    # non-finite double, which the Q4 series shows as an empty cell.
    snapshot = _ingest(workspace)
    capsys.readouterr()
    text, count = re.subn(
        r'(\.DCFC\.\w+> <http://evkg\.org/ontology/hasAmount> )"\d+"\^\^<[^>]+>',
        rf'\1"{amount}"^^<http://www.w3.org/2001/XMLSchema#double>',
        snapshot.read_text(encoding="utf-8"),
    )
    assert count > 0
    snapshot.write_text(text, encoding="utf-8")
    code = main(["cq", "-i", str(snapshot), "-q", "4", "--expected", str(FIXTURES / "expected")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.startswith("Q4: FAIL\n")
    assert "+CHAdeMO,2019,,10,\n" in out
    assert "Traceback" not in out + err

def test_materialize_command_idempotent(workspace, capsys):
    # Build without materialization, then materialize via the CLI.
    config = json.loads((workspace / "evkg-config.json").read_text())
    config["materialize_spatial"] = False
    config["subclass_closure"] = False
    raw_config = workspace / "raw-config.json"
    raw_config.write_text(json.dumps(config))
    raw = workspace / "raw.nt"
    assert main(["ingest", "-c", str(raw_config), "-o", str(raw)]) == 0
    capsys.readouterr()

    out1 = workspace / "m1.nt"
    assert main(["materialize", "-i", str(raw), "-o", str(out1)]) == 0
    report1 = capsys.readouterr().out
    assert "sfWithin triples added" in report1

    out2 = workspace / "m2.nt"
    assert main(["materialize", "-i", str(out1), "-o", str(out2)]) == 0
    report2 = capsys.readouterr().out
    assert "total spatial triples added: 0" in report2
    assert out1.read_bytes() == out2.read_bytes()


def test_stats_reports_counts_and_totals(workspace, capsys):
    snapshot = _ingest(workspace)
    capsys.readouterr()
    assert main(["stats", "-i", str(snapshot)]) == 0
    out = capsys.readouterr().out
    assert "ChargingStation" in out
    assert "RoadSegmentNode" in out
    assert "Total number of statements:" in out
    # stats on the full snapshot count every station (plus none spurious)
    station_line = next(l for l in out.splitlines() if l.strip().startswith("ChargingStation "))
    assert station_line.split()[-1] == "40"


def test_stats_empty_snapshot(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.nt"
    empty.write_text("", encoding="utf-8")
    assert main(["stats", "-i", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "Total number of statements: 0" in out
    assert "Total number of entities:   0" in out
    # registry-derived counts stay nonzero
    assert "Total number of properties: 41" in out
    assert "Total number of classes:    37" in out


# A quoted literal or an <IRI> (kept as written), or a CURIE (group 1).
_TURTLE_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|<[^>]*>|([^\s<>"^]+:[^\s<>"]*)')


def test_export_ontology_round_trips(workspace, capsys):
    """The export is the default prefix header, then the schema graph as
    N-Triples lines with CURIEs."""
    from evkg.ntriples import parse_ntriples
    from evkg.terms import default_prefixes
    from evkg.vocabulary import schema_graph

    out_path = workspace / "evkg-ontology.ttl"
    assert main(["export-ontology", "-o", str(out_path)]) == 0
    header, body = out_path.read_text(encoding="utf-8").split("\n\n", 1)
    prefixes = default_prefixes()
    assert header.splitlines() == [f"@prefix {p}: <{ns}> ." for p, ns in sorted(prefixes.entries.items())]

    def expand(m: re.Match) -> str:
        return f"<{prefixes.expand(m[1]).value}>" if m[1] else m[0]

    parsed = parse_ntriples(_TURTLE_TOKEN.sub(expand, body))
    assert len(parsed) == body.count("\n")
    assert set(parsed) == set(schema_graph())


def test_export_import_export_byte_identical(workspace):
    snapshot = _ingest(workspace)
    first = snapshot.read_bytes()
    reloaded = workspace / "reloaded.nt"
    # import + re-export via the materialize command on an already
    # materialized snapshot (adds nothing, rewrites canonically)
    assert main(["materialize", "-i", str(snapshot), "-o", str(reloaded)]) == 0
    assert reloaded.read_bytes() == first


def _cli_under_hash_seed(seed: str, workdir: Path) -> tuple[bytes, list[str]]:
    """`evkg ingest` of the fixture, then `evkg cq` 1-6, in subprocesses."""
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")}

    def run(*args: str) -> str:
        result = subprocess.run(
            [sys.executable, "-m", "evkg.cli", *args],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        return result.stdout

    snapshot = workdir / "evkg.nt"
    run("ingest", "-c", str(FIXTURES / "evkg-config.json"), "-o", str(snapshot))
    outputs = [run("cq", "-i", str(snapshot), "-q", str(q)) for q in range(1, 7)]
    return snapshot.read_bytes(), outputs


def test_outputs_do_not_depend_on_hash_seed(tmp_path):
    """Term hashes vary with PYTHONHASHSEED; no output may follow set order."""
    pin = json.loads((ROOT / "bench" / "pins.json").read_text(encoding="utf-8"))["1"]
    runs = []
    for seed in ("1", "2"):
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        runs.append(_cli_under_hash_seed(seed, workdir))
    (snap1, cq1), (snap2, cq2) = runs
    assert snap1 == snap2
    assert hashlib.sha256(snap1).hexdigest() == pin["sha256"]
    assert cq1 == cq2
    assert all(out.startswith(f"Q{q}: PASS") for q, out in enumerate(cq1, 1))


def test_materialize_geometry_choice_does_not_depend_on_hash_seed(tmp_path):
    """Of a station's several stored geometries, `evkg materialize` uses the
    smallest node's smallest literal, POINT (2 2), under every hash seed."""
    graph = Graph()
    graph.update(triplify_places([
        (ZipAreaRecord("07001", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "New Jersey", "Bergen"), 1),
        (ZipAreaRecord("07002", "POLYGON ((6 0, 10 0, 10 4, 6 4, 6 0))", "New Jersey", "Hudson"), 1),
    ]))
    station = EVR["chargingstation.multi"]
    graph.insert(Triple(station, RDF.type, EV_ONT.PublicChargingStation))
    for name, wkt in (("b", "POINT (8 2)"), ("a", "POINT (20 20)"), ("a", "POINT (2 2)"),
                      ("c", "POINT (30 30)")):
        node = EVR[f"geometry.multi.{name}"]
        graph.insert(Triple(station, GEO.hasGeometry, node))
        graph.insert(Triple(node, GEO.asWKT, Literal(wkt, WKT_LITERAL)))
    snapshot = tmp_path / "multi.nt"
    snapshot.write_text(serialize_ntriples(graph), encoding="utf-8")
    outputs = []
    for seed in ("2", "3"):  # seeds that chose different geometries by set order
        output = tmp_path / f"seed{seed}.nt"
        result = subprocess.run(
            [sys.executable, "-m", "evkg.cli", "materialize", "-i", str(snapshot), "-o", str(output)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        outputs.append(output.read_text(encoding="utf-8"))
    assert outputs[0] == outputs[1]
    prefix = f"<{station.value}> <{KWG_ONT.sfWithin.value}> "
    within = [line for line in outputs[0].splitlines() if line.startswith(prefix)]
    assert within == [f"{prefix}<{zip_area_iri('07001').value}> ."]
