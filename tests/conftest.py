from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from evkg.graph import Graph
from evkg.ingest import IngestConfig, build_graph

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def index_sizes(g: Graph) -> tuple[int, int]:
    """Triple counts of the subject-first and the predicate-first index, read
    the same way; both must equal len(g)."""

    def total(index: dict) -> int:
        return sum(len(third) for second in index.values() for third in second.values())

    return (total(g._spo), total(g._pos))


def fixture_config(materialize: bool = True) -> IngestConfig:
    return IngestConfig(
        registrations=FIXTURES / "registrations.csv",
        stations=FIXTURES / "stations.csv",
        transmission=FIXTURES / "transmission.csv",
        zip_areas=FIXTURES / "zip_areas.csv",
        materialize_spatial=materialize,
        subclass_closure=materialize,
    )


def tiled_config(out: Path, k: int = 2) -> IngestConfig:
    """The bench's k-fold tiling of the fixture CSVs (seed 1), written into `out`.
    The tiler is loaded from its file, since bench/ is not a package."""
    spec = importlib.util.spec_from_file_location("bench_tiler", ROOT / "bench" / "tiler.py")
    tiler = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tiler)
    tiler.tile_corpus(FIXTURES, out, k, 1)
    return IngestConfig(**{name: out / f"{name}.csv"
                           for name in ("registrations", "stations", "transmission", "zip_areas")})


@pytest.fixture(scope="session")
def fixture_graph():
    """The fully built fixture graph (closure + spatial relations)."""
    graph, report = build_graph(fixture_config())
    assert not report.skipped
    return graph


@pytest.fixture(scope="session")
def raw_fixture_graph():
    """Fixture graph before any materialization."""
    graph, report = build_graph(fixture_config(materialize=False))
    assert not report.skipped
    return graph
