"""Deterministic k-times tiling of the fixture corpus.

Copy 0 is the fixture itself. Copy i >= 1 shifts every longitude by 60 * i
degrees (the fixture spans less than 60 degrees, so tiles never overlap),
renames each zip to ``10000 + 32 * i + j`` (j = the zip's row in
zip_areas.csv, so no renamed zip can clash with an original one) and
suffixes station and asset ids with ``-t<i>``. State and county labels are
kept, so the New Jersey questions grow with k while the "zip code 95814"
lookup stays inside tile 0. The seed only permutes row order.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

TILE_SHIFT_DEG = 60.0
ZIP_BASE = 10000
ZIP_STRIDE = 32
CSV_NAMES = ("zip_areas", "registrations", "stations", "transmission")

_COORD_RE = re.compile(r"(-?\d+(?:\.\d+)?)(\s+)(-?\d+(?:\.\d+)?)")


def _num(v: float) -> str:
    # Same style as the fixture generator: at most 9 decimals, zeros trimmed.
    text = f"{v:.9f}".rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


@dataclass(frozen=True)
class Tiling:
    """The renaming applied to copy i; also used to derive expected answers."""

    k: int
    zips: tuple[str, ...]  # fixture zip codes in zip_areas.csv row order

    def zip_code(self, zip_code: str, i: int) -> str:
        if i == 0:
            return zip_code
        return f"{ZIP_BASE + ZIP_STRIDE * i + self.zips.index(zip_code):05d}"

    @staticmethod
    def feature_id(ident: str, i: int) -> str:
        return ident if i == 0 else f"{ident}-t{i}"

    @staticmethod
    def lon(value: float, i: int) -> str:
        return _num(value + TILE_SHIFT_DEG * i)

    def wkt(self, text: str, i: int) -> str:
        if i == 0:
            return text
        return _COORD_RE.sub(
            lambda m: self.lon(float(m.group(1)), i) + m.group(2) + m.group(3), text
        )


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        return list(reader.fieldnames or []), list(reader)


def fixture_tiling(fixtures: Path, k: int) -> Tiling:
    _, zip_rows = read_csv(fixtures / "zip_areas.csv")
    zips = tuple(row["zip"] for row in zip_rows)
    if len(zips) > ZIP_STRIDE:
        raise ValueError(f"{len(zips)} zips do not fit a zip stride of {ZIP_STRIDE}")
    tiling = Tiling(k, zips)
    renamed = {tiling.zip_code(z, i) for i in range(1, k) for z in zips}
    if renamed & set(zips) or any(len(z) != 5 for z in renamed):
        raise ValueError(f"renamed zips at k={k} would clash with fixture zips")
    return tiling


def _tile_row(tiling: Tiling, name: str, row: dict[str, str], i: int) -> dict[str, str]:
    out = dict(row)
    if "zip" in out:
        out["zip"] = tiling.zip_code(row["zip"], i)
    if name == "zip_areas":
        out["wkt"] = tiling.wkt(row["wkt"], i)
        if row["kwg_sameas"] and i:
            out["kwg_sameas"] = row["kwg_sameas"].replace(row["zip"], out["zip"])
    elif name == "stations":
        out["station_id"] = tiling.feature_id(row["station_id"], i)
        if i:
            out["lon"] = tiling.lon(float(row["lon"]), i)
    elif name == "transmission":
        out["asset_id"] = tiling.feature_id(row["asset_id"], i)
        out["wkt"] = tiling.wkt(row["wkt"], i)
    return out


def tile_corpus(fixtures: Path, out: Path, k: int, seed: int) -> Tiling:
    """Write the k-times tiled CSVs and an ingest config into ``out``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tiling = fixture_tiling(fixtures, k)
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    config = {"materialize_spatial": True, "subclass_closure": True, "snapshot": "evkg.nt"}
    for name in CSV_NAMES:
        header, rows = read_csv(fixtures / f"{name}.csv")
        tiled = [_tile_row(tiling, name, row, i) for i in range(k) for row in rows]
        rng.shuffle(tiled)
        with open(out / f"{name}.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=header, lineterminator="\n")
            writer.writeheader()
            writer.writerows(tiled)
        config[name] = f"{name}.csv"
    (out / "evkg-config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return tiling
