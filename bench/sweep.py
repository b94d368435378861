"""Scaling sweep: the whole user path at k = 1, 2, 4, 8, 16 copies of the fixture.

    python3 bench/sweep.py

Each size runs in its own capped child (the same address-space cap as the
benchmark, and STEP_CAP_S seconds per step), so a step that outgrows a cap
is reported as "exceeded-time" or "exceeded-memory" and the sweep goes on.
Prints every per-layer time and count per k, and the growth exponent
log(v2 / v1) / log(k2 / k1) between neighbouring sizes; writes the numbers
to .bench_work/sweep.json. It is separate from the repeated end-to-end runs.
"""

from __future__ import annotations

import json
import math
import signal
import sys
from pathlib import Path

from run import declared_units, run_child

KS = (1, 2, 4, 8, 16)
STEP_CAP_S = 30.0
SEED = 1


def exponent(v1: float | None, v2: float | None, k1: int, k2: int) -> str:
    if not v1 or not v2:
        return "-"
    return f"{math.log(v2 / v1) / math.log(k2 / k1):.2f}"


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "evkg").is_dir():
        print("error: run from the evkg repository root", file=sys.stderr)
        return 2

    sizes = {}
    for k in KS:
        result = run_child(root, ["sweep", str(k), str(SEED), str(STEP_CAP_S)])
        sizes[k] = result or {"k": k, "steps": [], "metrics": {}, "failed": 1, "errors": ["died"]}
        exceeded = [s for s in sizes[k]["steps"] if s["status"] != "ok"]
        print(
            f"k={k}: {len(sizes[k]['steps'])} steps, peak RSS "
            f"{sizes[k].get('peak_rss_mb', 0):.0f} MB, not ok: "
            + (", ".join(f"{s['kind']} {s['status']}" for s in exceeded) or "none"),
            flush=True,
        )

    units = declared_units("per_layer")
    names = sorted({m for s in sizes.values() for m in s["metrics"]})
    header = f"{'metric':<34} {'unit':<11}" + "".join(f"{'k=' + str(k):>12}" for k in KS)
    header += "".join(f"{f'exp {a}-{b}':>10}" for a, b in zip(KS, KS[1:]))
    print(header)
    for name in names:
        values = [sizes[k]["metrics"].get(name) for k in KS]
        cells = "".join(f"{v:>12.5g}" if v is not None else f"{'exceeded':>12}" for v in values)
        exps = "".join(
            f"{exponent(values[i], values[i + 1], KS[i], KS[i + 1]):>10}" for i in range(len(KS) - 1)
        )
        print(f"{name:<34} {units[name]:<11}{cells}{exps}")

    out = root / ".bench_work" / "sweep.json"
    out.write_text(json.dumps({str(k): v for k, v in sizes.items()}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
