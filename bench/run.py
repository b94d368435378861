"""Benchmark entry point; run it from the repository root.

    python3 bench/run.py --workload cq-suite --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

Each workload runs as one closed-loop client in a fresh child interpreter
(``bench/worker.py``). The child gets an address-space cap (set in the
child only), a wall-clock cap and a fixed PYTHONHASHSEED, so set and dict
iteration order repeats in every run. The hash seed is the same for every
workload seed: per-query times moved by up to 12% between hash seeds, and
the seed is meant to vary the inputs only. ``--trace 0`` reports the end-to-end
metrics, with times corrected to a reference host speed (``hostspeed.py``),
``--trace 1`` the per-layer metrics of a separate traced run. The
last line of standard output is one JSON object; the exit code is 0 only
when every op gave the right answer. ``--workload all`` runs every
workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ingest", "cq-suite", "cli-lookup")
MEMORY_CAP_BYTES = 1 << 30
WALL_CAP_S = 170.0
HASH_SEED = "0"


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_child(root: Path, args: list[str]) -> dict | None:
    """Run bench/worker.py under the caps; its result, or None if it died.

    The child works in a fresh directory under .bench_work that this
    process removes afterwards, also when the child was killed.
    """
    (root / ".bench_work").mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    with tempfile.TemporaryDirectory(prefix="run-", dir=root / ".bench_work") as work:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args, work],
                cwd=root,
                env=env,
                stdout=sys.stderr,  # keep our stdout for the table and the result line
                preexec_fn=_limit_child,
                timeout=WALL_CAP_S,
            )
        except subprocess.TimeoutExpired:
            print(f"worker exceeded the {WALL_CAP_S:g} s wall-clock cap", file=sys.stderr)
            return None
        result_path = Path(work) / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(result: dict) -> dict[str, float]:
    """The end-to-end metrics, from times corrected to the reference host speed."""
    lat = hostspeed.correct(result["latencies_ms"], result["calibration_ms"])
    setup = hostspeed.correct(result["setup_s"], result["setup_calibration_ms"])
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "ops_per_s": len(lat) / (sum(lat) / 1000.0),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool) -> dict:
    result = run_child(root, ["run", name, str(seed), str(seconds), "1" if trace else "0"])
    if result is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {},
    }
    print(f"workload {name}: k={result['k']} seed={seed} seconds={seconds} trace={int(trace)}")
    for error in result.get("errors", []):
        print(f"  FAILED: {error.strip()}")
    if "setup_s" not in result:  # set-up failed; nothing was measured
        return out
    if trace:
        layers = result["layer_metrics"]
        values = {k: (layers[k], unit) for k, unit in declared_units("per_layer").items()}
        print(f"  trace written to {result['trace_file']}")
    elif result["latencies_ms"]:
        metrics = end_to_end(result)
        values = {k: (metrics[k], unit) for k, unit in declared_units("end_to_end").items()}
        cal, raw = result["calibration_ms"], result["latencies_ms"]
        print(
            f"  samples: {len(raw)} timed ops; calibration median {statistics.median(cal):.3f} ms"
            f" (reference {hostspeed.REFERENCE_MS:g} ms); raw op_p50_ms {statistics.median(raw):.3f},"
            f" raw setup_s {statistics.median(result['setup_s']):.4f}"
        )
    else:
        return out
    ratio = result["failed"] / result["attempted"]
    counts = f"({result['failed']}/{result['attempted']})"
    print(f"  {'failed_ops_ratio':<34} {ratio:>14.6f} ratio  {counts}")
    for key, (value, unit) in values.items():
        print(f"  {key:<34} {value:>14.6f} {unit}")
        out["metrics"][key] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "evkg").is_dir() or not (root / "fixtures").is_dir():
        print("error: run from the evkg repository root (no src/evkg or fixtures/)", file=sys.stderr)
        return 2
    print(
        f"environment: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"cpu {cpu_model()}, PYTHONHASHSEED {HASH_SEED}"
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outs = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(outs) == 1:
        final = outs[args.workload]
    else:
        final = {
            "correct": all(o["correct"] for o in outs.values()),
            "attempted": sum(o["attempted"] for o in outs.values()),
            "failed": sum(o["failed"] for o in outs.values()),
            "metrics": {f"{n}.{k}": v for n, o in outs.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
