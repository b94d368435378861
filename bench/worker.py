"""Child process of the benchmark: one workload, or one sweep size, per process.

Started by ``run.py`` or ``sweep.py`` from the repository root, with the
address-space cap and PYTHONHASHSEED already set by the parent. Builds its
corpora in the given work directory and writes ``result.json`` there. Op
failures (wrong answer, exception, memory or time cap) are counted in the
result instead of ending the process.

    python3 bench/worker.py run <workload> <seed> <seconds> <trace 0|1> <work dir>
    python3 bench/worker.py sweep <k> <seed> <step cap s> <work dir>
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from typing import Optional

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from evkg.ntriples import parse_ntriples  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 2
OP_CAP_S = {"ingest": 60.0, "cq-suite": 30.0, "cli-lookup": 10.0}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded its time cap")


class Runner:
    """Runs ops one at a time: time cap, timing, check, failure accounting."""

    def __init__(self, cap_s: float, tracer: Optional[tracing.Tracer] = None):
        self.cap_s, self.tracer = cap_s, tracer
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, op: workloads.Op, traced: bool = False) -> dict:
        gc.collect()
        self.attempted += 1
        if traced:
            first = len(self.tracer.spans)
            self.tracer.begin_op(f"{self.attempted}:{op.kind}")
        try:
            signal.setitimer(signal.ITIMER_REAL, self.cap_s)
            try:
                with hostspeed.Meter() as meter:
                    out = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            problem = op.check(out)
            status = "ok" if problem is None else "wrong"
        except OpTimeout:
            status, problem = "exceeded-time", f"{op.kind}: exceeded {self.cap_s:g} s"
        except MemoryError:
            status, problem = "exceeded-memory", f"{op.kind}: exceeded the memory cap"
        except Exception:  # noqa: BLE001 - a crashing op is a failed op, not a dead run
            status, problem = "error", traceback.format_exc(limit=3)
        record = {"kind": op.kind, "ms": None, "status": status}
        counts = self.tracer.end_op() if traced else None
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(problem)
            return record
        record["ms"], record["cal_ms"] = 1000.0 * meter.elapsed_s, meter.calibration_ms
        record["rows"] = out.count("\n") - 1 if isinstance(out, str) else 0
        if traced:
            record["profile"] = tracing.op_profile(self.tracer.spans, first, counts, meter.elapsed_s)
        return record


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    workload = workloads.WORKLOADS[name](ROOT, work, seed)
    tracer = tracing.Tracer() if trace else None
    runner = Runner(OP_CAP_S[name], tracer)
    result = {"workload": name, "k": workload.k, "seed": seed, "seconds": seconds}

    setups, setup_cals = [], []
    try:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            with hostspeed.Meter() as meter:
                workload.setup()
            setups.append(meter.elapsed_s)
            setup_cals.append(meter.calibration_ms)
    except workloads.SetupError as exc:
        return result | {"attempted": 1, "failed": 1, "errors": [f"set-up: {exc}"]}
    result["setup_s"], result["setup_calibration_ms"] = setups, setup_cals

    for op in workload.warmup():  # checked and counted, but not timed
        runner.run(op)

    records, rounds = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rounds) < MIN_ROUNDS:
        traced = trace and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        try:
            batch = [runner.run(op, traced) for op in workload.round()]
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, sum(r["ms"] or 0.0 for r in batch)))
        records += [r | {"traced": traced} for r in batch]
    result["loop_s"] = time.perf_counter() - start

    timed = [r for r in records if not r["traced"] and r["ms"] is not None]
    result["latencies_ms"] = [r["ms"] for r in timed]
    result["calibration_ms"] = [r["cal_ms"] for r in timed]
    result["kinds"] = [r["kind"] for r in timed]

    if trace:
        tracer.install()
        try:
            pipeline = workloads.pipeline_pass(ROOT, work, seed, 1)
            reference = [runner.run(op, True) for op in pipeline]
        finally:
            tracer.uninstall()
        traced_ops = [r for r in records if r["traced"] and "profile" in r]
        metrics, source = tracing.layer_metrics(traced_ops, [r for r in reference if "profile" in r])
        untraced = [ms for was_traced, ms in rounds if not was_traced]
        traced_rounds = [ms for was_traced, ms in rounds if was_traced]
        metrics["trace.slowdown"] = (
            (sum(traced_rounds) / len(traced_rounds)) / (sum(untraced) / len(untraced))
        )
        metrics["graph.triples"] = float(workload.graph_triples)
        metrics["graph.bytes_per_triple"] = _bytes_per_triple(workload.snapshot_text)
        result["layer_metrics"] = metrics
        result["trace_file"] = str(_write_trace(tracer, name, seed, records + reference, source))

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def _bytes_per_triple(snapshot_text: str) -> float:
    """Heap bytes per triple of a freshly parsed graph, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = parse_ntriples(snapshot_text)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return used / len(graph)


def _write_trace(tracer: tracing.Tracer, name: str, seed: int, records, source) -> Path:
    path = ROOT / ".bench_work" / f"trace-{name}-seed{seed}.json"
    self_s = {f"{layer}.self_s": 0.0 for layer in tracing.LAYERS + ("bench",)}
    for record in records:
        for key in self_s:
            self_s[key] += record.get("profile", {}).get(key, 0.0)
    payload = {
        "spans": {"fields": ["name", "start", "end", "parent", "op"], "rows": tracer.spans},
        "self_s_total": self_s,
        "ops": records,
        "metric_source": source,
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def run_sweep(k: int, seed: int, cap_s: float, work: Path) -> dict:
    tracer = tracing.Tracer()
    runner = Runner(cap_s, tracer)
    ops = workloads.pipeline_pass(ROOT, work, seed, k)
    tracer.install()
    try:
        records = [runner.run(op, True) for op in ops]
    finally:
        tracer.uninstall()
    metrics, _ = tracing.layer_metrics([], [r for r in records if "profile" in r])
    return {
        "k": k,
        "steps": [{"kind": r["kind"], "status": r["status"], "ms": r["ms"]} for r in records],
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str]) -> int:
    mode, work = argv[0], Path(argv[-1])
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    if mode == "run":
        name, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
        result = run_workload(name, seed, seconds, trace, work)
    else:
        result = run_sweep(int(argv[1]), int(argv[2]), float(argv[3]), work)
    (work / "result.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
