"""Host-speed correction of measured times.

On a shared virtual machine the speed of one CPU drifts all the time: a
fixed loop's time varies by 30% from one run of it to the next and by up
to 2x between phases lasting minutes, no steal time is reported, process
time moves with wall time, and the other CPU's speed barely follows. Runs
of 30 s and of 50 s did not average that away. So every timed region (an op, a set-up) is
measured inside a ``Meter``, which times a small fixed loop just before the
region and, on a CPU-time timer, during it. The reported time is

    corrected = measured * REFERENCE_MS / (mean time of the loop)

The loop is benchmark code, so a change to evkg cannot move it: what the
correction divides out is the host's speed, not the program's. The time the
in-region samples take is left out of ``measured``. The raw times stay in
each run's result and are printed beside the corrected ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Mean time of one sample on the host the bounds were set on; only the scale
# of the corrected numbers depends on it.
REFERENCE_MS = 0.45
LOOP_ITERATIONS = 2000
SAMPLES_BEFORE = 10
# CPU seconds between samples inside a region: about 2% of its time.
INTERVAL_S = 0.05


def _loop() -> int:
    table = {}
    for i in range(LOOP_ITERATIONS):
        table[i] = (i, str(i))
    total = 0
    for key, (_, text) in table.items():
        total += len(text) + (key & 7)
    return total


def sample_ms() -> float:
    """Milliseconds one fixed loop of dict, tuple and str work takes now.

    The loop runs twice and only the second run is timed: a first run
    right after other code is about 30% slower, which would make the
    correction depend on how many samples fall inside a region, that is on
    its length. The cyclic garbage collector is off meanwhile; otherwise
    its passes over the program's live objects, whose number evkg decides,
    would be timed too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()
        t0 = time.perf_counter()
        _loop()
        return 1000.0 * (time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times one region and samples the host's speed before and during it.

        with Meter() as meter:
            work()
        meter.elapsed_s, meter.calibration_ms

    Samples inside the region come from SIGPROF, which ticks on the
    process's CPU time, so a region that sleeps is not sampled.
    """

    def __enter__(self) -> "Meter":
        self.samples = [sample_ms() for _ in range(SAMPLES_BEFORE)]
        self._spent = 0.0
        self._timing = False  # ticks count only between the two clock reads
        self._old_handler = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        self._timing = True
        return self

    def __exit__(self, *exc) -> None:
        self._timing = False
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old_handler)
        self.elapsed_s = end - self._t0 - self._spent
        self.calibration_ms = statistics.fmean(self.samples)

    def _on_tick(self, signum, frame) -> None:
        if self._timing:
            t0 = time.perf_counter()
            self.samples.append(sample_ms())
            self._spent += time.perf_counter() - t0


def correct(times: list[float], calibrations_ms: list[float]) -> list[float]:
    """Each time scaled from the speed its region saw to the reference speed."""
    return [t * REFERENCE_MS / c for t, c in zip(times, calibrations_ms)]
