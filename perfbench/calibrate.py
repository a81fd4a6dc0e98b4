"""Host-speed calibration for the benchmark's timings.

On a shared host the same code runs up to about twice as slow for tens of
seconds at a time: the host takes processors away (steal time, 35% in some
runs) or runs them slower.  A whole run can fall in such a phase, so raw
wall-clock timings of separate runs spread by 20-60%.

The remedy is a fixed reference task, independent of the program, timed in
wall-clock time alongside every measurement.  A timing is then stated at
reference speed: a time is multiplied by ``REFERENCE_MS / reference time``
over the same interval, a rate divided by it.  A program change moves the
timing and not the reference, so it shows in full; a slow phase of the host
moves both and cancels.

* Server windows and set-ups: this module run as its own process, at a
  higher scheduling priority, which times the task every ``PERIOD_S``
  seconds while the run measures (``Calibrator``); each window or set-up
  uses the median of the samples taken during it.
* The offline workload: ``offline.py`` times the task right after each
  operation in its own process, and the run uses the median of those.

    python perfbench/calibrate.py samples.txt

writes ``<monotonic seconds> <task wall ms>`` lines until it is terminated.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: wall milliseconds the reference task takes at reference speed
REFERENCE_MS = 10.0
PERIOD_S = 0.25
#: niceness of the calibration process (kept at 0 where lowering is not allowed)
PRIORITY = -10


def reference_task(data: np.ndarray) -> float:
    """Interpreted loops over dicts and tuples, then NumPy sorts and gathers."""
    table = {}
    for i in range(12000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    order = np.argsort(data, kind="stable")
    picked = np.take(data, order[::3])
    return float(picked.sum()) + len(table)


def reference_data() -> np.ndarray:
    return np.random.default_rng(0).random(60000)


def main(argv: Sequence[str]) -> int:
    out = Path(argv[0])
    data = reference_data()
    running = True

    def stop(*_: object) -> None:
        nonlocal running
        running = False

    signal.signal(signal.SIGTERM, stop)
    # Run ahead of the measured processes, so that the task's time shows the
    # host's speed rather than the benchmark's own queue for a processor.
    try:
        os.nice(PRIORITY)
    except OSError:
        pass
    reference_task(data)
    with open(out, "w", encoding="ascii") as samples:
        while running:
            now = time.monotonic()
            reference_task(data)
            samples.write(f"{now:.6f} {(time.monotonic() - now) * 1000.0:.6f}\n")
            samples.flush()
            time.sleep(PERIOD_S)
    return 0


class Calibrator:
    """Runs the calibration process for the length of a ``with`` block."""

    def __init__(self, out: Path, env: dict, cwd: str) -> None:
        self.out = out
        self.proc = subprocess.Popen([sys.executable, __file__, str(out)], env=env, cwd=cwd,
                                     stdin=subprocess.DEVNULL)
        self._samples: Optional[Tuple[List[float], List[float]]] = None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def samples(self) -> Tuple[List[float], List[float]]:
        if self._samples is None:
            times, task_ms = [], []
            for line in self.out.read_text(encoding="ascii").splitlines():
                parts = line.split()
                if len(parts) == 2:
                    times.append(float(parts[0]))
                    task_ms.append(float(parts[1]))
            self._samples = (times, task_ms)
        return self._samples

    def slowdown(self, start: float, end: float) -> float:
        """Median task time over ``[start, end]`` (monotonic s) / ``REFERENCE_MS``.

        Takes at least the five samples nearest the interval, so a short
        interval still gets a median.
        """
        times, task_ms = self.samples()
        if not times:
            raise RuntimeError("the calibration process recorded no samples")
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        while hi - lo < 5 and (lo > 0 or hi < len(times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
        return statistics.median(task_ms[lo:hi]) / REFERENCE_MS


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
