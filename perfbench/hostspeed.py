"""Host-speed probe: two fixed kernels timed all through a run.

On the shared two-core box the benchmark was defined on, the speed of
a core drifts by up to 2x over seconds to minutes, with the same code
and the same inputs: five offline runs in a row read from 300 to 460
queries per second.  A median over a 30 s run cannot average that away,
because the slow stretches last longer than a run.

So timings are taken in host-speed units.  :meth:`HostSpeed.sample`
times two kernels that touch no repository code, every fraction of a
second: :func:`interpreter_kernel` (dict, string and sort work) and
:func:`array_kernel` (numpy passes over a 300,000-element column).
:meth:`HostSpeed.scaled` divides a measured duration by the local
slowdown, each kernel's median time over the nearest samples relative
to its reference time, blended by how much of the measured work is
array work.  A stretch in which the host runs 1.5x slow stretches the
kernels and the measured work alike, and the scaled value stays put.
A change to the repository moves the work, not the kernels.

On the reference box the interpreter kernel slows more than the array
kernel in a slow stretch (up to 1.8x against 1.2x) and the measured
work sits between them, which the blend follows.

A single-process pass samples in line (offline_build).  A pass spread
over several processes (the daemon, its worker, the load generator)
runs a :class:`Sampler` beside them: ``python -m perfbench.hostspeed``,
which times the kernels by its thread's CPU clock, so its own waits
for a core the measured processes hold do not read as a slow host.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Each kernel's time on the reference two-core box in a quiet stretch;
#: scaled durations read as seconds on that box at that speed.
INTERPRETER_REFERENCE_S = 0.0030
ARRAY_REFERENCE_S = 0.0026
#: Samples around a moment that set its slowdown.
NEAREST = 4
#: Share of array work the blend gives each kind of timing: a request
#: is mostly per-request Python around small numpy calls; set-up,
#: serve's replay-heavy cold and warm key sets, artifact builds and
#: offline replays run numpy over whole corpora and fleets.  Set from
#: how each timing followed the two kernels through slow stretches on
#: the reference box.
REQUEST_ARRAY_SHARE = 0.25
BULK_ARRAY_SHARE = 0.5
#: Seconds between a :class:`Sampler`'s samples.
SAMPLER_EVERY_S = 0.25

Clock = Callable[[], float]


@functools.lru_cache(maxsize=None)
def _column() -> Any:
    # imported on first use: importing this module must not import numpy
    # ahead of a set-up timing that counts numpy's import
    import numpy

    return numpy.random.default_rng(2016).random(300_000)


def interpreter_kernel(clock: Clock = time.perf_counter) -> float:
    """Seconds one pass of the fixed pure-Python kernel takes."""
    started = clock()
    counts: dict = {}
    for i in range(12_000):
        key = ("k", i % 97)
        counts[key] = counts.get(key, 0) + len(str(i))
    sorted(counts.items(), key=lambda item: item[1])
    return clock() - started


def array_kernel(clock: Clock = time.perf_counter) -> float:
    """Seconds one pass of the fixed numpy kernel takes."""
    import numpy

    column = _column()
    started = clock()
    scaled = column * 1.5 + 2.0
    float(numpy.maximum(scaled, 2.5).sum())
    numpy.cumsum(column)
    return clock() - started


class HostSpeed:
    """Kernel timings through a run, and durations scaled by them."""

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        #: what the kernels are timed by
        self.clock = clock
        #: (perf_counter at the sample, interpreter s, array s), in time order
        self.samples: List[Tuple[float, float, float]] = []

    def sample(self, count: int = 1) -> None:
        """Time both kernels ``count`` times.

        The collector is off meanwhile, so the kernels' time does not
        grow with the heap the measured program happens to hold.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                self.samples.append((time.perf_counter(), interpreter_kernel(self.clock),
                                     array_kernel(self.clock)))
        finally:
            if enabled:
                gc.enable()

    def slowdowns(self, at: float) -> Tuple[float, float]:
        """(interpreter, array) slowdown over the reference near ``at``.

        Each is the median over the :data:`NEAREST` samples closest in
        time to ``at``.
        """
        if not self.samples:
            raise ValueError("no host-speed samples taken")
        times = [sample[0] for sample in self.samples]
        i = bisect.bisect_left(times, at)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(times)):
            if lo > 0 and (hi >= len(times) or at - times[lo - 1] <= times[hi] - at):
                lo -= 1
            else:
                hi += 1
        near = self.samples[lo:hi]
        return (statistics.median(s[1] for s in near) / INTERPRETER_REFERENCE_S,
                statistics.median(s[2] for s in near) / ARRAY_REFERENCE_S)

    def slowdown(self, at: float, array_share: float) -> float:
        """The blended slowdown near ``at`` for work that is ``array_share`` array work."""
        interpreter, array = self.slowdowns(at)
        return interpreter ** (1.0 - array_share) * array ** array_share

    def scaled(self, seconds: float, started: float, array_share: float) -> float:
        """``seconds`` of work begun at ``started``, at reference speed."""
        return seconds / self.slowdown(started + seconds / 2.0, array_share)

    def summary(self) -> str:
        """Sample count and median slowdowns, for the report."""
        interpreter = [s[1] / INTERPRETER_REFERENCE_S for s in self.samples]
        array = [s[2] / ARRAY_REFERENCE_S for s in self.samples]
        return (f"{len(self.samples)} kernel samples, median slowdown over the "
                f"reference {statistics.median(interpreter):.2f} (interpreter), "
                f"{statistics.median(array):.2f} (array)")


class Sampler:
    """``python -m perfbench.hostspeed`` running beside a pass.

    :meth:`stop` ends it, waits for it, and returns its samples.
    """

    def __init__(self, out: Path, env: Dict[str, str]) -> None:
        self.out = out
        self.process: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, "-m", "perfbench.hostspeed", "--out", str(out)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )

    def stop(self) -> HostSpeed:
        process, self.process = self.process, None
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                process.wait(10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(10.0)
        speed = HostSpeed()
        if self.out.exists():
            for line in self.out.read_text().splitlines():
                fields = line.split()
                if len(fields) == 3:  # a sampler killed mid-line leaves a stub
                    at, interpreter, array = (float(field) for field in fields)
                    speed.samples.append((at, interpreter, array))
        return speed


def main() -> int:
    parser = argparse.ArgumentParser(description="sample the host-speed kernels until SIGTERM")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    stopping: List[bool] = []
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stopping.append(True))
    speed = HostSpeed(time.thread_time)
    with args.out.open("w", buffering=1) as out:
        while not stopping:
            speed.sample()
            out.write("%r %r %r\n" % speed.samples[-1])
            time.sleep(SAMPLER_EVERY_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
