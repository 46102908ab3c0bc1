"""CPU speed of the host while a workload runs, for normalizing times.

On a shared virtual machine the same work can take 40% longer when a
neighbour loads the physical core, in waves of a few seconds.  That
swamps the differences a benchmark looks for.  A monitor process per
CPU runs a short fixed loop every :data:`INTERVAL_S`, pinned to its
CPU, and records the loop's *CPU* time: it grows when the core runs
slower and ignores time spent waiting for the core, so the monitor
reads the core's speed even while the workload keeps the core busy.
Each sample costs about :data:`REFERENCE_S`, about 1% of the CPU.

``speed(start, end)`` is the mean of ``REFERENCE_S / sample`` over the
window: 1.0 at the reference speed, lower when the host was slower.
A time multiplied by ``speed ** SPEED_EXPONENT`` reads as seconds at
the reference speed.  The exponent is above 1 because a loaded core
also makes the workload wait for it, which the monitor's CPU time does
not see: fitted on the host the benchmark was written on, raw wall time
grew as about ``speed ** -1.5``, and 1.25 gave the steadiest times
across quiet and loaded hours on every workload.

Run ``python3 speed.py CPU OUT`` to start one monitor by hand; it
samples until terminated.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

INTERVAL_S = 0.025
SPIN = 4000
REFERENCE_S = 0.0003  # CPU time of one spin on an unloaded core of the reference host
SPEED_EXPONENT = 1.25


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def monitor(cpu: int, out: Path) -> None:
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    with open(out, "w", buffering=1, encoding="ascii") as sink:
        while os.getppid() == parent:  # never outlive the benchmark
            start = time.thread_time()
            _spin(SPIN)
            sink.write(f"{time.perf_counter():.6f} {time.thread_time() - start:.9f}\n")
            time.sleep(INTERVAL_S)


class SpeedMonitor:
    """One monitor process per CPU in ``cpus``, until :meth:`stop`."""

    def __init__(self, cpus: list[int], workdir: Path) -> None:
        self.paths = [workdir / f"speed-{cpu}.txt" for cpu in cpus]
        self.procs = [
            subprocess.Popen([sys.executable, __file__, str(cpu), str(path)])
            for cpu, path in zip(cpus, self.paths)
        ]
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> None:
        """Stop the monitors and load their samples (idempotent)."""
        if not self.procs:
            return
        procs, self.procs = self.procs, []
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for path in self.paths:
            for line in path.read_text(encoding="ascii").splitlines():
                stamp, cpu_s = line.split()
                if float(cpu_s) > 0:
                    self.samples.append((float(stamp), float(cpu_s)))
        self.samples.sort()

    def speed(self, start: float, end: float) -> float:
        """Mean relative speed over ``[start, end]`` (1.0 if unsampled)."""
        window = [REFERENCE_S / cpu_s for stamp, cpu_s in self.samples if start <= stamp <= end]
        return sum(window) / len(window) if window else 1.0


if __name__ == "__main__":
    monitor(int(sys.argv[1]), Path(sys.argv[2]))
