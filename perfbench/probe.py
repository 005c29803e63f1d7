"""Machine-speed probe, run in a process of its own.

On a small shared machine the speed of the cores drifts by up to a
quarter for tens of seconds at a time, as other tenants load them.  The
benchmark therefore times a fixed probe before and after every measured
interval and rescales the interval to the speed at which the probe takes
``REFERENCE_S`` seconds.  The probe mixes the three kinds of work the
workloads do: interpreter-bound Python, many small numpy calls, and
bulk array passes larger than the caches.

The probe runs in a child process so that its arrays never count
towards the workload's peak memory.  Run as a script, it serves probes:
each line read from stdin runs one and writes its duration to stdout.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Median probe time on the machine the benchmark was calibrated on
# (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.08
PROBE_TIMEOUT_S = 30


def _probe_work():
    import numpy as np

    rng = np.random.default_rng(0)
    small = [rng.random((2, 4, 4)) for _ in range(8)]
    weights = rng.random(2)
    big = rng.random((8192, 256))
    other = rng.random((8192, 256))
    product = np.empty_like(big)

    def run() -> float:
        start = perf_counter()
        total = 0.0
        for i in range(1500):
            mixed = np.tensordot(weights, small[i & 7], axes=(0, 0))
            mixed = mixed[mixed > 0.0]
            total += float(-(mixed * np.log2(mixed)).sum())
            table = {j: j * 2 for j in range(20)}
            total += len(table)
        for _ in range(3):
            np.multiply(big, other, out=product)
            sums = product.reshape(8192, 16, 16).sum(axis=2)
            total += float((sums * np.log2(sums)).sum())
        if not total:
            raise ArithmeticError("probe produced no work")
        return perf_counter() - start

    return run


def serve() -> None:
    run = _probe_work()
    for _ in sys.stdin:
        print(repr(run()), flush=True)


class Probe:
    """Client of a probe process; use as a context manager."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self) -> float:
        """Run one probe and return its duration in seconds."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe process exited with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SpeedLog:
    """Probe times, and intervals rescaled to the reference speed with them.

    An interval is scaled by ``REFERENCE_S`` over the median of the probe
    taken just before it and every probe taken during it; the median
    keeps one probe that ran in a brief lull or burst from skewing it.
    """

    def __init__(self, probe: Probe) -> None:
        self._probe = probe
        self.times = [probe.measure()]

    def start(self) -> int:
        """Mark the start of an interval; pass the mark to :meth:`rescale`."""
        return len(self.times) - 1

    def measure(self) -> None:
        self.times.append(self._probe.measure())

    def rescale(self, seconds: float, mark: int) -> float:
        return seconds * REFERENCE_S / statistics.median(self.times[mark:])


if __name__ == "__main__":
    serve()
