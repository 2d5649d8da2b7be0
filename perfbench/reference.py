"""Reference kernels: how fast the shared host runs at the moment.

The measuring host gives the benchmark two vCPUs of a shared machine, and its
speed swings by up to 40% within seconds (other tenants, not steal time: CPU
time tracks wall time).  A run therefore times fixed kernels between
requests.  They call no affquant code.  Each does one kind of work that the
workloads do, and a workload names the kernels that match its own work:
exact rational arithmetic, a pure-Python integer loop, a 4096-point complex
FFT or a 256x256 complex FFT.

A block's speed factor is the geometric mean, over the workload's kernels,
of the kernel's median time in that block divided by its nominal time.  The
run divides the block's service time and its request latencies by that
factor, which gives them at nominal host speed.  A change in affquant moves
the request times and not the kernels, so it shows in full; a slow spell of
the host moves both and cancels.  The raw times stay in the run's report.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from time import perf_counter_ns

import numpy as np

_SMALL = np.exp(1j * np.linspace(0.0, 50.0, 4096))
_LARGE = np.exp(1j * np.linspace(0.0, 50.0, 256 * 256)).reshape(256, 256)


def _fraction_sum() -> Fraction:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return total


def _python_loop() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def _small_fft() -> np.ndarray:
    out = _SMALL
    for _ in range(2):
        out = np.fft.ifft(np.fft.fft(_SMALL) * _SMALL)
    return out


def _large_fft() -> np.ndarray:
    return np.fft.fft2(_LARGE)


# name: (kernel, nominal ns).  The nominal times are round figures near each
# kernel's time at an idle moment of the calibration host (Intel Xeon, 2
# vCPUs, numpy's pocketfft); they set only the scale of the corrected times.
KERNELS = {
    "fraction": (_fraction_sum, 500_000.0),
    "python": (_python_loop, 210_000.0),
    "fft4096": (_small_fft, 250_000.0),
    "fft256x256": (_large_fft, 1_500_000.0),
}


def sample(names: tuple[str, ...]) -> tuple[int, ...]:
    """Time each named kernel once; ns per kernel."""
    times = []
    for name in names:
        kernel = KERNELS[name][0]
        start = perf_counter_ns()
        kernel()
        times.append(perf_counter_ns() - start)
    return tuple(times)


def speed_factor(names: tuple[str, ...], samples: list[tuple[int, ...]]) -> float:
    """Host slowness over a block: 1 at nominal speed, 1.3 when 30% slower."""
    logs = [math.log(statistics.median(column) / KERNELS[name][1])
            for name, column in zip(names, zip(*samples))]
    return math.exp(sum(logs) / len(logs))
