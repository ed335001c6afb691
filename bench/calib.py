"""Machine-speed calibration: a fixed piece of CPU work timed between calls.

On a shared virtual machine the speed of the same code drifts by 20-50% and
stays fast or slow for minutes at a time, in CPU time as well as wall time.
The drift hits the calibration kernel and the program alike, so dividing a
call's time by the kernel's time around it cancels most of the drift while
keeping every change in the program's own speed.

A normalised time is ``elapsed * REFERENCE_S / kernel_time``: the seconds the
call would take on a machine that runs the kernel in ``REFERENCE_S``.
"""

from __future__ import annotations

import functools
import time

import numpy as np

#: the kernel's time on the machine the baseline was recorded on when it ran
#: fast (2-CPU Intel Xeon VM, Python 3.11, numpy 2.4), so normalised seconds
#: read close to wall seconds there
REFERENCE_S = 0.019


@functools.cache
def _csv() -> str:
    """Press-event-like CSV text the kernel parses: mouse, session, time.

    At 20k rows (about 0.35 MB) the kernel tracked the drift of
    events-large's calls better than with 6k rows, likely through a working
    set closer to divtol's ingest. Built on first use, not at import, so
    that it does not raise the peak RSS the worker reads before its first
    kernel run.
    """
    return "\n".join(f"m{i % 2000:05d},{i % 10 + 1},{(i * 7919) % 3600000 / 1000:.3f}" for i in range(20000))


def kernel() -> float:
    """Fixed work that mixes what divtol spends its time on.

    Interpreted loops over dicts and floats, many small numpy calls, and
    CSV-like parsing: splitting lines and fields, converting floats and
    grouping them by key.
    """
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(12000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        acc += (i * 3) % 7
    a = np.arange(200.0)
    for i in range(150):
        acc += float((a * i).sum())
    groups: dict[tuple[str, int], list[float]] = {}
    for mouse, session, t in (line.split(",") for line in _csv().split("\n")):
        groups.setdefault((mouse, int(session)), []).append(float(t))
    return acc + len(groups) + float(np.asarray(groups[("m00000", 1)]).sum())


def measure() -> float:
    """Wall time of one run of the kernel, in seconds; run ``kernel`` once first."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def normalise(times: list[float], kernel_times: list[float]) -> list[float]:
    """Scale each time by the mean of the kernel times just before and after it.

    ``kernel_times`` has one entry more than ``times``: kernel ``i`` ran right
    before call ``i`` and kernel ``i + 1`` right after it.
    """
    if len(kernel_times) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} kernel times, got {len(kernel_times)}")
    return [
        t * REFERENCE_S / (0.5 * (kernel_times[i] + kernel_times[i + 1]))
        for i, t in enumerate(times)
    ]
