"""Window statistics and host probes shared by every workload.

A window is a list of *slices*: ``(wall seconds inside timed calls,
triggers decided, speed-probe ms)``. Two things keep the numbers steady on
a shared host:

* The end-to-end rate is the **median over ten equal-work segments** of
  the window, not total ÷ wall: a burst of noise lands in one or two
  segments and the median never sees it.
* Times are **normalised to a reference host speed**. The CPU this runs on
  drifts by ±15% over seconds (measured: the same pure-Python loop takes
  149–210 ms, wall and CPU time alike, so it is clock speed and not
  descheduling). :class:`SpeedProbe` runs a fixed ~6 ms interpreter
  kernel between timed slices, at most every 50 ms, and every segment is
  scaled by ``REFERENCE_PROBE_MS / median probe of the segment``: the time
  it would have taken on a host that runs the kernel in exactly
  ``REFERENCE_PROBE_MS``. The raw, un-normalised rate is reported beside
  it.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
from typing import Dict, List, Sequence, Tuple

Slice = Tuple[float, int, float]

SEGMENTS = 10

#: Probe duration that counts as speed 1.0: this host's typical value.
REFERENCE_PROBE_MS = 6.0
PROBE_PASSES = 5
PROBE_INTERVAL_S = 0.05
CALIBRATION_PASSES = 1000


class _Cell:
    __slots__ = ("value", "tag")

    def __init__(self, value: int, tag: Tuple[int, str]):
        self.value = value
        self.tag = tag

    def bump(self, amount: int) -> int:
        return self.value + amount


class ReferenceKernel:
    """A fixed interpreter workload that shares the program's bottlenecks.

    Each step does a scattered read-modify-write on a 64k-entry dict (cache
    misses) and builds an object, calls a method on it and stores it under
    a tuple key (allocation, attribute access, call overhead). Measured
    against the pipeline's per-trigger time over 90 s of host noise, this
    mix tracks the program far better than a tight int loop does
    (correlation 0.9 against 0.6), which is the whole point of a probe.

    The working set is allocated once — a fresh dict per call would mmap
    and page-fault its memory each time and time the operating system —
    and the collector is paused inside :meth:`run`, so the kernel can never
    trigger (and be charged for) a collection of the *program's* heap.
    """

    def __init__(self) -> None:
        order = list(range(1 << 16))
        random.Random(0).shuffle(order)
        self._order = order[:2000]
        self._table: Dict[int, int] = dict.fromkeys(range(1 << 16), 0)
        self._cells: Dict[Tuple[int, str], _Cell] = {}

    def run(self, passes: int) -> float:
        """Wall seconds of ``passes`` passes over the fixed access order."""
        table, order, cells = self._table, self._order, self._cells
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            total = 0
            for _ in range(passes):
                for key in order:
                    total += table[key] ^ key
                    table[key] = total & 0xFFFF
                    cell = _Cell(key, (key, "x"))
                    total += cell.bump(key)
                    cells[(key & 255, "k")] = cell
            return time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()


class SpeedProbe:
    """Samples the host's speed between timed slices."""

    def __init__(self) -> None:
        self._kernel = ReferenceKernel()
        self._last_at = float("-inf")
        self.latest_ms = REFERENCE_PROBE_MS
        self.samples = 0

    def sample(self) -> float:
        """The latest probe time in ms, re-measured when it is stale."""
        if time.perf_counter() - self._last_at >= PROBE_INTERVAL_S:
            self.latest_ms = self._kernel.run(PROBE_PASSES) * 1000.0
            self.samples += 1
            self._last_at = time.perf_counter()
        return self.latest_ms


def pin_to_one_cpu() -> int:
    """Pin this process to one allowed CPU (the highest numbered one)."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
        return allowed[-1]
    except (AttributeError, OSError):  # platforms without affinity masks
        return -1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def host_calibration_ms() -> float:
    """Wall ms of a long run of the reference kernel (~1 s on this host).

    Tells a slow host from a slow program: the kernel touches none of the
    program's code, so two runs whose ``host.calib_ms`` differ were not
    taken on comparable machines.
    """
    return ReferenceKernel().run(CALIBRATION_PASSES) * 1000.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample.

    The benchmark's own, not ``repro.harness.metrics.percentile``: the
    statistics must be identical on any two commits being compared.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


def _segments(slices: Sequence[Slice],
              segments: int = SEGMENTS) -> List[Sequence[Slice]]:
    """``segments`` equal runs of consecutive slices (fewer when short)."""
    count = max(1, min(segments, len(slices)))
    return [slices[index * len(slices) // count:
                   (index + 1) * len(slices) // count]
            for index in range(count)]


def _scaled(slices: Sequence[Slice]) -> List[List[Tuple[float, int]]]:
    """Per segment: slices with wall time at the reference host speed.

    One probe sample is itself ±8% noisy, so a segment is scaled by the
    median of the samples taken inside it, not slice by slice.
    """
    out = []
    for segment in _segments(slices):
        if not segment:
            continue
        scale = REFERENCE_PROBE_MS / statistics.median(s[2] for s in segment)
        out.append([(wall * scale, decided) for wall, decided, _ in segment])
    return out


def scaled_wall_s(slices: Sequence[Slice]) -> float:
    """Total timed seconds of ``slices`` at the reference host speed."""
    return sum(wall for segment in _scaled(slices) for wall, _ in segment)


def _rate(segment: Sequence[Tuple[float, int]]) -> float:
    wall = sum(s[0] for s in segment)
    return sum(s[1] for s in segment) / wall if wall > 0 else 0.0


def window_summary(slices: Sequence[Slice]) -> Dict[str, float]:
    """The window's rate, per-trigger cost distribution and spread."""
    scaled = _scaled(slices)
    rates = [_rate(segment) for segment in scaled]
    raw_rates = [_rate([(wall, decided) for wall, decided, _ in segment])
                 for segment in _segments(slices) if segment]
    per_trigger_ms = [wall * 1000.0 / decided for segment in scaled
                      for wall, decided in segment if decided > 0]
    median_rate = statistics.median(rates) if rates else 0.0
    return {
        "triggers_per_s": median_rate,
        "trigger_ms_p50": (statistics.median(per_trigger_ms)
                           if per_trigger_ms else 0.0),
        "raw_triggers_per_s": (statistics.median(raw_rates)
                               if raw_rates else 0.0),
        "probe_ms_p50": (statistics.median(s[2] for s in slices)
                         if slices else 0.0),
        "slice_samples": float(len(per_trigger_ms)),
        "slice_ms_p90": percentile(per_trigger_ms, 0.90),
        "slice_ms_p99": percentile(per_trigger_ms, 0.99),
        "slice_ms_max": max(per_trigger_ms, default=0.0),
        "segment_spread_pct": (
            100.0 * (max(rates) - min(rates)) / median_rate
            if median_rate > 0 else 0.0),
        "window_wall_s": sum(s[0] for s in slices),
        "window_decided": float(sum(s[1] for s in slices)),
    }
