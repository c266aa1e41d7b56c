"""Samples how fast the host runs the worker while it works.

The host this benchmark was sized on shares its cores with other tenants.
The speed of a core changes by up to 2x within seconds, the two cores change
independently, and the process's own CPU time stretches with it (the time is
not stolen, it is slower). Such changes are shorter than one iteration and
longer than a probe, so only sampling during the iteration follows them.

`SpeedSampler` times a small fixed task on the worker's main thread every
`PERIOD_S` of the process's CPU time (SIGPROF), which costs about 3 % of
it. The task is a mix of the kinds of work renokit does, none of it
renokit code: CJK string slicing into a set of hashes (as shingling does),
dict counting, a regular expression scan and a few small numpy operations.
Its time is thread CPU time, so waiting for the GIL or for another process
does not count. The trimmed mean of an iteration's samples divided by
`REFERENCE_S` is how much slower than the reference the core ran; `run.py`
scales the CPU part of the iteration's times by it. A change to renokit cannot make the task
faster or slower, so it moves the scaled times as it moves the plain ones.
"""

from __future__ import annotations

import atexit
import random
import re
import signal
import statistics
import time

import numpy as np

# Task time in a worker on the reference host in its faster periods (2 vCPUs,
# Intel Xeon at 2.0 GHz, Python 3.11, numpy 2.4). Scaled times are seconds
# at that speed.
REFERENCE_S = 0.00030
PERIOD_S = 0.02

_rng = random.Random(20240601)
_TEXT = "".join(_rng.choices([chr(c) for c in range(0x4E00, 0x9000)] + ["。"] * 40, k=500))
_WORDS = re.compile("[一-丿]{2}")
_VALUES = np.arange(1, 2_001, dtype=np.uint64)


def _task() -> int:
    grams = {hash(_TEXT[i:i + 5]) for i in range(len(_TEXT) - 4)}
    counts: dict[str, int] = {}
    for ch in _TEXT:
        counts[ch] = counts.get(ch, 0) + 1
    hits = len(_WORDS.findall(_TEXT))
    low = int((_VALUES * np.uint64(0x9E3779B97F4A7C15) + np.uint64(7)).min())
    return len(grams) + len(counts) + hits + low % 7


class SpeedSampler:
    """Times `_task` every PERIOD_S of process CPU time, from a signal handler."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        # The interpreter restores default handlers as it exits, and a
        # SIGPROF with the default handler kills the process.
        atexit.register(signal.setitimer, signal.ITIMER_PROF, 0)

    def _tick(self, signum, frame) -> None:
        # The first run brings the task's code and data back into the caches
        # the workload evicted; only the second is timed, so a sample shows
        # the core's speed, not what the workload happened to leave behind.
        _task()
        t0 = time.thread_time()
        _task()
        self.samples.append(time.thread_time() - t0)

    def take(self) -> float:
        """Mean task time since the last call without its top and bottom
        tenth, in seconds. The mean follows a speed that changes within the
        iteration; trimming drops samples that a garbage collection or a
        page fault inside the task made long."""
        samples, self.samples = sorted(self.samples), []
        if not samples:  # too little CPU time to sample: assume the reference speed
            return REFERENCE_S
        k = len(samples) // 10
        return statistics.fmean(samples[k:len(samples) - k])
