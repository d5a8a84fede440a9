"""How fast the shared host runs right now, measured with a fixed reference job.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over minutes, as neighbours come and go. The drift moves wisv and
any other job the same way, so the benchmark times a fixed job that does not
touch wisv around each timed section, on the same CPUs, and scales the
section by it:

    scaled = seconds * REFERENCE_S / (reference seconds measured around it)

A scaled time reads as the section's seconds on a host where the reference
job takes exactly ``REFERENCE_S``. A change to wisv moves the section and not
the reference, so it moves the scaled time by the same share as the raw one.
The reference job slows more than wisv does when the host is busy, so the
scaling removes most of the drift but not all of it.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time

import numpy as np

# Seconds the reference job takes on the 2-vCPU Xeon host the benchmark was
# sized on, at its usual speed.
REFERENCE_S = 0.1
_MATRIX = np.random.default_rng(0).standard_normal((32, 32)) * 0.1


def _reference_job() -> int:
    """Interpreter, JSON and small-array numpy work, the mix wisv spends on."""
    totals: dict[int, float] = {}
    acc = 0.0
    for i in range(120_000):
        key = i & 127
        totals[key] = totals.get(key, 0.0) + math.sqrt(i) * 0.5
        acc += totals[key] if i % 3 else -key
    records = [{"round": i, "k": i % 64, "latency_s": acc / (i + 1), "mode": "wisv_fh"} for i in range(6_000)]
    text = "\n".join(json.dumps(r) for r in records)
    m = _MATRIX
    rng = np.random.default_rng(1)
    for _ in range(1_200):
        m = np.tanh(m @ _MATRIX + rng.random(32))
    return len(text) + int(np.argmax(m))


def cpus(n: int) -> set[int]:
    """The first ``n`` CPUs this process may run on.

    The CPUs of a shared host run at different speeds, so a timed section and
    the reference jobs that scale it are held to the same CPUs.
    """
    return set(sorted(os.sched_getaffinity(0))[:n])


def _timed_job() -> float:
    t0 = time.perf_counter()
    _reference_job()
    return time.perf_counter() - t0


def reference_s(on: set[int]) -> float:
    """Seconds the reference job takes now on the CPUs ``on``.

    On one CPU the calling process runs it. On several, one forked process
    per CPU runs it at the same time, as eval's worker processes run, and
    the mean of their times is returned.
    """
    if len(on) == 1:
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, on)
        try:
            return _timed_job()
        finally:
            os.sched_setaffinity(0, saved)
    children = []
    for cpu in sorted(on):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                os.sched_setaffinity(0, {cpu})
                os.write(write_end, struct.pack("d", _timed_job()))
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    times = []
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or len(data) != 8:
            raise RuntimeError(f"reference job on a forked process failed (status {status})")
        times.append(struct.unpack("d", data)[0])
    return sum(times) / len(times)


class Scale:
    """Scales timed sections by reference jobs timed between them.

    Each reference time is the mean of ``repeats`` reference jobs on the CPUs
    ``on``. A section is scaled by the mean of the reference times taken just
    before and just after it.
    """

    def __init__(self, on: set[int], repeats: int = 1) -> None:
        self.on, self.repeats = on, repeats
        reference_s(on)  # the first call pays for cold caches
        self.refs = [self._reference()]

    def _reference(self) -> float:
        return sum(reference_s(self.on) for _ in range(self.repeats)) / self.repeats

    def section(self, seconds: float) -> float:
        """Takes the next reference time; returns the section just timed, scaled."""
        self.refs.append(self._reference())
        return seconds * REFERENCE_S * 2 / (self.refs[-2] + self.refs[-1])
