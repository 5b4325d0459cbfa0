"""Host-speed probing, so wall times from a shared host are comparable.

On a shared VM the speed one process gets swings widely: on a 2-core
Xeon VM at 2.1 GHz the same six ``record()`` calls took 40 ms or 68 ms
depending on the moment, and one run's throughput differed from the
next by up to 30%, whatever the program did.  So while a run measures,
an interval timer interrupts it every :data:`INTERVAL_S` and runs a
fixed probe: interpreter-bound work shaped like a simulator step
(generator switches, small objects, tuple keys in a dict) that calls no
program code.  The probe's time is taken out of whatever timed call it
interrupted, and the run's mean probe time measures how slow the host
was.  Times are reported in *reference-speed seconds*: wall time scaled
by ``REFERENCE_S / mean probe time``.  A change to the program moves
them; a busier host does not.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Tuple

#: wall seconds between probes
INTERVAL_S = 0.25
#: simulated steps per probe
PROBE_STEPS = 20000
#: probe time at the reference host speed (the mean probe on a 2-core
#: Xeon VM at 2.1 GHz)
REFERENCE_S = 0.02


class _Event:
    __slots__ = ("tid", "key", "seq")


def _thread(tid: int) -> Iterator[Tuple[int, int]]:
    seq = 0
    while True:
        seq += 1
        yield tid, seq % 17


def _probe_work() -> int:
    threads = [_thread(tid) for tid in range(4)]
    table = {}
    events: List[_Event] = []
    for index in range(PROBE_STEPS):
        tid, key = next(threads[index & 3])
        event = _Event()
        event.tid, event.key, event.seq = tid, ("mem", key), index
        table[event.key] = table.get(event.key, 0) + 1
        events.append(event)
    return len(events) + len(table)


class HostSpeed:
    """Probes the host on a timer while in its ``with`` block.

    :attr:`spent` is the running total of probe seconds; a timed call
    subtracts what it grew by during the call.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous: Any = None
        self._active = False

    def probe(self) -> None:
        started = time.perf_counter()
        _probe_work()
        seconds = time.perf_counter() - started
        self.samples.append(seconds)
        self.spent += seconds

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.probe()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        self._arm(INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._arm(0)
        self._active = False
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def _arm(interval: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    @contextmanager
    def paused(self, resample_s: float = 0.0) -> Iterator[None]:
        """No probes inside the block; then probe back to back for
        ``resample_s``.  For calls whose work runs in other processes: a
        probe in this one would compete with them for the cores.  Outside
        the ``with`` block, where nothing is probed, it does nothing."""
        if not self._active:
            yield
            return
        self._arm(0)
        try:
            yield
        finally:
            started = time.perf_counter()
            while time.perf_counter() - started < resample_s:
                self.probe()
            self._arm(INTERVAL_S)

    def slowdown(self, first: int = 0, last: Optional[int] = None) -> float:
        """Mean probe time of samples ``first..last-1`` over the
        reference: wall seconds per reference-speed second."""
        return statistics.mean(self.samples[first:last]) / REFERENCE_S
