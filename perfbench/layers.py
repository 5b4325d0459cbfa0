"""Benchmark-side spans around the program's layer entry points.

The traced run wraps the public functions each layer exposes (the
simulator's ``Machine.run``/``runnable_tids``/``capture_state``/
``restore_state``, ``PIRScheduler.pick``, ``FeedbackGenerator.candidates``,
``trace_fingerprint``, the persistent store tier's ``get``/``put`` and
the sketch-log codec) and records one span per call.  Spans are kept in
memory as columns (name, parent, start, duration, work count) and
written out once the run ends; a layer's self time is its span's
duration minus the time its child spans cover.

Only the benchmark's own process is observed.  Pool workers are forked
with the wrappers installed, so :class:`SpanLog` switches itself off in
every child; worker-side time arrives through the program's own
``ObsSession`` worker lanes instead.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: span names, one per wrapped entry point (and the benchmark's own calls)
SIM_RUN = "sim.run"
SIM_NATIVE = "sim.native_run"
RUNNABLE = "sim.runnable"
PICK = "pir.pick"
MINE = "feedback.mine"
FINGERPRINT = "feedback.fingerprint"
CAPTURE = "prefix.capture"
RESTORE = "prefix.restore"
STORE_GET = "store.get"
STORE_PUT = "store.put"
ENCODE = "sketchlog.encode"
RECORD = "record"
REPRODUCE = "reproduce"
FULL_REPLAY = "full_replay"


class SpanLog:
    """In-memory span columns for one traced phase."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.duration = array("d")
        self.work = array("q")
        self._open: List[int] = []
        #: counts with no span of their own, by name
        self.counts: Dict[str, int] = {}
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _name(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.duration.append(0.0)
        self.work.append(0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, work: int = 0) -> None:
        self.duration[index] = time.perf_counter() - self.start[index]
        self.work[index] = work
        self._open.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block (when enabled)."""
        if not self.enabled:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def totals(self, first: int, last: int) -> Dict[str, Dict[str, float]]:
        """Per name, over spans ``first..last-1``: calls, inclusive
        seconds, self seconds, work."""
        covered = [0.0] * len(self.duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.duration[index]
        out: Dict[str, Dict[str, float]] = {}
        for index in range(first, last):
            name = self.names[self.name_id[index]]
            row = out.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
            )
            row["calls"] += 1
            row["s"] += self.duration[index]
            row["self_s"] += self.duration[index] - covered[index]
            row["work"] += self.work[index]
        return out

    def write(self, path: str) -> None:
        """Write every span as gzip'd column JSON (times in microseconds)."""
        origin = self.start[0] if self.start else 0.0
        payload = {
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_us": [round((t - origin) * 1e6, 1) for t in self.start],
            "duration_us": [round(d * 1e6, 1) for d in self.duration],
            "work": self.work.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(payload, out)


def _wrap(log: SpanLog, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not log.enabled:
            return fn(*args, **kwargs)
        index = log.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(index)
    return wrapper


def _wrap_machine_run(log: SpanLog, fn: Callable, native_type: type) -> Callable:
    """``Machine.run`` counts the steps it executes; a run under the plain
    random scheduler with no observers is native simulation."""
    @functools.wraps(fn)
    def run(machine: Any, *args: Any, **kwargs: Any) -> Any:
        if not log.enabled:
            return fn(machine, *args, **kwargs)
        native = (
            type(machine.scheduler) is native_type and not machine.observers
        )
        before = len(machine.schedule)
        index = log.open(SIM_NATIVE if native else SIM_RUN)
        try:
            return fn(machine, *args, **kwargs)
        finally:
            log.close(index, len(machine.schedule) - before)
    return run


def _wrap_candidates(log: SpanLog, fn: Callable) -> Callable:
    """``FeedbackGenerator.candidates`` records the events it swept and
    counts the candidates it returned."""
    @functools.wraps(fn)
    def candidates(*args: Any, **kwargs: Any) -> Any:
        if not log.enabled:
            return fn(*args, **kwargs)
        index = log.open(MINE)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(index, len(args[1].events))  # the attempt trace
        log.count("feedback.candidates", len(result))
        return result
    return candidates


class Instrumentation:
    """Installs the wrappers on the imported program and removes them."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from repro.core import feedback
        from repro.core.feedback import FeedbackGenerator
        from repro.core.pir import PIRScheduler
        from repro.core.sketchlog import SketchLog
        from repro.sim.machine import Machine
        from repro.sim.scheduler import RandomScheduler
        from repro.store.persistent import PersistentAttemptCache

        log = self.log
        self._set(Machine, "run",
                  _wrap_machine_run(log, Machine.run, RandomScheduler))
        for attr, name in (("runnable_tids", RUNNABLE),
                           ("capture_state", CAPTURE),
                           ("restore_state", RESTORE)):
            self._set(Machine, attr, _wrap(log, name, getattr(Machine, attr)))
        self._set(PIRScheduler, "pick", _wrap(log, PICK, PIRScheduler.pick))
        self._set(FeedbackGenerator, "candidates",
                  _wrap_candidates(log, FeedbackGenerator.candidates))
        self._set(PersistentAttemptCache, "get",
                  _wrap(log, STORE_GET, PersistentAttemptCache.get))
        self._set(PersistentAttemptCache, "put",
                  _wrap(log, STORE_PUT, PersistentAttemptCache.put))
        # record() sizes its log through the binary codec; the compressed
        # codec is layered on the same call.
        self._set(SketchLog, "to_bytes", _wrap(log, ENCODE, SketchLog.to_bytes))
        original = feedback.trace_fingerprint
        wrapped = _wrap(log, FINGERPRINT, original)
        for module in sorted(
            (m for n, m in sys.modules.items() if n.startswith("repro")),
            key=lambda m: m.__name__,
        ):
            if module.__dict__.get("trace_fingerprint") is original:
                self._set(module, "trace_fingerprint", wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
