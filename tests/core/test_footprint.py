"""Gate footprints: what the PIR scheduler records, and the skip rule.

Purpose-built programs pin each case of the rule in
:mod:`repro.core.footprint`: a constraint whose ``after`` op is held by
the sketch until its ``before`` op ran is skipped; one that removes a
thread from an allowed set is refused; a failed TRYLOCK counts as its
lock ref being allowed; ``region`` refs never qualify.  The last class
checks that prefix resume carries the footprint exactly.
"""

from __future__ import annotations

from repro.bench.speedup import e12_workload
from repro.core import parallel
from repro.core.constraints import NEVER, EventRef, OrderConstraint
from repro.core.explorer import ExplorerConfig
from repro.core.footprint import GateFootprint
from repro.core.pir import PIRScheduler
from repro.core.recorder import record
from repro.core.reproducer import reproduce
from repro.core.sketches import SketchKind
from repro.core.sketchlog import SketchLog
from repro.sim import Machine, Program
from repro.sim.ops import OpKind


def _writer(ctx):
    yield ctx.write("x", 1)
    yield ctx.lock("m")
    yield ctx.unlock("m")


def _locker(ctx):
    yield ctx.lock("m")
    yield ctx.unlock("m")


def _writer_locker_main(ctx):
    writer = yield ctx.spawn(_writer)
    locker = yield ctx.spawn(_locker)
    yield ctx.join(writer)
    yield ctx.join(locker)


def writer_locker() -> Program:
    """T1 writes ``x`` then takes ``m``; T2 takes ``m``."""
    return Program(name="writer-locker", main=_writer_locker_main)


def _holder(ctx):
    yield ctx.lock("m")
    yield ctx.local(1)
    yield ctx.write("y", 1)
    yield ctx.unlock("m")


def _trier(ctx):
    acquired = yield ctx.trylock("m")
    if not acquired:
        yield ctx.lock("m")
    yield ctx.unlock("m")


def _holder_trier_main(ctx):
    holder = yield ctx.spawn(_holder)
    trier = yield ctx.spawn(_trier)
    yield ctx.join(holder)
    yield ctx.join(trier)


def holder_trier() -> Program:
    """T1 holds ``m`` around a write of ``y``; T2 try-locks ``m`` first."""
    return Program(name="holder-trier", main=_holder_trier_main)


def _ref(tid, family, key, occurrence=1):
    return EventRef(tid, family, key, occurrence)


def _run(program, log, constraints=(), seed=0):
    """One PIR attempt; returns its trace and finished footprint."""
    scheduler = PIRScheduler(log, constraints, base_seed=seed)
    trace = Machine(program, scheduler).run()
    return trace, GateFootprint.of(scheduler.gate.counter)


def _first_allowed(footprint, ref):
    steps = footprint.allowed[ref.family].get((ref.tid, ref.key), ())
    index = ref.occurrence - 1
    return steps[index] if index < len(steps) else NEVER


def _schedule_first(program, tid, kind):
    """A production run of ``program`` whose first ``kind`` event is by
    ``tid``, found by scanning seeds (runs are pure, so the scan is
    deterministic)."""
    for seed in range(200):
        recorded = record(program, SketchKind.SYNC, seed=seed)
        first = next(e for e in recorded.log if e.kind is kind)
        if first.tid == tid:
            return recorded
    raise AssertionError("no production run with the wanted order")


class TestSketchHeldAfter:
    def test_after_held_by_the_sketch_until_before_ran_skips(self):
        program = writer_locker()
        # the sketch grants T1 the mutex first, so T2's LOCK waits its
        # turn until T1 (whose write to x precedes its LOCK) is done
        recorded = _schedule_first(program, 1, OpKind.LOCK)
        x = OrderConstraint(_ref(1, "mem", "x"), _ref(2, "lock", "m"))
        base, footprint = _run(program, recorded.log)
        assert not base.diverged
        allowed = _first_allowed(footprint, x.after)
        executed = footprint.executed["mem"][(1, "x")][0]
        assert allowed != NEVER and executed < allowed
        assert footprint.pack({}).never_blocks(x)
        # and the attempt with x really repeats the one without it
        with_x, with_x_footprint = _run(program, recorded.log, [x])
        assert with_x.schedule == base.schedule
        assert with_x.events == base.events
        assert with_x_footprint == footprint


class TestBindingConstraint:
    def test_a_constraint_that_removes_an_allowed_thread_is_refused(self):
        program = writer_locker()
        free = SketchLog(SketchKind.SYNC)  # empty: nothing sketch-held
        # T1's write to x waits for T2's lock
        x = OrderConstraint(_ref(2, "lock", "m"), _ref(1, "mem", "x"))
        _, footprint = _run(program, free)
        assert not footprint.pack({}).never_blocks(x)
        # x does bind: with it, T1's write is allowed only later
        _, with_x = _run(program, free, [x])
        assert _first_allowed(with_x, x.after) > _first_allowed(footprint, x.after)


class TestFailedTrylock:
    def test_a_failed_trylock_counts_as_its_lock_ref_being_allowed(self):
        program = holder_trier()
        free = SketchLog(SketchKind.SYNC)
        after = _ref(2, "lock", "m")
        x = OrderConstraint(_ref(1, "mem", "y"), after)
        for seed in range(200):
            trace, footprint = _run(program, free, seed=seed)
            failed = [
                e for e in trace.events
                if e.kind is OpKind.TRYLOCK and not e.value
            ]
            write = next(
                e for e in trace.events
                if e.kind is OpKind.WRITE and e.addr == "y"
            )
            if failed and failed[0].gidx < write.gidx:
                break
        else:
            raise AssertionError("no seed where T2's trylock fails early")
        # the lock ref's first occurrence was pending (and allowed) as the
        # failed TRYLOCK, before T1's write of y...
        allowed = _first_allowed(footprint, after)
        assert allowed != NEVER and allowed <= failed[0].gidx < write.gidx
        # ...though it was acquired (by the later LOCK) only after it
        acquired = footprint.executed["lock"][(2, "m")][0]
        assert acquired > write.gidx
        assert not footprint.pack({}).never_blocks(x)


class TestRegionRefs:
    def test_region_constraints_never_qualify(self):
        program = writer_locker()
        free = SketchLog(SketchKind.SYNC)
        _, footprint = _run(program, free)
        packed = footprint.pack({})
        # never allowed at all (no such thread), yet refused for region refs
        assert packed.never_blocks(
            OrderConstraint(_ref(1, "mem", "x"), _ref(9, "mem", "x"))
        )
        assert not packed.never_blocks(
            OrderConstraint(_ref(1, "mem", "x"), _ref(9, "region", "x"))
        )
        assert not packed.never_blocks(
            OrderConstraint(_ref(1, "region", "x"), _ref(9, "mem", "x"))
        )


class TestPackedForm:
    def test_packing_keeps_every_step(self):
        program = holder_trier()
        _, footprint = _run(program, SketchLog(SketchKind.SYNC), seed=3)
        streams = {}
        packed = footprint.pack(streams)
        for executed, tables in ((False, footprint.allowed),
                                 (True, footprint.executed)):
            for family, table in tables.items():
                for (tid, key), steps in table.items():
                    for index, step in enumerate(steps):
                        ref = _ref(tid, family, key, index + 1)
                        assert packed._step(ref, executed) == step
        assert packed._step(_ref(7, "mem", "nowhere"), executed=True) == NEVER


class TestResumedFootprint:
    def test_prefix_resumed_attempts_record_the_cold_footprint(self, monkeypatch):
        """Over an E12 search, every attempt evaluated from a prefix
        snapshot records the footprint a cold run records."""
        original = parallel.run_attempt
        compared = []

        def checked(ctx, constraints, seed, resume=None, tree=None):
            resumes = tree.resumes if tree is not None else 0
            trace, matched = original(ctx, constraints, seed, resume, tree)
            if tree is not None and tree.resumes > resumes and not matched:
                cold, _ = original(ctx, constraints, seed)
                assert trace.footprint == cold.footprint
                compared.append(constraints)
            return trace, matched

        monkeypatch.setattr(parallel, "run_attempt", checked)
        report = reproduce(
            e12_workload(), ExplorerConfig(max_attempts=120, base_seed=1),
            match_output=True,
        )
        assert report.attempts == 120
        assert len(compared) > 20

