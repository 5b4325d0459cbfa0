"""Differential test: the incremental runnable set equals a full scan.

``Machine.runnable_tids`` re-tests only the stepping thread after a
memory access or inert op that leaves it READY, and rescans every thread
otherwise.  :class:`CheckedMachine` recomputes the set from scratch at
every step — through ``_can_execute`` on every pending op, not through
``GUARDED_KINDS`` — and asserts the two agree.
"""

import pytest

from repro.apps import all_bugs
from repro.core.pir import PIRScheduler
from repro.core.recorder import record
from repro.core.sketches import SketchKind
from repro.sim import Machine, MachineConfig, Program, RandomScheduler
from repro.sim.machine import ThreadStatus
from repro.sim.ops import OpKind
from repro.sim.scheduler import Scheduler

BUGS = all_bugs()


class CheckedMachine(Machine):
    """A machine that checks its runnable set against a full scan."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checks = 0

    def runnable_tids(self):
        got = super().runnable_tids()
        want = [
            tid
            for tid, ts in sorted(self.threads.items())
            if ts.status is ThreadStatus.READY
            and ts.pending_op is not None
            and self._can_execute(ts)
        ]
        assert got == want, (
            f"step {len(self.schedule)}: incremental {got} != scan {want}"
        )
        self.checks += 1
        return got


class FirstScheduler(Scheduler):
    """Always the lowest runnable tid: drives each program into its case."""

    def pick(self, machine, runnable):
        return runnable[0]


class RotatingScheduler(Scheduler):
    """Picks by step count only, so a restored run needs no scheduler
    state to continue exactly as the uninterrupted one."""

    def pick(self, machine, runnable):
        return runnable[len(machine.schedule) % len(runnable)]


def checked_run(program, scheduler, config=None):
    machine = CheckedMachine(program, scheduler, config)
    trace = machine.run()
    assert machine.checks >= max(trace.steps, 1)
    return trace


class TestAppSuite:
    @pytest.mark.parametrize("spec", BUGS, ids=lambda s: s.bug_id)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_runs(self, spec, seed):
        checked_run(spec.make_program(), RandomScheduler(seed))

    @pytest.mark.parametrize("spec", BUGS, ids=lambda s: s.bug_id)
    def test_pir_replays_of_sync_recording(self, spec):
        recorded = record(
            spec.make_program(), SketchKind.SYNC, seed=0, oracle=spec.oracle
        )
        for base_seed in range(3):
            checked_run(
                recorded.program,
                PIRScheduler(recorded.log, base_seed=base_seed),
                recorded.config,
            )

    def test_resume_through_capture_and_restore(self):
        spec = BUGS[0]
        full = checked_run(spec.make_program(), RotatingScheduler())
        depth = full.steps // 2
        snapshots = []
        machine = CheckedMachine(spec.make_program(), RotatingScheduler())
        machine.run(
            snapshot_depths=(depth,),
            on_snapshot=lambda m: snapshots.append(m.capture_state()),
            stop_after=depth,
        )
        resumed = CheckedMachine(spec.make_program(), RotatingScheduler())
        resumed.restore_state(snapshots[0])
        trace = resumed.run()
        assert resumed.checks > 0
        assert trace.schedule == full.schedule
        assert trace.events == full.events

    def test_query_before_run_does_not_stale_the_set(self):
        machine = CheckedMachine(BUGS[0].make_program(), RandomScheduler(0))
        assert machine.runnable_tids() == []
        assert machine.run().steps > 0


# -- purpose-built programs, one per case -----------------------------------


def _reader(ctx):
    yield ctx.local()
    yield ctx.read("x")  # finishes right after this READ


def _worker(ctx):
    yield ctx.read("x")
    yield ctx.local()  # finishes right after this LOCAL


def _join_main(ctx, body):
    child = yield ctx.spawn(body)
    yield ctx.join(child)


def _waiter(ctx):
    yield ctx.lock("m")
    while not (yield ctx.read("ready")):
        yield ctx.wait("cv", "m")
    yield ctx.unlock("m")


def _signaller(ctx):
    yield ctx.lock("m")
    yield ctx.write("ready", True)
    yield ctx.signal("cv")
    yield ctx.unlock("m")


def _cond_main(ctx):
    waiter = yield ctx.spawn(_waiter)
    signaller = yield ctx.spawn(_signaller)
    yield ctx.join(waiter)
    yield ctx.join(signaller)


def _party(ctx, n):
    yield ctx.write(("slot", n), n)
    yield ctx.barrier("b")
    yield ctx.read(("slot", (n + 1) % 3))


def _barrier_main(ctx):
    tids = []
    for n in range(3):
        tids.append((yield ctx.spawn(_party, n)))
    for tid in tids:
        yield ctx.join(tid)


def _receiver(ctx):
    msg = yield ctx.syscall("recv", "c")
    yield ctx.write("got", msg)


def _sender(ctx):
    yield ctx.local()
    yield ctx.syscall("send", "c", 7)


def _channel_main(ctx):
    receiver = yield ctx.spawn(_receiver)
    sender = yield ctx.spawn(_sender)
    yield ctx.join(receiver)
    yield ctx.join(sender)


CASES = {
    "finish-after-read-while-joined": (
        Program("join-read", _join_main, params={"body": _reader},
                initial_memory={"x": 0}),
        OpKind.JOIN,
    ),
    "finish-after-local-while-joined": (
        Program("join-local", _join_main, params={"body": _worker},
                initial_memory={"x": 0}),
        OpKind.JOIN,
    ),
    "cond-signal-wakes-waiter": (
        Program("cond", _cond_main, initial_memory={"ready": False}),
        OpKind.COND_SIGNAL,
    ),
    "barrier-release": (
        Program("barrier", _barrier_main, barriers={"b": 3}),
        OpKind.BARRIER_WAIT,
    ),
    "recv-unblocked-by-send": (
        Program("channel", _channel_main),
        OpKind.SYSCALL,
    ),
}


class TestPurposeBuilt:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_first_pick(self, case):
        program, kind = CASES[case]
        trace = checked_run(program, FirstScheduler(), MachineConfig(ncpus=2))
        assert not trace.failed
        assert any(event.kind is kind for event in trace.events)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_random_picks(self, case):
        program, _ = CASES[case]
        for seed in range(10):
            assert not checked_run(program, RandomScheduler(seed)).failed

    def test_joiner_sees_worker_finish_after_read(self):
        # main blocks in JOIN first; the worker's last op is a READ, so
        # the step that finishes it is a memory access
        program, _ = CASES["finish-after-read-while-joined"]
        trace = checked_run(program, FirstScheduler())
        kinds = [(e.tid, e.kind) for e in trace.events]
        assert kinds[-2:] == [(1, OpKind.READ), (0, OpKind.JOIN)]
