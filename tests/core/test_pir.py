"""Tests for the partial-information replay scheduler."""

import pytest

from repro.core.constraints import EventRef, OrderConstraint
from repro.core.pir import Gate, PIRScheduler, SketchCursor
from repro.core.recorder import record, record_with_trace
from repro.core.sketches import SketchEntry, SketchKind, event_visible
from repro.core.sketchlog import SketchLog
from repro.errors import ReplayDivergence
from repro.sim import Machine, Program
from repro.sim.ops import OpKind
from repro.sim.program import ThreadContext

from tests.conftest import counter_program, producer_consumer_program


def replay(program, log, constraints=(), seed=0, **cfg):
    scheduler = PIRScheduler(log, constraints, base_seed=seed)
    from repro.sim import MachineConfig

    return Machine(program, scheduler, MachineConfig(**cfg)).run()


class TestSketchCursor:
    def test_invisible_ops_are_free(self):
        ctx = ThreadContext(1)
        log = SketchLog(SketchKind.SYNC)
        log.append(SketchEntry(1, OpKind.LOCK, "m"))
        cursor = SketchCursor(log)
        assert cursor.gate(2, ctx.read("x")) is Gate.FREE

    def test_expected_thread_allowed(self):
        ctx = ThreadContext(1)
        log = SketchLog(SketchKind.SYNC)
        log.append(SketchEntry(1, OpKind.LOCK, "m"))
        cursor = SketchCursor(log)
        assert cursor.gate(1, ctx.lock("m")) is Gate.ALLOWED

    def test_other_thread_blocked(self):
        ctx = ThreadContext(2)
        log = SketchLog(SketchKind.SYNC)
        log.append(SketchEntry(1, OpKind.LOCK, "m"))
        cursor = SketchCursor(log)
        assert cursor.gate(2, ctx.lock("m")) is Gate.BLOCKED

    def test_signature_mismatch_is_divergence(self):
        ctx = ThreadContext(1)
        log = SketchLog(SketchKind.SYNC)
        log.append(SketchEntry(1, OpKind.LOCK, "m"))
        cursor = SketchCursor(log)
        with pytest.raises(ReplayDivergence, match="next visible op"):
            cursor.gate(1, ctx.lock("other"))

    def test_exhausted_sketch_frees_everything(self):
        ctx = ThreadContext(1)
        cursor = SketchCursor(SketchLog(SketchKind.SYNC))
        assert cursor.exhausted
        assert cursor.gate(1, ctx.lock("m")) is Gate.FREE


class TestSketchConformance:
    @pytest.mark.parametrize(
        "sketch",
        [SketchKind.SYNC, SketchKind.SYS, SketchKind.FUNC, SketchKind.BB,
         SketchKind.RW],
    )
    def test_replay_preserves_recorded_subsequence(self, sketch):
        program = producer_consumer_program(4)
        recorded = record(program, sketch=sketch, seed=9)
        trace = replay(program, recorded.log, seed=1)
        assert not trace.diverged, trace.divergence
        replayed_visible = [
            (e.tid, e.kind) for e in trace.events if event_visible(sketch, e)
        ]
        recorded_visible = [(en.tid, en.kind) for en in recorded.log]
        # The replay may extend past the recorded horizon, but its prefix
        # must be exactly the sketch.
        assert replayed_visible[: len(recorded_visible)] == recorded_visible

    def test_rw_sketch_replay_is_value_identical(self):
        # RW pins the order of every *shared* operation; thread-local
        # quanta may interleave differently, but all observable state
        # (shared access values, final memory, output) must be identical.
        program = counter_program(nworkers=3, iters=4)
        recorded, original = record_with_trace(program, SketchKind.RW, seed=9)
        trace = replay(program, recorded.log, seed=5)

        def shared(events):
            return [
                (e.signature(), e.value)
                for e in events
                if event_visible(SketchKind.RW, e)
            ]

        assert shared(trace.events) == shared(original.events)
        assert trace.final_memory == original.final_memory
        assert trace.stdout == original.stdout

    def test_different_base_seeds_vary_unrecorded_order(self):
        program = counter_program(nworkers=3, iters=4)
        recorded = record(program, SketchKind.SYNC, seed=9)
        schedules = set()
        for seed in range(6):
            trace = replay(program, recorded.log, seed=seed)
            schedules.add(tuple(trace.schedule))
        assert len(schedules) > 1  # memory ops are genuinely free

    def test_none_sketch_is_unconstrained_random(self):
        program = counter_program()
        recorded = record(program, SketchKind.NONE, seed=9)
        trace = replay(program, recorded.log, seed=4)
        assert not trace.diverged
        assert len(trace.events) > 0


class TestConstraints:
    def test_constraint_forces_order(self):
        # Force worker 2's first counter read to wait for worker 1's
        # final write: worker 1's three increments land first, so worker
        # 2 reads at least 3.
        program = counter_program(nworkers=2, iters=3)
        recorded = record(program, SketchKind.SYNC, seed=9)
        constraint = OrderConstraint(
            before=EventRef(1, "mem", "counter", 6),  # w1's last write
            after=EventRef(2, "mem", "counter", 1),  # w2's first read
        )
        for seed in range(5):
            trace = replay(program, recorded.log, [constraint], seed=seed)
            assert not trace.diverged, trace.divergence
            w2_reads = [
                e.value
                for e in trace.events
                if e.tid == 2 and e.kind is OpKind.READ and e.addr == "counter"
            ]
            assert w2_reads[0] == 3

    def test_contradictory_constraints_diverge(self):
        program = counter_program(nworkers=2, iters=3)
        recorded = record(program, SketchKind.SYNC, seed=9)
        a = OrderConstraint(
            before=EventRef(1, "mem", "counter", 1),
            after=EventRef(2, "mem", "counter", 1),
        )
        b = OrderConstraint(
            before=EventRef(2, "mem", "counter", 1),
            after=EventRef(1, "mem", "counter", 1),
        )
        trace = replay(program, recorded.log, [a, b], seed=0)
        assert trace.diverged
        assert "order constraint" in trace.divergence


class TestDivergenceDetection:
    def test_wrong_program_diverges(self):
        # Record one program, replay a structurally different one.
        recorded = record(producer_consumer_program(4), SketchKind.SYNC, seed=9)
        other = counter_program(nworkers=2, iters=2)
        trace = replay(other, recorded.log, seed=0)
        assert trace.diverged

    def test_divergence_reports_reason(self):
        recorded = record(producer_consumer_program(4), SketchKind.SYNC, seed=9)
        trace = replay(counter_program(), recorded.log, seed=0)
        assert trace.divergence  # human-readable text
        assert isinstance(trace.divergence, str)

    def test_all_gated_detail(self):
        # After both spawns, T1's LOCK is visible but the sketch expects
        # T2's; T2's unsketched write waits for T1's LOCK; T0 awaits a join.
        def t1(ctx):
            yield ctx.lock("a")
            yield ctx.unlock("a")

        def t2(ctx):
            yield ctx.write("x", 1)
            yield ctx.lock("b")
            yield ctx.unlock("b")

        def main(ctx):
            first = yield ctx.spawn(t1)
            second = yield ctx.spawn(t2)
            yield ctx.join(first)
            yield ctx.join(second)

        log = SketchLog(SketchKind.SYNC)
        log.append(SketchEntry(0, OpKind.SPAWN, None))
        log.append(SketchEntry(0, OpKind.SPAWN, None))
        log.append(SketchEntry(2, OpKind.LOCK, "b"))
        constraint = OrderConstraint(
            before=EventRef(1, "lock", "a", 1),
            after=EventRef(2, "mem", "x", 1),
        )
        trace = replay(Program("gated", main), log, [constraint])
        assert trace.divergence == (
            "no schedulable thread: T1 awaits its sketch turn; "
            "T2 awaits an order constraint"
        )

    def test_describe(self):
        log = SketchLog(SketchKind.SYNC)
        scheduler = PIRScheduler(log, (), base_seed=3)
        text = scheduler.describe()
        assert "sync" in text and "seed=3" in text


class TestTrylockReplaySemantics:
    def test_trylock_outcome_may_flip_and_is_caught_downstream(self):
        # Sketch entries record that a TRYLOCK happened, not whether it
        # succeeded; a replay where the outcome flips takes a different
        # branch, and any resulting visible-op mismatch surfaces as
        # divergence rather than silent corruption.
        def holder(ctx):
            yield ctx.lock("m")
            yield ctx.local(4)
            yield ctx.unlock("m")

        def opportunist(ctx):
            got = yield ctx.trylock("m")
            if got:
                yield ctx.write("path", "fast")
                yield ctx.unlock("m")
            else:
                yield ctx.write("path", "slow")

        def main(ctx):
            a = yield ctx.spawn(holder)
            b = yield ctx.spawn(opportunist)
            yield ctx.join(a)
            yield ctx.join(b)

        program = Program("trylock", main, initial_memory={"path": None})
        recorded = record(program, SketchKind.SYNC, seed=3)
        outcomes = set()
        for seed in range(12):
            trace = replay(program, recorded.log, seed=seed)
            if trace.diverged:
                outcomes.add("diverged")
            else:
                outcomes.add(trace.final_memory["path"])
        # every attempt either completed on some branch or was aborted as
        # divergent - never a half-consistent state
        assert outcomes <= {"fast", "slow", "diverged"}
        assert outcomes, "no attempts ran"
