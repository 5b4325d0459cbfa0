"""Tests for the happens-before race detector.

Each synchronization primitive gets a pair of programs: one where it
orders the conflicting accesses (no race may be reported) and one where
it does not (the race must be found).
"""

import pytest

from repro.analysis import HBAnalysis, RacePair, find_races
from repro.analysis.vector_clock import VectorClock
from repro.apps.registry import ALL_BUG_IDS, get_bug
from repro.core.prefix import CAPTURE_DEPTHS, planned_depths
from repro.sim import Machine, MachineConfig, Program, RandomScheduler
from repro.sim.memory import region_of
from repro.sim.ops import MEMORY_KINDS, WRITE_KINDS, OpKind

from tests.conftest import counter_program, run_program


def trace_of(main, seed=0, **program_kwargs):
    program = Program("t", main, **program_kwargs)
    return Machine(program, RandomScheduler(seed)).run()


class TestBasicRaces:
    def test_unlocked_counter_races(self):
        trace = run_program(counter_program(locked=False), 3)
        races = find_races(trace)
        assert races
        assert all(r.addr == "counter" for r in races)

    def test_locked_counter_has_no_races(self):
        trace = run_program(counter_program(locked=True), 3)
        assert find_races(trace) == []

    def test_race_pair_ordered_by_gidx(self):
        trace = run_program(counter_program(locked=False), 3)
        for race in find_races(trace):
            assert race.first.gidx < race.second.gidx

    def test_read_read_is_not_a_race(self):
        def reader(ctx):
            yield ctx.read("x")
            yield ctx.read("x")

        def main(ctx):
            a = yield ctx.spawn(reader)
            b = yield ctx.spawn(reader)
            yield ctx.join(a)
            yield ctx.join(b)

        trace = trace_of(main, initial_memory={"x": 1})
        assert find_races(trace) == []

    def test_same_thread_accesses_never_race(self):
        def main(ctx):
            yield ctx.write("x", 1)
            yield ctx.write("x", 2)
            yield ctx.read("x")

        assert find_races(trace_of(main)) == []

    def test_atomics_still_conflict(self):
        def bump(ctx):
            yield ctx.rmw("n", lambda v: v + 1)

        def main(ctx):
            a = yield ctx.spawn(bump)
            b = yield ctx.spawn(bump)
            yield ctx.join(a)
            yield ctx.join(b)

        trace = trace_of(main, initial_memory={"n": 0})
        races = find_races(trace)
        assert len(races) == 1  # the two RMWs are unordered


class TestSyncEdges:
    def test_mutex_handoff_orders_accesses(self):
        def writer(ctx):
            yield ctx.lock("m")
            yield ctx.write("x", 1)
            yield ctx.unlock("m")

        def main(ctx):
            tid = yield ctx.spawn(writer)
            yield ctx.lock("m")
            yield ctx.read("x")
            yield ctx.unlock("m")
            yield ctx.join(tid)

        trace = trace_of(main, initial_memory={"x": 0})
        assert find_races(trace) == []

    def test_spawn_edge_orders_parent_writes(self):
        def child(ctx):
            yield ctx.read("x")

        def main(ctx):
            yield ctx.write("x", 1)  # before spawn: ordered
            tid = yield ctx.spawn(child)
            yield ctx.join(tid)

        assert find_races(trace_of(main)) == []

    def test_join_edge_orders_child_writes(self):
        def child(ctx):
            yield ctx.write("x", 1)

        def main(ctx):
            tid = yield ctx.spawn(child)
            yield ctx.join(tid)
            yield ctx.read("x")  # after join: ordered

        assert find_races(trace_of(main)) == []

    def test_unjoined_child_write_races_with_parent_read(self):
        def child(ctx):
            yield ctx.write("x", 1)

        def main(ctx):
            tid = yield ctx.spawn(child)
            yield ctx.read("x")  # no join first
            yield ctx.join(tid)

        # Across seeds, some order both ways; the race must be reported
        # regardless of which side won.
        for seed in range(5):
            trace = trace_of(main, seed=seed, initial_memory={"x": 0})
            races = [r for r in find_races(trace) if r.addr == "x"]
            assert len(races) == 1

    def test_semaphore_release_acquire_orders(self):
        def producer(ctx):
            yield ctx.write("x", 42)
            yield ctx.sem_release("s")

        def main(ctx):
            tid = yield ctx.spawn(producer)
            yield ctx.sem_acquire("s")
            yield ctx.read("x")
            yield ctx.join(tid)

        trace = trace_of(main, initial_memory={"x": 0}, semaphores={"s": 0})
        assert find_races(trace) == []

    def test_channel_send_recv_orders(self):
        def producer(ctx):
            yield ctx.write("x", 42)
            yield ctx.syscall("send", "ch", "ready")

        def main(ctx):
            tid = yield ctx.spawn(producer)
            yield ctx.syscall("recv", "ch")
            yield ctx.read("x")
            yield ctx.join(tid)

        trace = trace_of(main, initial_memory={"x": 0})
        assert find_races(trace) == []

    def test_barrier_orders_across_participants(self):
        def worker(ctx, i):
            yield ctx.write(("a", i), 1)
            yield ctx.barrier("b")
            yield ctx.read(("a", 1 - i))

        def main(ctx):
            t0 = yield ctx.spawn(worker, 0)
            t1 = yield ctx.spawn(worker, 1)
            yield ctx.join(t0)
            yield ctx.join(t1)

        for seed in range(5):
            trace = trace_of(
                main,
                seed=seed,
                initial_memory={("a", 0): 0, ("a", 1): 0},
                barriers={"b": 2},
            )
            assert find_races(trace) == []

    def test_condvar_signal_orders_waker_writes(self):
        def waiter(ctx):
            yield ctx.lock("m")
            while True:
                ready = yield ctx.read("ready")
                if ready:
                    break
                yield ctx.wait("cv", "m")
            yield ctx.unlock("m")
            yield ctx.read("x")  # outside the lock: ordered only via signal

        def main(ctx):
            tid = yield ctx.spawn(waiter)
            yield ctx.write("x", 1)
            yield ctx.lock("m")
            yield ctx.write("ready", True)
            yield ctx.signal("cv")
            yield ctx.unlock("m")
            yield ctx.join(tid)

        for seed in range(8):
            trace = trace_of(
                main, seed=seed, initial_memory={"x": 0, "ready": False}
            )
            races = [r for r in find_races(trace) if r.addr == "x"]
            assert races == [], (seed, [r.describe() for r in races])


class TestFreeRaces:
    def test_free_races_with_cell_access(self):
        def freer(ctx):
            yield ctx.local(1)
            yield ctx.free("buf")

        def user(ctx):
            yield ctx.read(("buf", 0))

        def main(ctx):
            a = yield ctx.spawn(user)
            b = yield ctx.spawn(freer)
            yield ctx.join(a)
            yield ctx.join(b)

        # pick a seed where the read happens first (no crash) and the
        # race must still be detected
        for seed in range(30):
            trace = trace_of(main, seed=seed, initial_memory={("buf", 0): 1})
            if not trace.failed:
                races = find_races(trace)
                assert any(
                    r.first.addr == ("buf", 0) or r.second.addr == "buf"
                    for r in races
                )
                return
        pytest.fail("no crash-free schedule found")


class TestLockEdgeToggle:
    def test_disabling_lock_edges_exposes_protected_races(self):
        trace = run_program(counter_program(locked=True), 3)
        assert find_races(trace, use_lock_edges=True) == []
        unlocked_view = find_races(trace, use_lock_edges=False)
        assert unlocked_view

    def test_race_carries_held_locks(self):
        trace = run_program(counter_program(locked=True), 3)
        races = find_races(trace, use_lock_edges=False)
        race = races[0]
        commons = race.common_mutexes()
        assert commons
        (first_lock, second_lock) = commons[0]
        assert first_lock[0] == "m" and second_lock[0] == "m"
        assert first_lock[1] != second_lock[1]  # different acquisitions


class TestAnalysisAPI:
    def test_event_vcs_aligned_with_events(self):
        trace = run_program(counter_program(), 1)
        analysis = HBAnalysis(trace)
        assert len(analysis.event_vcs) == len(trace.events)

    def test_program_order_reflected_in_vcs(self):
        trace = run_program(counter_program(), 1)
        analysis = HBAnalysis(trace)
        for tid in trace.tids():
            events = trace.events_of(tid)
            for earlier, later in zip(events, events[1:]):
                assert analysis.ordered(earlier.gidx, later.gidx)

    def test_max_races_caps_output(self):
        trace = run_program(counter_program(nworkers=3, iters=5), 2)
        races = find_races(trace, max_races=3)
        assert len(races) == 3

    def test_races_involving_filters_by_address(self):
        trace = run_program(counter_program(), 3)
        analysis = HBAnalysis(trace)
        assert analysis.races_involving("counter") == analysis.races
        assert analysis.races_involving("other") == []


# ---------------------------------------------------------------------------
# Differential check of the epoch-based race test
# ---------------------------------------------------------------------------


def _reference_sweep(trace, use_lock_edges):
    """A plain-vector-clock HB sweep: the race test is the full pointwise
    ``VectorClock.leq``, and every access is handled like any other event.

    Returns ``(event_vcs, races)`` for comparison with :class:`HBAnalysis`.
    """
    zero = VectorClock.zero()
    thread_vc, mutex_vc, rwlock_vc, sem_vc = {}, {}, {}, {}
    sends, recvs, pending, arrived, barrier_vc = {}, {}, {}, {}, {}
    lock_counts, held = {}, {}
    reads, writes, region_addrs = {}, {}, {}
    vcs, races = [], []

    def channel(event):
        return event.args[0] if event.args else None

    for event in trace.events:
        tid, kind, obj = event.tid, event.kind, event.obj
        vc = thread_vc.get(tid, zero)
        if tid in pending:
            vc = vc.join(pending.pop(tid))
        acquires = kind in (OpKind.LOCK, OpKind.RDLOCK, OpKind.WRLOCK) or (
            kind is OpKind.TRYLOCK and event.value
        )
        if acquires and use_lock_edges:
            table = mutex_vc if kind in (OpKind.LOCK, OpKind.TRYLOCK) else rwlock_vc
            vc = vc.join(table.get(obj, zero))
        elif kind is OpKind.SEM_ACQUIRE:
            vc = vc.join(sem_vc.get(obj, zero))
        elif kind is OpKind.JOIN:
            vc = vc.join(thread_vc.get(obj, zero))
        elif kind is OpKind.SYSCALL and event.name in ("recv", "try_recv"):
            chan = channel(event)
            if chan is not None and event.value is not None:
                k = recvs.get(chan, 0)
                if k < len(sends.get(chan, [])):
                    vc = vc.join(sends[chan][k])
                recvs[chan] = k + 1
        vc = vc.tick(tid)
        thread_vc[tid] = vc
        vcs.append(vc)

        tid_held = held.setdefault(tid, {})
        if acquires:
            lock_counts[(tid, obj)] = lock_counts.get((tid, obj), 0) + 1
            tid_held[obj] = lock_counts[(tid, obj)]
        elif kind in (OpKind.UNLOCK, OpKind.RWUNLOCK):
            tid_held.pop(obj, None)
        elif kind is OpKind.COND_WAIT:
            tid_held.pop(obj[1], None)

        if kind is OpKind.UNLOCK:
            mutex_vc[obj] = vc
        elif kind is OpKind.RWUNLOCK:
            rwlock_vc[obj] = rwlock_vc.get(obj, zero).join(vc)
        elif kind is OpKind.COND_WAIT:
            mutex_vc[obj[1]] = vc
        elif kind is OpKind.SEM_RELEASE:
            sem_vc[obj] = sem_vc.get(obj, zero).join(vc)
        elif kind is OpKind.SPAWN:
            pending[event.value] = vc
        elif kind is OpKind.COND_SIGNAL and event.value is not None:
            pending[event.value] = pending.get(event.value, zero).join(vc)
        elif kind is OpKind.COND_BROADCAST and event.value:
            for woken in event.value:
                pending[woken] = pending.get(woken, zero).join(vc)
        elif kind is OpKind.BARRIER_WAIT:
            arrived.setdefault(obj, []).append(tid)
            barrier_vc[obj] = barrier_vc.get(obj, zero).join(vc)
            if event.value is not None:
                for participant in arrived[obj]:
                    pending[participant] = pending.get(participant, zero).join(
                        barrier_vc[obj]
                    )
                arrived[obj], barrier_vc[obj] = [], zero
        elif kind is OpKind.SYSCALL and event.name == "send":
            chan = channel(event)
            if chan is not None:
                sends.setdefault(chan, []).append(vc)

        if kind not in MEMORY_KINDS:
            continue
        addr = event.addr
        held_now = tuple(sorted(tid_held.items()))
        is_write = kind in WRITE_KINDS
        targets = {addr, region_of(addr)}
        if kind is OpKind.FREE:
            targets.update(region_addrs.get(addr, ()))
        for target in sorted(targets, key=repr):
            histories = [writes.get(target, {})]
            if is_write:
                histories.append(reads.get(target, {}))
            for history in histories:
                for other_tid, (prev, prev_vc, prev_held) in history.items():
                    if other_tid == tid:
                        continue
                    if target != addr and OpKind.FREE not in (prev.kind, kind):
                        continue
                    if not prev_vc.leq(vc):
                        races.append(RacePair(prev, event, addr, prev_held, held_now))
        (writes if is_write else reads).setdefault(addr, {})[tid] = (
            event, vc, held_now
        )
        if region_of(addr) != addr:
            region_addrs.setdefault(region_of(addr), set()).add(addr)
    return vcs, races


class TestEpochCheckEquivalence:
    """The FastTrack epoch check reports exactly what the full pointwise
    vector-clock comparison reports, on every bug of the suite."""

    @pytest.mark.parametrize("use_lock_edges", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
    def test_matches_reference_sweep(self, bug_id, seed, use_lock_edges):
        program = get_bug(bug_id).make_program()
        trace = run_program(program, seed)
        vcs, races = _reference_sweep(trace, use_lock_edges)
        analysis = HBAnalysis(trace, use_lock_edges=use_lock_edges)
        assert analysis.event_vcs == vcs
        assert find_races(trace, use_lock_edges=use_lock_edges) == races


# ---------------------------------------------------------------------------
# Differential check of sweep resume from checkpoints
# ---------------------------------------------------------------------------


def _run_with_rungs(program, seed):
    """One run plus the event count at each prefix-ladder rung it passed."""
    at_depth = {}
    machine = Machine(
        program, RandomScheduler(seed), MachineConfig(ncpus=4, max_steps=200_000)
    )
    trace = machine.run(
        snapshot_depths=CAPTURE_DEPTHS,
        on_snapshot=lambda m: at_depth.__setitem__(len(m.schedule), len(m.events)),
    )
    counts = [at_depth[d] for d in planned_depths(trace.steps) if d in at_depth]
    return trace, counts


def _checkpoint_view(checkpoint):
    """Everything a checkpoint holds, as plain comparable values."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, (list, set)):
            return type(value)(value)
        if hasattr(value, "own"):  # a last-access record
            return (value.event, value.own, value.held)
        return value

    state = checkpoint.state
    return (
        {name: plain(getattr(state, name)) for name in state.__slots__},
        checkpoint.events,
        checkpoint.races[:checkpoint.n_races],
    )


class TestSweepResume:
    """A sweep resumed from a rung's checkpoint reports exactly what a
    full sweep reports: the same races in the same order, and the same
    per-event clocks."""

    @staticmethod
    def _assert_resumes_match(trace, other, counts, use_lock_edges, max_races):
        cold = HBAnalysis(other, use_lock_edges=use_lock_edges, max_races=max_races)
        made = HBAnalysis(
            trace, use_lock_edges=use_lock_edges, max_races=max_races,
            checkpoint_at=counts,
        )
        # leaving checkpoints does not change the sweep's own result
        assert made.races == cold.races
        assert made.event_vcs == cold.event_vcs
        assert sorted(made.checkpoints) == sorted(set(counts))
        for count, checkpoint in made.checkpoints.items():
            before = _checkpoint_view(checkpoint)
            # twice from one checkpoint: resuming never mutates it
            for _ in range(2):
                resumed = HBAnalysis(
                    other, use_lock_edges=use_lock_edges, max_races=max_races,
                    start=checkpoint,
                )
                assert resumed.resumed_at == count
                assert resumed.races == cold.races, f"resumed at {count}"
                assert resumed.event_vcs == cold.event_vcs, f"resumed at {count}"
                assert _checkpoint_view(checkpoint) == before

    @pytest.mark.parametrize("use_lock_edges", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
    def test_resume_at_every_rung_matches_a_full_sweep(
        self, bug_id, seed, use_lock_edges
    ):
        program = get_bug(bug_id).make_program()
        trace, counts = _run_with_rungs(program, seed)
        assert counts, f"{bug_id}: the run passed no rung"
        # a second run of the same schedule: equal events, other objects,
        # as when a resumed attempt's prefix comes from a snapshot
        again = run_program(program, seed)
        self._assert_resumes_match(trace, again, counts, use_lock_edges, 10_000)
        # a race cap reached inside the prefix, when the prefix races
        made = HBAnalysis(trace, use_lock_edges=use_lock_edges, checkpoint_at=counts)
        in_prefix = [c.n_races for c in made.checkpoints.values() if c.n_races]
        if in_prefix:
            self._assert_resumes_match(
                trace, again, counts, use_lock_edges, min(in_prefix)
            )

    def test_cap_reached_inside_the_prefix_is_covered(self):
        trace, counts = _run_with_rungs(get_bug("apache-order-ref").make_program(), 0)
        shallowest = HBAnalysis(trace, checkpoint_at=counts[:1]).checkpoints
        cap = shallowest[counts[0]].n_races
        assert cap > 0
        capped = HBAnalysis(trace, max_races=cap, checkpoint_at=counts)
        assert len(capped.races) == cap
        assert all(c.n_races == cap for c in capped.checkpoints.values())

    def test_mismatched_or_foreign_checkpoint_means_a_full_sweep(self):
        trace, counts = _run_with_rungs(get_bug("mysql-atom-log").make_program(), 0)
        checkpoint = HBAnalysis(trace, checkpoint_at=counts).checkpoints[counts[-1]]
        cold = HBAnalysis(trace, use_lock_edges=False)
        resumed = HBAnalysis(trace, use_lock_edges=False, start=checkpoint)
        assert resumed.resumed_at == 0
        assert resumed.races == cold.races
        assert resumed.event_vcs == cold.event_vcs
        other = run_program(get_bug("mysql-atom-log").make_program(), 1)
        foreign = HBAnalysis(other, start=checkpoint)
        assert foreign.resumed_at == 0
        assert foreign.races == find_races(other)
