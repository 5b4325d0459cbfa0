"""Happens-before analysis and race detection over a trace.

One forward sweep over the event list computes, per event, the thread's
vector clock and held-lock set, and reports *race pairs*: conflicting
memory accesses by different threads that are not ordered by the
happens-before relation.  Each race pair is a scheduling decision that a
sketch did not record — exactly the candidates PRES's replayer flips
between attempts.

The happens-before edges modelled (all of pthreads-on-our-simulator):

* program order within each thread;
* mutex release -> subsequent acquire (UNLOCK / COND_WAIT's release ->
  LOCK / successful TRYLOCK);
* condition signal/broadcast -> the woken thread's next event;
* semaphore release -> subsequent acquire (accumulated conservatively);
* barrier: every arrival of a generation -> every participant's
  continuation;
* SPAWN -> child's first event, child's last event -> JOIN;
* channel ``send`` -> the ``recv`` that returns the same message.

Race state is FastTrack-flavoured: per address we keep each thread's most
recent read and write, so a race is reported between an access and the
latest conflicting access of every other thread — sufficient for flip
candidates without quadratic blowup.  Each kept access stores only its
epoch (its thread's own clock component), and the race test is
FastTrack's epoch check: because every clock here is built by join and
tick, ``prev.own <= vc[prev.tid]`` holds exactly when the full clock
comparison ``prev.vc.leq(vc)`` does.  Memory accesses carry no sync
edges, so the sweep handles them on an early branch.

``use_lock_edges=False`` drops the mutex edges: with no sketch at all, even
lock-acquisition order is up for grabs during replay, so accesses ordered
only by lock handoffs must still be offered as flip candidates.

A sweep can stop at chosen event counts and leave a
:class:`SweepCheckpoint` there, and a later sweep over a trace that
shares those first events can start from it.  The feedback loop uses
this along schedule prefixes: a replay attempt resumed from its
parent's snapshot shares the parent's opening events, so its sweep
starts where the parent's checkpoint left off (see
:mod:`repro.core.prefix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.vector_clock import VectorClock
from repro.sim.events import Event
from repro.sim.memory import region_of
from repro.sim.ops import Address, OpKind
from repro.sim.trace import Trace

#: (mutex name, acquisition occurrence) — which lock acquisition protects
#: an access; feedback uses it to lift flips up to the LOCK operation.
HeldLock = Tuple[str, int]


@dataclass(frozen=True)
class RacePair:
    """Two conflicting, happens-before-unordered accesses.

    ``first`` executed before ``second`` in this trace's global order, but
    nothing forces that: a replay may execute them the other way around.
    ``held_first``/``held_second`` are the (mutex, acquisition-occurrence)
    pairs each thread held at the time.
    """

    first: Event
    second: Event
    addr: Address
    held_first: Tuple[HeldLock, ...] = ()
    held_second: Tuple[HeldLock, ...] = ()

    def common_mutexes(self) -> List[Tuple[HeldLock, HeldLock]]:
        """Lock acquisitions both sides hold on the same mutex."""
        by_name = {name: (name, k) for name, k in self.held_first}
        pairs = []
        for name, k in self.held_second:
            if name in by_name:
                pairs.append((by_name[name], (name, k)))
        return pairs

    def describe(self) -> str:
        return (
            f"race on {self.addr!r}: "
            f"T{self.first.tid}#{self.first.gidx} {self.first.kind.value} vs "
            f"T{self.second.tid}#{self.second.gidx} {self.second.kind.value}"
        )


_CONFLICT_KINDS = frozenset(
    {OpKind.READ, OpKind.WRITE, OpKind.RMW, OpKind.CAS, OpKind.FREE}
)
_WRITE_KINDS = frozenset({OpKind.WRITE, OpKind.RMW, OpKind.CAS, OpKind.FREE})


class _Access:
    """One thread's latest read or write of an address.

    ``own`` is the accessing thread's own component of the access's
    vector clock — its epoch, all the race test needs (see
    :meth:`HBAnalysis._check_access`).
    """

    __slots__ = ("event", "own", "held")

    def __init__(
        self, event: Event, own: int, held: Tuple[HeldLock, ...]
    ) -> None:
        self.event = event
        self.own = own
        self.held = held


class _SweepState:
    """The maps one forward sweep carries from event to event."""

    __slots__ = (
        "thread_vc", "mutex_vc", "rwlock_vc", "sem_vc", "channel_sends",
        "channel_recvs", "pending_join", "barrier_arrived", "barrier_vc",
        "lock_counts", "held", "reads", "writes", "region_addrs",
    )

    def __init__(self) -> None:
        self.thread_vc: Dict[int, VectorClock] = {}
        self.mutex_vc: Dict[str, VectorClock] = {}
        self.rwlock_vc: Dict[str, VectorClock] = {}
        self.sem_vc: Dict[str, VectorClock] = {}
        self.channel_sends: Dict[str, List[VectorClock]] = {}
        self.channel_recvs: Dict[str, int] = {}
        self.pending_join: Dict[int, VectorClock] = {}  # joined at tid's next event
        self.barrier_arrived: Dict[str, List[int]] = {}
        self.barrier_vc: Dict[str, VectorClock] = {}
        self.lock_counts: Dict[Tuple[int, str], int] = {}
        self.held: Dict[int, Dict[str, int]] = {}
        # Per-address access history: addr -> tid -> last read / last write.
        self.reads: Dict[Address, Dict[int, _Access]] = {}
        self.writes: Dict[Address, Dict[int, _Access]] = {}
        self.region_addrs: Dict[Address, Set[Address]] = {}

    def copy(self) -> "_SweepState":
        """A copy no later sweep step can reach into.

        Containers are copied down to the level the sweep mutates;
        :class:`VectorClock` and :class:`_Access` values are never
        mutated once stored, so the copy shares them.
        """
        state = _SweepState.__new__(_SweepState)
        for name in ("thread_vc", "mutex_vc", "rwlock_vc", "sem_vc",
                     "channel_recvs", "pending_join", "barrier_vc",
                     "lock_counts"):
            setattr(state, name, dict(getattr(self, name)))
        for name in ("channel_sends", "barrier_arrived"):
            setattr(state, name,
                    {k: list(v) for k, v in getattr(self, name).items()})
        for name in ("held", "reads", "writes"):
            setattr(state, name,
                    {k: dict(v) for k, v in getattr(self, name).items()})
        state.region_addrs = {k: set(v) for k, v in self.region_addrs.items()}
        return state


class SweepCheckpoint:
    """An :class:`HBAnalysis` sweep stopped after its first ``events`` events.

    Immutable once made: a sweep that starts from it copies the maps out
    and takes the first ``n_races`` races.  The race list belongs to the
    sweep that made the checkpoint and may grow past that count, which
    lets every checkpoint of one sweep share it.  Per-event clocks are
    not kept: only their owner reads them, so a resumed analysis
    recomputes the prefix's clocks if :attr:`HBAnalysis.event_vcs` is
    ever read.
    """

    __slots__ = (
        "events", "last", "use_lock_edges", "max_races", "state", "races",
        "n_races",
    )

    def __init__(
        self,
        events: int,
        last: Event,
        use_lock_edges: bool,
        max_races: int,
        state: _SweepState,
        races: List[RacePair],
    ) -> None:
        self.events = events
        #: the last swept event, to reject a trace with another prefix
        self.last = last
        self.use_lock_edges = use_lock_edges
        self.max_races = max_races
        self.state = state
        self.races = races
        self.n_races = len(races)


class HBAnalysis:
    """Sweep result: per-event vector clocks plus the race report.

    ``start`` resumes the sweep from a checkpoint of a trace with the
    same first ``start.events`` events; a checkpoint made under other
    settings, or whose last event differs from this trace's, is ignored
    and the sweep starts from the first event.  Either way the result is
    the same.  ``checkpoint_at`` lists event counts at which to leave a
    checkpoint, collected in :attr:`checkpoints` by event count (counts
    the sweep does not pass are skipped).
    """

    def __init__(
        self,
        trace: Trace,
        use_lock_edges: bool = True,
        max_races: int = 10_000,
        start: Optional[SweepCheckpoint] = None,
        checkpoint_at: Sequence[int] = (),
    ) -> None:
        self.trace = trace
        self.use_lock_edges = use_lock_edges
        self.max_races = max_races
        self.races: List[RacePair] = []
        self.checkpoints: Dict[int, SweepCheckpoint] = {}
        #: how many leading events a checkpoint spared the sweep
        self.resumed_at = 0
        #: clocks of the last ``len(_vcs)`` events; a resumed sweep
        #: leaves the prefix's to :attr:`event_vcs`
        self._vcs: List[VectorClock] = []
        self._sweep(start, checkpoint_at)

    # -- public helpers ---------------------------------------------------

    @property
    def event_vcs(self) -> List[VectorClock]:
        """The vector clock of every event, in trace order."""
        missing = len(self.trace.events) - len(self._vcs)
        if missing:
            prefix: List[VectorClock] = []
            self._sweep_range(
                _SweepState(), self.trace.events[:missing], prefix, []
            )
            self._vcs[:0] = prefix
        return self._vcs

    def vc_of(self, gidx: int) -> VectorClock:
        return self.event_vcs[gidx]

    def ordered(self, first_gidx: int, second_gidx: int) -> bool:
        """Whether event ``first_gidx`` happens-before event ``second_gidx``."""
        return self.event_vcs[first_gidx].leq(self.event_vcs[second_gidx])

    def races_involving(self, addr: Address) -> List[RacePair]:
        return [r for r in self.races if r.addr == addr]

    # -- the sweep ----------------------------------------------------------

    def _resumable(self, start: Optional[SweepCheckpoint]) -> bool:
        if start is None:
            return False
        events = self.trace.events
        return (
            start.use_lock_edges == self.use_lock_edges
            and start.max_races == self.max_races
            and 0 < start.events <= len(events)
            and events[start.events - 1] == start.last
        )

    def _sweep(
        self, start: Optional[SweepCheckpoint], checkpoint_at: Sequence[int]
    ) -> None:
        events = self.trace.events
        if self._resumable(start):
            state = start.state.copy()
            pos = self.resumed_at = start.events
            self.races.extend(start.races[:start.n_races])
        else:
            state = _SweepState()
            pos = 0
        for stop in sorted(set(checkpoint_at)):
            if not pos < stop <= len(events):
                continue
            self._sweep_range(state, events[pos:stop], self._vcs, self.races)
            pos = stop
            self.checkpoints[stop] = SweepCheckpoint(
                stop, events[stop - 1], self.use_lock_edges, self.max_races,
                state.copy(), self.races,
            )
        self._sweep_range(
            state, events[pos:] if pos else events, self._vcs, self.races
        )

    def _sweep_range(
        self,
        state: _SweepState,
        events: Sequence[Event],
        event_vcs: List[VectorClock],
        races: List[RacePair],
    ) -> None:
        """Sweep ``events``, appending their clocks and races found."""
        thread_vc = state.thread_vc
        mutex_vc = state.mutex_vc
        rwlock_vc = state.rwlock_vc
        sem_vc = state.sem_vc
        channel_sends = state.channel_sends
        channel_recvs = state.channel_recvs
        pending_join = state.pending_join
        barrier_arrived = state.barrier_arrived
        barrier_vc = state.barrier_vc
        lock_counts = state.lock_counts
        held = state.held
        reads = state.reads
        writes = state.writes
        region_addrs = state.region_addrs

        zero = VectorClock.zero()

        for event in events:
            tid = event.tid
            vc = thread_vc.get(tid, zero)

            # Incoming edges --------------------------------------------------
            if tid in pending_join:
                vc = vc.join(pending_join.pop(tid))
            kind = event.kind
            if kind in _CONFLICT_KINDS:
                # Memory accesses carry no sync edges and take or release
                # no lock: tick, then check for races.
                vc = vc.tick(tid)
                thread_vc[tid] = vc
                event_vcs.append(vc)
                if len(races) < self.max_races:
                    self._check_access(
                        event, vc, held.setdefault(tid, {}), reads, writes,
                        region_addrs, races,
                    )
                continue
            if kind is OpKind.LOCK and self.use_lock_edges:
                vc = vc.join(mutex_vc.get(event.obj, zero))
            elif kind is OpKind.TRYLOCK and event.value and self.use_lock_edges:
                vc = vc.join(mutex_vc.get(event.obj, zero))
            elif kind in (OpKind.RDLOCK, OpKind.WRLOCK) and self.use_lock_edges:
                # conservative: any release -> any acquire (masks only
                # reader-reader pairs, which cannot race through reads)
                vc = vc.join(rwlock_vc.get(event.obj, zero))
            elif kind is OpKind.SEM_ACQUIRE:
                vc = vc.join(sem_vc.get(event.obj, zero))
            elif kind is OpKind.JOIN:
                vc = vc.join(thread_vc.get(event.obj, zero))
            elif kind is OpKind.SYSCALL and event.name in ("recv", "try_recv"):
                # The k-th recv on a channel returns the k-th send's message.
                chan = self._channel_of(event)
                if chan is not None and event.value is not None:
                    k = channel_recvs.get(chan, 0)
                    sends = channel_sends.get(chan, [])
                    if k < len(sends):
                        vc = vc.join(sends[k])
                    channel_recvs[chan] = k + 1

            vc = vc.tick(tid)
            thread_vc[tid] = vc
            event_vcs.append(vc)

            # Lockset maintenance ------------------------------------------------
            tid_held = held.setdefault(tid, {})
            if kind is OpKind.LOCK or (kind is OpKind.TRYLOCK and event.value):
                key = (tid, event.obj)
                lock_counts[key] = lock_counts.get(key, 0) + 1
                tid_held[event.obj] = lock_counts[key]
            elif kind in (OpKind.RDLOCK, OpKind.WRLOCK):
                key = (tid, event.obj)
                lock_counts[key] = lock_counts.get(key, 0) + 1
                tid_held[event.obj] = lock_counts[key]
            elif kind in (OpKind.UNLOCK, OpKind.RWUNLOCK):
                tid_held.pop(event.obj, None)
            elif kind is OpKind.COND_WAIT:
                _, lock_name = event.obj
                tid_held.pop(lock_name, None)

            # Outgoing edges ------------------------------------------------------
            if kind is OpKind.UNLOCK:
                mutex_vc[event.obj] = vc
            elif kind is OpKind.RWUNLOCK:
                rwlock_vc[event.obj] = rwlock_vc.get(event.obj, zero).join(vc)
            elif kind is OpKind.COND_WAIT:
                _, lock_name = event.obj
                mutex_vc[lock_name] = vc
            elif kind is OpKind.SEM_RELEASE:
                sem_vc[event.obj] = sem_vc.get(event.obj, zero).join(vc)
            elif kind is OpKind.SPAWN:
                pending_join[event.value] = vc
            elif kind is OpKind.COND_SIGNAL and event.value is not None:
                woken = event.value
                pending_join[woken] = pending_join.get(woken, zero).join(vc)
            elif kind is OpKind.COND_BROADCAST and event.value:
                for woken in event.value:
                    pending_join[woken] = pending_join.get(woken, zero).join(vc)
            elif kind is OpKind.BARRIER_WAIT:
                name = event.obj
                barrier_arrived.setdefault(name, []).append(tid)
                barrier_vc[name] = barrier_vc.get(name, zero).join(vc)
                if event.value is not None:  # this arrival tripped the barrier
                    merged = barrier_vc[name]
                    for participant in barrier_arrived[name]:
                        pending_join[participant] = (
                            pending_join.get(participant, zero).join(merged)
                        )
                    barrier_arrived[name] = []
                    barrier_vc[name] = zero
            elif kind is OpKind.SYSCALL and event.name == "send":
                chan = self._channel_of(event)
                if chan is not None:
                    channel_sends.setdefault(chan, []).append(vc)

    @staticmethod
    def _channel_of(event: Event) -> Optional[str]:
        """Channel name of a send/recv/try_recv event (first syscall arg)."""
        if event.args:
            return event.args[0]
        return None

    def _check_access(
        self,
        event: Event,
        vc: VectorClock,
        tid_held: Dict[str, int],
        reads: Dict[Address, Dict[int, _Access]],
        writes: Dict[Address, Dict[int, _Access]],
        region_addrs: Dict[Address, Set[Address]],
        races: List[RacePair],
    ) -> None:
        addr = event.addr
        tid = event.tid
        held_now = tuple(sorted(tid_held.items())) if tid_held else ()
        is_write = event.kind in _WRITE_KINDS

        # Addresses this access conflicts with: itself, plus the whole
        # region when freeing a region name, plus the region name when
        # accessing a cell (a FREE may sit there).
        targets = {addr}
        region = region_of(addr)
        if region != addr:
            targets.add(region)
        if event.kind is OpKind.FREE:
            targets.update(region_addrs.get(addr, ()))

        # Deterministic iteration: set order depends on PYTHONHASHSEED,
        # and race *ordering* feeds candidate ranking, which must be
        # reproducible across processes.
        if len(targets) > 1:
            targets = sorted(targets, key=repr)
        for target in targets:
            histories = [writes.get(target, {})]
            if is_write:
                histories.append(reads.get(target, {}))
            for history in histories:
                for other_tid, prev in history.items():
                    if other_tid == tid:
                        continue
                    if target != addr and not (
                        prev.event.kind is OpKind.FREE
                        or event.kind is OpKind.FREE
                    ):
                        # Cross-address conflicts only involve region frees.
                        continue
                    # The epoch check: equivalent to ``prev.vc.leq(vc)``
                    # because thread t's clock at own component c is the
                    # clock of t's c-th event, and clocks only grow by
                    # join and tick, so any clock whose t-component
                    # reaches c dominates that event's whole clock.
                    if prev.own > vc.get(other_tid):
                        races.append(
                            RacePair(
                                first=prev.event,
                                second=event,
                                addr=addr,
                                held_first=prev.held,
                                held_second=held_now,
                            )
                        )
                        if len(races) >= self.max_races:
                            return

        table = writes if is_write else reads
        table.setdefault(addr, {})[tid] = _Access(event, vc.get(tid), held_now)
        if region != addr:
            region_addrs.setdefault(region, set()).add(addr)


def find_races(
    trace: Trace, use_lock_edges: bool = True, max_races: int = 10_000
) -> List[RacePair]:
    """Convenience wrapper: the race pairs of one trace."""
    return HBAnalysis(
        trace, use_lock_edges=use_lock_edges, max_races=max_races
    ).races
