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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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


class HBAnalysis:
    """Sweep result: per-event vector clocks plus the race report."""

    def __init__(
        self,
        trace: Trace,
        use_lock_edges: bool = True,
        max_races: int = 10_000,
    ) -> None:
        self.trace = trace
        self.use_lock_edges = use_lock_edges
        self.max_races = max_races
        self.event_vcs: List[VectorClock] = []
        self.races: List[RacePair] = []
        self._sweep()

    # -- public helpers ---------------------------------------------------

    def vc_of(self, gidx: int) -> VectorClock:
        return self.event_vcs[gidx]

    def ordered(self, first_gidx: int, second_gidx: int) -> bool:
        """Whether event ``first_gidx`` happens-before event ``second_gidx``."""
        return self.event_vcs[first_gidx].leq(self.event_vcs[second_gidx])

    def races_involving(self, addr: Address) -> List[RacePair]:
        return [r for r in self.races if r.addr == addr]

    # -- the sweep ----------------------------------------------------------

    def _sweep(self) -> None:
        thread_vc: Dict[int, VectorClock] = {}
        mutex_vc: Dict[str, VectorClock] = {}
        rwlock_vc: Dict[str, VectorClock] = {}
        sem_vc: Dict[str, VectorClock] = {}
        channel_sends: Dict[str, List[VectorClock]] = {}
        channel_recvs: Dict[str, int] = {}
        pending_join: Dict[int, VectorClock] = {}  # joined at tid's next event
        barrier_arrived: Dict[str, List[int]] = {}
        barrier_vc: Dict[str, VectorClock] = {}

        lock_counts: Dict[Tuple[int, str], int] = {}
        held: Dict[int, Dict[str, int]] = {}

        # Per-address access history: addr -> tid -> last read / last write.
        reads: Dict[Address, Dict[int, _Access]] = {}
        writes: Dict[Address, Dict[int, _Access]] = {}
        region_addrs: Dict[Address, Set[Address]] = {}

        zero = VectorClock.zero()

        event_vcs = self.event_vcs
        races = self.races
        for event in self.trace.events:
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
                        region_addrs,
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
                        self.races.append(
                            RacePair(
                                first=prev.event,
                                second=event,
                                addr=addr,
                                held_first=prev.held,
                                held_second=held_now,
                            )
                        )
                        if len(self.races) >= self.max_races:
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
