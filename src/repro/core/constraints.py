"""Ordering constraints for replay attempts.

A constraint says "this program action must execute before that one".
Actions are named by :class:`EventRef` — (thread, action family, key,
occurrence) — a coordinate system that survives re-scheduling: "thread 3's
2nd access to ``buf_len``" names the same action in any attempt where
thread 3's control flow has not diverged.  (If it *has* diverged, the
sketch-conformance monitor notices and the attempt is abandoned anyway.)

Three families cover every producer:

* ``mem`` — the k-th shared-memory access by a thread to an address
  (reads, writes, atomics and frees all count in one sequence);
* ``lock`` — the k-th acquisition of a mutex by a thread (LOCK, a
  successful TRYLOCK, or a condition-wait re-acquire).  Flips of
  lock-protected races are lifted to this family, because blocking a
  thread that already holds the common mutex would deadlock the attempt.
* ``region`` — the k-th shared-memory access by a thread to a *region*:
  the address itself for scalar addresses, the tuple head for indexed
  addresses like ``("row", i)``.  The static analyzer (which sees
  program structure, not concrete indices) emits refs in this family;
  they are coarser than ``mem`` refs but resolve deterministically
  against any schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.ops import MEMORY_KINDS, Address, Op, OpKind


@dataclass(frozen=True)
class EventRef:
    """A schedule-independent name for one program action."""

    tid: int
    family: str  # "mem", "lock" or "region"
    key: Address  # address for mem, mutex name for lock, region head for region
    occurrence: int  # 1-based

    def describe(self) -> str:
        return f"T{self.tid}:{self.family}[{self.key!r}]#{self.occurrence}"


@dataclass(frozen=True)
class OrderConstraint:
    """``before`` must have executed before ``after`` may execute."""

    before: EventRef
    after: EventRef

    def describe(self) -> str:
        return f"{self.before.describe()} -> {self.after.describe()}"


#: A replay attempt's full set of constraints, hashable for dedup.
ConstraintSet = FrozenSet[OrderConstraint]


def _key_token(key: Any) -> Tuple:
    """A totally ordered stand-in for an EventRef key.

    Keys are addresses or mutex names — str, int, or tuples thereof —
    and Python refuses to compare across those types.  Tagging each
    value with a type rank (and recursing into tuples) yields a cheap
    total order without building ``repr`` strings.
    """
    if isinstance(key, tuple):
        return (2, tuple(_key_token(part) for part in key))
    if isinstance(key, str):
        return (1, key)
    return (0, "", key)


def ref_sort_key(ref: EventRef) -> Tuple:
    """Total-order key for an :class:`EventRef` (no string building)."""
    return (ref.tid, ref.family, _key_token(ref.key), ref.occurrence)


def constraint_sort_key(constraint: OrderConstraint) -> Tuple:
    """Total-order key for an :class:`OrderConstraint`.

    Replaces ``sorted(constraints, key=str)``: dataclass ``__repr__``
    interpolation dominated the per-attempt setup cost, and the sort only
    exists to make attempt identity independent of set iteration order.
    """
    return (ref_sort_key(constraint.before), ref_sort_key(constraint.after))


def canonical_order(constraints: Iterable[OrderConstraint]) -> Tuple[OrderConstraint, ...]:
    """The canonical (sorted) tuple form of a constraint set.

    Every consumer that needs a deterministic sequence — the PIR gate,
    attempt fingerprints, parallel dispatch order — sorts through here,
    so serial and parallel replays see identical constraint order.
    """
    return tuple(sorted(constraints, key=constraint_sort_key))


#: Bounded memo for :func:`ordered_constraints`; constraint sets repeat
#: heavily within a session (plan ranking, cache keys, dispatch), and
#: E12's microbench puts sort-once at ~245x cheaper than re-sorting.
_ORDERED_MEMO: Dict[ConstraintSet, Tuple[OrderConstraint, ...]] = {}
_ORDERED_MEMO_LIMIT = 4096


def ordered_constraints(constraints: ConstraintSet) -> Tuple[OrderConstraint, ...]:
    """Memoized :func:`canonical_order` over hashable constraint sets.

    For call sites outside the engine (which hoists through
    ``AttemptContext.ordered``): sanitize plan ranking, cache keys, and
    anything else that canonicalizes the same set repeatedly.
    """
    cached = _ORDERED_MEMO.get(constraints)
    if cached is None:
        if len(_ORDERED_MEMO) >= _ORDERED_MEMO_LIMIT:
            _ORDERED_MEMO.clear()
        cached = canonical_order(constraints)
        _ORDERED_MEMO[constraints] = cached
    return cached


def region_key(addr: Address) -> Address:
    """The region an address belongs to: the tuple head for indexed
    addresses (``("row", 3)`` → ``"row"``), the address itself otherwise.

    Static analysis names accesses at region granularity because loop
    indices are schedule- or parameter-dependent; the runtime maps every
    concrete access back through this function when resolving
    ``region``-family refs.
    """
    if isinstance(addr, tuple) and addr:
        return addr[0]
    return addr


def _acquire_key(event_kind: OpKind, obj: object, value: object) -> Optional[str]:
    """Lock name if this event/op is a lock acquisition, else None.

    Mutex LOCK, successful TRYLOCK, and reader-writer acquisitions all
    count: each is a scheduling point whose order a flip can target.
    """
    if event_kind in (OpKind.LOCK, OpKind.RDLOCK, OpKind.WRLOCK):
        return obj
    if event_kind is OpKind.TRYLOCK and value:
        return obj
    return None


class OccurrenceCounter:
    """Counts executed actions so EventRefs can be resolved online."""

    def __init__(self) -> None:
        self._mem: Dict[Tuple[int, Address], int] = {}
        self._lock: Dict[Tuple[int, str], int] = {}
        self._region: Dict[Tuple[int, Address], int] = {}

    def observe(self, event: Event) -> None:
        """Account one executed event."""
        if event.kind in MEMORY_KINDS:
            key = (event.tid, event.addr)
            self._mem[key] = self._mem.get(key, 0) + 1
            rkey = (event.tid, region_key(event.addr))
            self._region[rkey] = self._region.get(rkey, 0) + 1
        else:
            mutex = _acquire_key(event.kind, event.obj, event.value)
            if mutex is not None:
                key = (event.tid, mutex)
                self._lock[key] = self._lock.get(key, 0) + 1

    def executed(self, ref: EventRef) -> bool:
        """Whether the named action has already happened."""
        if ref.family == "mem":
            table = self._mem
        elif ref.family == "region":
            table = self._region
        else:
            table = self._lock
        return table.get((ref.tid, ref.key), 0) >= ref.occurrence

    def pending_matches(self, tid: int, op: Op, ref: EventRef) -> bool:
        """Whether executing ``op`` now would *be* the named action."""
        if tid != ref.tid:
            return False
        if ref.family == "mem":
            if op.kind not in MEMORY_KINDS or op.addr != ref.key:
                return False
            done = self._mem.get((tid, op.addr), 0)
            return done + 1 == ref.occurrence
        if ref.family == "region":
            if op.kind not in MEMORY_KINDS or region_key(op.addr) != ref.key:
                return False
            done = self._region.get((tid, ref.key), 0)
            return done + 1 == ref.occurrence
        # lock family: TRYLOCK may fail, but blocking it until the
        # constraint is satisfied is still sound (just conservative).
        if (
            op.kind not in (OpKind.LOCK, OpKind.TRYLOCK, OpKind.RDLOCK,
                            OpKind.WRLOCK)
            or op.obj != ref.key
        ):
            return False
        done = self._lock.get((tid, op.obj), 0)
        return done + 1 == ref.occurrence

    def mem_count(self, tid: int, addr: Address) -> int:
        return self._mem.get((tid, addr), 0)

    def lock_count(self, tid: int, mutex: str) -> int:
        return self._lock.get((tid, mutex), 0)

    def region_count(self, tid: int, region: Address) -> int:
        return self._region.get((tid, region), 0)

    def capture(self) -> Tuple[Dict, Dict, Dict]:
        """Snapshot the executed-action counts (for prefix resume)."""
        return (dict(self._mem), dict(self._lock), dict(self._region))

    def restore(self, state: Tuple[Dict, ...]) -> None:
        """Load counts captured by :meth:`capture`.

        Counts are constraint-independent — they track what *executed*,
        which is identical for a parent attempt and a child resuming
        inside the parent's safe prefix — so a snapshot taken under one
        gate is valid under another whose constraints extend it.
        """
        self._mem = dict(state[0])
        self._lock = dict(state[1])
        self._region = dict(state[2]) if len(state) > 2 else {}


class ConstraintGate:
    """Online enforcement of a constraint set during one attempt."""

    def __init__(self, constraints: Iterable[OrderConstraint]) -> None:
        self.constraints: List[OrderConstraint] = list(constraints)
        self.counter = OccurrenceCounter()
        #: A constraint can only block the thread its ``after`` ref
        #: names, so constraints are indexed by that tid: :meth:`blocks`
        #: scans the (tiny) relevant slice, and the PIR scheduler skips
        #: the call outright for a tid absent from this index.
        self.by_after_tid: Dict[int, List[OrderConstraint]] = {}
        for constraint in self.constraints:
            self.by_after_tid.setdefault(
                constraint.after.tid, []
            ).append(constraint)

    def observe(self, event: Event) -> None:
        self.counter.observe(event)

    def blocks(self, tid: int, op: Op) -> bool:
        """Whether this thread's pending op must wait for a constraint."""
        for constraint in self.by_after_tid.get(tid, ()):
            if self.counter.executed(constraint.before):
                continue
            if self.counter.pending_matches(tid, op, constraint.after):
                return True
        return False

    def all_satisfiable_by(self, finished_tids: Iterable[int]) -> bool:
        """Sanity: a ``before`` owned by a finished thread can never fire."""
        finished = set(finished_tids)
        for constraint in self.constraints:
            if (
                not self.counter.executed(constraint.before)
                and constraint.before.tid in finished
            ):
                return False
        return True


class RefIndex:
    """Maps every memory access / lock acquisition of a trace to its EventRef.

    One pass over the events assigns occurrence numbers; afterwards
    :meth:`ref_of` answers by global index.  Refs are kept as plain
    ``(tid, family, key, occurrence)`` tuples — a feedback pass indexes
    every memory event but names only the few that race — and become
    :class:`EventRef` objects only when :meth:`ref_of` hands one out.
    """

    def __init__(self, events: Iterable[Event]) -> None:
        self._refs: Dict[int, Tuple[int, str, Address, int]] = {}
        self._gidx: Dict[Tuple[int, str, Address, int], int] = {}
        mem: Dict[Tuple[int, Address], int] = {}
        lock: Dict[Tuple[int, str], int] = {}
        for event in events:
            if event.kind in MEMORY_KINDS:
                key = (event.tid, event.addr)
                occurrence = mem[key] = mem.get(key, 0) + 1
                ref = (event.tid, "mem", event.addr, occurrence)
            else:
                mutex = _acquire_key(event.kind, event.obj, event.value)
                if mutex is None:
                    continue
                key = (event.tid, mutex)
                occurrence = lock[key] = lock.get(key, 0) + 1
                ref = (event.tid, "lock", mutex, occurrence)
            self._refs[event.gidx] = ref
            self._gidx[ref] = event.gidx

    def ref_of(self, event: Event) -> Optional[EventRef]:
        """The ref naming this event, or None for unnamed kinds."""
        ref = self._refs.get(event.gidx)
        return None if ref is None else EventRef(*ref)

    def gidx_of(self, ref: EventRef) -> Optional[int]:
        """The global index of the event a ref names, if it executed."""
        return self._gidx.get((ref.tid, ref.family, ref.key, ref.occurrence))

    def lock_ref(self, tid: int, mutex: str, occurrence: int) -> EventRef:
        """Explicit lock-family ref (for lifted flips)."""
        return EventRef(tid, "lock", mutex, occurrence)
