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


#: pending-op kinds a ``lock`` ref matches: every mutex and
#: reader-writer acquire, including a TRYLOCK that will fail — blocking
#: it until a constraint is satisfied is still sound (just conservative).
LOCK_ATTEMPT_KINDS = frozenset(
    {OpKind.LOCK, OpKind.TRYLOCK, OpKind.RDLOCK, OpKind.WRLOCK}
)

#: pending-op kinds that can be the action a ``mem`` or ``lock`` ref names
MEM_OR_LOCK_KINDS = MEMORY_KINDS | LOCK_ATTEMPT_KINDS

#: marks an occurrence whose op was never allowed (see
#: :meth:`OccurrenceCounter.allow`)
NEVER = -1


class OccurrenceCounter:
    """Records executed actions so EventRefs can be resolved online.

    Per ``(tid, address)`` and per ``(tid, mutex)`` it keeps the global
    index of every executed memory access and lock acquisition, in
    order, so an action's occurrence count is its list's length.  Per
    ``(tid, region)`` it keeps only the count.

    Under the same keys it also keeps, per occurrence, the first step
    at which the action was pending on a thread the PIR scheduler
    allowed (:meth:`allow`).  With the executed steps, that is the
    run's gate footprint (see :mod:`repro.core.footprint`).
    """

    def __init__(self) -> None:
        self._mem: Dict[Tuple[int, Address], List[int]] = {}
        self._lock: Dict[Tuple[int, str], List[int]] = {}
        self._region: Dict[Tuple[int, Address], int] = {}
        self._allowed_mem: Dict[Tuple[int, Address], List[int]] = {}
        self._allowed_lock: Dict[Tuple[int, str], List[int]] = {}

    def observe(self, event: Event) -> None:
        """Account one executed event."""
        if event.kind in MEMORY_KINDS:
            key = (event.tid, event.addr)
            steps = self._mem.get(key)
            if steps is None:
                steps = self._mem[key] = []
            steps.append(event.gidx)
            rkey = (event.tid, region_key(event.addr))
            self._region[rkey] = self._region.get(rkey, 0) + 1
        else:
            mutex = _acquire_key(event.kind, event.obj, event.value)
            if mutex is not None:
                key = (event.tid, mutex)
                steps = self._lock.get(key)
                if steps is None:
                    steps = self._lock[key] = []
                steps.append(event.gidx)

    def allow(self, tid: int, op: Op, step: int) -> None:
        """Note that ``op``, pending on ``tid``, was allowed at ``step``.

        ``op.kind`` must be in :data:`MEM_OR_LOCK_KINDS`.  Only the
        first step an occurrence is allowed is kept; occurrences never
        allowed read :data:`NEVER`.
        """
        if op.kind in MEMORY_KINDS:
            key = (tid, op.addr)
            done = len(self._mem.get(key, ()))
            table = self._allowed_mem
        else:
            key = (tid, op.obj)
            done = len(self._lock.get(key, ()))
            table = self._allowed_lock
        steps = table.get(key)
        if steps is None:
            steps = table[key] = []
        if len(steps) > done:
            return
        while len(steps) < done:
            steps.append(NEVER)
        steps.append(step)

    def executed(self, ref: EventRef) -> bool:
        """Whether the named action has already happened."""
        if ref.family == "region":
            return self._region.get((ref.tid, ref.key), 0) >= ref.occurrence
        table = self._mem if ref.family == "mem" else self._lock
        return len(table.get((ref.tid, ref.key), ())) >= ref.occurrence

    def pending_matches(self, tid: int, op: Op, ref: EventRef) -> bool:
        """Whether executing ``op`` now would *be* the named action."""
        if tid != ref.tid:
            return False
        if ref.family == "mem":
            if op.kind not in MEMORY_KINDS or op.addr != ref.key:
                return False
            done = len(self._mem.get((tid, op.addr), ()))
            return done + 1 == ref.occurrence
        if ref.family == "region":
            if op.kind not in MEMORY_KINDS or region_key(op.addr) != ref.key:
                return False
            done = self._region.get((tid, ref.key), 0)
            return done + 1 == ref.occurrence
        if op.kind not in LOCK_ATTEMPT_KINDS or op.obj != ref.key:
            return False
        done = len(self._lock.get((tid, op.obj), ()))
        return done + 1 == ref.occurrence

    def mem_count(self, tid: int, addr: Address) -> int:
        return len(self._mem.get((tid, addr), ()))

    def lock_count(self, tid: int, mutex: str) -> int:
        return len(self._lock.get((tid, mutex), ()))

    def region_count(self, tid: int, region: Address) -> int:
        return self._region.get((tid, region), 0)

    def allowed_steps(self) -> Dict[str, Dict[Tuple[int, Any], List[int]]]:
        """Per ref family, the first-allowed-step lists by ``(tid, key)``."""
        return {"mem": self._allowed_mem, "lock": self._allowed_lock}

    def executed_steps(self) -> Dict[str, Dict[Tuple[int, Any], List[int]]]:
        """Per ref family, the executed-step lists by ``(tid, key)``."""
        return {"mem": self._mem, "lock": self._lock}

    def capture(self) -> Tuple[Dict, ...]:
        """Snapshot the executed and allowed actions (for prefix resume)."""
        return (
            _copy_steps(self._mem), _copy_steps(self._lock),
            dict(self._region),
            _copy_steps(self._allowed_mem), _copy_steps(self._allowed_lock),
        )

    def restore(self, state: Tuple[Dict, ...]) -> None:
        """Load actions captured by :meth:`capture`.

        They are constraint-independent — a child attempt resuming
        inside its parent's safe prefix executed the same actions and
        was allowed the same ones, because its extra constraint blocks
        nothing there — so a snapshot taken under one gate is valid
        under another whose constraints extend it.
        """
        self._mem = _copy_steps(state[0])
        self._lock = _copy_steps(state[1])
        self._region = dict(state[2])
        self._allowed_mem = _copy_steps(state[3])
        self._allowed_lock = _copy_steps(state[4])


def _copy_steps(table: Dict[Any, List[int]]) -> Dict[Any, List[int]]:
    """A copy of a ``key -> step list`` table sharing no list."""
    return {key: steps[:] for key, steps in table.items()}


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
