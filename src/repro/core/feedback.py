"""Feedback generation from unsuccessful replay attempts.

The abstract's verdict — "PRES's feedback generation from unsuccessful
replays is critical in bug reproduction" — rests on this module.  A failed
attempt is not thrown away: its trace is mined for the scheduling
decisions the sketch left open, and each becomes a *flip candidate* for
the next attempt.

Candidate derivation:

1. Run the happens-before race detector over the attempt's trace.  Each
   race pair (a, b) executed a-then-b; the flip candidate enforces b
   before a in the next attempt.
2. If both sides held a common mutex, the accesses themselves cannot be
   reordered (blocking the lock holder would wedge the attempt); the flip
   is *lifted* to the corresponding lock acquisitions.  Under a SYNC-or-
   richer sketch such a flip would contradict the recorded lock order, so
   it is dropped instead — correctly, because the sketch already pinned
   that decision to its production-run outcome.
3. With no sketch at all, lock-acquisition order is itself unrecorded
   non-determinism, so adjacent acquisitions of the same mutex by
   different threads are offered as candidates too (this is what lets a
   sketchless replayer find lock-inversion deadlocks).

Candidates are ranked: fewest constraints first (stay close to schedules
already known to follow the sketch), then latest-in-trace first (races
near where the attempt ended are likelier to be the one that matters).
The :class:`FeedbackDB` prunes constraint sets already tried and caps the
fan-out per attempt.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.hb_race import HBAnalysis, RacePair
from repro.core.constraints import ConstraintSet, OrderConstraint, RefIndex
from repro.core.sketches import SketchKind
from repro.sim.events import Event
from repro.sim.ops import OpKind
from repro.sim.trace import Trace


#: Frontier tiers.  The root (empty) attempt always runs first — it is
#: the baseline's attempt 1, so pre-seeding a plan can never make a
#: one-attempt bug slower.  Plan candidates (from the predictive
#: sanitizer pass, see :mod:`repro.sanitize`) run next, in plan rank
#: order — dynamic evidence dominates static approximation.  Static
#: candidates (from the sketchless analyzer, see
#: :mod:`repro.analysis.static_`) do *not* form a strict tier of their
#: own: the frontier interleaves them with the mined tier, alternating
#: one mined candidate (an ordering actually observed unordered in a
#: failed attempt) with one static candidate in static-plan rank order
#: (see :class:`repro.core.explorer.Frontier`).  Candidates mined from
#: failed attempts otherwise keep their best-first heap order.
TIER_ROOT = 0
TIER_PLAN = 1
TIER_STATIC = 2
TIER_MINED = 3


@dataclass(frozen=True)
class Candidate:
    """A constraint set to try, with its ranking key."""

    constraints: ConstraintSet
    depth: int  # number of constraints
    anchor_gidx: int  # trace position of the flipped race (for ranking)
    #: 0 for races involving a plain read (check-act shaped; the classic
    #: atomicity/order-violation ingredient), 1 for write/atomic-only races.
    shape: int = 0
    #: frontier tier (see :data:`TIER_ROOT` / :data:`TIER_PLAN` /
    #: :data:`TIER_STATIC` / :data:`TIER_MINED`); root and plan tiers
    #: are explored strictly first, then statics interleave with mined.
    tier: int = TIER_MINED
    #: rank within :data:`TIER_PLAN` / :data:`TIER_STATIC` (the
    #: analyzer's candidate order); unused by the other tiers.
    rank: int = 0
    #: the single constraint this candidate adds to the attempt it was
    #: mined from (None for root/plan candidates).  ``constraints -
    #: {flip}`` with the same seed names the parent attempt — the handle
    #: prefix-resume uses to find a shared simulator snapshot.
    flip: Optional[OrderConstraint] = None
    #: deepest parent-schedule step provably shared with this candidate:
    #: the flip's gate cannot block anything before the previous
    #: same-thread event of its ``after`` action's first possible match,
    #: so picks (and RNG draws) up to here are identical.  0 = no resume.
    safe_prefix: int = 0
    #: the parent attempt's total step count (bounds snapshot planning).
    parent_steps: int = 0

    def sort_key(self) -> Tuple[int, int, int, int]:
        """Heap key: (tier, major, shape, -anchor).

        The major key is the plan rank inside :data:`TIER_PLAN` and
        :data:`TIER_STATIC`, and the constraint-set depth inside
        :data:`TIER_MINED` (fewest constraints first — stay close to
        schedules already known to follow the sketch), so mined
        exploration order is unchanged when no plan is seeded.
        """
        major = (
            self.rank if self.tier in (TIER_PLAN, TIER_STATIC) else self.depth
        )
        return (self.tier, major, self.shape, -self.anchor_gidx)


#: ``repr`` of every op kind, as it appears inside a signature's ``repr``.
_KIND_REPR = {kind: repr(kind) for kind in OpKind}


def trace_fingerprint(trace: Trace) -> str:
    """Stable digest of *what* a trace executed (signatures, in order).

    ``hashlib`` rather than ``hash()`` so fingerprints computed in pool
    worker processes are comparable with the parent's regardless of each
    interpreter's string-hash randomization.  The digest is memoized on
    the trace — dedup, caching, and candidate mining all fingerprint the
    same trace, and events are immutable once emitted.
    """
    cached = getattr(trace, "_fingerprint", None)
    if cached is not None:
        return cached
    # Hashes the concatenated ``repr(event.signature())`` of every event,
    # spelled out with the kind reprs looked up rather than rebuilt:
    # attempt stores persist fingerprints, so the digest must not change.
    text = "".join(
        [
            f"({e.tid!r}, {_KIND_REPR[e.kind]}, {e.addr!r}, "
            f"{e.obj!r}, {e.name!r}, {e.label!r})"
            for e in trace.events
        ]
    )
    fingerprint = hashlib.sha1(text.encode("utf-8")).hexdigest()
    trace._fingerprint = fingerprint
    return fingerprint


class FeedbackDB:
    """What has been tried; prunes duplicate and inverse schedules."""

    def __init__(self) -> None:
        self._tried: Set[Tuple[ConstraintSet, int]] = set()
        self._trace_fingerprints: Set[str] = set()
        self.duplicate_traces = 0

    def mark_tried(self, constraints: ConstraintSet, seed: int) -> None:
        self._tried.add((constraints, seed))

    def tried(self, constraints: ConstraintSet, seed: int) -> bool:
        return (constraints, seed) in self._tried

    def record_trace(self, trace: Trace) -> bool:
        """Remember a trace fingerprint; True if this execution is new."""
        return self.record_fingerprint(trace_fingerprint(trace))

    def record_fingerprint(self, fingerprint: str) -> bool:
        """Remember a precomputed trace fingerprint; True if new.

        The parallel engine computes fingerprints inside pool workers (the
        trace itself never crosses the process boundary), so the dedup set
        accepts the digest directly.
        """
        if fingerprint in self._trace_fingerprints:
            self.duplicate_traces += 1
            return False
        self._trace_fingerprints.add(fingerprint)
        return True


class AttemptCache:
    """Memoized replay outcomes, keyed by what determines an attempt.

    A replay attempt is a pure function of (sketch log, constraint set,
    base seed, base policy, output strictness); re-running one that has
    already executed cannot produce a new interleaving.  The cache lets
    the exploration engine skip the replay entirely and fold the memoized
    outcome back in — most valuable when the same recorded run is
    explored repeatedly (degradation-ladder rungs that rewalk an empty
    frontier, jobs=1-vs-pool comparisons, benchmark reruns).

    Keys are built by the caller via :meth:`key_for`; values are opaque
    to the cache (the engine stores its ``AttemptOutcome`` records).

    :param max_entries: optional bound on memoized outcomes.  A long
        degradation-ladder run over a large frontier would otherwise
        grow the cache without limit; with a bound, the least recently
        *used* entry (ties broken by recorded order — dict insertion
        order, which is schedule-deterministic) is evicted and counted
        in :attr:`evictions`.  Eviction can only turn a would-be hit
        into a live replay, and attempts are pure, so exploration
        results are identical under any bound (pinned by
        ``tests/core/test_feedback.py``).
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._outcomes: Dict[Tuple, object] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: get/put are atomic under this (reentrant) lock, so one cache
        #: may be shared by concurrent sessions — the reproduction
        #: service runs a thread per job over per-tenant caches.  Within
        #: one session the engine is single-threaded and the lock is
        #: uncontended.
        self._lock = threading.RLock()

    @staticmethod
    def key_for(
        log_token: Tuple,
        constraints: ConstraintSet,
        seed: int,
        base_policy: str,
        match_output: bool,
    ) -> Tuple:
        """The cache key for one attempt: everything that determines it."""
        return (log_token, constraints, seed, base_policy, match_output)

    def get(self, key: Tuple) -> Optional[object]:
        """The memoized outcome for ``key``, counting the hit or miss."""
        with self._lock:
            outcome = self._outcomes.get(key)
            if outcome is not None:
                self.hits += 1
                if self.max_entries is not None:
                    # LRU bookkeeping: a hit refreshes the entry's
                    # position in the (insertion-ordered) dict.
                    del self._outcomes[key]
                    self._outcomes[key] = outcome
            else:
                self.misses += 1
            return outcome

    def put(self, key: Tuple, outcome: object) -> None:
        """Memoize one attempt outcome under its :meth:`key_for` key."""
        with self._lock:
            if self.max_entries is not None and key in self._outcomes:
                del self._outcomes[key]  # re-put refreshes recency
            self._outcomes[key] = outcome
            if self.max_entries is not None:
                while len(self._outcomes) > self.max_entries:
                    oldest = next(iter(self._outcomes))
                    del self._outcomes[oldest]
                    self.evictions += 1

    def __len__(self) -> int:
        return len(self._outcomes)


def _inverse(constraint: OrderConstraint) -> OrderConstraint:
    return OrderConstraint(before=constraint.after, after=constraint.before)


def _flip_for_race(
    race: RacePair,
    refs: RefIndex,
    sketch: SketchKind,
) -> Optional[OrderConstraint]:
    """The constraint that reverses this race on the next attempt."""
    common = race.common_mutexes()
    if common:
        if sketch.includes(SketchKind.SYNC):
            # Lock order is already pinned by the sketch; this race's
            # outcome was recorded, not open.
            return None
        (m_first, m_second) = common[0]
        name_first, occ_first = m_first
        name_second, occ_second = m_second
        return OrderConstraint(
            before=refs.lock_ref(race.second.tid, name_second, occ_second),
            after=refs.lock_ref(race.first.tid, name_first, occ_first),
        )
    before = refs.ref_of(race.second)
    after = refs.ref_of(race.first)
    if before is None or after is None:
        return None
    return OrderConstraint(before=before, after=after)


class _PrefixIndex:
    """Per-trace tables for computing a flip's safe resume prefix.

    ``safe_prefix(flip)`` is the first schedule step at which the flip's
    gate could possibly block something.  The gate only ever blocks the
    thread named by ``flip.after``, and only from the moment that
    thread's pending op first satisfies ``pending_matches`` — for a mem
    ref that is the named access itself (memory ops never fail, so the
    occurrence-th access is the first match); for a lock ref it may be
    an earlier *failed* TRYLOCK of the same mutex at the same prior-
    acquisition count.  Blocking a pending op can reshape the schedule
    from the pick right after the thread's previous event, so the safe
    prefix ends there.
    """

    def __init__(self, trace: Trace, refs: RefIndex) -> None:
        self._refs = refs
        self._prev_of: Dict[int, int] = {}
        self._lock_attempts: Dict[Tuple[int, object], List[Tuple[int, int]]] = {}
        last_by_tid: Dict[int, int] = {}
        acquired: Dict[Tuple[int, object], int] = {}
        lock_kinds = (OpKind.LOCK, OpKind.TRYLOCK, OpKind.RDLOCK, OpKind.WRLOCK)
        for event in trace.events:
            self._prev_of[event.gidx] = last_by_tid.get(event.tid, -1)
            last_by_tid[event.tid] = event.gidx
            if event.kind in lock_kinds:
                key = (event.tid, event.obj)
                self._lock_attempts.setdefault(key, []).append(
                    (event.gidx, acquired.get(key, 0))
                )
                if event.kind is not OpKind.TRYLOCK or event.value:
                    acquired[key] = acquired.get(key, 0) + 1

    def safe_prefix(self, flip: OrderConstraint) -> int:
        after = flip.after
        if after.family == "mem":
            gidx = self._refs.gidx_of(after)
        else:
            gidx = None
            for g, prior in self._lock_attempts.get((after.tid, after.key), ()):
                if prior == after.occurrence - 1:
                    gidx = g
                    break
        if gidx is None:
            return 0
        return self._prev_of.get(gidx, -1) + 1


def _lock_order_flips(trace: Trace, refs: RefIndex) -> List[Tuple[OrderConstraint, int]]:
    """Adjacent same-mutex acquisitions by different threads, flipped."""
    flips: List[Tuple[OrderConstraint, int]] = []
    last_acquire: Dict[str, Event] = {}
    for event in trace.events:
        acquired = event.kind in (OpKind.LOCK, OpKind.WRLOCK) or (
            event.kind is OpKind.TRYLOCK and event.value
        )
        if not acquired:
            continue
        mutex = event.obj
        prev = last_acquire.get(mutex)
        if prev is not None and prev.tid != event.tid:
            before = refs.ref_of(event)
            after = refs.ref_of(prev)
            if before is not None and after is not None:
                flips.append(
                    (OrderConstraint(before=before, after=after), event.gidx)
                )
        last_acquire[mutex] = event
    return flips


@dataclass
class FeedbackGenerator:
    """Turns one failed attempt into ranked next-attempt candidates."""

    sketch: SketchKind
    max_candidates_per_attempt: int = 24
    max_constraint_depth: int = 8

    def candidates(
        self,
        attempt_trace: Trace,
        current: ConstraintSet,
        rungs: Sequence[Any] = (),
    ) -> List[Candidate]:
        """Ranked, unseen constraint sets derived from one attempt.

        ``rungs`` are the attempt's prefix-ladder rungs, shallowest first
        (:func:`repro.core.prefix.attempt_rungs`).  The race sweep starts
        from the deepest one holding a sweep checkpoint and leaves
        checkpoints on the deeper ones, for the attempt's own children.
        """
        if len(current) >= self.max_constraint_depth:
            return []

        use_lock_edges = self.sketch.includes(SketchKind.SYNC)
        start = next(
            (r.sweep for r in reversed(rungs) if r.sweep is not None), None
        )
        pending = [r for r in rungs if r.sweep is None]
        analysis = HBAnalysis(
            attempt_trace,
            use_lock_edges=use_lock_edges,
            start=start,
            checkpoint_at=[r.events for r in pending],
        )
        for rung in pending:
            rung.sweep = analysis.checkpoints.get(rung.events)
        refs = RefIndex(attempt_trace.events)

        raw: List[Tuple[OrderConstraint, int, int]] = []
        for race in analysis.races:
            flip = _flip_for_race(race, refs, self.sketch)
            if flip is not None:
                involves_read = (
                    race.first.kind is OpKind.READ
                    or race.second.kind is OpKind.READ
                )
                raw.append((flip, race.second.gidx, 0 if involves_read else 1))
        if self.sketch is SketchKind.NONE:
            raw.extend(
                (flip, anchor, 0)
                for flip, anchor in _lock_order_flips(attempt_trace, refs)
            )

        current_inverses = {_inverse(c) for c in current}
        seen_sets: Set[ConstraintSet] = set()
        out: List[Candidate] = []
        prefixes = _PrefixIndex(attempt_trace, refs)
        # Check-act-shaped races first, then later-in-trace first, so the
        # per-attempt cap keeps the likeliest flips.
        for flip, anchor, shape in sorted(raw, key=lambda t: (t[2], -t[1])):
            if flip in current or _inverse(flip) in current:
                continue
            if flip in current_inverses:
                continue
            candidate_set: ConstraintSet = frozenset(current | {flip})
            if candidate_set in seen_sets:
                continue
            seen_sets.add(candidate_set)
            out.append(
                Candidate(
                    constraints=candidate_set,
                    depth=len(candidate_set),
                    anchor_gidx=anchor,
                    shape=shape,
                    flip=flip,
                    safe_prefix=prefixes.safe_prefix(flip),
                    parent_steps=attempt_trace.steps,
                )
            )
            if len(out) >= self.max_candidates_per_attempt:
                break
        return out
