"""The search's shape: budget, frontier, seeding, and attempt records.

PRES proper is a best-first search over the unrecorded non-deterministic
space whose :class:`Frontier` is fed by
:class:`~repro.core.feedback.FeedbackGenerator`; the ablation the paper's
evaluation isolates re-rolls the unrecorded choices with a fresh seed
and learns nothing from failed attempts.  Both run on the one engine,
:class:`~repro.core.parallel.ParallelExplorer`; this module holds what
that engine searches with.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.constraints import ConstraintSet
from repro.core.feedback import (
    TIER_MINED,
    TIER_PLAN,
    TIER_STATIC,
    Candidate,
)
from repro.sim.trace import Trace

_EMPTY: ConstraintSet = frozenset()


@dataclass
class AttemptRecord:
    """Summary of one replay attempt."""

    index: int
    base_seed: int
    n_constraints: int
    outcome: str  # "matched" | "diverged" | "no_failure" | "other_failure"
    steps: int
    detail: str = ""


@dataclass
class ExplorationResult:
    """What an explorer found."""

    success: bool
    attempts: List[AttemptRecord] = field(default_factory=list)
    winning_trace: Optional[Trace] = None
    winning_constraints: ConstraintSet = _EMPTY
    winning_seed: int = 0
    duplicate_traces: int = 0
    #: attempts answered from the attempt cache instead of a replay.
    cache_hits: int = 0
    #: attempts dispatched with a schedule-prefix resume plan (see
    #: :mod:`repro.core.prefix`) — counted at batch assembly, so the
    #: figure is jobs-invariant, the same at ``jobs=1`` as in a pool.
    prefix_hits: int = 0
    #: attempts answered from an equivalent folded attempt instead of a
    #: replay (see :mod:`repro.core.footprint`); jobs-invariant too.
    equivalent_skips: int = 0
    #: new executions left unmined because the attempt budget could
    #: never reach their children (see :class:`MiningHorizon`);
    #: jobs-invariant too.
    mine_skips: int = 0
    #: True when the search was cut short by a KeyboardInterrupt: the
    #: fields above describe a *partial* exploration, not a verdict.
    interrupted: bool = False

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def total_steps(self) -> int:
        return sum(record.steps for record in self.attempts)


@dataclass
class ExplorerConfig:
    """Search budget and shape."""

    max_attempts: int = 200
    base_seed: int = 0
    seed_restarts: int = 16
    max_candidates_per_attempt: int = 24
    max_constraint_depth: int = 8
    #: replay workers.  1 = in-process; N > 1 dispatches attempt
    #: batches to a process pool (see :mod:`repro.core.parallel`).
    #: Exploration results are identical for every value of ``jobs``.
    jobs: int = 1
    #: frontier candidates speculatively dispatched per batch; 0 picks
    #: 1 at ``jobs=1`` and ``2 * jobs`` (doubled once attempts measure as
    #: cheap) in a pool.  The schedule depends on this value alone, never
    #: on ``jobs``; ``batch_size=1`` walks the frozen serial schedule.
    batch_size: int = 0
    #: collect spans for this exploration (see :mod:`repro.obs`) when no
    #: explicit :class:`~repro.obs.session.ObsSession` is passed in.
    trace: bool = False
    #: collect metrics (counters/gauges/histograms) likewise.  Counter
    #: and histogram values are identical for every ``jobs`` at a fixed
    #: ``batch_size`` — the metrics face of the determinism contract.
    metrics: bool = False
    #: constraint sets pre-seeded by the predictive sanitizer pass
    #: (:meth:`repro.sanitize.ReplayPlan.seeds_for`), explored in order
    #: right after the root empty attempt and before any mined feedback.
    plan_seeds: Tuple[ConstraintSet, ...] = ()
    #: constraint sets pre-seeded by the *static* analyzer
    #: (:meth:`repro.analysis.static_.StaticPlan.seeds_for`), explored
    #: after the dynamic plan seeds (dynamic evidence dominates static
    #: approximation), interleaved with mined feedback — one mined
    #: candidate, then one static candidate (see :class:`Frontier`).
    static_seeds: Tuple[ConstraintSet, ...] = ()


def plan_candidates(seeds: Tuple[ConstraintSet, ...]) -> List[Candidate]:
    """Wrap sanitizer plan seeds as :data:`~repro.core.feedback.TIER_PLAN`
    frontier candidates, preserving the plan's rank order."""
    return _ranked(seeds, TIER_PLAN)


def static_candidates(seeds: Tuple[ConstraintSet, ...]) -> List[Candidate]:
    """Wrap static-analyzer seeds as
    :data:`~repro.core.feedback.TIER_STATIC` frontier candidates,
    preserving the static plan's rank order."""
    return _ranked(seeds, TIER_STATIC)


def _ranked(seeds: Tuple[ConstraintSet, ...], tier: int) -> List[Candidate]:
    return [
        Candidate(
            constraints=constraints,
            depth=len(constraints),
            anchor_gidx=0,
            tier=tier,
            rank=rank,
        )
        for rank, constraints in enumerate(seeds)
    ]


class Frontier:
    """Best-first frontier with an interleaved static-candidate lane.

    Root, plan-seeded, and mined candidates live in a heap ordered by
    :meth:`~repro.core.feedback.Candidate.sort_key`.  Static-analyzer
    candidates (:data:`~repro.core.feedback.TIER_STATIC`) live in a
    separate FIFO lane in static-plan rank order.  Pops interleave the
    two lanes: the root and every dynamic plan seed drain first, and
    once the heap's best candidate is mined feedback, each mined pop is
    followed by one static pop — dynamic evidence (an ordering actually
    observed unordered in a failed attempt) dominates the static
    approximation, but a ranked structural prediction is worth one
    attempt before the mined tail of re-rolls.  When either lane runs
    dry the other drains in its own order.

    With no static seeds every pop is a plain heap pop, so the mined
    exploration schedule is byte-identical to an unseeded search.  The
    alternation is a pure function of the pop sequence, so the engine
    (which assembles batches by popping this structure) produces
    identical schedules for a fixed ``batch_size``, independent of
    worker count.
    """

    def __init__(self) -> None:
        self._heap: List[
            Tuple[Tuple[int, int, int, int], int, ConstraintSet, int, Candidate]
        ] = []
        self._static: Deque[Tuple[ConstraintSet, int, Candidate]] = deque()
        self._counter = 0
        self._last_pop_mined = False

    def push(self, candidate: Candidate, seed: int) -> None:
        """Add a candidate, routed by tier (statics to the FIFO lane)."""
        if candidate.tier == TIER_STATIC:
            self._static.append((candidate.constraints, seed, candidate))
            return
        self._counter += 1
        heapq.heappush(
            self._heap,
            (
                candidate.sort_key(),
                self._counter,
                candidate.constraints,
                seed,
                candidate,
            ),
        )

    def __len__(self) -> int:
        return len(self._heap) + len(self._static)

    def pop(self) -> Tuple[ConstraintSet, int, Candidate]:
        """Remove and return the next ``(constraints, seed, candidate)``."""
        take_static = bool(self._static) and (
            not self._heap
            or (self._heap[0][0][0] >= TIER_MINED and self._last_pop_mined)
        )
        if take_static:
            self._last_pop_mined = False
            return self._static.popleft()
        key, _, constraints, seed, candidate = heapq.heappop(self._heap)
        self._last_pop_mined = key[0] >= TIER_MINED
        return constraints, seed, candidate


class MiningHorizon:
    """Which mined tiers the attempt budget can still reach.

    The frontier pops its heap strictly best-first, and a candidate
    mined from a depth-``d`` attempt has key ``(TIER_MINED, d + 1, ...)``.
    ``ahead(d)`` counts the distinct untried ``(constraints, seed)``
    pairs whose best heap entry sorts below that: root and plan entries,
    and mined entries of depth at most ``d``.  Static-lane entries are
    not counted; they only add pops, so leaving them out is
    conservative.  Every counted pair costs one attempt when it pops,
    so once ``ahead(d) >= max_attempts - issued`` no depth-``d + 1``
    mined entry is ever popped: tier ``d`` is *closed*, and mining a
    depth-``d`` attempt is wasted work.

    A closed tier stays closed.  A pop removes at most one counted pair
    and uses one attempt; a pop of an uncounted pair only uses one; a
    push only adds.  So a tier closed when an attempt is popped is
    still closed when it is folded.

    Bookkeeping is O(1) per push and per pop: each pending pair keeps
    its level (0 for root and plan entries, its depth for mined ones),
    and ``_counts`` holds the number of pending pairs per level.
    """

    def __init__(
        self, max_attempts: int, tried: Callable[[ConstraintSet, int], bool]
    ) -> None:
        self._max_attempts = max_attempts
        self._tried = tried
        self._issued = 0
        self._level: Dict[Tuple[ConstraintSet, int], int] = {}
        self._counts: List[int] = [0]

    def push(self, candidate: Candidate, seed: int) -> None:
        """Count a frontier push (statics and tried pairs are ignored)."""
        if candidate.tier == TIER_STATIC:
            return
        pair = (candidate.constraints, seed)
        if self._tried(*pair):
            return
        level = candidate.depth if candidate.tier == TIER_MINED else 0
        held = self._level.get(pair)
        if held is not None:
            if held <= level:
                return
            self._counts[held] -= 1
        while len(self._counts) <= level:
            self._counts.append(0)
        self._level[pair] = level
        self._counts[level] += 1

    def issue(self, constraints: ConstraintSet, seed: int) -> None:
        """Note that an untried pair was popped and will use an attempt."""
        self._issued += 1
        level = self._level.pop((constraints, seed), None)
        if level is not None:
            self._counts[level] -= 1

    def closed(self, depth: int) -> bool:
        """True when no child of a depth-``depth`` attempt can be popped."""
        ahead = sum(self._counts[: depth + 1])
        return ahead >= self._max_attempts - self._issued


def _classify(trace: Trace, matched: bool) -> Tuple[str, str]:
    if matched:
        return "matched", trace.failure.describe() if trace.failure else ""
    if trace.diverged:
        return "diverged", trace.divergence or ""
    if trace.failure is not None:
        return "other_failure", trace.failure.describe()
    return "no_failure", ""
