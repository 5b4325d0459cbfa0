"""Schedule-prefix memoization: resume sibling attempts mid-simulation.

Feedback exploration is a tree: every mined candidate is its parent's
constraint set plus one flip, replayed under the same base seed.  The
flip's gate provably cannot alter anything before the candidate's
*safe prefix* (see :class:`~repro.core.feedback._PrefixIndex`), so the
child re-simulates the parent's opening steps — same picks, same RNG
draws, same events — before the search actually begins.  This module
skips that shared prefix: live attempts opportunistically snapshot
their simulator state as they pass a ladder of planned depths
(:func:`capture_hooks`), a :class:`PrefixTree` keeps the snapshots
keyed by ``(constraint set, seed, depth)``, and :func:`resume_machine`
materializes a child machine fast-forwarded to the deepest available
snapshot inside its safe prefix.

Design constraints, in order:

* **Exactness.**  A resumed attempt must produce the byte-identical
  trace of a cold run.  Snapshots deep-copy all mutable machine state
  and rebuild generators by feed replay (:meth:`Machine.capture_state`);
  the scheduler fast-forward carries the RNG, cursor, and occurrence
  counts (:meth:`PIRScheduler.capture_resume_state`).  Any surprise in
  the resume machinery falls back to a cold run — attempts are pure, so
  the result is the same either way, just slower.
* **Jobs-invariance.**  Capturing is pure observation: a deep copy of
  mid-run state cannot change the attempt's outcome, so whether a
  snapshot was taken (or which worker holds it) is invisible in
  reports.  Resume *plans* are issued engine-side at batch assembly
  from candidate metadata alone — a function of the exploration
  schedule, never of worker state — so ``parallel.prefix_hits`` is
  identical for every ``jobs`` value; a worker missing the snapshot
  simply runs the attempt cold.
* **Bounded memory and overhead.**  Capture depths double
  (48, 96, 192, ...), so a live attempt pays O(log steps) snapshots,
  and the tree holds at most ``max_nodes`` snapshots, evicting
  least-recently-used.

Each snapshot sits on a :class:`Rung`, which also carries the
happens-before sweep's checkpoint for the same point once the attempt
has been mined (:attr:`Rung.sweep`).  A resumed attempt shares its
parent's events up to the rung, so mining it sweeps only the suffix
(:func:`attempt_rungs`); a rung without a checkpoint means a full
sweep, with the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.analysis.hb_race import SweepCheckpoint
from repro.core.constraints import ConstraintSet, OrderConstraint
from repro.core.pir import PIRScheduler
from repro.sim.machine import Machine

#: Snapshots below this depth are not worth the restore cost.
MIN_RESUME_DEPTH = 24
#: First rung of the snapshot ladder; subsequent rungs double.
BASE_DEPTH = 48
#: The full capture ladder, covering any plausible attempt length.
CAPTURE_DEPTHS: Tuple[int, ...] = tuple(BASE_DEPTH * (1 << k) for k in range(12))


def planned_depths(parent_steps: int) -> Tuple[int, ...]:
    """The snapshot-ladder depths inside a parent of ``parent_steps``.

    A pure function of the step count, so every process (parent engine,
    any worker) plans identical depths for the same parent — which is
    what lets hit accounting happen engine-side while snapshots live
    wherever the parent happened to run.  All depths are strictly below
    ``parent_steps``: the parent's final step may have failed or
    diverged, and snapshots must be clean mid-run states.
    """
    return tuple(d for d in CAPTURE_DEPTHS if d < parent_steps)


def resume_depth(parent_steps: int, safe_prefix: int) -> int:
    """Deepest ladder depth usable for a child with this safe prefix.

    0 means "run cold" — no planned depth fits inside the prefix.
    """
    best = 0
    for depth in planned_depths(parent_steps):
        if depth <= safe_prefix:
            best = depth
    return best


@dataclass(frozen=True)
class ResumePlan:
    """A worker-portable instruction: where a child attempt may resume.

    Built engine-side at batch assembly (so hits are counted at a
    schedule-deterministic point); the executing process derives the
    parent as ``constraints - {flip}`` and looks snapshots up in its
    local :class:`PrefixTree`, running cold when none is present.
    """

    flip: OrderConstraint
    depth: int
    parent_steps: int


class Rung:
    """One attempt's state at one ladder depth.

    ``machine``/``scheduler`` are the simulator and PIR snapshots taken
    live; ``events`` is how many trace events the attempt had emitted
    there; ``sweep`` is the happens-before sweep's checkpoint at that
    event count, filled in when the attempt is mined.  Aliased tree keys
    share the one object, so a checkpoint set through any of them serves
    all of them.
    """

    __slots__ = ("machine", "scheduler", "events", "sweep")

    def __init__(self, machine: Any, scheduler: Any, events: int) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self.events = events
        self.sweep: Optional[SweepCheckpoint] = None


class PrefixTree:
    """Process-local LRU store of mid-attempt simulator snapshots.

    Nodes are :class:`Rung` objects, opaque to the tree.  ``max_nodes``
    bounds snapshots, not attempts: each attempt captures O(log steps)
    ladder depths, so the default holds snapshots for roughly the last
    ~80 attempts — enough that siblings scattered
    across the best-first frontier still find their parent warm.
    """

    def __init__(self, max_nodes: int = 256) -> None:
        self.max_nodes = max_nodes
        self._nodes: Dict[Tuple, Any] = {}
        self.hits = 0
        self.misses = 0
        self.captures = 0
        self.aliases = 0
        self.resumes = 0
        self.fallbacks = 0

    def get(self, key: Tuple) -> Any:
        node = self._nodes.get(key)
        if node is not None:
            self.hits += 1
            del self._nodes[key]  # LRU refresh (dict is insertion-ordered)
            self._nodes[key] = node
        else:
            self.misses += 1
        return node

    def put(self, key: Tuple, node: Any) -> None:
        if key in self._nodes:
            del self._nodes[key]
        self._nodes[key] = node
        self.captures += 1
        while len(self._nodes) > self.max_nodes:
            oldest = next(iter(self._nodes))
            del self._nodes[oldest]

    def alias(self, src: Tuple, dst: Tuple) -> None:
        """Share ``src``'s snapshot under ``dst`` too (no copy is made).

        Sound whenever the two keys provably name identical states —
        snapshots are immutable once stored (restores copy out of them),
        so sharing is free, and a sweep checkpoint later set on the
        shared rung serves both keys.
        """
        node = self._nodes.get(src)
        if node is None:
            return
        if dst in self._nodes:
            del self._nodes[dst]
        self._nodes[dst] = node
        self.aliases += 1
        while len(self._nodes) > self.max_nodes:
            del self._nodes[next(iter(self._nodes))]

    def __len__(self) -> int:
        return len(self._nodes)


def capture_hooks(
    constraints: ConstraintSet,
    seed: int,
    scheduler: PIRScheduler,
    tree: PrefixTree,
) -> Tuple[Iterable[int], Callable[[Machine], None]]:
    """``(snapshot_depths, on_snapshot)`` for one live attempt.

    Passed to :meth:`Machine.run`, they snapshot the attempt's state as
    it passes each ladder depth — observation only, so the attempt's
    outcome is untouched.  Snapshots that cannot be taken cleanly (the
    machine already failed or diverged at the depth) are skipped.
    """

    def on_snapshot(machine: Machine) -> None:
        try:
            try:
                # pickle blobs: cheap to capture, each restore unpickles
                # its own fresh copy
                rung = Rung(
                    machine.capture_state(serialize=True),
                    scheduler.capture_resume_state(serialize=True),
                    len(machine.events),
                )
            except Exception:
                # unpicklable state (e.g. closure thread bodies): the
                # deep-copy variant is slower but always works
                rung = Rung(
                    machine.capture_state(),
                    scheduler.capture_resume_state(),
                    len(machine.events),
                )
            tree.put((constraints, seed, len(machine.schedule)), rung)
        except Exception:
            pass  # unclean state at this depth; deeper rungs may still work

    return CAPTURE_DEPTHS, on_snapshot


def resume_machine(
    ctx: Any,
    constraints: ConstraintSet,
    seed: int,
    plan: ResumePlan,
    tree: PrefixTree,
) -> Optional[Tuple[Machine, PIRScheduler]]:
    """A machine fast-forwarded to the deepest warm snapshot, or None.

    ``ctx`` is an :class:`~repro.core.parallel.AttemptContext` (duck-
    typed to avoid the import cycle).  None means "run this attempt
    cold" — no snapshot of the parent is warm in this process, or the
    resume machinery failed; purity of attempts makes the fallback
    result identical.  Probes the ladder downward from the plan's depth
    so a partially-captured parent (e.g. one that itself resumed) still
    serves its shallower snapshots.
    """
    try:
        parent: ConstraintSet = constraints - {plan.flip}
        if len(parent) != len(constraints) - 1:
            return None
        rung: Optional[Rung] = None
        found = 0
        for depth in reversed(planned_depths(plan.parent_steps)):
            if depth > plan.depth:
                continue
            rung = tree._nodes.get((parent, seed, depth))
            if rung is not None:
                found = depth
                tree.get((parent, seed, depth))  # count + LRU refresh
                break
        if rung is None:
            tree.misses += 1
            return None
        # Alias the parent's rungs at or below the resume point under the
        # child's key: inside the safe prefix child and parent states are
        # identical, and the resumed run never revisits those depths — so
        # without the aliases a resumed lineage would starve its own
        # descendants of shallow snapshots.
        for depth in planned_depths(plan.parent_steps):
            if depth > found:
                break
            tree.alias((parent, seed, depth), (constraints, seed, depth))
        recorded = ctx.recorded
        scheduler = PIRScheduler(
            recorded.log,
            ctx.ordered(constraints),
            base_seed=seed,
            base_policy=ctx.base_policy,
        )
        machine = Machine(recorded.program, scheduler, recorded.config)
        machine.restore_state(rung.machine)
        scheduler.restore_resume_state(rung.scheduler)
        tree.resumes += 1
        return machine, scheduler
    except Exception:
        tree.fallbacks += 1
        return None


def attempt_rungs(
    tree: PrefixTree, constraints: ConstraintSet, seed: int, steps: int
) -> Tuple[Rung, ...]:
    """The rungs ``tree`` holds for one attempt of ``steps`` steps,
    shallowest first.

    Both the rungs the attempt captured live and the ones it aliased
    from its parent when it resumed.  A lookup for mining, not a resume:
    it neither counts hits nor refreshes LRU order, so it cannot change
    which snapshots later attempts find.
    """
    nodes = tree._nodes
    rungs = []
    for depth in planned_depths(steps):
        rung = nodes.get((constraints, seed, depth))
        if rung is not None:
            rungs.append(rung)
    return tuple(rungs)
