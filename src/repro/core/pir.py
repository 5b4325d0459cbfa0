"""PIR: the Partial-Information Replay scheduler.

One replay attempt = one machine run under a :class:`PIRScheduler`, which
enforces three things at every step:

1. **Sketch order** (via :class:`SketchCursor`): the i-th sketch-visible
   event of the attempt must match the i-th recorded entry.  A thread
   whose pending op is sketch-visible but out of turn simply waits; a
   thread that is *in* turn but about to do something *different* than the
   recorded entry proves the attempt has diverged, and the attempt is
   aborted immediately (failing fast is a large chunk of PRES's replay
   efficiency).
2. **Flip constraints** (via :class:`~repro.core.constraints.
   ConstraintGate`): ordering edges injected by feedback generation.
3. **Base policy** for everything still unconstrained: a seeded RNG, so an
   attempt is a pure function of (sketch, constraints, base seed).

If no thread can be scheduled while unfinished threads remain *because of
the gates* (the machine itself had runnable threads), the attempt is stuck
— also a divergence.  Genuine program deadlocks (no machine-runnable
threads at all) are left to the machine, which records them as failures;
those are legitimate reproductions when the recorded bug *is* a deadlock.
"""

from __future__ import annotations

import copy
import enum
import pickle
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import (
    MEM_OR_LOCK_KINDS,
    ConstraintGate,
    OrderConstraint,
)
from repro.core.sketches import SketchKind, entry_for_op, visible_kinds
from repro.core.sketchlog import SketchLog
from repro.errors import ReplayDivergence
from repro.sim.machine import Machine
from repro.sim.ops import Op
from repro.sim.scheduler import Scheduler


class Gate(enum.Enum):
    """Verdict of a gate for one (thread, pending op)."""

    FREE = "free"  # not governed by this gate
    ALLOWED = "allowed"  # governed and it is this op's turn
    BLOCKED = "blocked"  # governed, not its turn yet


class SketchCursor:
    """Walks the recorded sketch log during one attempt."""

    def __init__(self, log: SketchLog) -> None:
        self.sketch: SketchKind = log.sketch
        self.entries = log.entries
        self.position = 0
        #: op kinds this sketch records; the scheduler tests every
        #: pending and executed op against it, and a frozenset membership
        #: test beats re-deriving visibility per op.
        self.visible = visible_kinds(log.sketch)

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.entries)

    def gate(self, tid: int, op: Op) -> Gate:
        """Classify a pending op against the next expected entry.

        Raises :class:`ReplayDivergence` when the expected thread's next
        visible action provably differs from the recorded one.
        """
        if op.kind not in self.visible:
            return Gate.FREE
        if self.exhausted:
            # Past the recorded horizon (the production run ended here,
            # e.g. at its failure); the remainder is unconstrained.
            return Gate.FREE
        expected = self.entries[self.position]
        if tid != expected.tid:
            return Gate.BLOCKED
        if expected.matches_op(tid, op):
            return Gate.ALLOWED
        raise ReplayDivergence(
            f"thread {tid} is due to produce sketch entry "
            f"[{expected.describe()}] but its next visible op is "
            f"{entry_for_op(tid, op).describe()}",
            step=self.position,
        )


class BaseChooser:
    """Policy for the genuinely unconstrained choices within an attempt."""

    def restart(self) -> None:
        raise NotImplementedError

    def choose(self, allowed: List[int]) -> int:
        raise NotImplementedError


class RandomChooser(BaseChooser):
    """Uniform random over the allowed set (the default)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def restart(self) -> None:
        self._rng = random.Random(self.seed)

    def choose(self, allowed: List[int]) -> int:
        return allowed[self._rng.randrange(len(allowed))]


class PCTChooser(BaseChooser):
    """PCT-style priorities over the allowed set.

    Used by the exploration-strategy ablation: a sketch-respecting PCT
    replayer that concentrates probability on few-ordering-point bugs
    without any feedback.
    """

    def __init__(self, seed: int, depth: int = 3, max_steps_hint: int = 1000):
        self.seed = seed
        self.depth = depth
        self.max_steps_hint = max_steps_hint
        self._rng = random.Random(seed)
        self._priorities: dict = {}
        self._change_points: set = set()
        self._steps = 0

    def restart(self) -> None:
        self._rng = random.Random(self.seed)
        self._priorities = {}
        self._steps = 0
        self._change_points = {
            self._rng.randrange(self.max_steps_hint)
            for _ in range(max(0, self.depth - 1))
        }

    def _priority_of(self, tid: int) -> float:
        if tid not in self._priorities:
            self._priorities[tid] = 1.0 + self._rng.random()
        return self._priorities[tid]

    def choose(self, allowed: List[int]) -> int:
        self._steps += 1
        winner = max(allowed, key=self._priority_of)
        if self._steps in self._change_points:
            self._priorities[winner] = self._rng.random()
            winner = max(allowed, key=self._priority_of)
        return winner


def make_chooser(policy: str, seed: int) -> BaseChooser:
    """Build a chooser by name: 'random' or 'pct'."""
    if policy == "random":
        return RandomChooser(seed)
    if policy == "pct":
        return PCTChooser(seed)
    raise ValueError(f"unknown base policy {policy!r}; expected 'random' or 'pct'")


class PIRScheduler(Scheduler):
    """Scheduler enforcing sketch + constraints, randomizing the rest."""

    def __init__(
        self,
        log: SketchLog,
        constraints: Sequence[OrderConstraint] = (),
        base_seed: int = 0,
        base_policy: str = "random",
    ) -> None:
        self.log = log
        self.constraints = list(constraints)
        self.base_seed = base_seed
        self.base_policy = base_policy
        self.cursor = SketchCursor(log)
        self.gate = ConstraintGate(self.constraints)
        self._chooser = make_chooser(base_policy, base_seed)
        self._seen_events = 0
        #: per tid, the pending op last noted as allowed in the gate's
        #: counter (see :mod:`repro.core.footprint`); reset when the tid
        #: executes, so each pending op is noted once.
        self._noted: Dict[int, Optional[Op]] = {}

    def on_run_start(self, machine: Machine) -> None:
        self.cursor = SketchCursor(self.log)
        self.gate = ConstraintGate(self.constraints)
        self._chooser = make_chooser(self.base_policy, self.base_seed)
        self._chooser.restart()
        self._seen_events = 0
        self._noted = {}

    def pick(self, machine: Machine, runnable: Sequence[int]) -> int:
        self._catch_up(machine)
        cursor = self.cursor
        visible = cursor.visible
        # The expected entry is the same for every thread this step.
        expected = (
            None if cursor.exhausted else cursor.entries[cursor.position]
        )
        gated = self.gate.by_after_tid
        threads = machine.threads
        allowed: List[int] = []
        for tid in runnable:
            op = threads[tid].pending_op
            if expected is not None and op.kind in visible:
                if tid != expected.tid:
                    continue  # awaits its sketch turn
                if not expected.matches_op(tid, op):
                    cursor.gate(tid, op)  # raises ReplayDivergence
            if tid in gated and self.gate.blocks(tid, op):
                continue  # awaits an order constraint
            allowed.append(tid)
        if not allowed:
            raise ReplayDivergence(
                "no schedulable thread: "
                + ("; ".join(self._blocked_reasons(machine, runnable))
                   or "all gated"),
                step=len(machine.events),
            )
        noted = self._noted
        for tid in allowed:
            op = threads[tid].pending_op
            if noted.get(tid) is not op:
                noted[tid] = op
                if op.kind in MEM_OR_LOCK_KINDS:
                    self.gate.counter.allow(tid, op, self._seen_events)
        if len(allowed) == 1:
            return allowed[0]
        return self._chooser.choose(allowed)

    def _blocked_reasons(
        self, machine: Machine, runnable: Sequence[int]
    ) -> List[str]:
        """Why each runnable thread was held back, in ``runnable`` order.

        Only called when :meth:`pick` found nothing schedulable, so every
        runnable thread is blocked by the sketch or by a constraint.
        """
        reasons = []
        for tid in runnable:
            if self.cursor.gate(tid, machine.pending_op_of(tid)) is Gate.BLOCKED:
                reasons.append(f"T{tid} awaits its sketch turn")
            else:
                reasons.append(f"T{tid} awaits an order constraint")
        return reasons

    def _catch_up(self, machine: Machine) -> None:
        """Feed events executed since the last pick to cursor and gate."""
        events = machine.events
        noted = self._noted
        while self._seen_events < len(events):
            event = events[self._seen_events]
            self._seen_events += 1
            self.gate.observe(event)
            noted[event.tid] = None
            if self.cursor.exhausted:
                continue
            expected = self.cursor.entries[self.cursor.position]
            if event.kind in self.cursor.visible:
                if event.tid != expected.tid:
                    raise ReplayDivergence(
                        f"executed visible event {event.describe()} out of "
                        f"sketch order (expected {expected.describe()})",
                        step=event.gidx,
                    )
                self.cursor.position += 1

    # -- epoch resume ------------------------------------------------------

    def prime_restored(self, machine: Machine) -> None:
        """Initialize against a machine restored from an epoch snapshot.

        The restored machine's event list already holds the production
        prefix that was *executed inside the snapshot*; this scheduler's
        log is the epoch-local suffix, so the cursor must start at 0
        while the constraint gate's occurrence counters are primed by
        observing the prefix (constraints generated from attempt traces
        count occurrences from the start of the run, prefix included).
        Call instead of ``on_run_start`` — a resumed machine skips that
        hook.
        """
        self.cursor = SketchCursor(self.log)
        self.gate = ConstraintGate(self.constraints)
        self._chooser = make_chooser(self.base_policy, self.base_seed)
        self._chooser.restart()
        for event in machine.events:
            self.gate.observe(event)
        self._seen_events = len(machine.events)
        self._noted = {}

    # -- prefix resume -----------------------------------------------------

    def capture_resume_state(self, *, serialize: bool = False) -> Tuple[Any, ...]:
        """Scheduler state to pair with a :meth:`Machine.capture_state`
        snapshot taken at the same step.

        Everything here is constraint-independent (cursor position,
        executed and allowed occurrences, RNG/chooser state, events
        consumed): within a child's safe prefix the child's gate blocks
        nothing its parent's did not, so the two make the very same
        picks from the same allowed sets, and a parent-built snapshot
        fast-forwards a child scheduler whose gate holds a *larger*
        constraint set.

        With ``serialize=True`` the chooser travels as a pickle blob
        (cheaper to capture; every restore unpickles a fresh copy).
        """
        if serialize:
            chooser: Any = pickle.dumps(
                self._chooser, protocol=pickle.HIGHEST_PROTOCOL
            )
        else:
            chooser = copy.deepcopy(self._chooser)
        return (
            self.cursor.position,
            self.gate.counter.capture(),
            chooser,
            self._seen_events,
        )

    def restore_resume_state(self, state: Tuple[Any, ...]) -> None:
        """Fast-forward this scheduler from :meth:`capture_resume_state`.

        Call instead of ``on_run_start`` (the machine resuming from a
        snapshot skips that hook); the gate keeps *this* scheduler's
        constraints — only the execution-progress state is loaded.
        """
        position, counter_state, chooser, seen = state
        self.cursor = SketchCursor(self.log)
        self.cursor.position = position
        self.gate = ConstraintGate(self.constraints)
        self.gate.counter.restore(counter_state)
        if isinstance(chooser, bytes):
            self._chooser = pickle.loads(chooser)
        else:
            self._chooser = copy.deepcopy(chooser)
        self._seen_events = seen
        self._noted = {}

    def describe(self) -> str:
        return (
            f"PIR(sketch={self.log.sketch.value}, "
            f"constraints={len(self.constraints)}, seed={self.base_seed})"
        )
