"""Gate footprints: proving a constraint never bound an attempt.

An attempt ``(C, seed)`` is a pure function of its constraint set and
base seed, and constraints act in exactly one place: the PIR pick, where
a constraint ``x`` removes a thread from the *allowed* set while
``x.before`` has not executed and the thread's pending op is
``x.after``.  Suppose ``R = C - {x}`` has already run, and in R's run
``x.after`` was never allowed before ``x.before`` executed.  Then, by
induction over the picks of ``(C, seed)``:

* up to pick ``k`` the two runs executed the same events, so their
  occurrence counts, sketch cursors and RNG states agree;
* at pick ``k`` the allowed set of C is R's minus the threads ``x``
  blocks.  ``x`` can only block a thread R allowed whose pending op is
  ``x.after``, and only while ``x.before`` is unexecuted — which R's
  footprint rules out.  So the allowed sets agree, the chooser draws the
  same thread, and step ``k`` executes the same event.

Every pick, RNG draw, event, divergence message and step count of
``(C, seed)`` therefore equals that of ``(R, seed)``: the exploration
engine answers C from R's outcome without running it (see
:meth:`~repro.core.parallel.ParallelExplorer._equivalent`).

A :class:`GateFootprint` records what the rule needs from one run, for
the ``mem`` and ``lock`` ref families only (``region`` refs come from
static plans and never qualify), per family and ``(tid, key)``:

* ``allowed`` — the first step at which each occurrence's op was pending
  on a thread in the allowed set of a pick that returned; ``NEVER``
  pads occurrences that never were.  The PIR scheduler notes each
  allowed op in its gate's
  :class:`~repro.core.constraints.OccurrenceCounter`, whose prefix
  snapshots carry it.
* ``executed`` — the step at which each occurrence executed, as far as
  the gate observed it: the counter keeps these lists to count
  occurrences anyway.  An event executed after the last pick is
  missing, which changes no verdict: no pick saw it executed.

Steps count executed events, so "``before`` executed before the pick at
step ``s``" reads ``executed < s``.  The engine keeps one footprint per
folded attempt for the whole session, so it packs each into a
:class:`PackedFootprint` against one shared stream-id table first.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.constraints import (
    NEVER,
    EventRef,
    OccurrenceCounter,
    OrderConstraint,
)

#: ref families a footprint covers
FAMILIES = ("mem", "lock")

#: family -> ``(tid, key)`` -> one step per occurrence
Steps = Dict[str, Dict[Tuple[int, Any], List[int]]]


class GateFootprint:
    """First-allowed and executed steps of one finished run's mem/lock
    refs, as its gate's counter recorded them."""

    __slots__ = ("allowed", "executed")

    def __init__(self, allowed: Steps, executed: Steps) -> None:
        self.allowed = allowed
        self.executed = executed

    @classmethod
    def of(cls, counter: OccurrenceCounter) -> "GateFootprint":
        """The footprint a run's gate counter holds once the run ended."""
        return cls(counter.allowed_steps(), counter.executed_steps())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GateFootprint):
            return NotImplemented
        return self.allowed == other.allowed and self.executed == other.executed

    __hash__ = None  # type: ignore[assignment]

    def pack(self, streams: Dict[Tuple, int]) -> "PackedFootprint":
        """This footprint in the compact form the engine keeps.

        ``streams`` is the engine's stream-id table, extended here with
        any ``(family, (tid, key))`` it has not seen; every footprint
        packed against one table shares it.
        """
        return PackedFootprint(self, streams)


_NO_STEPS = array("i")


class PackedFootprint:
    """A finished :class:`GateFootprint` in three ``array`` columns, and
    the skip rule over it.

    Stream ``ids[i]`` owns ``steps[starts[i]:starts[i + 1]]``, which
    holds its allowed-step count, then its allowed steps, then its
    executed steps.  About a tenth of the dict form's size, which
    matters because the engine holds one footprint per folded attempt
    for the whole session.
    """

    __slots__ = ("_streams", "_ids", "_starts", "_steps")

    def __init__(self, footprint: GateFootprint, streams: Dict[Tuple, int]) -> None:
        self._streams = streams
        ids: List[int] = []
        starts: List[int] = []
        steps: List[int] = []
        for family in FAMILIES:
            allowed = footprint.allowed[family]
            executed = footprint.executed[family]
            for key in allowed.keys() | executed.keys():
                first = allowed.get(key, ())
                ids.append(streams.setdefault((family, key), len(streams)))
                starts.append(len(steps))
                steps.append(len(first))
                steps.extend(first)
                steps.extend(executed.get(key, ()))
        starts.append(len(steps))
        self._ids = array("i", ids)
        self._starts = array("i", starts)
        self._steps = array("i", steps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedFootprint):
            return NotImplemented
        return self._streams is other._streams and all(
            self._run(ident, executed) == other._run(ident, executed)
            for ident in set(self._ids) | set(other._ids)
            for executed in (False, True)
        )

    __hash__ = None  # type: ignore[assignment]

    def pack(self, streams: Dict[Tuple, int]) -> "PackedFootprint":
        """Already packed (against ``streams``)."""
        return self

    def _run(self, ident: int, executed: bool) -> Sequence[int]:
        """Stream ``ident``'s executed or allowed steps."""
        try:
            position = self._ids.index(ident)
        except ValueError:
            return _NO_STEPS
        start, end = self._starts[position], self._starts[position + 1]
        split = start + 1 + self._steps[start]
        if executed:
            return self._steps[split:end]
        return self._steps[start + 1:split]

    def _step(self, ref: EventRef, executed: bool) -> int:
        ident = self._streams.get((ref.family, (ref.tid, ref.key)))
        if ident is None:
            return NEVER
        steps = self._run(ident, executed)
        index = ref.occurrence - 1
        return steps[index] if index < len(steps) else NEVER

    def never_blocks(self, constraint: OrderConstraint) -> bool:
        """Whether adding ``constraint`` to this run's constraint set
        provably changes no pick: its ``after`` op was never allowed
        before its ``before`` op executed."""
        before, after = constraint.before, constraint.after
        if before.family not in FAMILIES or after.family not in FAMILIES:
            return False
        allowed = self._step(after, executed=False)
        if allowed == NEVER:
            return True
        executed = self._step(before, executed=True)
        return executed != NEVER and executed < allowed
