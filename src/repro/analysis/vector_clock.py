"""Vector clocks over dynamically created threads.

A :class:`VectorClock` maps thread ids to logical timestamps; missing
entries are zero, so clocks over a growing thread population compose
without pre-declaring the population.  Instances are immutable — every
operation returns a new clock — which keeps sharing safe when the same
clock is stored on many events.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple


class VectorClock:
    """An immutable vector clock."""

    __slots__ = ("_clocks",)

    def __init__(self, clocks: Mapping[int, int] | None = None) -> None:
        self._clocks: Dict[int, int] = {
            tid: ts for tid, ts in (clocks or {}).items() if ts > 0
        }

    def get(self, tid: int) -> int:
        return self._clocks.get(tid, 0)

    @classmethod
    def _trusted(cls, clocks: Dict[int, int]) -> "VectorClock":
        """Wrap a dict already known to hold only positive entries."""
        vc = cls.__new__(cls)
        vc._clocks = clocks
        return vc

    def tick(self, tid: int) -> "VectorClock":
        """Advance one component (a thread performing a step)."""
        clocks = dict(self._clocks)
        clocks[tid] = clocks.get(tid, 0) + 1
        return VectorClock._trusted(clocks)

    def join(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum — acquiring another clock's knowledge."""
        clocks = dict(self._clocks)
        for tid, ts in other._clocks.items():
            if ts > clocks.get(tid, 0):
                clocks[tid] = ts
        return VectorClock._trusted(clocks)

    def happens_before(self, other: "VectorClock") -> bool:
        """Strict: self <= other pointwise, and self != other."""
        return self.leq(other) and self._clocks != other._clocks

    def leq(self, other: "VectorClock") -> bool:
        """Pointwise less-or-equal."""
        return all(ts <= other.get(tid) for tid, ts in self._clocks.items())

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Neither clock precedes the other."""
        return not self.leq(other) and not other.leq(self)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._clocks.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._clocks == other._clocks

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._clocks.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"T{tid}:{ts}" for tid, ts in sorted(self._clocks.items()))
        return f"VC({inner})"

    @staticmethod
    def zero() -> "VectorClock":
        return _ZERO


_ZERO = VectorClock()
