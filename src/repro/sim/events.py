"""Executed-event records.

An :class:`Event` is one *completed* operation: the machine emits exactly
one per step, in global execution order.  Events carry enough to (a) feed
sketch recorders, (b) run happens-before race analysis offline, and (c)
check replay fidelity (values included).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.sim.ops import Address, Op, OpKind, slot_setters


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """One executed operation in the global order.

    :param gidx: global index (position in the trace).
    :param tid: thread that executed the operation.
    :param kind: operation kind.
    :param addr: memory address, for memory kinds.
    :param obj: synchronization object name / joined tid, for sync kinds.
    :param name: syscall or function name.
    :param label: basic-block label.
    :param args: syscall arguments (needed to pair channel sends/recvs and
        to check replay conformance of SYS-level sketches).
    :param value: observed value — the loaded value for READ, stored value
        for WRITE, result for RMW/CAS/SYSCALL, spawned tid for SPAWN.
    :param cpu: CPU the thread is pinned on.
    """

    gidx: int
    tid: int
    kind: OpKind
    addr: Optional[Address] = None
    obj: Any = None
    name: Optional[str] = None
    label: Optional[str] = None
    args: Tuple[Any, ...] = ()
    value: Any = None
    cpu: int = 0

    def __init__(
        self,
        gidx: int,
        tid: int,
        kind: OpKind,
        addr: Optional[Address] = None,
        obj: Any = None,
        name: Optional[str] = None,
        label: Optional[str] = None,
        args: Tuple[Any, ...] = (),
        value: Any = None,
        cpu: int = 0,
    ) -> None:
        # Slot-descriptor setters, as in :class:`~repro.sim.ops.Op`: the
        # machine builds one event per step.
        (set_gidx, set_tid, set_kind, set_addr, set_obj, set_name,
         set_label, set_args, set_value, set_cpu) = _EVENT_SETTERS
        set_gidx(self, gidx)
        set_tid(self, tid)
        set_kind(self, kind)
        set_addr(self, addr)
        set_obj(self, obj)
        set_name(self, name)
        set_label(self, label)
        set_args(self, args)
        set_value(self, value)
        set_cpu(self, cpu)

    @classmethod
    def from_op(
        cls, gidx: int, tid: int, cpu: int, op: Op, value: Any = None
    ) -> "Event":
        kind = op.kind
        return cls(
            gidx,
            tid,
            kind,
            op.addr,
            op.obj,
            op.name,
            op.label,
            op.args if kind is OpKind.SYSCALL else (),
            value,
            cpu,
        )

    def signature(self) -> Tuple[Any, ...]:
        """Identity of *what* executed, excluding position and value.

        Two events with equal signatures are "the same program action";
        sketch conformance compares signatures, not values, because a
        diverged value is a symptom the monitor handles separately.
        """
        return (self.tid, self.kind, self.addr, self.obj, self.name, self.label)

    def describe(self) -> str:
        parts = [f"#{self.gidx}", f"T{self.tid}", self.kind.value]
        if self.addr is not None:
            parts.append(repr(self.addr))
        if self.obj is not None:
            parts.append(repr(self.obj))
        if self.name is not None:
            parts.append(self.name)
        if self.label is not None:
            parts.append(self.label)
        return " ".join(parts)


_EVENT_SETTERS = slot_setters(Event)
