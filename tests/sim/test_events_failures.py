"""Unit tests for Event records and the failure taxonomy."""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields

import pytest

from repro.sim.events import Event
from repro.sim.failures import Failure, FailureKind
from repro.sim.ops import Op, OpKind

from tests.sim.test_ops import BUILDERS, built_ops

EVENT_FIELDS = [
    "gidx", "tid", "kind", "addr", "obj", "name", "label", "args", "value",
    "cpu",
]


class TestEvent:
    def test_from_op_copies_fields(self):
        op = Op(OpKind.WRITE, addr="x", value=5)
        event = Event.from_op(3, tid=1, cpu=2, op=op, value=5)
        assert event.gidx == 3
        assert event.tid == 1
        assert event.cpu == 2
        assert event.kind is OpKind.WRITE
        assert event.addr == "x"
        assert event.value == 5

    def test_syscall_args_preserved(self):
        op = Op(OpKind.SYSCALL, name="send", args=("ch", "m"))
        event = Event.from_op(0, 1, 0, op, value=None)
        assert event.args == ("ch", "m")

    def test_non_syscall_args_dropped(self):
        op = Op(OpKind.SPAWN, func=None, args=(1, 2), name="w")
        event = Event.from_op(0, 1, 0, op, value=7)
        assert event.args == ()

    def test_signature_excludes_position_and_value(self):
        op = Op(OpKind.READ, addr="x")
        a = Event.from_op(1, 2, 0, op, value=10)
        b = Event.from_op(99, 2, 3, op, value=20)
        assert a.signature() == b.signature()

    def test_signature_distinguishes_threads(self):
        op = Op(OpKind.READ, addr="x")
        assert (
            Event.from_op(0, 1, 0, op).signature()
            != Event.from_op(0, 2, 0, op).signature()
        )

    def test_signature_distinguishes_addresses(self):
        a = Event.from_op(0, 1, 0, Op(OpKind.READ, addr="x"))
        b = Event.from_op(0, 1, 0, Op(OpKind.READ, addr="y"))
        assert a.signature() != b.signature()

    def test_describe_mentions_thread_and_kind(self):
        event = Event.from_op(7, 3, 0, Op(OpKind.LOCK, obj="m"))
        text = event.describe()
        assert "T3" in text and "lock" in text and "#7" in text


def events_of(build):
    return [
        Event.from_op(gidx, 2, 1, op, value=("v", gidx))
        for gidx, op in enumerate(built_ops(build))
    ]


@pytest.mark.parametrize(
    "build", [b[1] for b in BUILDERS], ids=[b[0] for b in BUILDERS]
)
class TestEventValueSemantics:
    def test_from_op_field_values(self, build):
        for gidx, (op, event) in enumerate(
            zip(built_ops(build), events_of(build))
        ):
            assert {f: getattr(event, f) for f in EVENT_FIELDS} == {
                "gidx": gidx,
                "tid": 2,
                "kind": op.kind,
                "addr": op.addr,
                "obj": op.obj,
                "name": op.name,
                "label": op.label,
                "args": op.args if op.kind is OpKind.SYSCALL else (),
                "value": ("v", gidx),
                "cpu": 1,
            }

    def test_equal_and_hash_equal_when_rebuilt(self, build):
        for event, again in zip(events_of(build), events_of(build)):
            assert event == again and hash(event) == hash(again)
            assert event == Event(**{f: getattr(event, f) for f in EVENT_FIELDS})
            assert event != Event.from_op(
                event.gidx + 1, event.tid, event.cpu, built_ops(build)[0]
            )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, build, protocol):
        for event in events_of(build):
            back = pickle.loads(pickle.dumps(event, protocol=protocol))
            assert back == event and hash(back) == hash(event)
            assert repr(back) == repr(event)

    def test_deepcopy(self, build):
        for event in events_of(build):
            clone = copy.deepcopy(event)
            assert clone == event and repr(clone) == repr(event)

    def test_assignment_raises(self, build):
        for event in events_of(build):
            for name in EVENT_FIELDS:
                with pytest.raises(FrozenInstanceError):
                    setattr(event, name, 0)
                with pytest.raises(FrozenInstanceError):
                    delattr(event, name)


class TestEventIdentity:
    def test_field_order(self):
        assert [f.name for f in fields(Event)] == EVENT_FIELDS

    def test_keyword_and_positional_construction_agree(self):
        assert Event(4, 1, OpKind.READ, "x", value=9) == Event(
            gidx=4, tid=1, kind=OpKind.READ, addr="x", obj=None, name=None,
            label=None, args=(), value=9, cpu=0,
        )

    @pytest.mark.parametrize(
        "event, golden",
        [
            (Event.from_op(3, 1, 0, Op(OpKind.SYSCALL, name="send",
                                       args=("c", 7))),
             "Event(gidx=3, tid=1, kind=<OpKind.SYSCALL: 'syscall'>, "
             "addr=None, obj=None, name='send', label=None, args=('c', 7), "
             "value=None, cpu=0)"),
            (Event.from_op(0, 2, 1, Op(OpKind.WRITE, addr=("a", 1), value=5),
                           value=5),
             "Event(gidx=0, tid=2, kind=<OpKind.WRITE: 'write'>, "
             "addr=('a', 1), obj=None, name=None, label=None, args=(), "
             "value=5, cpu=1)"),
            (Event.from_op(7, 0, 3, Op(OpKind.COND_WAIT, obj=("cv", "m"))),
             "Event(gidx=7, tid=0, kind=<OpKind.COND_WAIT: 'cond_wait'>, "
             "addr=None, obj=('cv', 'm'), name=None, label=None, args=(), "
             "value=None, cpu=3)"),
        ],
    )
    def test_repr_golden(self, event, golden):
        assert repr(event) == golden


class TestFailure:
    def test_signature_is_kind_and_where(self):
        f = Failure(FailureKind.ASSERTION, where="invariant broken", tid=2, gidx=9)
        assert f.signature() == ("assertion", "invariant broken")

    def test_matches_same_bug_different_position(self):
        a = Failure(FailureKind.ASSERTION, where="x", gidx=10)
        b = Failure(FailureKind.ASSERTION, where="x", gidx=99, tid=5)
        assert a.matches(b) and b.matches(a)

    def test_different_where_does_not_match(self):
        a = Failure(FailureKind.ASSERTION, where="x")
        b = Failure(FailureKind.ASSERTION, where="y")
        assert not a.matches(b)

    def test_different_kind_does_not_match(self):
        a = Failure(FailureKind.ASSERTION, where="x")
        b = Failure(FailureKind.CRASH, where="x")
        assert not a.matches(b)

    def test_hang_and_timeout_are_interchangeable(self):
        hang = Failure(FailureKind.HANG, where="no runnable thread")
        timeout = Failure(FailureKind.TIMEOUT, where="step budget exhausted")
        assert hang.matches(timeout) and timeout.matches(hang)

    def test_deadlock_matches_on_cycle_resources(self):
        a = Failure(FailureKind.DEADLOCK, where="cycle:A,B")
        b = Failure(FailureKind.DEADLOCK, where="cycle:A,B", involved_tids=(1, 2))
        c = Failure(FailureKind.DEADLOCK, where="cycle:A,C")
        assert a.matches(b)
        assert not a.matches(c)

    def test_describe_includes_location(self):
        f = Failure(FailureKind.CRASH, where="boom", tid=4, gidx=17, detail="ouch")
        text = f.describe()
        assert "crash" in text and "T4" in text and "17" in text and "ouch" in text
