"""Unit tests for the operation vocabulary and ThreadContext constructors."""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.sim.ops import (
    BLOCKING_KINDS,
    MEMORY_KINDS,
    SYNC_KINDS,
    WRITE_KINDS,
    Op,
    OpKind,
)
from repro.sim.program import ThreadContext


@pytest.fixture
def ctx():
    return ThreadContext(tid=1)


class TestKindSets:
    def test_writes_are_memory_accesses(self):
        assert WRITE_KINDS <= MEMORY_KINDS

    def test_read_is_memory_but_not_write(self):
        assert OpKind.READ in MEMORY_KINDS
        assert OpKind.READ not in WRITE_KINDS

    def test_free_counts_as_write(self):
        assert OpKind.FREE in WRITE_KINDS

    def test_thread_lifecycle_is_sync(self):
        assert OpKind.SPAWN in SYNC_KINDS
        assert OpKind.JOIN in SYNC_KINDS

    def test_markers_are_not_sync(self):
        assert OpKind.BASIC_BLOCK not in SYNC_KINDS
        assert OpKind.FUNC_ENTER not in SYNC_KINDS

    def test_blocking_kinds_include_lock_and_join(self):
        assert OpKind.LOCK in BLOCKING_KINDS
        assert OpKind.JOIN in BLOCKING_KINDS
        assert OpKind.UNLOCK not in BLOCKING_KINDS


class TestOpPredicates:
    def test_read_predicates(self, ctx):
        op = ctx.read("x")
        assert op.is_memory_access()
        assert not op.is_write()
        assert not op.is_sync()

    def test_write_predicates(self, ctx):
        op = ctx.write("x", 1)
        assert op.is_memory_access() and op.is_write()

    def test_lock_predicates(self, ctx):
        op = ctx.lock("m")
        assert op.is_sync() and not op.is_memory_access()


class TestContextConstructors:
    def test_read(self, ctx):
        op = ctx.read("x")
        assert op.kind is OpKind.READ and op.addr == "x"

    def test_write_carries_value(self, ctx):
        op = ctx.write(("a", 1), 42)
        assert op.kind is OpKind.WRITE and op.value == 42

    def test_cas_packs_expected_and_new(self, ctx):
        op = ctx.cas("x", 1, 2)
        assert op.value == (1, 2)

    def test_wait_packs_cond_and_lock(self, ctx):
        op = ctx.wait("cv", "m")
        assert op.kind is OpKind.COND_WAIT and op.obj == ("cv", "m")

    def test_spawn_records_body_name(self, ctx):
        def body(c):
            yield c.local()

        op = ctx.spawn(body, 1, 2)
        assert op.kind is OpKind.SPAWN
        assert op.func is body
        assert op.args == (1, 2)
        assert op.name == "body"

    def test_syscall(self, ctx):
        op = ctx.syscall("send", "ch", "msg")
        assert op.kind is OpKind.SYSCALL
        assert op.name == "send" and op.args == ("ch", "msg")

    def test_output_is_stdout_syscall(self, ctx):
        op = ctx.output("v")
        assert op.kind is OpKind.SYSCALL and op.name == "write_stdout"

    def test_rand_and_now_and_sleep_are_syscalls(self, ctx):
        assert ctx.rand(5).name == "rand"
        assert ctx.now().name == "now"
        assert ctx.sleep(3).name == "sleep"

    def test_check_coerces_to_bool(self, ctx):
        op = ctx.check([], "empty is falsy")
        assert op.kind is OpKind.ASSERT and op.value is False
        assert ctx.check([1], "truthy").value is True

    def test_bb_has_zero_cost(self, ctx):
        assert ctx.bb("loop").cost == 0

    def test_work_emits_n_quanta(self, ctx):
        ops = list(ctx.work(3, cost=2))
        assert len(ops) == 3
        assert all(op.kind is OpKind.LOCAL and op.cost == 2 for op in ops)

    def test_work_zero_is_empty(self, ctx):
        assert list(ctx.work(0)) == []

    def test_free_region_yields_cells_then_region(self, ctx):
        ops = list(ctx.free_region("buf", [0, 1]))
        assert [op.addr for op in ops] == [("buf", 0), ("buf", 1), "buf"]
        assert all(op.kind is OpKind.FREE for op in ops)


class TestDescribe:
    @pytest.mark.parametrize(
        "op_factory, fragment",
        [
            (lambda c: c.read("x"), "read('x')"),
            (lambda c: c.lock("m"), "lock('m')"),
            (lambda c: c.syscall("send", "ch"), "syscall send"),
            (lambda c: c.bb("L1"), "bb(L1)"),
            (lambda c: c.check(True, "inv"), "assert(inv)"),
        ],
    )
    def test_describe_is_informative(self, ctx, op_factory, fragment):
        assert fragment in op_factory(ctx).describe()

    def test_op_is_frozen(self, ctx):
        op = ctx.read("x")
        with pytest.raises(Exception):
            op.addr = "y"


# -- value semantics ----------------------------------------------------------
#
# Ops are shared, hashed into dict keys, pickled into pool tasks and
# snapshots, and deep-copied by snapshots.  These tests pin the contract for
# every ThreadContext builder, whatever the class's storage layout.

OP_FIELDS = [
    "kind", "addr", "value", "obj", "name", "args", "func", "label", "msg",
    "cost",
]
OP_DEFAULTS = {name: None for name in OP_FIELDS}
OP_DEFAULTS.update(args=(), cost=1)


def _increment(value):
    return value + 1


def _child(ctx, *args):
    yield ctx.local()


def _helper(ctx):
    yield ctx.local()
    return 3


#: (builder id, ThreadContext call, expected non-default fields per op)
BUILDERS = [
    ("read", lambda c: c.read("x", cost=2),
     [dict(kind=OpKind.READ, addr="x", cost=2)]),
    ("write", lambda c: c.write(("a", 1), 42),
     [dict(kind=OpKind.WRITE, addr=("a", 1), value=42)]),
    ("rmw", lambda c: c.rmw("n", _increment),
     [dict(kind=OpKind.RMW, addr="n", value=_increment, cost=2)]),
    ("cas", lambda c: c.cas("x", 1, 2),
     [dict(kind=OpKind.CAS, addr="x", value=(1, 2), cost=2)]),
    ("free", lambda c: c.free(("buf", 0)),
     [dict(kind=OpKind.FREE, addr=("buf", 0))]),
    ("lock", lambda c: c.lock("m"), [dict(kind=OpKind.LOCK, obj="m")]),
    ("trylock", lambda c: c.trylock("m"),
     [dict(kind=OpKind.TRYLOCK, obj="m")]),
    ("unlock", lambda c: c.unlock("m"), [dict(kind=OpKind.UNLOCK, obj="m")]),
    ("rdlock", lambda c: c.rdlock("rw"), [dict(kind=OpKind.RDLOCK, obj="rw")]),
    ("wrlock", lambda c: c.wrlock("rw"), [dict(kind=OpKind.WRLOCK, obj="rw")]),
    ("rwunlock", lambda c: c.rwunlock("rw"),
     [dict(kind=OpKind.RWUNLOCK, obj="rw")]),
    ("wait", lambda c: c.wait("cv", "m"),
     [dict(kind=OpKind.COND_WAIT, obj=("cv", "m"))]),
    ("signal", lambda c: c.signal("cv"),
     [dict(kind=OpKind.COND_SIGNAL, obj="cv")]),
    ("broadcast", lambda c: c.broadcast("cv"),
     [dict(kind=OpKind.COND_BROADCAST, obj="cv")]),
    ("sem_acquire", lambda c: c.sem_acquire("s"),
     [dict(kind=OpKind.SEM_ACQUIRE, obj="s")]),
    ("sem_release", lambda c: c.sem_release("s"),
     [dict(kind=OpKind.SEM_RELEASE, obj="s")]),
    ("barrier", lambda c: c.barrier("b"),
     [dict(kind=OpKind.BARRIER_WAIT, obj="b")]),
    ("spawn", lambda c: c.spawn(_child, 1, 2),
     [dict(kind=OpKind.SPAWN, func=_child, args=(1, 2), name="_child")]),
    ("join", lambda c: c.join(3), [dict(kind=OpKind.JOIN, obj=3)]),
    ("syscall", lambda c: c.syscall("send", "ch", 7),
     [dict(kind=OpKind.SYSCALL, name="send", args=("ch", 7))]),
    ("output", lambda c: c.output("v"),
     [dict(kind=OpKind.SYSCALL, name="write_stdout", args=("v",))]),
    ("rand", lambda c: c.rand(5),
     [dict(kind=OpKind.SYSCALL, name="rand", args=(5,))]),
    ("now", lambda c: c.now(), [dict(kind=OpKind.SYSCALL, name="now")]),
    ("sleep", lambda c: c.sleep(3),
     [dict(kind=OpKind.SYSCALL, name="sleep", args=(3,))]),
    ("epoch_barrier", lambda c: c.epoch_barrier(),
     [dict(kind=OpKind.SYSCALL, name="epoch_barrier")]),
    ("bb", lambda c: c.bb("L1"),
     [dict(kind=OpKind.BASIC_BLOCK, label="L1", cost=0)]),
    ("call", lambda c: list(c.call(_helper)),
     [dict(kind=OpKind.FUNC_ENTER, name="_helper", cost=0),
      dict(kind=OpKind.LOCAL),
      dict(kind=OpKind.FUNC_EXIT, name="_helper", cost=0)]),
    ("local", lambda c: c.local(4), [dict(kind=OpKind.LOCAL, cost=4)]),
    ("work", lambda c: list(c.work(2, cost=3)),
     [dict(kind=OpKind.LOCAL, cost=3)] * 2),
    ("cpu_yield", lambda c: c.cpu_yield(),
     [dict(kind=OpKind.YIELD, cost=0)]),
    ("check", lambda c: c.check(0, "inv"),
     [dict(kind=OpKind.ASSERT, value=False, msg="inv", cost=0)]),
    ("free_region", lambda c: list(c.free_region("buf", [0])),
     [dict(kind=OpKind.FREE, addr=("buf", 0)),
      dict(kind=OpKind.FREE, addr="buf")]),
]


def built_ops(build):
    made = build(ThreadContext(tid=1))
    return made if isinstance(made, list) else [made]


def _field_values(obj, names):
    return {name: getattr(obj, name) for name in names}


@pytest.mark.parametrize(
    "build, expected", [b[1:] for b in BUILDERS], ids=[b[0] for b in BUILDERS]
)
class TestOpValueSemantics:
    def test_field_values(self, build, expected):
        ops = built_ops(build)
        assert len(ops) == len(expected)
        for op, want in zip(ops, expected):
            assert _field_values(op, OP_FIELDS) == {**OP_DEFAULTS, **want}

    def test_equal_and_hash_equal_when_rebuilt(self, build, expected):
        for op, again in zip(built_ops(build), built_ops(build)):
            assert op == again and hash(op) == hash(again)
            assert op == Op(**_field_values(op, OP_FIELDS))
            assert op != replace(op, cost=op.cost + 1)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, build, expected, protocol):
        for op in built_ops(build):
            back = pickle.loads(pickle.dumps(op, protocol=protocol))
            assert back == op and hash(back) == hash(op)
            assert repr(back) == repr(op)
            assert back.func is op.func

    def test_deepcopy(self, build, expected):
        for op in built_ops(build):
            clone = copy.deepcopy(op)
            assert clone == op and repr(clone) == repr(op)
            assert clone.func is op.func

    def test_assignment_raises(self, build, expected):
        for op in built_ops(build):
            for name in OP_FIELDS:
                with pytest.raises(FrozenInstanceError):
                    setattr(op, name, 0)
                with pytest.raises(FrozenInstanceError):
                    delattr(op, name)


class TestOpIdentity:
    def test_field_order(self):
        assert [f.name for f in fields(Op)] == OP_FIELDS

    def test_func_is_excluded_from_eq_and_hash(self):
        a = Op(OpKind.SPAWN, func=_child, args=(1,), name="w")
        b = Op(OpKind.SPAWN, func=_helper, args=(1,), name="w")
        assert a == b and hash(a) == hash(b)

    def test_defaults_match_the_positional_signature(self):
        assert Op(OpKind.LOCAL) == Op(
            OpKind.LOCAL, None, None, None, None, (), None, None, None, 1
        )

    @pytest.mark.parametrize(
        "op, golden",
        [
            (Op(OpKind.READ, addr="x"),
             "Op(kind=<OpKind.READ: 'read'>, addr='x', value=None, obj=None, "
             "name=None, args=(), func=None, label=None, msg=None, cost=1)"),
            (Op(OpKind.COND_WAIT, obj=("cv", "m")),
             "Op(kind=<OpKind.COND_WAIT: 'cond_wait'>, addr=None, value=None, "
             "obj=('cv', 'm'), name=None, args=(), func=None, label=None, "
             "msg=None, cost=1)"),
            (Op(OpKind.SYSCALL, name="send", args=("ch", 7)),
             "Op(kind=<OpKind.SYSCALL: 'syscall'>, addr=None, value=None, "
             "obj=None, name='send', args=('ch', 7), func=None, label=None, "
             "msg=None, cost=1)"),
        ],
    )
    def test_repr_golden(self, op, golden):
        assert repr(op) == golden
