"""Static seeding in the explorers: interleave order, metrics, invariance.

Static candidates do not form a strict tier: the :class:`Frontier`
keeps them in a FIFO lane and alternates them with mined feedback —
root first, every dynamic plan seed next, then mined/static/mined/...
These tests pin the alternation directly on the frontier, through the
engine driven by a stub ``run_attempt``, and end-to-end through
:func:`reproduce` with a real :class:`StaticPlan`.
"""

from repro.analysis.static_ import analyze_program
from repro.core.constraints import EventRef, OrderConstraint
from repro.core.explorer import ExplorerConfig, Frontier, static_candidates
from repro.core.feedback import TIER_PLAN, TIER_ROOT, TIER_STATIC, Candidate
from repro.core.recorder import record
from repro.core.reproducer import reproduce
from repro.core.sketches import SketchKind
from repro.sim.failures import Failure, FailureKind
from repro.sim.trace import Trace

from tests.analysis.test_static_analyzer import racy_counter_program
from tests.conftest import find_seed, stub_engine


def _pin(key, tid_a=1, tid_b=2, occ=1):
    return OrderConstraint(
        before=EventRef(tid_a, "mem", key, occ),
        after=EventRef(tid_b, "mem", key, occ),
    )


STATICS = (
    frozenset({_pin("s0")}),
    frozenset({_pin("s1")}),
    frozenset({_pin("s2")}),
)


def _mined(key, depth=1, anchor=0):
    return Candidate(
        constraints=frozenset({_pin(key)}),
        depth=depth,
        anchor_gidx=anchor,
    )


def _trace(failed=False):
    trace = Trace(program_name="stub", steps=5)
    if failed:
        trace.failure = Failure(FailureKind.ASSERTION, where="stub")
    return trace


class TestFrontierInterleave:
    def test_without_statics_pops_are_pure_heap_order(self):
        frontier = Frontier()
        frontier.push(Candidate(frozenset(), 0, 0, tier=TIER_ROOT), 0)
        deep = _mined("b", depth=2)
        shallow = _mined("a", depth=1)
        frontier.push(deep, 0)
        frontier.push(shallow, 0)
        order = [frontier.pop()[0] for _ in range(3)]
        assert order == [
            frozenset(), shallow.constraints, deep.constraints
        ]

    def test_statics_alternate_with_mined(self):
        frontier = Frontier()
        for candidate in static_candidates(STATICS):
            frontier.push(candidate, 0)
        mined = [_mined(k) for k in ("m0", "m1", "m2", "m3")]
        for candidate in mined:
            frontier.push(candidate, 0)
        order = [frontier.pop()[0] for _ in range(7)]
        assert order == [
            mined[0].constraints,   # dynamic evidence first
            STATICS[0],
            mined[1].constraints,
            STATICS[1],
            mined[2].constraints,
            STATICS[2],
            mined[3].constraints,   # static lane drained: heap resumes
        ]

    def test_plan_seeds_pop_before_any_static(self):
        frontier = Frontier()
        for candidate in static_candidates(STATICS[:1]):
            frontier.push(candidate, 0)
        plan = Candidate(
            frozenset({_pin("p0")}), 1, 0, tier=TIER_PLAN, rank=0
        )
        frontier.push(plan, 0)
        frontier.push(_mined("m0"), 0)
        order = [frontier.pop()[0] for _ in range(3)]
        assert order[0] == plan.constraints
        assert order[1] == frozenset({_pin("m0")})
        assert order[2] == STATICS[0]

    def test_statics_drain_when_the_heap_is_empty(self):
        frontier = Frontier()
        for candidate in static_candidates(STATICS):
            frontier.push(candidate, 0)
        order = [frontier.pop()[0] for _ in range(3)]
        assert order == list(STATICS)
        assert len(frontier) == 0

    def test_length_counts_both_lanes(self):
        frontier = Frontier()
        frontier.push(_mined("m0"), 0)
        for candidate in static_candidates(STATICS):
            frontier.push(candidate, 0)
        assert len(frontier) == 4


class TestSerialExplorer:
    """Stub-driven: the engine's ``run_attempt`` scripts each outcome."""

    def test_statics_follow_the_root_when_nothing_is_mined(self, monkeypatch):
        seen = []

        def runner(constraints, seed):
            seen.append(constraints)
            return _trace(), False  # stub traces mine no candidates

        config = ExplorerConfig(max_attempts=4, static_seeds=STATICS)
        stub_engine(monkeypatch, runner, config, SketchKind.NONE).explore()
        assert seen[0] == frozenset()
        assert seen[1:4] == list(STATICS)

    def test_static_match_is_charged_to_metrics(self, monkeypatch):
        def runner(constraints, seed):
            return _trace(failed=bool(constraints)), bool(constraints)

        config = ExplorerConfig(
            max_attempts=4, static_seeds=STATICS, metrics=True
        )
        explorer = stub_engine(monkeypatch, runner, config, SketchKind.NONE)
        result = explorer.explore()
        assert result.success
        assert result.winning_constraints == STATICS[0]
        metrics = explorer.obs.metrics
        assert metrics.counter("sanitize.static.seeded").value == len(STATICS)
        assert metrics.counter("sanitize.static.matched").value == 1
        assert metrics.counter("sanitize.plan_matched").value == 0

    def test_duplicate_of_a_plan_seed_is_dropped(self, monkeypatch):
        seen = []

        def runner(constraints, seed):
            seen.append(constraints)
            return _trace(), False

        config = ExplorerConfig(
            max_attempts=5,
            plan_seeds=STATICS[:1],
            static_seeds=STATICS,  # first one duplicates the plan seed
            metrics=True,
        )
        explorer = stub_engine(monkeypatch, runner, config, SketchKind.NONE)
        explorer.explore()
        assert seen.count(STATICS[0]) == 1
        assert explorer.obs.metrics.counter(
            "sanitize.static.seeded"
        ).value == len(STATICS) - 1


class TestReproducerIntegration:
    def test_static_guidance_reproduces_the_racy_counter(self):
        program = racy_counter_program()
        seed = find_seed(program)
        recorded = record(program, sketch=SketchKind.NONE, seed=seed)
        assert recorded.failed
        plan = analyze_program(program, failure=recorded.failure.describe())
        assert plan.seeds_for(SketchKind.NONE)
        report = reproduce(
            recorded, ExplorerConfig(max_attempts=100), static_plan=plan
        )
        assert report.success

    def test_static_guidance_never_costs_attempts(self):
        program = racy_counter_program()
        seed = find_seed(program)
        recorded = record(program, sketch=SketchKind.NONE, seed=seed)
        plan = analyze_program(program)
        config = ExplorerConfig(max_attempts=100)
        baseline = reproduce(recorded, config)
        guided = reproduce(recorded, config, static_plan=plan)
        assert guided.success
        assert guided.attempts <= baseline.attempts

    def test_static_seeded_exploration_is_jobs_invariant(self):
        program = racy_counter_program()
        seed = find_seed(program)
        plan = analyze_program(program)
        assert plan.seeds_for(SketchKind.NONE)

        def outcome(jobs):
            recorded = record(program, sketch=SketchKind.NONE, seed=seed)
            report = reproduce(
                recorded,
                ExplorerConfig(max_attempts=40, batch_size=4, jobs=jobs),
                static_plan=plan,
            )
            return (report.success, report.attempts)

        assert outcome(1) == outcome(2)

    def test_rw_replay_ships_no_static_seeds(self):
        program = racy_counter_program()
        seed = find_seed(program)
        recorded = record(program, sketch=SketchKind.RW, seed=seed)
        plan = analyze_program(program)
        from repro.core.reproducer import Reproducer

        reproducer = Reproducer(
            recorded, ExplorerConfig(), static_plan=plan
        )
        assert reproducer.config.static_seeds == ()
