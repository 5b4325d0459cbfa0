"""Plan seeding in the engine: ordering, tiers, metrics, determinism."""

from repro.core.constraints import EventRef, OrderConstraint
from repro.core.explorer import ExplorerConfig, plan_candidates
from repro.core.feedback import TIER_PLAN
from repro.core.recorder import record
from repro.core.reproducer import Reproducer, reproduce
from repro.core.sketches import SketchKind
from repro.sanitize import build_plan
from repro.sim import Program
from repro.sim.failures import Failure, FailureKind
from repro.sim.trace import Trace

from tests.conftest import find_seed, order_violation_program, stub_engine


def _racy_worker(ctx, iters):
    for _ in range(iters):
        value = yield ctx.read("counter")
        yield ctx.local(1)
        yield ctx.write("counter", value + 1)


def _racy_main(ctx, nworkers, iters):
    tids = []
    for _ in range(nworkers):
        tids.append((yield ctx.spawn(_racy_worker, iters)))
    for tid in tids:
        yield ctx.join(tid)
    final = yield ctx.read("counter")
    yield ctx.check(final == nworkers * iters, "lost update")


def racy_counter_program(nworkers=3, iters=5):
    return Program(
        name="racycounter",
        main=_racy_main,
        params={"nworkers": nworkers, "iters": iters},
        initial_memory={"counter": 0},
    )


def _pin(key, tid_a=1, tid_b=2):
    return OrderConstraint(
        before=EventRef(tid_a, "mem", key, 1),
        after=EventRef(tid_b, "mem", key, 1),
    )


SEEDS = (
    frozenset({_pin("x")}),
    frozenset({_pin("y")}),
    frozenset({_pin("z")}),
)


def _trace(failed=False):
    trace = Trace(program_name="stub", steps=5)
    if failed:
        trace.failure = Failure(FailureKind.ASSERTION, where="stub")
    return trace


class TestCandidateWrapping:
    def test_plan_candidates_preserve_rank_order(self):
        candidates = plan_candidates(SEEDS)
        assert [c.constraints for c in candidates] == list(SEEDS)
        assert all(c.tier == TIER_PLAN for c in candidates)

    def test_plan_rank_order_survives_the_frontier(self):
        # earlier plan ranks must pop first despite identical tiers
        candidates = plan_candidates(SEEDS)
        keys = [c.sort_key() for c in candidates]
        assert keys == sorted(keys)


class TestSerialExplorer:
    """Stub-driven: the engine's ``run_attempt`` scripts each outcome."""

    def test_root_attempt_runs_before_the_plan(self, monkeypatch):
        seen = []

        def runner(constraints, seed):
            seen.append(constraints)
            return _trace(), False

        config = ExplorerConfig(max_attempts=4, plan_seeds=SEEDS)
        stub_engine(monkeypatch, runner, config, SketchKind.SYNC).explore()
        assert seen[0] == frozenset()
        assert seen[1:4] == list(SEEDS)

    def test_plan_match_is_charged_to_metrics(self, monkeypatch):
        def runner(constraints, seed):
            return _trace(failed=bool(constraints)), bool(constraints)

        config = ExplorerConfig(
            max_attempts=4, plan_seeds=SEEDS, metrics=True
        )
        explorer = stub_engine(monkeypatch, runner, config, SketchKind.SYNC)
        result = explorer.explore()
        assert result.success
        assert result.winning_constraints == SEEDS[0]
        metrics = explorer.obs.metrics
        assert metrics.counter("sanitize.plan_seeded").value == len(SEEDS)
        assert metrics.counter("sanitize.plan_matched").value == 1

    def test_baseline_win_is_not_a_plan_match(self, monkeypatch):
        def runner(constraints, seed):
            return _trace(failed=True), True  # attempt 1 wins outright

        config = ExplorerConfig(
            max_attempts=4, plan_seeds=SEEDS, metrics=True
        )
        explorer = stub_engine(monkeypatch, runner, config, SketchKind.SYNC)
        result = explorer.explore()
        assert result.success
        assert result.attempt_count == 1
        assert explorer.obs.metrics.counter("sanitize.plan_matched").value == 0


class TestReproducerIntegration:
    def test_plan_narrows_config_to_applicable_seeds(self):
        program = racy_counter_program()
        seed = find_seed(program)
        recorded = record(program, sketch=SketchKind.RW, seed=seed)
        plan = build_plan(recorded.log)
        reproducer = Reproducer(recorded, ExplorerConfig(), plan=plan)
        # RW replay already pins everything: no seeds ship
        assert reproducer.config.plan_seeds == ()

    def test_plan_never_costs_attempts_on_a_one_shot_bug(self):
        program = order_violation_program()
        seed = find_seed(program)
        rich = record(program, sketch=SketchKind.RW, seed=seed)
        plan = build_plan(rich.log)
        recorded = record(program, sketch=SketchKind.SYNC, seed=seed)
        assert recorded.failed
        baseline = reproduce(recorded, ExplorerConfig(max_attempts=60))
        planned = reproduce(
            recorded, ExplorerConfig(max_attempts=60), plan=plan
        )
        assert planned.success
        assert planned.attempts <= baseline.attempts

    def test_plan_seeded_exploration_is_jobs_invariant(self):
        program = racy_counter_program()
        seed = find_seed(program)
        rich = record(program, sketch=SketchKind.RW, seed=seed)
        plan = build_plan(rich.log)
        assert plan.seeds_for(SketchKind.SYNC)  # the plan actually ships

        def outcome(jobs):
            recorded = record(program, sketch=SketchKind.SYNC, seed=seed)
            report = reproduce(
                recorded,
                ExplorerConfig(max_attempts=30, batch_size=4, jobs=jobs),
                plan=plan,
            )
            return (report.success, report.attempts)

        assert outcome(1) == outcome(2)
