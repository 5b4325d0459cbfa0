"""Schedule-prefix memoization: exactness, planning, and bounded memory."""

from __future__ import annotations

import pytest

from repro.apps import get_bug
from repro.bench.seeds import find_failing_seed
from repro.core import feedback
from repro.core.feedback import FeedbackGenerator
from repro.core.parallel import AttemptContext, run_attempt
from repro.core.prefix import (
    BASE_DEPTH,
    CAPTURE_DEPTHS,
    MIN_RESUME_DEPTH,
    PrefixTree,
    ResumePlan,
    attempt_rungs,
    planned_depths,
    resume_depth,
    resume_machine,
)
from repro.core.recorder import record
from repro.core.sketches import SketchKind
from repro.sim import MachineConfig

#: flips from these bugs span both constraint families (mem and lock).
BUGS = ("mysql-atom-log", "apache-order-ref", "pbzip2-order-free")


class TestPlannedDepths:
    def test_short_parents_plan_nothing(self):
        assert planned_depths(0) == ()
        assert planned_depths(MIN_RESUME_DEPTH) == ()

    @pytest.mark.parametrize("steps", [25, 60, 100, 247, 1000, 9999])
    def test_depths_are_bounded_increasing_and_strictly_inside(self, steps):
        depths = planned_depths(steps)
        # geometric ladder: O(log steps) snapshots, each double the last.
        assert len(depths) <= len(CAPTURE_DEPTHS)
        assert all(MIN_RESUME_DEPTH <= d < steps for d in depths)
        assert list(depths) == sorted(set(depths))
        assert all(b == 2 * a for a, b in zip(depths, depths[1:]))
        if steps > BASE_DEPTH:
            assert depths[0] == BASE_DEPTH

    def test_pure_function_of_step_count(self):
        # worker processes plan independently; the plans must agree.
        assert planned_depths(300) == planned_depths(300)


class TestResumeDepth:
    def test_zero_when_nothing_fits(self):
        assert resume_depth(10, 5) == 0
        assert resume_depth(300, 0) == 0

    @pytest.mark.parametrize("steps", [60, 247, 1000])
    def test_picks_the_deepest_planned_depth_inside_the_prefix(self, steps):
        depths = planned_depths(steps)
        for prefix in (0, depths[0] - 1, depths[0], steps - 1, steps):
            chosen = resume_depth(steps, prefix)
            fitting = [d for d in depths if d <= prefix]
            assert chosen == (max(fitting) if fitting else 0)


class TestPrefixTree:
    def test_lru_eviction_keeps_the_most_recent(self):
        tree = PrefixTree(max_nodes=2)
        tree.put("a", (1, 1))
        tree.put("b", (2, 2))
        assert tree.get("a") == (1, 1)  # refreshes "a"
        tree.put("c", (3, 3))  # evicts "b", the least recent
        assert tree.get("b") is None
        assert tree.get("a") == (1, 1)
        assert tree.get("c") == (3, 3)
        assert len(tree) == 2

    def test_hit_and_miss_accounting(self):
        tree = PrefixTree()
        assert tree.get("missing") is None
        tree.put("k", (0, 0))
        tree.get("k")
        assert tree.misses == 1 and tree.hits == 1


def _context(bug_id: str) -> AttemptContext:
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=2)
    assert seed is not None, f"{bug_id}: no failing seed"
    recorded = record(
        spec.make_program(),
        sketch=SketchKind.SYNC,
        seed=seed,
        config=MachineConfig(ncpus=2),
        oracle=spec.oracle,
    )
    return AttemptContext(
        recorded=recorded,
        base_policy="random",
        match_output=False,
        max_candidates_per_attempt=24,
        max_constraint_depth=8,
    )


def _trace_identity(trace):
    """Everything a trace decides, for byte-identity comparison."""
    return (
        tuple(trace.schedule),
        trace.steps,
        tuple(e.signature() for e in trace.events),
        trace.stdout,
        trace.final_memory,
        trace.thread_returns,
        trace.files,
        trace.clock,
        trace.failure.signature() if trace.failure else None,
        trace.divergence,
    )


class TestResumedTraceIdentity:
    """A resumed attempt is byte-identical to running the same attempt cold."""

    @pytest.mark.parametrize("bug_id", BUGS)
    def test_resume_matches_cold_for_mined_flips(self, bug_id):
        ctx = _context(bug_id)
        tree = PrefixTree()
        # the live parent run captures its own ladder snapshots
        parent_trace, _ = run_attempt(ctx, frozenset(), 0, tree=tree)
        assert tree.captures > 0, "parent run captured no snapshots"
        generator = FeedbackGenerator(
            sketch=ctx.recorded.sketch,
            max_candidates_per_attempt=24,
            max_constraint_depth=8,
        )
        resumed = 0
        for candidate in generator.candidates(parent_trace, frozenset()):
            if candidate.flip is None:
                continue
            depth = resume_depth(candidate.parent_steps, candidate.safe_prefix)
            if depth <= 0:
                continue
            plan = ResumePlan(
                flip=candidate.flip,
                depth=depth,
                parent_steps=candidate.parent_steps,
            )
            cold, cold_matched = run_attempt(ctx, candidate.constraints, 0)
            warm, warm_matched = run_attempt(
                ctx, candidate.constraints, 0, resume=plan, tree=tree
            )
            assert tree.fallbacks == 0, "resume machinery fell back cold"
            assert _trace_identity(cold) == _trace_identity(warm)
            assert cold_matched == warm_matched
            resumed += 1
            if resumed >= 6:
                break
        assert resumed > 0, f"{bug_id}: no resumable candidate mined"
        assert tree.resumes == resumed

    def test_one_live_capture_serves_many_siblings(self):
        ctx = _context("mysql-atom-log")
        tree = PrefixTree()
        parent_trace, _ = run_attempt(ctx, frozenset(), 0, tree=tree)
        parent_captures = tree.captures
        generator = FeedbackGenerator(
            sketch=ctx.recorded.sketch,
            max_candidates_per_attempt=24,
            max_constraint_depth=8,
        )
        plans = []
        for candidate in generator.candidates(parent_trace, frozenset()):
            if candidate.flip is None:
                continue
            depth = resume_depth(candidate.parent_steps, candidate.safe_prefix)
            if depth > 0:
                plans.append((candidate.constraints, ResumePlan(
                    flip=candidate.flip, depth=depth,
                    parent_steps=candidate.parent_steps,
                )))
        assert len(plans) >= 2, "workload mined too few resumable siblings"
        for constraints, plan in plans:
            run_attempt(ctx, constraints, 0, resume=plan, tree=tree)
        # every sibling resumed from the snapshots the parent captured
        # live — no extra parent replay of any kind happened.
        assert tree.resumes == len(plans)
        assert tree.fallbacks == 0

    def test_missing_snapshot_means_cold_run_not_a_rebuild(self):
        ctx = _context("mysql-atom-log")
        # the parent ran in *another process* (no tree): nothing captured
        parent_trace, _ = run_attempt(ctx, frozenset(), 0)
        generator = FeedbackGenerator(
            sketch=ctx.recorded.sketch,
            max_candidates_per_attempt=24,
            max_constraint_depth=8,
        )
        candidate = next(
            c for c in generator.candidates(parent_trace, frozenset())
            if c.flip is not None
            and resume_depth(c.parent_steps, c.safe_prefix) > 0
        )
        depth = resume_depth(candidate.parent_steps, candidate.safe_prefix)
        plan = ResumePlan(
            flip=candidate.flip, depth=depth,
            parent_steps=candidate.parent_steps,
        )
        tree = PrefixTree()
        cold, _ = run_attempt(ctx, candidate.constraints, 0)
        warm, _ = run_attempt(
            ctx, candidate.constraints, 0, resume=plan, tree=tree
        )
        assert tree.resumes == 0 and tree.fallbacks == 0
        assert _trace_identity(cold) == _trace_identity(warm)

    def test_unusable_plan_degrades_to_cold_not_an_error(self):
        ctx = _context("mysql-atom-log")
        parent_trace, _ = run_attempt(ctx, frozenset(), 0)
        generator = FeedbackGenerator(
            sketch=ctx.recorded.sketch,
            max_candidates_per_attempt=24,
            max_constraint_depth=8,
        )
        candidate = next(
            c for c in generator.candidates(parent_trace, frozenset())
            if c.flip is not None
        )
        tree = PrefixTree()
        # a flip that is not in the constraint set cannot name a parent
        bogus = ResumePlan(
            flip=candidate.flip, depth=48, parent_steps=parent_trace.steps
        )
        assert resume_machine(ctx, frozenset(), 0, bogus, tree) is None
        # run_attempt still answers, just cold
        cold, _ = run_attempt(ctx, frozenset(), 0)
        via_plan, _ = run_attempt(ctx, frozenset(), 0, resume=bogus, tree=tree)
        assert _trace_identity(cold) == _trace_identity(via_plan)


class TestSweepCheckpointsOnRungs:
    """Mining leaves race-sweep checkpoints on an attempt's rungs, and a
    resumed child's sweep starts from its parent's; candidates are the
    same as from a full sweep."""

    @pytest.mark.parametrize("bug_id", BUGS)
    def test_resumed_child_mines_like_a_cold_sweep(self, bug_id, monkeypatch):
        sweeps = []

        class Recorded(feedback.HBAnalysis):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sweeps.append(self)

        monkeypatch.setattr(feedback, "HBAnalysis", Recorded)
        ctx = _context(bug_id)
        tree = PrefixTree()
        root = frozenset()
        parent_trace, _ = run_attempt(ctx, root, 0, tree=tree)
        generator = FeedbackGenerator(
            sketch=ctx.recorded.sketch,
            max_candidates_per_attempt=24,
            max_constraint_depth=8,
        )
        rungs = attempt_rungs(tree, root, 0, parent_trace.steps)
        assert rungs and all(r.sweep is None for r in rungs)
        mined = generator.candidates(parent_trace, root, rungs)
        assert mined == generator.candidates(parent_trace, root)
        assert all(r.sweep is not None and r.sweep.events == r.events for r in rungs)
        resumed = 0
        for candidate in mined:
            depth = resume_depth(candidate.parent_steps, candidate.safe_prefix)
            if candidate.flip is None or depth <= 0:
                continue
            plan = ResumePlan(
                flip=candidate.flip, depth=depth,
                parent_steps=candidate.parent_steps,
            )
            child = candidate.constraints
            trace, _ = run_attempt(ctx, child, 0, resume=plan, tree=tree)
            child_rungs = attempt_rungs(tree, child, 0, trace.steps)
            # the rungs aliased from the parent carry its checkpoints, and
            # the sweep starts at the deepest of them
            start = max(r.events for r in child_rungs if r.sweep is not None)
            warm = generator.candidates(trace, child, child_rungs)
            assert sweeps[-1].resumed_at == start > 0
            assert warm == generator.candidates(trace, child)
            assert all(r.sweep is not None for r in child_rungs)
            resumed += 1
            if resumed >= 4:
                break
        assert resumed > 0, f"{bug_id}: no resumable candidate mined"
        assert tree.fallbacks == 0
