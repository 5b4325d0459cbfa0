"""The parallel exploration engine's determinism and cache contracts.

The load-bearing property: the exploration schedule is a function of
``batch_size`` only, never of ``jobs`` — attempt counts published by the
benchmarks cannot depend on how many cores the host happened to have.
"""

from __future__ import annotations

import dataclasses

import pytest

from tests.conftest import find_seed, order_violation_program, serial_reference

from repro.apps import all_bugs, get_bug
from repro.bench.seeds import find_failing_seed
from repro.bench.speedup import e12_workload
from repro.core.explorer import ExplorerConfig
from repro.core.feedback import AttemptCache, FeedbackGenerator, trace_fingerprint
from repro.core.recorder import record
from repro.core.reproducer import Reproducer, reproduce
from repro.core.sketches import SketchKind
from repro.robust.runs import report_signature
from repro.sim import MachineConfig, Program

BUG_IDS = [spec.bug_id for spec in all_bugs()]

_REFERENCE = serial_reference()
SERIAL = _REFERENCE["bugs"]
SERIAL_CONFIG = _REFERENCE["config"]


def _recorded(bug_id: str, sketch: SketchKind = SketchKind.SYNC, ncpus: int = 4):
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=ncpus)
    assert seed is not None, f"{bug_id}: no failing seed"
    return record(
        spec.make_program(),
        sketch=sketch,
        seed=seed,
        config=MachineConfig(ncpus=ncpus),
        oracle=spec.oracle,
    )


def _record_keys(report):
    return [(r.outcome, r.base_seed, r.n_constraints) for r in report.records]


class TestJobsEquivalence:
    """jobs=1 and jobs=4 must report identical explorations."""

    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_pool_matches_inline_across_suite(self, bug_id):
        recorded = _recorded(bug_id)
        config = ExplorerConfig(max_attempts=25, batch_size=8)
        serial = reproduce(recorded, config, jobs=1)
        pooled = reproduce(recorded, config, jobs=4)
        assert pooled.success == serial.success
        assert pooled.attempts == serial.attempts
        assert pooled.winning_constraints == serial.winning_constraints
        assert _record_keys(pooled) == _record_keys(serial)
        if serial.success:
            assert pooled.complete_log.schedule == serial.complete_log.schedule

    def test_random_ablation_is_jobs_and_batch_invariant(self):
        recorded = _recorded("openldap-deadlock")
        config = ExplorerConfig(max_attempts=SERIAL_CONFIG["max_attempts"])
        batched_config = dataclasses.replace(config, batch_size=6)
        expected = SERIAL["openldap-deadlock"]["random"]
        inline = reproduce(recorded, config, use_feedback=False, jobs=1)
        pooled_one = reproduce(
            recorded, dataclasses.replace(config, batch_size=1),
            use_feedback=False, jobs=2,
        )
        batched = reproduce(
            recorded, batched_config, use_feedback=False, jobs=1
        )
        pooled = reproduce(
            recorded, batched_config, use_feedback=False, jobs=3
        )
        assert report_signature(inline) == expected
        assert report_signature(pooled_one) == expected
        assert _record_keys(batched) == _record_keys(inline)
        assert _record_keys(pooled) == _record_keys(inline)
        assert pooled.success == inline.success


class TestSerialDegeneration:
    """batch_size=1 walks exactly the frozen serial explorer's schedule."""

    @pytest.mark.parametrize(
        "bug_id", ["pbzip2-order-free", "openldap-deadlock", "fft-order-sync"]
    )
    def test_batch_of_one_matches_serial_explorer(self, bug_id):
        recorded = _recorded(bug_id)
        expected = SERIAL[bug_id]["feedback"]
        # jobs=1 with no explicit batch_size runs batches of exactly one,
        # with or without a cache in front of dispatch.
        config = ExplorerConfig(max_attempts=SERIAL_CONFIG["max_attempts"])
        inline = reproduce(recorded, config)
        cached = reproduce(recorded, config, cache=AttemptCache())
        pooled = reproduce(
            recorded, dataclasses.replace(config, batch_size=1), jobs=2
        )
        for report in (inline, cached, pooled):
            assert report_signature(report) == expected


class TestAttemptCache:
    def test_rewalk_is_answered_from_the_cache(self):
        recorded = _recorded("pbzip2-order-free")
        cache = AttemptCache()
        first = reproduce(recorded, ExplorerConfig(max_attempts=40), cache=cache)
        assert cache.hits == 0 and len(cache) == first.attempts
        second = reproduce(recorded, ExplorerConfig(max_attempts=40), cache=cache)
        assert second.cache_hits == second.attempts
        assert second.success == first.success
        assert second.attempts == first.attempts
        assert second.winning_constraints == first.winning_constraints

    def test_cache_keys_separate_policies(self):
        recorded = _recorded("pbzip2-order-free")
        cache = AttemptCache()
        reproduce(recorded, ExplorerConfig(max_attempts=10), cache=cache)
        # Different base policy must not reuse the memoized outcomes.
        reproduce(
            recorded, ExplorerConfig(max_attempts=10), base_policy="pct",
            cache=cache,
        )
        assert cache.hits == 0


def _local_order_violation() -> Program:
    """An order-violation program whose bodies defeat pickling (local defs)."""

    def producer(ctx):
        yield ctx.local(2)
        yield ctx.write("data", 42)

    def consumer(ctx):
        yield ctx.local(1)
        value = yield ctx.read("data")
        yield ctx.check(value == 42, "read unpublished data")

    def main(ctx):
        p = yield ctx.spawn(producer)
        c = yield ctx.spawn(consumer)
        yield ctx.join(p)
        yield ctx.join(c)

    return Program(name="local-ov", main=main, initial_memory={"data": 0})


class TestPoolFallback:
    def test_unpicklable_session_runs_inline(self):
        program = _local_order_violation()
        seed = find_seed(program)
        recorded = record(
            program, sketch=SketchKind.SYNC, seed=seed,
            config=MachineConfig(ncpus=4),
        )
        reproducer = Reproducer(recorded, ExplorerConfig(max_attempts=40, jobs=4))
        report = reproducer.run()
        assert reproducer.explorer.pool_disabled_reason is not None
        assert report.success

    def test_fallback_matches_picklable_run(self):
        # The inline fallback must still honor the batch-merge semantics:
        # same results as the reference (picklable, pooled) exploration.
        local = _local_order_violation()
        reference = order_violation_program()
        seed = find_seed(reference)
        assert find_seed(local) == seed  # same program, different packaging
        config = ExplorerConfig(max_attempts=40, batch_size=4)
        reports = []
        for program, jobs in ((reference, 2), (local, 2)):
            recorded = record(
                program, sketch=SketchKind.SYNC, seed=seed,
                config=MachineConfig(ncpus=4),
            )
            reports.append(reproduce(recorded, config, jobs=jobs))
        assert _record_keys(reports[0]) == _record_keys(reports[1])
        assert reports[0].success == reports[1].success


class TestLazyMining:
    """In-process evaluation mines an attempt only when its execution is
    new and its tier is open: one mining pass per non-duplicate,
    unmatched attempt whose children the budget can reach, and none
    twice."""

    @staticmethod
    def _count_mining(monkeypatch):
        calls = []
        mine = FeedbackGenerator.candidates

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return mine(self, *args, **kwargs)

        monkeypatch.setattr(FeedbackGenerator, "candidates", counted)
        return calls

    @staticmethod
    def _mined_once(calls):
        return len({trace_fingerprint(trace) for trace in calls}) == len(calls)

    def test_e12_mines_each_new_execution_once(self, monkeypatch):
        recorded = e12_workload()
        calls = self._count_mining(monkeypatch)
        report = reproduce(
            recorded, ExplorerConfig(max_attempts=40, base_seed=2),
            match_output=True, jobs=1,
        )
        assert report.attempts == 40 and report.duplicate_traces > 0
        assert report.mine_skips > 0
        matched = 1 if report.success else 0
        assert len(calls) == (
            report.attempts - report.duplicate_traces - matched
            - report.mine_skips
        )
        assert self._mined_once(calls)

    def test_a_matched_search_mines_neither_duplicates_nor_the_winner(
        self, monkeypatch
    ):
        recorded = _recorded("mysql-atom-log")
        calls = self._count_mining(monkeypatch)
        report = reproduce(recorded, ExplorerConfig(max_attempts=25), jobs=1)
        assert report.success and report.duplicate_traces > 0
        assert report.mine_skips > 0
        assert len(calls) == (
            report.attempts - report.duplicate_traces - 1 - report.mine_skips
        )
        assert self._mined_once(calls)
