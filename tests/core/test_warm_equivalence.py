"""S3 property: in-process, cold-pool, and warm-pool runs match the
frozen serial reference.

The warm-worker/prefix-memoization hot path must be invisible in
reports: for every T1 bug, an in-process (``jobs=1``) run, a first
(cold) pooled run, a second (warm — published session segment and
worker state reused) pooled run, and a chaos-supervised pooled run all
produce the ``report_signature`` the retired serial explorer produced,
frozen in ``tests/fixtures/serial_signatures.json``.  ``batch_size`` is
pinned to 1 because the exploration schedule is a function of batch
size (not of jobs); at batch 1 it is exactly the serial schedule.
"""

from __future__ import annotations

import pytest

from repro.apps import all_bugs, get_bug
from repro.bench.seeds import find_failing_seed
from repro.bench.speedup import e12_workload
from repro.core import shm
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import reproduce
from repro.core.sketches import SketchKind
from repro.obs.session import ObsSession
from repro.robust.runs import report_signature
from repro.robust.supervise import SuperviseConfig
from repro.sim import MachineConfig

from tests.conftest import serial_reference

SERIAL = serial_reference()["bugs"]

BUG_IDS = [spec.bug_id for spec in all_bugs()]

#: chaos equivalence is slower (it retries killed attempts), so it runs
#: on a category-spanning subset rather than the full suite.
CHAOS_BUGS = ("mysql-atom-log", "openldap-deadlock", "pbzip2-order-free")

CONFIG = ExplorerConfig(max_attempts=25, batch_size=1)


def _recorded(bug_id: str):
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=4)
    assert seed is not None, f"{bug_id}: no failing seed"
    return record(
        spec.make_program(),
        sketch=SketchKind.SYNC,
        seed=seed,
        config=MachineConfig(ncpus=4),
        oracle=spec.oracle,
    )


class TestWarmPoolEquivalence:
    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_serial_cold_pool_warm_pool_signatures_match(self, bug_id):
        recorded = _recorded(bug_id)
        inline = reproduce(recorded, CONFIG, jobs=1)
        cold = reproduce(recorded, CONFIG, jobs=2)
        # the cold run published the session segment; this one reuses it
        warm = reproduce(recorded, CONFIG, jobs=2)
        expected = SERIAL[bug_id]["feedback"]
        assert report_signature(inline) == expected
        assert report_signature(cold) == expected
        assert report_signature(warm) == expected
        # the pooled arms really took the warm-worker path
        assert len(shm._PUBLISHED) > 0

    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_random_arm_matches_the_serial_reference(self, bug_id):
        recorded = _recorded(bug_id)
        expected = SERIAL[bug_id]["random"]
        for jobs in (1, 2):
            report = reproduce(recorded, CONFIG, jobs=jobs, use_feedback=False)
            assert report_signature(report) == expected, f"jobs={jobs}"

    @pytest.mark.parametrize("bug_id", CHAOS_BUGS)
    def test_chaos_worker_death_preserves_the_signature(self, bug_id):
        recorded = _recorded(bug_id)
        chaotic = reproduce(
            recorded, CONFIG, jobs=2,
            supervise=SuperviseConfig(backoff_base=0.0),
            chaos="crash=0.06,hang=0.04,seed=11",
        )
        assert report_signature(chaotic) == SERIAL[bug_id]["feedback"]

    def test_prefix_hits_are_jobs_invariant(self):
        recorded = _recorded("mysql-atom-log")
        reports = {
            jobs: reproduce(recorded, CONFIG, jobs=jobs)
            for jobs in (2, 4)
        }
        hits = {jobs: r.prefix_hits for jobs, r in reports.items()}
        assert hits[2] == hits[4]
        assert hits[2] > 0, "prefix memoization never engaged"

    def test_equivalent_skips_are_jobs_invariant(self):
        recorded = e12_workload()
        config = ExplorerConfig(max_attempts=120, batch_size=4)
        reports = {
            jobs: reproduce(recorded, config, jobs=jobs, match_output=True)
            for jobs in (1, 2)
        }
        skips = {jobs: r.equivalent_skips for jobs, r in reports.items()}
        assert skips[1] == skips[2]
        assert skips[1] > 0, "no attempt was answered from an equivalent one"
        assert report_signature(reports[1]) == report_signature(reports[2])

    def test_mining_horizon_is_jobs_invariant(self):
        # A pool worker is told at pop time whether to mine; the fold
        # decides what is pushed and counted, so the counts match jobs=1.
        recorded = e12_workload()
        config = ExplorerConfig(max_attempts=120, batch_size=4)
        seen = {}
        for jobs in (1, 2):
            obs = ObsSession.create(trace=False, metrics=True)
            report = reproduce(
                recorded, config, jobs=jobs, match_output=True, obs=obs
            )
            snapshot = obs.metrics.snapshot()
            seen[jobs] = (
                report.mine_skips,
                snapshot["counters"]["parallel.mine_skips"],
                snapshot["counters"]["candidates_mined"],
                snapshot["gauges"]["frontier_peak"],
                report_signature(report),
            )
        assert seen[1] == seen[2]
        assert seen[1][0] == seen[1][1] > 0, "no tier ever closed"
