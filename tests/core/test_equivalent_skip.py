"""Differential oracle for equivalent-attempt skips.

The engine answers an attempt ``(C, seed)`` without running it when a
folded ``(C - {x}, seed)`` proves ``x`` never binds (see
:mod:`repro.core.footprint`).  Here a test-side wrapper around
:meth:`ParallelExplorer._equivalent` re-runs every skipped attempt live
and holds the copied outcome to it, over the bug suite and the E12
recording; and a search with skipping disabled must report exactly what
the search with it reports.
"""

from __future__ import annotations

import pytest

from repro.apps import all_bugs, get_bug
from repro.bench.seeds import find_failing_seed
from repro.bench.speedup import e12_workload
from repro.core.explorer import ExplorerConfig
from repro.core.parallel import ParallelExplorer, _evaluate
from repro.core.recorder import record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SketchKind
from repro.obs.session import ObsSession
from repro.robust.runs import report_signature
from repro.sim import MachineConfig

BUG_IDS = [spec.bug_id for spec in all_bugs()]

#: E12 base seeds; each walks the full 300-attempt cap
E12_SEEDS = (1, 4242)


def _summary(outcome):
    return (outcome.outcome, outcome.detail, outcome.steps,
            outcome.fingerprint, outcome.matched)


@pytest.fixture
def skipped(monkeypatch):
    """Every skip, checked against a live run of the skipped attempt;
    the list collects the checked ``(constraints, seed)`` pairs."""
    original = ParallelExplorer._equivalent
    checked = []

    def oracle(self, constraints, seed):
        answer = original(self, constraints, seed)
        if answer is not None:
            live, _ = _evaluate(self.context, constraints, seed, False, None, None)
            assert _summary(live) == _summary(answer), constraints
            assert live.footprint.pack(self._streams) == answer.footprint
            checked.append((constraints, seed))
        return answer

    monkeypatch.setattr(ParallelExplorer, "_equivalent", oracle)
    return checked


def _recorded(bug_id, sketch):
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=4)
    assert seed is not None, f"{bug_id}: no failing seed"
    return record(
        spec.make_program(), sketch=sketch, seed=seed,
        config=MachineConfig(ncpus=4), oracle=spec.oracle,
    )


@pytest.fixture(scope="module")
def e12():
    return e12_workload()


class TestSkipsMatchLiveRuns:
    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_bug_suite(self, bug_id, skipped):
        for sketch in (SketchKind.SYNC, SketchKind.NONE):
            recorded = _recorded(bug_id, sketch)
            for match_output in (False, True):
                before = len(skipped)
                report = reproduce(
                    recorded, ExplorerConfig(max_attempts=400),
                    match_output=match_output,
                )
                assert report.equivalent_skips == len(skipped) - before
        if bug_id == "apache-atom-buf":
            # its unsketched ODR-strict walk does skip attempts
            assert skipped

    @pytest.mark.parametrize("base_seed", E12_SEEDS)
    def test_e12(self, e12, base_seed, skipped):
        report = reproduce(
            e12, ExplorerConfig(max_attempts=300, base_seed=base_seed),
            match_output=True,
        )
        assert report.equivalent_skips == len(skipped) > 90


def _search(recorded, base_seed):
    session = ObsSession.create(trace=False, metrics=True)
    report = reproduce(
        recorded, ExplorerConfig(max_attempts=300, base_seed=base_seed),
        match_output=True, obs=session,
    )
    snapshot = session.metrics.snapshot()
    return report, snapshot["counters"], snapshot["histograms"]


class TestSkippingIsInvisible:
    @pytest.mark.parametrize("base_seed", E12_SEEDS)
    def test_disabling_the_skip_changes_no_report(
        self, e12, base_seed, monkeypatch
    ):
        report, counters, histograms = _search(e12, base_seed)
        assert report.equivalent_skips > 0
        monkeypatch.setattr(
            ParallelExplorer, "_equivalent", lambda self, c, s: None
        )
        plain, plain_counters, plain_histograms = _search(e12, base_seed)
        assert plain.equivalent_skips == 0
        assert render_report(report) == render_report(plain)
        assert report_signature(report) == report_signature(plain)
        assert report.duplicate_traces == plain.duplicate_traces
        assert counters["candidates_mined"] == plain_counters["candidates_mined"]
        assert histograms["attempt_steps"] == plain_histograms["attempt_steps"]
        assert counters["parallel.equivalent_skips"] == report.equivalent_skips
        assert "parallel.equivalent_skips" not in plain_counters
