"""The mining horizon: a failed attempt is mined only while the attempt
budget can still reach its children (see
:class:`repro.core.explorer.MiningHorizon`).

Unit tests pin the bookkeeping.  A differential oracle runs each search
again with the closed-tier predicate disabled and holds the two to the
same report, over the bug suite and the E12 recording.  A boundary case
caps E12 so that the first depth-3 pop is the last attempt: its depth-2
parents must still be mined there, so a rule that closes a tier one
attempt early, or that counts a pair after it was tried, walks a
different search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.apps import all_bugs, get_bug
from repro.bench.seeds import find_failing_seed
from repro.bench.speedup import e12_workload
from repro.core.constraints import EventRef, OrderConstraint
from repro.core.explorer import ExplorerConfig, MiningHorizon
from repro.core.feedback import (
    TIER_MINED,
    TIER_PLAN,
    TIER_ROOT,
    TIER_STATIC,
    Candidate,
    FeedbackGenerator,
)
from repro.core.parallel import ParallelExplorer
from repro.core.recorder import record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SketchKind
from repro.obs.session import ObsSession
from repro.robust.runs import report_signature
from repro.sim import MachineConfig

BUG_IDS = [spec.bug_id for spec in all_bugs()]

#: E12 base seeds; each walks the full 300-attempt cap
E12_SEEDS = (1, 4242)


def _flip(n):
    return OrderConstraint(
        before=EventRef(tid=1, family="mem", key=f"x{n}", occurrence=1),
        after=EventRef(tid=2, family="mem", key=f"x{n}", occurrence=1),
    )


def _set(*ns):
    return frozenset(_flip(n) for n in ns)


def _candidate(constraints, tier=TIER_MINED):
    return Candidate(constraints, len(constraints), 0, tier=tier)


class TestBookkeeping:
    def _horizon(self, max_attempts, tried=()):
        tried = set(tried)
        return MiningHorizon(max_attempts, lambda c, s: (c, s) in tried)

    def test_root_and_plan_count_below_every_mined_tier(self):
        horizon = self._horizon(3)
        horizon.push(_candidate(_set(), TIER_ROOT), 0)
        horizon.push(_candidate(_set(1, 2), TIER_PLAN), 0)
        assert not horizon.closed(0)
        horizon.push(_candidate(_set(3, 4, 5), TIER_PLAN), 0)
        assert horizon.closed(0)  # three pairs pop before any mined one

    def test_a_mined_pair_counts_from_its_own_depth(self):
        horizon = self._horizon(2)
        horizon.push(_candidate(_set(1, 2)), 0)
        horizon.push(_candidate(_set(1, 3)), 0)
        assert not horizon.closed(1)
        assert horizon.closed(2)

    def test_statics_and_tried_pairs_are_not_counted(self):
        horizon = self._horizon(1, tried=[(_set(1), 0)])
        horizon.push(_candidate(_set(2), TIER_STATIC), 0)
        horizon.push(_candidate(_set(1)), 0)
        assert not horizon.closed(1)

    def test_a_pair_counts_once_at_its_lowest_level(self):
        horizon = self._horizon(2)
        horizon.push(_candidate(_set(1)), 0)
        horizon.push(_candidate(_set(1)), 0)
        horizon.push(_candidate(_set(1), TIER_PLAN), 0)
        horizon.push(_candidate(_set(1)), 7)  # another seed: another pair
        assert horizon.closed(1) and not horizon.closed(0)

    def test_a_pop_uses_one_attempt_and_removes_its_pair(self):
        horizon = self._horizon(3)
        horizon.push(_candidate(_set(1)), 0)
        horizon.push(_candidate(_set(2)), 0)
        assert not horizon.closed(1)  # 2 ahead, 3 left
        horizon.issue(_set(1), 0)
        assert not horizon.closed(1)  # 1 ahead, 2 left
        horizon.issue(_set(9), 0)  # an uncounted pair: budget only
        assert horizon.closed(1)  # 1 ahead, 1 left
        horizon.issue(_set(2), 0)
        assert horizon.closed(1)  # 0 ahead, 0 left: closed for good


def _recorded(bug_id, sketch):
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=4)
    assert seed is not None, f"{bug_id}: no failing seed"
    return record(
        spec.make_program(), sketch=sketch, seed=seed,
        config=MachineConfig(ncpus=4), oracle=spec.oracle,
    )


def _search(recorded, config, match_output):
    session = ObsSession.create(trace=False, metrics=True)
    report = reproduce(
        recorded, config, match_output=match_output, obs=session
    )
    histograms = session.metrics.snapshot()["histograms"]
    return (
        render_report(report),
        report_signature(report),
        report.duplicate_traces,
        report.equivalent_skips,
        report.prefix_hits,
        histograms["attempt_steps"],
    ), report.mine_skips


def _never_closed(monkeypatch):
    monkeypatch.setattr(MiningHorizon, "closed", lambda self, depth: False)


@pytest.fixture(scope="module")
def e12():
    return e12_workload()


class TestClosingTiersIsInvisible:
    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_bug_suite(self, bug_id, monkeypatch):
        runs = []
        for sketch in (SketchKind.SYNC, SketchKind.NONE):
            recorded = _recorded(bug_id, sketch)
            for cap in (25, 400):
                for match_output in (False, True):
                    runs.append((recorded, ExplorerConfig(max_attempts=cap),
                                 match_output))
        searched = [_search(*run) for run in runs]
        _never_closed(monkeypatch)
        for run, (seen, _skips) in zip(runs, searched):
            plain, plain_skips = _search(*run)
            assert seen == plain
            assert plain_skips == 0
        if bug_id in ("mysql-atom-log", "apache-atom-buf"):
            # these walks close a tier before their search ends
            assert sum(skips for _seen, skips in searched) > 0

    @pytest.mark.parametrize("base_seed", E12_SEEDS)
    def test_e12(self, e12, base_seed, monkeypatch):
        config = ExplorerConfig(max_attempts=300, base_seed=base_seed)
        seen, skips = _search(e12, config, True)
        assert skips > 50
        _never_closed(monkeypatch)
        assert _search(e12, config, True) == (seen, 0)


class TestBoundary:
    """At this cap the first depth-3 attempt is the last one, so every
    depth-2 attempt's tier is open by exactly one attempt."""

    #: E12 at base seed 1 pops its first depth-3 attempt 69th
    CONFIG = ExplorerConfig(max_attempts=69, base_seed=1)

    @staticmethod
    def _mined_depths(monkeypatch):
        depths = Counter()
        mine = FeedbackGenerator.candidates

        def counted(self, trace, current, *args, **kwargs):
            depths[len(current)] += 1
            return mine(self, trace, current, *args, **kwargs)

        monkeypatch.setattr(FeedbackGenerator, "candidates", counted)
        return depths

    def _plan_config(self, e12, monkeypatch):
        """CONFIG with the first two depth-2 sets walked as plan seeds.

        They are tried right after the root, and mining pushes them
        again later: a rule that counted those tried pairs would close
        tier 2 early.
        """
        popped = []
        issue = MiningHorizon.issue

        def logged(self, constraints, seed):
            popped.append(constraints)
            issue(self, constraints, seed)

        with monkeypatch.context() as patch:
            patch.setattr(MiningHorizon, "issue", logged)
            reproduce(e12, self.CONFIG, match_output=True)
        seeds = tuple(c for c in popped if len(c) == 2)[:2]
        return replace(self.CONFIG, plan_seeds=seeds)

    @pytest.mark.parametrize("seeded", (False, True))
    def test_depth2_parents_are_mined_when_one_child_can_pop(
        self, e12, seeded, monkeypatch
    ):
        config = self._plan_config(e12, monkeypatch) if seeded else self.CONFIG
        depths = self._mined_depths(monkeypatch)
        report = reproduce(e12, config, match_output=True)
        sizes = [r.n_constraints for r in report.records]
        assert len(sizes) == 69 and sizes.index(3) == 68
        mined = dict(depths)
        depths.clear()
        _never_closed(monkeypatch)
        plain = reproduce(e12, config, match_output=True)
        assert render_report(report) == render_report(plain)
        assert mined[2] == depths[2] > 0
        # only the last attempt, whose children no budget is left for,
        # goes unmined
        assert report.mine_skips <= 1


class TestClosedTierFootprints:
    """A closed tier keeps no footprints, except where a plan or static
    seed one constraint deeper can still be popped and look one up."""

    @staticmethod
    def _answered_pair(e12, monkeypatch):
        """A depth-2 attempt of E12 (base seed 2) answered from a depth-1
        one: ``(source, answered)``."""
        found = []
        equivalent = ParallelExplorer._equivalent

        def spy(self, constraints, seed):
            answer = equivalent(self, constraints, seed)
            if answer is not None and len(constraints) == 2 and not found:
                for x in self.context.ordered(constraints):
                    held = self._footprinted.get((constraints - {x}, seed))
                    if held is not None and held.footprint.never_blocks(x):
                        found.append((constraints - {x}, constraints))
                        break
            return answer

        with monkeypatch.context() as patch:
            patch.setattr(ParallelExplorer, "_equivalent", spy)
            reproduce(e12, ExplorerConfig(max_attempts=60, base_seed=2),
                      match_output=True)
        return found[0]

    def test_a_plan_seed_one_deeper_is_still_answered(self, e12, monkeypatch):
        source, answered = self._answered_pair(e12, monkeypatch)
        # root, source, answered: no mined child of the first two can be
        # popped, so neither is mined, but the answer still comes from
        # the source's footprint
        config = ExplorerConfig(
            max_attempts=3, base_seed=2, plan_seeds=(source, answered)
        )
        seen, skips = _search(e12, config, True)
        assert skips == 2 and seen[3] == 1
        _never_closed(monkeypatch)
        assert _search(e12, config, True) == (seen, 0)
