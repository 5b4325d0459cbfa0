"""The one rung walk behind the degradation and epoch ladders.

An interrupted walk must describe the *walk*, not the rung it stopped
in: ``report.attempts`` totals every rung, and the outcome reason counts
the same attempts.
"""

from repro.apps import get_bug
from repro.core import parallel
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import (
    degradation_ladder,
    epoch_replay_ladder,
    reproduce_degraded,
    reproduce_windowed,
    split_rung_budgets,
)
from repro.core.sketches import SketchKind
from repro.sim.trace import Trace

from tests.core.test_epochs import failing_epoch_record

BUDGET = 20


def _interrupt_at(monkeypatch, call):
    """Make every attempt fail, and the ``call``-th raise KeyboardInterrupt."""
    calls = []

    def runner(ctx, constraints, seed, resume=None, tree=None):
        calls.append(seed)
        if len(calls) == call:
            raise KeyboardInterrupt
        return Trace(program_name="stub", steps=5), False

    monkeypatch.setattr(parallel, "run_attempt", runner)


def _check_interrupted_in_second_rung(report, path, first_budget):
    assert report.interrupted
    assert not report.success
    assert len(path) == 2
    assert path[0].attempts == first_budget
    # the second rung folded one attempt before the interrupt
    assert path[1].attempts == 1
    assert report.attempts == first_budget + 1 == len(report.records)
    assert report.outcome_reason == (
        f"interrupted after {report.attempts} attempt(s); partial results only"
    )


class TestInterruptedWalk:
    def test_degraded_walk_reason_counts_every_rung(self, monkeypatch):
        spec = get_bug("pbzip2-order-free")
        recorded = record(spec.make_program(), sketch=SketchKind.RW, seed=3)
        assert recorded.failed
        budgets = split_rung_budgets(
            BUDGET, len(degradation_ladder(recorded.sketch))
        )
        assert budgets[1] >= 2
        _interrupt_at(monkeypatch, budgets[0] + 2)
        report = reproduce_degraded(
            recorded, config=ExplorerConfig(max_attempts=BUDGET)
        )
        _check_interrupted_in_second_rung(
            report, report.degradation_path, budgets[0]
        )

    def test_epoch_walk_reason_counts_every_rung(self, monkeypatch):
        recorded = failing_epoch_record(5, 2)
        rungs = len(epoch_replay_ladder(recorded))
        assert rungs >= 2
        budgets = split_rung_budgets(BUDGET, rungs)
        assert budgets[1] >= 2
        _interrupt_at(monkeypatch, budgets[0] + 2)
        report = reproduce_windowed(
            recorded, ExplorerConfig(max_attempts=BUDGET)
        )
        _check_interrupted_in_second_rung(report, report.epoch_path, budgets[0])
