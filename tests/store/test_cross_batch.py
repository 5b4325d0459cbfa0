"""Warm store reads at another batch size than the store was written at.

An in-process (``jobs=1``) run mines an attempt only when the fold finds
its execution new and its tier open, so the store holds duplicates and
closed-tier executions unmined (``"candidates": null``).  A warm run at another batch size folds in
another order, so an outcome stored unmined may be new there: the
engine re-runs it in-process and mines it.  Either way the warm report
is the one a store-less run at the same settings gives.
"""

import glob
import os
from dataclasses import replace

import pytest

from repro.apps import get_bug
from repro.bench.seeds import find_failing_seed
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SketchKind
from repro.obs.session import ObsSession
from repro.robust.runs import report_signature
from repro.sim import MachineConfig

from tests.conftest import serial_reference

SERIAL = serial_reference()["bugs"]

#: the bugs that explore most before matching under the fixture settings
BUGS = ("mysql-atom-log", "radix-order-rank", "lu-atom-diag", "apache-atom-buf")

#: the settings ``tests/fixtures/serial_signatures.json`` was taken at
CONFIG = ExplorerConfig(max_attempts=25, batch_size=1)

#: (jobs, batch_size) of the warm reads: the pool's auto batch, and a
#: fixed in-process batch of six
WARM = ((2, 0), (1, 6))


def _recorded(bug_id):
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


def _unmined_records(store_dir):
    (shard,) = glob.glob(os.path.join(store_dir, "*", "*", "attempts.jsonl"))
    with open(shard, encoding="utf-8") as handle:
        return handle.read().count('"candidates":null')


def _warm_reads(recorded, store_dir):
    """Warm-read ``store_dir`` at every WARM setting; returns remine count."""
    remines = 0
    for jobs, batch_size in WARM:
        config = replace(CONFIG, batch_size=batch_size)
        obs = ObsSession.create()
        warm = reproduce(recorded, config, jobs=jobs, store=store_dir, obs=obs)
        plain = reproduce(recorded, config, jobs=jobs)
        assert render_report(warm) == render_report(plain), (
            f"jobs={jobs} batch_size={batch_size}"
        )
        assert warm.cache_hits > 0
        remines += sum(1 for s in obs.tracer.spans if s.name == "remine")
    return remines


class TestCrossBatchWarmStore:
    @pytest.mark.parametrize("bug_id", BUGS)
    def test_jobs1_store_warms_other_batch_sizes(self, bug_id, tmp_path):
        recorded = _recorded(bug_id)
        store_dir = str(tmp_path / "store")
        cold = reproduce(recorded, CONFIG, jobs=1, store=store_dir)
        assert report_signature(cold) == SERIAL[bug_id]["feedback"]
        # duplicates and closed-tier executions were never mined, and
        # are stored that way
        assert _unmined_records(store_dir) == (
            cold.duplicate_traces + cold.mine_skips
        )
        _warm_reads(recorded, store_dir)

    def test_unmined_outcomes_that_are_new_are_remined(self, tmp_path):
        # A --no-feedback pass stores every failed attempt unmined, the
        # root attempt the feedback search starts from among them; a
        # feedback run over that store finds those executions new.
        remines = 0
        for bug_id in BUGS:
            recorded = _recorded(bug_id)
            store_dir = str(tmp_path / bug_id)
            reproduce(recorded, CONFIG, jobs=1, store=store_dir,
                      use_feedback=False)
            obs = ObsSession.create()
            cold = reproduce(recorded, CONFIG, jobs=1, store=store_dir, obs=obs)
            assert report_signature(cold) == SERIAL[bug_id]["feedback"]
            remines += sum(1 for s in obs.tracer.spans if s.name == "remine")
            remines += _warm_reads(recorded, store_dir)
        assert remines > 0, "no unmined outcome was ever re-mined"
