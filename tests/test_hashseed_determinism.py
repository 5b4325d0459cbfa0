"""Cross-process determinism: results must not depend on PYTHONHASHSEED.

Reproduction attempt counts feed the published experiment tables, so they
must be identical across interpreter invocations.  Python randomizes
string hashing per process; any result-affecting iteration over a set or
hash-ordered structure would leak that randomness into the numbers (this
regression actually happened: race *ordering* once depended on set
iteration order in the detector).
"""

import os
import subprocess
import sys

import pytest

_SNIPPET = """
from repro import SketchKind, record, reproduce, ExplorerConfig
from repro.apps import get_bug
from repro.analysis import find_races

spec = get_bug("pbzip2-order-free")
rec = record(spec.make_program(), SketchKind.SYS, seed=3, oracle=spec.oracle)
rep = reproduce(rec, ExplorerConfig(max_attempts=400))

from repro.core.recorder import record_with_trace
_, trace = record_with_trace(spec.make_program(), SketchKind.NONE, seed=1)
races = find_races(trace)
race_key = ";".join(f"{r.first.gidx}-{r.second.gidx}" for r in races[:20])

print(f"RESULT {rep.attempts} {rep.total_replay_steps} {race_key}")
"""


#: The E12 recording, searched under ODR-strict matching at a small cap.
#: Op kinds hash by identity, so sets of kinds iterate in an order that
#: follows the address layout of each process rather than PYTHONHASHSEED;
#: the report digest pins that no result depends on that order either.
_E12_SNIPPET = """
import hashlib
from repro import ExplorerConfig, reproduce
from repro.bench.speedup import e12_workload
from repro.core.reproducer import render_report

rec = e12_workload()
rep = reproduce(rec, ExplorerConfig(max_attempts=40, base_seed=1),
                match_output=True)
digest = hashlib.sha1(render_report(rep).encode("utf-8")).hexdigest()
print(f"RESULT {rep.attempts} {rep.total_replay_steps} {digest}")
"""


def _run_with_hashseed(seed: str, snippet: str = _SNIPPET) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            return line
    pytest.fail(f"no RESULT line in output: {proc.stdout!r}")


def test_results_identical_across_hash_seeds():
    results = {_run_with_hashseed(seed) for seed in ("1", "7", "1234")}
    assert len(results) == 1, f"hash-seed-dependent results: {results}"


def test_e12_report_identical_across_processes():
    results = {
        _run_with_hashseed(seed, _E12_SNIPPET) for seed in ("1", "7", "1234")
    }
    assert len(results) == 1, f"process-dependent reports: {results}"
