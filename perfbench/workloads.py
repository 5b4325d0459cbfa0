"""The benchmark's workloads: inputs from a seed, set-up, timed passes,
output checks.

Every workload is a closed loop: one caller runs diagnosis sessions back
to back, each starting after the previous report returned.  A *pass*
runs every session of the workload once; the runner repeats passes until
the measuring time is used up, and every pass of one run must produce
exactly the same reports and counts as the first.

The workload seed picks the inputs — the order of the suite's sessions,
and the search sessions' ``ExplorerConfig.base_seed`` — within limits
that keep the work of one run the same size; the program only ever sees
the generated recordings and configs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro import (
    SKETCH_ORDER,
    ExplorerConfig,
    Machine,
    MachineConfig,
    ObsSession,
    RandomScheduler,
    SketchKind,
    record,
    replay_complete,
    reproduce,
)
from repro.apps.registry import ALL_BUG_IDS, get_bug
from repro.core.recorder import apply_oracle
from repro.core.reproducer import render_report
from repro.obs.session import NULL_SESSION

from hostspeed import HostSpeed
from layers import FULL_REPLAY, RECORD, REPRODUCE, SpanLog

#: simulated CPUs for every production run (the paper's 4-core setting)
NCPUS = 4
#: suite: failing production runs diagnosed per bug, the first ones
SUITE_RUNS = 2
#: suite: attempt cap per session (the paper-evaluation cap of E3)
SUITE_MAX_ATTEMPTS = 400
#: search*: the E12 recording — radix sort's rank-order bug at this size
#: under ODR-strict output matching walks a long frontier
SEARCH_BUG = "radix-order-rank"
SEARCH_PARAMS: Dict[str, int] = {"workers": 5, "seg": 6}
SEARCH_MAX_ATTEMPTS = 300
#: search*: sessions per pass, each with its own base seed
SEARCH_SESSIONS = 2
#: search*: the base seeds a run picks from.  On the E12 recording each
#: of these walks the full attempt cap, in 71k-75k replay steps, so every
#: run measures the same long frontier walk at the same input size.
#: Others differ in kind: base seed 5 reproduces on attempt 3, and 8, 11
#: and 1003 walk 81k-85k steps.
SEARCH_BASE_SEEDS = (
    0, 1, 2, 3, 7, 9, 10, 17, 77, 123, 999, 2003, 3003, 4242, 31337,
)
#: search*: rounds of the six recordings in each set; one round is too
#: little recording time to time steadily
SEARCH_RECORD_ROUNDS = 3
#: search-pool: replay workers
POOL_JOBS = 2
#: search-pool: seconds of back-to-back host probes after each session
POOL_RESAMPLE_S = 0.25
#: any failing seed search that scans this many schedules gives up
SEED_BUDGET = 3000


def failing_seeds(spec: Any, count: int, **params: Any) -> List[int]:
    """The first ``count`` scheduler seeds whose production run fails.

    Plain simulation under the random "OS" scheduler; deliberately not
    memoized, so every set-up pays the full search.
    """
    found: List[int] = []
    for seed in range(SEED_BUDGET):
        trace = Machine(
            spec.make_program(**params), RandomScheduler(seed),
            MachineConfig(ncpus=NCPUS),
        ).run()
        if apply_oracle(trace, spec.oracle) is not None:
            found.append(seed)
            if len(found) == count:
                return found
    raise RuntimeError(
        f"{spec.bug_id}: fewer than {count} failing runs in {SEED_BUDGET} seeds"
    )


def report_digest(report: Any) -> str:
    return hashlib.sha256(render_report(report).encode("utf-8")).hexdigest()


@dataclass
class Session:
    """One diagnosis session: a timed ``reproduce()`` and its checks."""

    label: str
    #: wall seconds of the timed ``reproduce()`` (the cold one on
    #: search-store)
    reproduce_s: float
    steps: int
    reproduced: bool
    #: exact identity of the session, compared across passes
    signature: Tuple[Any, ...]
    failures: List[str] = field(default_factory=list)
    #: program-side observability sessions (traced passes only)
    obs: List[ObsSession] = field(default_factory=list)
    report: Any = None
    #: wall seconds of the warm-store ``reproduce()`` (search-store only)
    warm_s: float = 0.0
    #: bytes the attempt store held after the cold pass (search-store)
    store_bytes: int = 0


@dataclass
class Recordings:
    """Exact stats of a series of ``record()`` calls."""

    events: int = 0
    entries: int = 0
    log_bytes: int = 0
    recorded_time: int = 0
    native_time: int = 0

    def add(self, recorded: Any) -> None:
        stats = recorded.stats
        self.events += stats.total_events
        self.entries += stats.logged_entries
        self.log_bytes += stats.log_bytes
        self.recorded_time += stats.recorded_time
        self.native_time += stats.native_time


@dataclass
class PassResult:
    """What one pass — or one set-up — timed."""

    sessions: List[Session] = field(default_factory=list)
    #: wall seconds of each ``record()`` call, in call order
    record_s: List[float] = field(default_factory=list)
    recordings: Recordings = field(default_factory=Recordings)
    #: wall seconds of every timed call (record, reproduce, replay)
    timed_s: float = 0.0


def _new_obs(traced: bool) -> Optional[ObsSession]:
    return ObsSession.create(trace=True, metrics=True) if traced else None


class Workload:
    """Set-up state and the timed calls into the program.

    :meth:`setup` and :meth:`run_pass` file what they time in the
    result :meth:`begin` opened before each of them.
    """

    name = ""

    def __init__(self, seed: int, log: SpanLog, speed: HostSpeed,
                 workdir: str) -> None:
        self.seed = seed
        self.log = log
        self.speed = speed
        self.workdir = workdir
        self.current = PassResult()

    def begin(self) -> PassResult:
        self.current = PassResult()
        return self.current

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed reference results the output checks compare against."""

    def run_pass(self, traced: bool) -> None:
        raise NotImplementedError

    def timed_record(self, obs: Optional[ObsSession], spec: Any,
                     sketch: SketchKind, seed: int, **params: Any) -> Any:
        program = spec.make_program(**params)
        with self.log.span(RECORD):
            started = self.clock()
            recorded = record(
                program, sketch=sketch, seed=seed,
                config=MachineConfig(ncpus=NCPUS), oracle=spec.oracle,
                obs=NULL_SESSION if obs is None else obs,
            )
            elapsed = self.clock() - started
        self.current.record_s.append(elapsed)
        self.current.recordings.add(recorded)
        self.current.timed_s += elapsed
        return recorded

    def timed_reproduce(self, recorded: Any, config: ExplorerConfig,
                        obs: Optional[ObsSession],
                        **kwargs: Any) -> Tuple[Any, float]:
        with self.log.span(REPRODUCE):
            started = self.clock()
            report = reproduce(recorded, config, obs=obs, **kwargs)
            elapsed = self.clock() - started
        self.current.timed_s += elapsed
        return report, elapsed

    def timed_replay(self, recorded: Any, report: Any, oracle: Any) -> Any:
        with self.log.span(FULL_REPLAY):
            started = self.clock()
            trace = replay_complete(
                recorded.program, report.complete_log, oracle=oracle
            )
            self.current.timed_s += self.clock() - started
        return trace

    def clock(self) -> float:
        """Wall seconds, less the time spent probing the host."""
        return time.perf_counter() - self.speed.spent


class Suite(Workload):
    """Every bug x every sketch level x the bug's first two failing
    production runs; each session records, reproduces (serial, default
    matching, base seed 0) and replays the winner's complete log.

    The seed only shuffles the order of the 156 sessions.  Letting it
    pick other failing runs or base seeds changes which sessions form the
    slow tail: across seeds 1-5 that moved ``reproduce_s.p90`` by 43%
    (quartile spread over median) against 8% between runs of one seed.
    """

    name = "suite"

    def setup(self) -> None:
        plan = [
            (get_bug(bug_id), production_seed, sketch)
            for bug_id in ALL_BUG_IDS
            for production_seed in failing_seeds(get_bug(bug_id), SUITE_RUNS)
            for sketch in SKETCH_ORDER
        ]
        Random(self.seed).shuffle(plan)
        self.plan = plan

    def run_pass(self, traced: bool) -> None:
        config = ExplorerConfig(max_attempts=SUITE_MAX_ATTEMPTS)
        for spec, production_seed, sketch in self.plan:
            self.session(spec, production_seed, sketch, config, traced)

    def session(self, spec: Any, production_seed: int, sketch: SketchKind,
                config: ExplorerConfig, traced: bool) -> None:
        obs = _new_obs(traced)
        recorded = self.timed_record(obs, spec, sketch, production_seed)
        report, reproduce_s = self.timed_reproduce(recorded, config, obs)
        label = f"{spec.bug_id}/{production_seed}/{sketch.value}"
        session = Session(
            label=label, reproduce_s=reproduce_s,
            steps=report.total_replay_steps, reproduced=report.success,
            signature=(
                report_digest(report), recorded.stats.log_bytes,
                recorded.stats.recorded_time, recorded.stats.native_time,
            ),
            obs=[] if obs is None else [obs], report=report,
        )
        if not report.success:
            session.failures.append(
                f"{label}: not reproduced within {SUITE_MAX_ATTEMPTS} attempts"
            )
        else:
            trace = self.timed_replay(recorded, report, spec.oracle)
            if (
                trace.failure is None
                or not recorded.failure.matches(trace.failure)
            ):
                session.failures.append(
                    f"{label}: the complete log does not re-trigger the "
                    "recorded failure"
                )
        self.current.sessions.append(session)


def search_session(label: str, report: Any, reproduce_s: float,
                   *obs: Optional[ObsSession], **fields: Any) -> Session:
    """A search session, identified across passes by its report."""
    return Session(
        label=label, reproduce_s=reproduce_s,
        steps=report.total_replay_steps, reproduced=report.success,
        signature=(report_digest(report),),
        obs=[o for o in obs if o is not None], report=report, **fields,
    )


class Search(Workload):
    """The E12 recording searched serially under ODR-strict matching: a
    long forced frontier walk on the serial explorer."""

    name = "search"

    def setup(self) -> None:
        """Find and record the E12 production run: the first failing one."""
        spec = get_bug(SEARCH_BUG)
        self.production = failing_seeds(spec, 1, **SEARCH_PARAMS)[0]
        recorded = self.timed_record(
            None, spec, SketchKind.SYNC, self.production, **SEARCH_PARAMS
        )
        self.inputs = [
            (
                f"{SEARCH_BUG}/{self.production}/base{base_seed}", recorded,
                ExplorerConfig(
                    max_attempts=SEARCH_MAX_ATTEMPTS, base_seed=base_seed
                ),
            )
            for base_seed in Random(self.seed).sample(
                SEARCH_BASE_SEEDS, SEARCH_SESSIONS
            )
        ]

    def run_pass(self, traced: bool) -> None:
        for label, recorded, config in self.inputs:
            self.record_levels()
            self.current.sessions.append(
                self.session(label, recorded, config, traced)
            )
        self.record_levels()

    def record_levels(self) -> None:
        """Record the production run again at every sketch level, as the
        suite records, so the recorder is timed on this program too.  A
        set runs before each session and after the last, spreading the
        short recordings over the pass; the sessions search the set-up's
        recording."""
        spec = get_bug(SEARCH_BUG)
        for _ in range(SEARCH_RECORD_ROUNDS):
            for sketch in SKETCH_ORDER:
                self.timed_record(
                    None, spec, sketch, self.production, **SEARCH_PARAMS
                )

    def session(self, label: str, recorded: Any, config: ExplorerConfig,
                traced: bool) -> Session:
        obs = _new_obs(traced)
        report, reproduce_s = self.timed_reproduce(
            recorded, config, obs, match_output=True
        )
        return search_session(label, report, reproduce_s, obs)


class _Checked(Search):
    """A search variant whose reports must equal the serial search's."""

    def prepare_checks(self) -> None:
        self.references = {
            label: render_report(
                reproduce(recorded, config, match_output=True)
            )
            for label, recorded, config in self.inputs
        }

    def check(self, session: Session, what: str) -> Session:
        if render_report(session.report) != self.references[session.label]:
            session.failures.append(
                f"{session.label}: {what} report differs from the serial report"
            )
        return session


class SearchStore(_Checked):
    """The search session through a fresh attempt store (cold pass: every
    outcome written, batch engine in-process with prefix resume), then
    the same session answered from the warm store."""

    name = "search-store"

    def setup(self) -> None:
        super().setup()
        self.store_root = tempfile.mkdtemp(prefix="store-", dir=self.workdir)

    def session(self, label: str, recorded: Any, config: ExplorerConfig,
                traced: bool) -> Session:
        store = tempfile.mkdtemp(dir=self.store_root)
        try:
            cold_obs = _new_obs(traced)
            cold, cold_s = self.timed_reproduce(
                recorded, config, cold_obs, match_output=True, store=store
            )
            store_bytes = tree_bytes(store)
            warm_obs = _new_obs(traced)
            warm, warm_s = self.timed_reproduce(
                recorded, config, warm_obs, match_output=True, store=store
            )
        finally:
            shutil.rmtree(store)
        session = search_session(
            label, cold, cold_s, cold_obs, warm_obs,
            warm_s=warm_s, store_bytes=store_bytes,
        )
        if render_report(warm) != render_report(cold):
            session.failures.append(
                f"{label}: warm-store report differs from the cold report"
            )
        return self.check(session, "cold-store")


class SearchPool(_Checked):
    """The search session on a process pool of replay workers."""

    name = "search-pool"

    def session(self, label: str, recorded: Any, config: ExplorerConfig,
                traced: bool) -> Session:
        obs = _new_obs(traced)
        # The workers use the cores, so the host is probed between
        # sessions instead of during them.
        with self.speed.paused(resample_s=POOL_RESAMPLE_S):
            report, reproduce_s = self.timed_reproduce(
                recorded, config, obs, match_output=True, jobs=POOL_JOBS
            )
            # The engine shuts its pool down without joining; join the
            # workers here, untimed, so none competes with what follows.
            for child in multiprocessing.active_children():
                child.join()
        return self.check(
            search_session(label, report, reproduce_s, obs), "pool"
        )


def tree_bytes(root: str) -> int:
    """Total size of the regular files under ``root``."""
    total = 0
    for entry in sorted(os.scandir(root), key=lambda e: e.name):
        if entry.is_dir(follow_symlinks=False):
            total += tree_bytes(entry.path)
        elif entry.is_file(follow_symlinks=False):
            total += entry.stat().st_size
    return total


WORKLOADS = {w.name: w for w in (Suite, Search, SearchStore, SearchPool)}
